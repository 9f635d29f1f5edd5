"""Traced run: timing wrappers at layer boundaries and a self-time table.

The wrappers live here, in the benchmark, not in ``src/``: :class:`Tracer`
patches the public functions each layer exposes (listed in
:func:`_boundaries`) for the length of the traced phase and records one
interval per call.  The program's own spans, read through the public
``repro.obs`` API (``start_trace`` / ``stop_trace``; pool workers ship
theirs back with each result), are merged into the same per-thread
interval forest.  A node's *self* time is its duration minus the part its
child nodes cover, so the layer self times plus the ``unattributed``
remainder (time inside an operation that no boundary covers) sum to the
traced operation total by construction.

Pool workers run in parallel with a blocked parent: the worker time on
the critical path of a pooled ``fork_map`` (the busiest worker's summed
span time, capped at the map's own self time) moves from ``util.pool`` to
the layer of the worker spans, so the table stays a wall-clock split of
the caller's time.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

#: Layers of the self-time table, in print order.
LAYERS = (
    "api", "sage", "mint", "util.pool", "accelerator", "formats",
    "workloads", "serve", "unattributed",
)

#: Program span name prefix -> layer.
SPAN_LAYERS = {
    "api": "api", "sage": "sage", "mint": "mint", "pool": "util.pool",
    "accel": "accelerator", "serve": "serve",
}


def _boundaries():
    """(owner, attribute, layer, node name) of every wrapped boundary."""
    from repro.accelerator import simulator
    from repro.api import session
    from repro.formats.base import MatrixFormat
    from repro.errors import FormatError
    from repro.formats.registry import Format, matrix_class
    from repro.mint.cost import PathPlanner
    from repro.mint.engine import MintEngine
    from repro.sage import predictor
    from repro.serve import wire
    from repro.serve.client import ServeClient
    from repro.workloads import synthetic

    out = [
        (session.Session, "predict", "api", "Session.predict"),
        (session.Session, "run", "api", "Session.run"),
        (predictor.Sage, "predict", "sage", "Sage.predict"),
        (predictor.Sage, "predict_matrix", "sage", "Sage.predict_matrix"),
        (predictor.Sage, "predict_tensor", "sage", "Sage.predict_tensor"),
        (predictor.Sage, "predict_many", "sage", "Sage.predict_many"),
        (predictor, "fork_map", "util.pool", "fork_map"),
        (simulator, "fork_map", "util.pool", "fork_map"),
        (simulator.WeightStationarySimulator, "simulate_many", "accelerator",
         "simulate_many"),
        (simulator.WeightStationarySimulator, "run_gemm", "accelerator",
         "run_gemm"),
        (MintEngine, "convert", "mint", "MintEngine.convert"),
        (PathPlanner, "estimate", "mint", "PathPlanner.estimate"),
        (PathPlanner, "route", "mint", "PathPlanner.route"),
        (synthetic, "random_sparse_matrix", "workloads", "random_sparse_matrix"),
        (predictor, "random_sparse_matrix", "workloads", "random_sparse_matrix"),
        (session, "random_sparse_matrix", "workloads", "random_sparse_matrix"),
        (ServeClient, "predict", "serve", "ServeClient.predict"),
        (wire, "read_frame", "serve", "wire.read_frame"),
    ]
    classes = set()
    for fmt in Format:
        try:
            classes.add(matrix_class(fmt))
        except FormatError:
            continue
    stack = list(MatrixFormat.__subclasses__())
    while stack:
        cls = stack.pop()
        classes.add(cls)
        stack.extend(cls.__subclasses__())
    for cls in sorted(classes, key=lambda c: c.__name__):
        if "from_dense" in cls.__dict__:
            out.append((cls, "from_dense", "formats", "from_dense"))
    return out


class Tracer:
    """Installs the boundary wrappers and collects their call intervals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        #: (start_s, end_s, tid, layer, name) per wrapped call.
        self.intervals: list[tuple[float, float, int, str, str]] = []
        #: Reply ``outcome`` labels seen by clients, by label.
        self.labels: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------ install
    def install(self) -> None:
        for owner, attr, layer, name in _boundaries():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer, name))
            else:
                wrapped = self._wrap(original, layer, name)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: str, name: str):
        record = self.intervals.append
        clock = time.perf_counter
        labels = self.labels
        lock = self._lock
        pid = os.getpid()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if os.getpid() == pid:  # forked pool workers keep quiet
                    record((t0, clock(), threading.get_ident(), layer, name))
            if name == "wire.read_frame" and isinstance(result, dict):
                outcome = result.get("outcome")
                if outcome is not None:
                    with lock:
                        labels[outcome] += 1
            return result

        return wrapper


def _nodes(tracer: Tracer, events: list[dict], ops: list[tuple]) -> list[dict]:
    """All intervals of this process as nodes (times in seconds)."""
    pid = os.getpid()
    nodes = [
        {"t0": t0, "t1": t1, "tid": tid, "layer": "op", "name": "op"}
        for t0, t1, tid in ops
    ]
    nodes += [
        {"t0": t0, "t1": t1, "tid": tid, "layer": layer, "name": name}
        for t0, t1, tid, layer, name in tracer.intervals
    ]
    for event in events:
        if event.get("ph") != "X" or event.get("pid") != pid:
            continue
        layer = SPAN_LAYERS.get(event["name"].split(".", 1)[0])
        if layer is None:
            continue
        t0 = event["ts"] / 1e6
        nodes.append({"t0": t0, "t1": t0 + event["dur"] / 1e6,
                      "tid": event["tid"], "layer": layer,
                      "name": event["name"]})
    return nodes


def _forest(nodes: list[dict]) -> list[dict]:
    """Nest nodes per thread by containment; fill ``children``/``self``."""
    roots = []
    by_thread: dict[int, list[dict]] = defaultdict(list)
    for node in nodes:
        node["children"] = []
        by_thread[node["tid"]].append(node)
    for thread_nodes in by_thread.values():
        thread_nodes.sort(key=lambda n: (n["t0"], -n["t1"]))
        stack: list[dict] = []
        for node in thread_nodes:
            while stack and stack[-1]["t1"] <= node["t0"]:
                stack.pop()
            if stack and node["t1"] <= stack[-1]["t1"]:
                stack[-1]["children"].append(node)
            else:
                stack.clear()
                roots.append(node)
            stack.append(node)
    for root in roots:
        for node in _walk(root):
            covered = sum(c["t1"] - c["t0"] for c in node["children"])
            node["self"] = max(0.0, node["t1"] - node["t0"] - covered)
    return roots


def _walk(node: dict):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current["children"])


def _worker_critical_path(fork_node: dict, worker_events: list[dict]) -> tuple[float, str]:
    """Busiest worker's span seconds inside one pooled fork_map node."""
    per_pid: dict[int, float] = defaultdict(float)
    layer = "accelerator"
    for event in worker_events:
        t0 = event["ts"] / 1e6
        if fork_node["t0"] <= t0 <= fork_node["t1"]:
            per_pid[event["pid"]] += event["dur"] / 1e6
            layer = SPAN_LAYERS.get(event["name"].split(".", 1)[0], layer)
    return (max(per_pid.values()) if per_pid else 0.0), layer


def analyse(tracer: Tracer, events: list[dict], ops: list[tuple]) -> dict:
    """Self-time split of the traced operations.

    ``ops`` holds one ``(start_s, end_s, thread_id)`` per traced operation.
    Returns per-layer self seconds (``layers``), the operation total, and
    the node forest for sub-boundary metrics.
    """
    pid = os.getpid()
    roots = [r for r in _forest(_nodes(tracer, events, ops)) if r["layer"] == "op"]
    # Worker spans: only each worker's outermost spans count toward its
    # busy time (a worker's nested spans are inside them).
    worker_events = [
        e for e in events
        if e.get("ph") == "X" and e.get("pid") != pid
        and e["name"].split(".", 1)[0] in SPAN_LAYERS
    ]
    worker_events = _outermost(worker_events)
    layers: dict[str, float] = defaultdict(float)
    for root in roots:
        for node in _walk(root):
            layer = "unattributed" if node["layer"] == "op" else node["layer"]
            layers[layer] += node["self"]
            if node["name"] == "pool.fork_map" and worker_events:
                crit, worker_layer = _worker_critical_path(node, worker_events)
                moved = min(crit, node["self"])
                layers["util.pool"] -= moved
                layers[worker_layer] += moved
    total = sum(r["t1"] - r["t0"] for r in roots)
    return {
        "layers": {layer: layers.get(layer, 0.0) for layer in LAYERS},
        "total": total,
        "ops": len(roots),
        "roots": roots,
        "worker_events": worker_events,
    }


def _outermost(events: list[dict]) -> list[dict]:
    """Drop worker spans nested inside another span of the same thread."""
    out = []
    by_thread: dict[tuple, list[dict]] = defaultdict(list)
    for event in events:
        by_thread[(event["pid"], event["tid"])].append(event)
    for thread_events in by_thread.values():
        thread_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        end = -1.0
        for event in thread_events:
            if event["ts"] >= end:
                out.append(event)
                end = event["ts"] + event["dur"]
    return out


def inclusive(analysis: dict, names: tuple[str, ...]) -> float:
    """Summed duration of the outermost nodes named in *names*."""
    total = 0.0
    for root in analysis["roots"]:
        stack = [root]
        while stack:
            node = stack.pop()
            if node["name"] in names:
                total += node["t1"] - node["t0"]
            else:
                stack.extend(node["children"])
    return total


def self_time(analysis: dict, *, layers=(), names=(), inside=None, skip=()) -> float:
    """Summed self time of nodes in *layers* or named in *names*.

    ``inside`` restricts the sum to subtrees rooted at nodes of that name;
    subtrees rooted at a node named in *skip* are left out.
    """
    total = 0.0
    pending = [(root, inside is None) for root in analysis["roots"]]
    while pending:
        node, active = pending.pop()
        if node["name"] in skip:
            continue
        active = active or node["name"] == inside
        if active and (node["layer"] in layers or node["name"] in names):
            total += node["self"]
        pending.extend((child, active) for child in node["children"])
    return total


def table(name: str, analysis: dict) -> str:
    """The printed self-time table of one workload."""
    ops = max(1, analysis["ops"])
    total = analysis["total"]
    lines = [f"self time per operation, {name} ({analysis['ops']} traced ops)"]
    for layer, seconds in analysis["layers"].items():
        share = seconds / total if total else 0.0
        lines.append(f"  {layer:<13} {seconds / ops * 1e3:10.3f} ms  {share:7.1%}")
    summed = sum(analysis["layers"].values())
    lines.append(f"  {'sum':<13} {summed / ops * 1e3:10.3f} ms")
    lines.append(f"  {'op total':<13} {total / ops * 1e3:10.3f} ms")
    return "\n".join(lines)
