"""Workload runners: set-up, fixed-count closed loops, resources and gate.

One :class:`Bench` subclass per workload.  The measuring process calls
``setup()`` (imports, ``Session`` or server start, the first request),
``prime()`` (a fixed, untimed request count, where a workload has one),
then runs its fixed operation list through the public ``Session`` calls
only, reads CPU time and peak memory of every process the workload runs,
and hands the results to the correctness gate.  ``--trace 1`` splits the
same list into an untraced and a traced half (see ``tracing.py``).
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import selectors
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import PredictOptions, RunOptions, Session
from repro.api.backends import LocalBackend
from repro.mint.cost import shared_planner
from repro.obs import registry, start_trace, stop_trace
from repro.obs.metrics import labeled_series
from repro.sage.calibrate import GRIDS, build_table, load_table
from repro.sage.predictor import Sage
from repro.serve import ServeClient
from repro.util.shm import active_operand_segments
from repro.workloads.spec import Kernel
from repro.xp.artifacts import ArtifactStore

import gate
import tracing
from workloads import (
    CYCLE_BLOCK, PREDICT_BLOCK, agreement_suite, cycle_first_request, cycle_ops,
    density_decade, identity, predict_ops, prime_ops, serve_first_requests,
    serve_ops,
)

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_GRID = "smoke"
#: Samples beyond the tail percentile (the highest percentile with at
#: least this many samples beyond it is reported).
TAIL_BEYOND = 10

_TICK = os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------- calibration
def build_calibration(store: Path) -> float:
    """Build the calibration table into *store* (``repro calibrate``).

    Every run builds its own from the checkout's sources, untimed, so a
    change to the calibration or the simulator is measured with its own
    table.  Returns the build time (``sage.calibration_build_s``).
    """
    t0 = time.perf_counter()
    build_table(GRIDS[CALIBRATION_GRID], store=ArtifactStore(store))
    return time.perf_counter() - t0


def load_calibration(store: Path):
    table = load_table(ArtifactStore(store))
    if table is None:
        raise RuntimeError(f"no calibration table in {store}")
    return table


# --------------------------------------------------------------- resources
def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_peak_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def cpu_seconds(pids: list[int]) -> float:
    """User+system CPU of this process, its reaped children and *pids*."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            + sum(_proc_cpu_seconds(pid) for pid in pids))


def peak_rss_mb(pids: list[int]) -> float:
    """Peak RSS of this process, its largest reaped child and *pids*."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024 + sum(_proc_peak_mb(pid) for pid in pids)


def host_ref_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python plus numpy loop: the host's speed.

    Timed before and after every run, so host drift can be told apart from
    a program change without rerunning.
    """
    matrix = np.random.default_rng(0).random((192, 192))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        out = matrix
        for _ in range(20):
            out = np.sort(out, axis=1) + out.T * 0.5
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# ------------------------------------------------------------- timed loop
@dataclass
class Record:
    client: int
    index: int
    item: object
    result: object
    error: str | None
    t0: float
    t1: float
    tid: int


@dataclass
class Phase:
    records: list[Record]
    elapsed: float

    @property
    def ok(self) -> list[Record]:
        return [r for r in self.records if r.error is None]


def run_phase(bench: "Bench", lists: list[list], first: int = 0) -> Phase:
    """Closed loop: client *i* sends ``lists[i]`` in order, one at a time.

    *first* is the position of each list's head in the run's operation list.
    """
    records: list[Record] = []

    def client(slot: int) -> None:
        for index, item in enumerate(lists[slot], start=first):
            t0 = time.perf_counter()
            try:
                result, error = bench.op(slot, item), None
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if error is None:
                result = bench.keep(slot, index, item, result)
            records.append(Record(slot, index, item, result, error, t0, t1,
                                  threading.get_ident()))

    start = time.perf_counter()
    if len(lists) == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(len(lists))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    records.sort(key=lambda r: (r.client, r.index))
    return Phase(records, time.perf_counter() - start)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]


def tail_pct(samples: int) -> int:
    """The highest whole percentile with :data:`TAIL_BEYOND` samples beyond."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / samples)))


# ------------------------------------------------------------------ benches
class Bench:
    """One workload: a fixed operation list, a set-up, an op and a gate."""

    name = ""
    #: Nominal operations per second: turns ``--seconds`` into the run's
    #: fixed operation count, never by measuring the host.
    rate = 1.0
    #: The count is a whole number of these (twice: the traced run halves
    #: it), so every run has the stream's full mix.
    block = 1
    #: Untimed priming requests after set-up (none by default).
    prime_count = 0

    def __init__(self, seed: int, store: Path | None = None) -> None:
        self.seed = seed
        #: The run's calibration store (see :func:`build_calibration`).
        self.store = store

    def count(self, seconds: float, short: bool = False) -> int:
        if short:
            return 2 * min(self.block, 6)
        return max(1, round(seconds * self.rate / (2 * self.block))) * 2 * self.block

    def lists(self, count: int) -> list[list]:
        """The run's operations, per client."""
        raise NotImplementedError

    def setup(self) -> None:
        """Everything up to the first ready operation, that one included."""
        raise NotImplementedError

    def prime(self) -> None:
        """Untimed, after ``setup()``: :attr:`prime_count` fixed requests."""

    def op(self, slot: int, item):
        raise NotImplementedError

    def keep(self, slot: int, index: int, item, result):
        """What the gate and the metrics need of one result.

        Runs between operations, outside their timing; keeping every full
        result would grow the process with the run length and skew
        ``peak_rss_mb``.
        """
        return result

    def workload(self, item):
        return item

    def external_pids(self) -> list[int]:
        return []

    def check(self, records: list[Record]) -> list[str]:
        """Gate the timed results; one message per mismatching op."""
        raise NotImplementedError

    def agreement_sample(self, records: list[Record]) -> list[tuple]:
        """``(workload, cycle_decision_or_None)`` behind ``top1_agreement``.

        A workload that makes no cycle decisions of its own uses a fixed
        suite: drawn from the run, two dozen workloads left the ratio to
        chance.
        """
        return [(workload, None) for workload in agreement_suite()]

    def tiers(self, records: list[Record]) -> dict:
        """Untimed: the three tiers' winners on :meth:`agreement_sample`."""
        return gate.tier_agreement(self.agreement_sample(records),
                                   Sage(calibration=load_calibration(self.store)),
                                   os.cpu_count() or 1)

    def close(self) -> None:
        if hasattr(self, "session"):
            self.session.close()

    def api_cache_hits(self) -> tuple[int, int]:
        """(hits, lookups) of the session's in-process decision caches."""
        stats = self.session.backend.cache_stats().values()
        hits = sum(s["hits"] + s["near_hits"] for s in stats)
        return hits, hits + sum(s["misses"] for s in stats)

    def serve_stats(self) -> dict | None:
        return None


class PredictLocal(Bench):
    name = "predict_local"
    rate = 24.0
    block = len(PREDICT_BLOCK)
    #: Decisions checked against the oracle: the run's first ones (the
    #: oracle costs as much as the predictor).
    oracle_limit = 4 * len(PREDICT_BLOCK)
    #: The MINT planner's route cache starts empty in every process and
    #: costs first requests up to 1.6x more; a long-lived session has it
    #: warm, so these untimed requests (the same for every seed) warm it.
    prime_count = 10 * len(PREDICT_BLOCK)

    def lists(self, count):
        return [predict_ops(self.seed, count)]

    def setup(self):
        self.session = Session(LocalBackend(Sage(calibration=load_calibration(self.store))))
        workload, tier = prime_ops(1)[0]
        self.session.predict(workload, fidelity=tier)

    def prime(self):
        for item in prime_ops(self.prime_count + 1)[1:]:
            self.op(0, item)

    def op(self, slot, item):
        workload, tier = item
        return self.session.predict(workload, fidelity=tier)

    def workload(self, item):
        return item[0]

    def keep(self, slot, index, item, result):
        return result if index < self.oracle_limit else None

    def check(self, records):
        sage = Sage(calibration=load_calibration(self.store))
        problems = []
        for record in records:
            if record.result is None:
                continue
            workload, tier = record.item
            problem = gate.check_predict(record.result, workload, tier, sage)
            if problem:
                problems.append(f"{workload.name}: {problem}")
        return problems


@dataclass
class RunDigest:
    """The parts of a ``RunResult`` the gate and the metrics read."""

    decision: object
    verified: bool | None
    sim_scale: float
    hops: int


class RunCycle(Bench):
    name = "run_cycle"
    rate = 3.5
    block = len(CYCLE_BLOCK)
    #: Cycle decisions recomputed with the simulator in-process.
    recompute_limit = 3

    def lists(self, count):
        return [cycle_ops(self.seed, count)]

    def setup(self):
        self.session = Session()
        self.options = RunOptions(predict=PredictOptions(fidelity="cycle"))
        self.session.run(cycle_first_request(), self.options)

    def op(self, slot, item):
        return self.session.run(item, self.options)

    def keep(self, slot, index, item, result):
        return RunDigest(
            decision=result.decision,
            verified=result.verified,
            sim_scale=result.sim_scale,
            hops=len(result.conversion_a.path) + len(result.conversion_b.path),
        )

    def check(self, records):
        ok = [r for r in records if r.error is None]
        problems = [f"{r.item.name}: run not verified"
                    for r in ok if r.result.verified is not True]
        sage = Sage()
        with gate.sequential_simulator():
            for record in ok[: self.recompute_limit]:
                fresh = sage.predict(record.item, fidelity="cycle")
                if fresh.to_wire() != record.result.decision.to_wire():
                    problems.append(f"{record.item.name}: cycle decision differs "
                                    f"from a sequential recompute")
        return problems

    def agreement_sample(self, records):
        return [(r.item, r.result.decision) for r in records if r.error is None]


class ServeZipf(Bench):
    name = "serve_zipf"
    rate = 25.0
    #: Gate: each client's first this many misses and hits (exact answers)
    #: are compared with a local session's decision.
    exact_sample = {"miss": 8, "hit": 4}

    def __init__(self, seed: int, store: Path | None = None) -> None:
        super().__init__(seed, store)
        self.clients = os.cpu_count() or 1
        self.block = self.clients
        self.proc: subprocess.Popen | None = None

    def lists(self, count):
        lists = serve_ops(self.seed, self.clients, count // self.clients)
        self.sample = set()
        for slot, ops in enumerate(lists):
            for kind, limit in self.exact_sample.items():
                picked = [i for i, op in enumerate(ops) if op.kind == kind][:limit]
                self.sample.update((slot, i) for i in picked)
        return lists

    def setup(self):
        self.proc, self.host, self.port = start_server()
        url = f"tcp://{self.host}:{self.port}"
        self.sessions = [Session(url) for _ in range(self.clients)]
        for session, workload in zip(self.sessions, serve_first_requests(self.clients)):
            session.predict(workload)

    def op(self, slot, item):
        return self.sessions[slot].predict(item.workload)

    def workload(self, item):
        return item.workload

    def keep(self, slot, index, item, result):
        problem = gate.check_served(result)
        if problem:
            return problem
        return result.to_wire() if (slot, index) in self.sample else None

    def external_pids(self):
        if not hasattr(self, "pids"):
            self.pids = [self.proc.pid] + [
                shard["pid"] for shard in self.serve_stats()["shards"]]
        return self.pids

    def serve_stats(self):
        control = ServeClient(self.host, self.port)
        try:
            return control.stats()
        finally:
            control.close()

    def api_cache_hits(self):
        return 0, 0  # remote sessions keep no local decision cache

    def check(self, records):
        problems = [f"{r.item.workload.name}: {r.result}"
                    for r in records if isinstance(r.result, str)]
        local = Session()
        try:
            for record in records:
                if isinstance(record.result, dict):
                    want = local.predict(record.item.workload).to_wire()
                    if want != record.result:
                        problems.append(f"{record.item.workload.name}: served "
                                        f"decision differs from a local session's")
        finally:
            local.close()
        return problems

    def close(self):
        for session in getattr(self, "sessions", []):
            session.close()
        if self.proc is not None:
            control = ServeClient(self.host, self.port)
            try:
                control.shutdown_server()
            except OSError:
                pass  # the wait below kills it
            finally:
                control.close()
            stop_server(self.proc)


BENCHES = {cls.name: cls for cls in (PredictLocal, RunCycle, ServeZipf)}


# ------------------------------------------------------------------ server
def start_server(timeout: float = 60.0):
    """``repro serve --port 0`` with CLI defaults; returns (proc, host, port)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    line = b""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        while not line.endswith(b"\n"):
            if not selector.select(max(0.0, deadline - time.monotonic())):
                stop_server(proc)
                raise RuntimeError("repro serve printed no banner")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                stop_server(proc)
                raise RuntimeError("repro serve exited before listening")
            line += chunk
    # "repro serve listening on HOST:PORT (...)"
    address = line.decode().split(" listening on ", 1)[1].split()[0]
    host, _, port = address.rpartition(":")
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, host, int(port)


def stop_server(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


# ------------------------------------------------------------ measurement
def _labeled(snapshot: dict, name: str, **match) -> float:
    total = 0.0
    for labels, value in labeled_series(snapshot, name):
        if all(labels.get(k) == v for k, v in match.items()):
            total += value if not isinstance(value, dict) else value["sum"]
    return total


def _count(snapshot: dict, name: str) -> int:
    return sum(v["count"] for _l, v in labeled_series(snapshot, name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(bench: Bench, lists: list[list]) -> dict:
    """The untraced run: end-to-end metrics (``setup_s`` is added by run.py)."""
    pids = bench.external_pids()
    cpu0 = cpu_seconds(pids)
    phase = run_phase(bench, lists)
    cpu1 = cpu_seconds(pids)
    rss = peak_rss_mb(pids)
    ok = phase.ok
    latencies = [(r.t1 - r.t0) * 1e3 for r in ok]
    pct = tail_pct(len(latencies))
    problems = bench.check(phase.records)
    metrics = {
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, pct),
        "ops_per_s": len(ok) / phase.elapsed,
        "cpu_ms_per_op": (cpu1 - cpu0) * 1e3 / len(ok),
        "peak_rss_mb": rss,
    }
    tiers = bench.tiers(phase.records)
    metrics["top1_agreement"] = _ratio(tiers["agree"], tiers["n"])
    return {
        "attempted": len(phase.records),
        "failed": len(phase.records) - len(ok) + len(problems),
        "errors": [r.error for r in phase.records if r.error] + problems,
        "metrics": metrics,
        "notes": {"latency_samples": len(latencies), "tail_pct": pct},
        "records": phase.records,
    }


def measure_traced(bench: Bench, lists: list[list]) -> dict:
    """The traced run: per-layer metrics and the self-time table.

    The run's operation list is split in two: the first half runs
    untraced, the second traced, so count metrics repeat exactly for a
    seed, and the ratio of the halves' p50s is the tracing overhead.
    """
    half = len(lists[0]) // 2
    plain = run_phase(bench, [ops[:half] for ops in lists])
    halves = [ops[half:] for ops in lists]

    reg0 = registry().snapshot()
    plan0 = shared_planner().cache_info()
    hits0 = bench.api_cache_hits()
    stats0 = bench.serve_stats()
    tracer = tracing.Tracer()
    tracer.install()
    start_trace()
    try:
        traced = run_phase(bench, halves, first=half)
    finally:
        events = stop_trace()
        tracer.uninstall()
    reg1 = registry().snapshot()
    plan1 = shared_planner().cache_info()
    hits1 = bench.api_cache_hits()
    stats1 = bench.serve_stats()

    records = plain.records + traced.records
    problems = bench.check(records)
    failed = sum(r.error is not None for r in records) + len(problems)

    n = len(traced.records)
    analysis = tracing.analyse(
        tracer, events, [(r.t0, r.t1, r.tid) for r in traced.records])
    layers = analysis["layers"]

    def delta(name, **match):
        return _labeled(reg1, name, **match) - _labeled(reg0, name, **match)

    worker_sim = sum(e["dur"] for e in analysis["worker_events"]) / 1e6
    sim_s = tracing.inclusive(analysis, ("run_gemm",)) + worker_sim
    sim_cycles = delta("repro_accel_phase_cycles_total")
    maps = delta("repro_pool_maps_total")
    tasks = _count(reg1, "repro_pool_task_seconds") - _count(reg0, "repro_pool_task_seconds")
    plan_hits = sum(plan1[k].hits - plan0[k].hits for k in plan1)
    plan_calls = plan_hits + sum(plan1[k].misses - plan0[k].misses for k in plan1)

    workloads = [bench.workload(r.item) for r in traced.records]
    kernels = [w.kernel for w in workloads]
    seen = {identity(bench.workload(r.item)) for r in plain.records}
    first_seen = 0
    for workload in workloads:
        first_seen += identity(workload) not in seen
        seen.add(identity(workload))
    if stats1 is not None:
        server0, server1 = stats0["metrics"]["registry"], stats1["metrics"]["registry"]
        candidates = (_labeled(server1, "repro_sage_candidates_total")
                      - _labeled(server0, "repro_sage_candidates_total"))
        predictions = (_labeled(server1, "repro_sage_predictions_total")
                       - _labeled(server0, "repro_sage_predictions_total"))
    else:
        candidates = delta("repro_sage_candidates_total")
        predictions = delta("repro_sage_predictions_total")

    def ms(seconds: float) -> float:
        return seconds * 1e3 / n  # per-operation mean

    metrics = {
        **{f"self.{layer}_ms": ms(layers[layer]) for layer in tracing.LAYERS},
        "trace.op_total_ms": ms(analysis["total"]),
        "trace.overhead_ratio": _ratio(
            statistics.median([r.t1 - r.t0 for r in traced.ok]),
            statistics.median([r.t1 - r.t0 for r in plain.ok])),
        "sage.price_ms": ms(tracing.self_time(
            analysis, layers=("sage",), skip=("sage.rerank", "sage.calibrate"))),
        "sage.candidates_per_decision": _ratio(candidates, predictions),
        "sage.calibrated_ms": ms(tracing.inclusive(analysis, ("sage.calibrate",))),
        "sage.rerank_prep_ms": ms(tracing.self_time(
            analysis, layers=("sage", "mint", "formats", "workloads"),
            inside="sage.rerank", skip=("simulate_many",))),
        "mint.plan_ms": ms(tracing.self_time(
            analysis, names=("PathPlanner.estimate", "PathPlanner.route"))),
        "mint.plan_hit_ratio": _ratio(plan_hits, plan_calls),
        "mint.convert_ms": ms(tracing.inclusive(analysis, ("MintEngine.convert",))),
        "pool.maps_per_op": maps / n,
        "pool.pooled_share": _ratio(delta("repro_pool_maps_total", path="pool"), maps),
        "pool.task_ms": _ratio(delta("repro_pool_task_seconds") * 1e3, tasks),
        "pool.overhead_ms": ms(layers["util.pool"]),
        "accelerator.sim_ms": ms(sim_s),
        "accelerator.sim_jobs_per_op": delta("repro_accel_gemms_total") / n,
        "accelerator.sim_cycles": sim_cycles,
        "accelerator.host_ns_per_sim_cycle": _ratio(sim_s * 1e9, sim_cycles),
        "formats.encode_ms": ms(tracing.inclusive(analysis, ("from_dense",))),
        "workloads.operand_gen_ms": ms(
            tracing.inclusive(analysis, ("random_sparse_matrix",))),
        "api.cache_hit_ratio": _ratio(hits1[0] - hits0[0], hits1[1] - hits0[1]),
        "input.first_seen_share": first_seen / n,
        "input.spmm_share": kernels.count(Kernel.SPMM) / n,
        "input.spgemm_share": kernels.count(Kernel.SPGEMM) / n,
        "input.tensor_share": sum(k in (Kernel.SPTTM, Kernel.MTTKRP) for k in kernels) / n,
        "input.density_decades": len({density_decade(w) for w in workloads}),
        "input.universe_size": len({identity(bench.workload(r.item)) for r in records}),
        "code.src_lines": src_lines(),
        "error_frac": _ratio(failed, len(records)),
    }
    metrics.update(_run_metrics(bench, traced))
    metrics.update(_serve_metrics(traced, tracer, stats0, stats1))
    return {
        "attempted": len(records),
        "failed": failed,
        "errors": [r.error for r in records if r.error] + problems,
        "metrics": metrics,
        "table": tracing.table(bench.name, analysis),
        "records": records,
    }


def src_lines() -> int:
    """Lines of Python under ``src/`` (the tracked source size)."""
    total = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def _run_metrics(bench: Bench, traced: Phase) -> dict:
    """``run_cycle``-only metrics (zero where a workload runs nothing)."""
    if not isinstance(bench, RunCycle):
        return {"mint.hops_per_run": 0.0, "input.proxy_share": 0.0,
                "sage.rerank_changed_ratio": 0.0, "sage.bound_coverage": 0.0}
    results = [r.result for r in traced.ok]
    tiers = bench.tiers(traced.records)
    return {
        "mint.hops_per_run": sum(r.hops for r in results) / len(results),
        "input.proxy_share": sum(r.sim_scale < 1.0 for r in results) / len(results),
        "sage.rerank_changed_ratio": _ratio(tiers["changed"], tiers["n"]),
        "sage.bound_coverage": _ratio(tiers["covered"], tiers["comparable"]),
    }


def _serve_metrics(traced: Phase, tracer, stats0, stats1) -> dict:
    """``serve_zipf``-only metrics from client timing and the stats RPC."""
    names = ("serve.server_p50_ms", "serve.wire_ms", "serve.miss_server_p50_ms",
             "serve.hit_ratio", "serve.near_hit_ratio", "serve.miss_ratio",
             "serve.fast_path_share", "serve.coalesced_per_batch",
             "serve.warm_per_miss", "serve.warm_dropped",
             "serve.outcome_label_mismatch")
    if stats1 is None:
        return dict.fromkeys(names, 0.0)

    def d(*path):
        a, b = stats0, stats1
        for key in path:
            a, b = a[key], b[key]
        return b - a

    submitted = d("requests", "submitted")
    fast = d("requests", "fast_path")
    server = {"hit": d("cache", "hits") + fast, "near_hit": d("cache", "near_hits"),
              "miss": d("cache", "misses")}
    client = {label: tracer.labels.get(label, 0) for label in server}
    client_p50 = statistics.median([(r.t1 - r.t0) * 1e3 for r in traced.ok])
    server_p50 = stats1["latency_ms"]["p50"] or 0.0
    warming = stats1["warming"] or {}
    warming0 = stats0["warming"] or {}
    return {
        "serve.server_p50_ms": server_p50,
        "serve.wire_ms": client_p50 - server_p50,
        "serve.miss_server_p50_ms": stats1["latency_by_outcome_ms"]["miss"]["p50"] or 0.0,
        "serve.hit_ratio": _ratio(server["hit"], submitted),
        "serve.near_hit_ratio": _ratio(server["near_hit"], submitted),
        "serve.miss_ratio": _ratio(server["miss"], submitted),
        "serve.fast_path_share": _ratio(fast, submitted),
        "serve.coalesced_per_batch": _ratio(d("batches", "coalesced"), d("batches", "count")),
        "serve.warm_per_miss": _ratio(
            warming.get("warmed", 0) - warming0.get("warmed", 0), server["miss"]),
        "serve.warm_dropped": warming.get("dropped", 0) - warming0.get("dropped", 0),
        "serve.outcome_label_mismatch": sum(
            abs(client[label] - server[label]) for label in server) / 2,
    }


def ops_digest(bench: Bench, lists: list[list]) -> str:
    """Digest of an operation list: names and every decision input."""
    text = repr([[(bench.workload(item).name, identity(bench.workload(item)))
                  for item in ops] for ops in lists])
    return hashlib.blake2s(text.encode(), digest_size=8).hexdigest()


def run(name: str, seed: int, store: Path, seconds: float, trace: bool,
        short: bool, ready) -> dict:
    """Set up one workload, measure it, gate it and tear it down.

    *ready* is called once the first operation has returned; ``short``
    runs one block of operations and skips the priming.
    """
    segments = set(active_operand_segments())
    bench = BENCHES[name](seed, store)
    count = bench.count(seconds, short)
    lists = bench.lists(count)
    try:
        bench.setup()
        ready()
        t0 = time.perf_counter()
        if not short:
            bench.prime()
        prime_s = time.perf_counter() - t0
        out = measure_traced(bench, lists) if trace else measure(bench, lists)
    finally:
        bench.close()
    records = out.pop("records")
    executed = [[r.item for r in records if r.client == slot]
                for slot in range(len(lists))]
    out["notes"] = {**out.get("notes", {}), "prime_s": prime_s,
                    "prime_ops": 0 if short else bench.prime_count,
                    "ops_digest": ops_digest(bench, lists),
                    "executed_digest": ops_digest(bench, executed)}
    if trace:
        out["metrics"]["prime_s"] = prime_s
        out["metrics"]["shm.leaked_segments"] = len(
            set(active_operand_segments()) - segments)
    return out
