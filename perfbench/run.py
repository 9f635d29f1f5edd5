"""The repository benchmark: one command, every metric, correctness gated.

Usage (from the repository root)::

    python3 perfbench/run.py --workload predict_local --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload run_cycle --seed 1 --seconds 24 --trace 1
    python3 perfbench/run.py --short        # all workloads, a few seconds each

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json`` (tracing
off); ``--trace 1`` prints the per-layer metrics and the self-time table.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any operation failed or the correctness gate found a mismatch.

``--seconds`` sets a fixed operation count through each workload's nominal
rate; a run times exactly those operations, however fast the host is.
This process only orchestrates: it builds the run's calibration table into
a temporary store, and ``setup_s`` is the median, over fresh probe
processes (half before the measuring process, half after) and the
measuring process, of process start to the first ready operation; the
measuring process's standard error is scanned for ``resource_tracker``
tracebacks.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("predict_local", "run_cycle", "serve_zipf")
#: Set-up probes besides the measuring process (whose set-up counts too),
#: half run before it and half after, so their median spans the run.
SETUP_PROBES = 6
#: Every run, set-up probes included, ends within this many seconds.
RUN_BUDGET_S = 170.0
RESULT_MARK = "PERFBENCH-RESULT "
READY = b"READY\n"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes:
    """One line of *proc*'s stdout, or what came before a timeout / EOF."""
    line = b""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while not line.endswith(b"\n"):
            if not selector.select(deadline - time.monotonic()):
                return line
            chunk = os.read(proc.stdout.fileno(), 1)
            if not chunk:
                return line
            line += chunk
    return line


def _child(mode: str, name: str, seed: int, store: str, *args: str):
    """Start a child in its own process group; return (proc, start time)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), mode, name, "--seed", str(seed),
         "--store", store, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
        start_new_session=True,
    )
    return proc, t0


def setup_seconds(name: str, seed: int, store: str, probes: int,
                  deadline: float) -> list[float]:
    """Process start to the first ready operation, once per fresh probe."""
    times = []
    for _ in range(probes):
        proc, t0 = _child("--probe", name, seed, store)
        try:
            line = _read_line(proc, deadline)
            times.append(time.perf_counter() - t0)
            _out, err = proc.communicate(timeout=_remaining(deadline))
        except subprocess.TimeoutExpired:
            line, err = b"", b""
        finally:
            _kill_group(proc)
            proc.wait()
        if line != READY or proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
            raise RuntimeError(f"set-up probe for {name} failed")
    return times


def tracker_errors(stderr: str) -> int:
    """``resource_tracker`` KeyError tracebacks in a process's stderr."""
    blocks = stderr.split("Traceback (most recent call last):")[1:]
    return sum("resource_tracker" in b and "KeyError" in b for b in blocks)


def run_measuring_process(name: str, seed: int, store: str, seconds: float,
                          trace: bool, short: bool,
                          deadline: float) -> tuple[dict, float, str]:
    """Run the measuring process; returns (its result, its set-up, its stderr)."""
    args = ["--seconds", str(seconds), "--trace", str(int(trace))]
    proc, t0 = _child("--child", name, seed, store, *args,
                      *(["--short"] if short else []))
    try:
        line = _read_line(proc, deadline)
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        raise RuntimeError(f"{name} ran past its time budget") from None
    finally:
        _kill_group(proc)
    err = err.decode(errors="replace")
    sys.stderr.write(err)
    results = [l for l in out.decode().splitlines() if l.startswith(RESULT_MARK)]
    if line != READY or proc.returncode != 0 or not results:
        raise RuntimeError(f"measuring process for {name} failed "
                           f"(exit {proc.returncode})")
    return json.loads(results[-1][len(RESULT_MARK):]), setup, err


def run_one(name: str, seed: int, seconds: float, trace: bool, *,
            short: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Everything one invocation measures, checked against ``BENCHMARK.json``."""
    deadline = time.monotonic() + RUN_BUDGET_S
    import harness  # noqa: E402 - needs SRC on sys.path

    host_before = harness.host_ref_ms()
    probes = 0 if trace else probes
    with tempfile.TemporaryDirectory(prefix=".store-", dir=HERE) as store:
        build_s = harness.build_calibration(Path(store))
        setups = setup_seconds(name, seed, store, probes // 2, deadline)
        result, setup, stderr = run_measuring_process(
            name, seed, store, seconds, trace, short, deadline)
        setups += [setup] + setup_seconds(name, seed, store, probes - probes // 2,
                                          deadline)
    host_after = harness.host_ref_ms()
    metrics = result["metrics"]
    if trace:
        metrics["pool.tracker_errors"] = tracker_errors(stderr)
        metrics["host.ref_ms"] = (host_before + host_after) / 2
        metrics["sage.calibration_build_s"] = build_s
    else:
        metrics["setup_s"] = statistics.median(setups)
    spec = _spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    result["metrics"] = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
    }
    result["notes"].update(setups=setups, host_ref_ms=[host_before, host_after])
    return result


def report(name: str, result: dict) -> None:
    notes = result["notes"]
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
    for error in result["errors"][:10]:
        print(f"   error: {error}")
    for metric, entry in result["metrics"].items():
        extra = ""
        if metric == "latency_p50_ms":
            extra = f"  (n={notes['latency_samples']})"
        elif metric == "latency_tail_ms":
            extra = f"  (p{notes['tail_pct']}, n={notes['latency_samples']})"
        elif metric == "setup_s":
            extra = f"  (median of {len(notes['setups'])} set-ups)"
        print(f"   {metric:<36} {entry['value']:>14.6g} {entry['unit']}{extra}")
    if notes["prime_ops"]:
        print(f"   untimed priming: {notes['prime_ops']} requests, "
              f"{notes['prime_s']:.2f} s")
    before, after = notes["host_ref_ms"]
    print(f"   host reference loop: {before:.1f} ms before, {after:.1f} ms after")
    if "table" in result:
        print(result["table"])


def _final(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="every workload, untraced and traced, one block each")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--store", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def ready() -> None:
        sys.stdout.buffer.write(READY)
        sys.stdout.flush()

    if args.probe:
        import harness

        bench = harness.BENCHES[args.probe](args.seed, args.store)
        try:
            bench.setup()
            ready()
        finally:
            bench.close()
        return 0
    if args.child:
        import harness

        out = harness.run(args.child, args.seed, args.store, args.seconds,
                          bool(args.trace), args.short, ready)
        print(RESULT_MARK + json.dumps(out))
        return 0
    if args.short:
        finals = {}
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_one(name, args.seed, 1.0, trace, short=True, probes=1)
                report(f"{name} (trace {int(trace)})", result)
                finals[f"{name}/{int(trace)}"] = {**_final(result),
                                                  "notes": result["notes"]}
        print(json.dumps(finals))
        return 0 if all(f["correct"] for f in finals.values()) else 1
    if not args.workload:
        parser.error("--workload is required (or --short)")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    final = _final(result)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
