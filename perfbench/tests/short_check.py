"""The benchmark's own test.  Run it explicitly (it is not collected by a
plain ``pytest`` run of the repository, because it runs the benchmark)::

    python3 -m pytest perfbench/tests/short_check.py -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402

#: Per-layer metrics that are counts of the program's work or properties
#: of the generated inputs: equal on every repeat of a seed.
REPEATING = ("accelerator.sim_cycles", "sage.candidates_per_decision")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class _Sleepy:
    """Stands in for a workload: every operation takes a random time."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def op(self, slot, item):
        time.sleep(self.rng.random() * 0.002)
        return item

    def keep(self, slot, index, item, result):
        return result


@pytest.mark.parametrize("name", sorted(harness.BENCHES))
def test_a_seed_fixes_the_operation_list_whatever_each_operation_takes(name):
    bench = harness.BENCHES[name](7)
    lists = bench.lists(bench.count(16.0))
    assert harness.ops_digest(bench, lists) == harness.ops_digest(
        bench, harness.BENCHES[name](7).lists(bench.count(16.0)))
    assert harness.ops_digest(bench, lists) != harness.ops_digest(
        bench, harness.BENCHES[name](8).lists(bench.count(16.0)))
    for rng_seed in (1, 2):
        phase = harness.run_phase(_Sleepy(random.Random(rng_seed)), lists)
        executed = [[r.item for r in phase.records if r.client == slot]
                    for slot in range(len(lists))]
        assert executed == lists


def test_serve_warm_band_requests_follow_their_parent_late_enough():
    import workloads

    lists = workloads.serve_ops(7, 2, 300)
    warm = 0
    for ops in lists:
        first = {}
        for index, op in enumerate(ops):
            first.setdefault(op.workload.name, index)
        for name, index in first.items():
            parent, marker, _rest = name.rpartition("w")
            if marker and parent in first:
                warm += 1
                assert index - first[parent] >= workloads.WARM_LAG
                assert workloads._band(ops[index].workload) in workloads._warm_bands(
                    ops[first[parent]].workload)
    assert warm >= 10


def _short() -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--short", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def two_short_runs() -> tuple[dict, dict]:
    return _short(), _short()


def test_short_mode_reports_every_metric_and_passes_the_gate(two_short_runs):
    spec = _spec()
    for finals in two_short_runs:
        for workload in spec["workloads"]:
            name = workload["name"]
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                final = finals[f"{name}/{trace}"]
                assert final["correct"] is True
                assert final["failed"] == 0 and final["attempted"] >= 1
                assert set(final["metrics"]) == {m["name"] for m in spec[kind]}
                notes = final["notes"]
                assert notes["executed_digest"] == notes["ops_digest"]
            assert (finals[f"{name}/0"]["notes"]["ops_digest"]
                    == finals[f"{name}/1"]["notes"]["ops_digest"])


def test_self_time_rows_sum_to_the_operation_total(two_short_runs):
    for finals in two_short_runs:
        for key, final in finals.items():
            if key.endswith("/1"):
                values = {k: v["value"] for k, v in final["metrics"].items()}
                rows = sum(v for k, v in values.items() if k.startswith("self."))
                assert math.isclose(rows, values["trace.op_total_ms"], rel_tol=1e-9)


def test_counts_and_input_properties_repeat_exactly(two_short_runs):
    first, second = two_short_runs
    for name in ("predict_local", "run_cycle", "serve_zipf"):
        a = {k: v["value"] for k, v in first[f"{name}/1"]["metrics"].items()}
        b = {k: v["value"] for k, v in second[f"{name}/1"]["metrics"].items()}
        keys = [k for k in a if k.startswith("input.")]
        if name != "serve_zipf":  # the server's count includes its warmer
            keys += REPEATING
        assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
        assert (first[f"{name}/0"]["metrics"]["top1_agreement"]
                == second[f"{name}/0"]["metrics"]["top1_agreement"])


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".store-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict_local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
