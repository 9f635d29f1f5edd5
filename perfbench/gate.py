"""Correctness gate, run after the timed phase.

The oracles here are independent of the fast paths they check: an
analytical or tensor decision is compared with a full ranking built one
candidate at a time by ``evaluate_matrix_combo`` / ``evaluate_tensor_combo``
over ``matrix_combos`` / ``tensor_combos`` (a calibrated decision with that
ranking's top-k corrected through the calibration table), and a cycle
decision with a fresh ``Sage`` whose simulator runs every job in-process.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.accelerator import simulator
from repro.sage.cost_model import evaluate_matrix_combo, evaluate_tensor_combo
from repro.sage.predictor import CYCLE_TOP_K, Sage
from repro.sage.spaces import MATRIX_ACF_STREAMED, matrix_combos, tensor_combos
from repro.util.pool import fork_map
from repro.workloads.spec import MatrixWorkload


def combo(cost) -> tuple:
    """The (MCF, ACF) identity of one ranked candidate."""
    return (cost.mcf, cost.acf)


def oracle_ranking(sage: Sage, workload) -> list:
    """Every feasible candidate, priced one at a time, sorted by EDP."""
    if isinstance(workload, MatrixWorkload):
        combos, evaluate = matrix_combos(), evaluate_matrix_combo
    else:
        combos, evaluate = tensor_combos(), evaluate_tensor_combo
    costs = [
        evaluate(workload, mcf, acf, config=sage.config, dram=sage.dram,
                 provider=sage.provider)
        for mcf, acf in combos
    ]
    return sorted((c for c in costs if c is not None), key=lambda c: c.edp)


def _ranked(decision) -> str | None:
    ranking = decision.ranking
    if not ranking or decision.best != ranking[0]:
        return "best is not the head of the ranking"
    if any(a.edp > b.edp for a, b in zip(ranking, ranking[1:])):
        return "ranking not sorted by EDP"
    return None


def _same_edps(got: list, want: list, what: str) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} {what} candidates, the oracle has {len(want)}"
    for a, b in zip(sorted(got), sorted(want)):
        if not math.isclose(a, b, rel_tol=1e-9):
            return f"{what} EDP {a!r} where the oracle has {b!r}"
    return None


def check_predict(decision, workload, tier: str, sage: Sage) -> str | None:
    """A ``predict_local`` decision against the one-at-a-time oracle.

    Analytical and tensor decisions must rank every oracle candidate with
    the same EDP.  A calibrated decision must hold, among its analytically
    searched ACFs, exactly the oracle's top-``CYCLE_TOP_K`` corrected by
    the calibration table (registry-only streamed ACFs may join).
    """
    if decision.fidelity != tier:
        return f"fidelity {decision.fidelity!r}, expected {tier!r}"
    oracle = oracle_ranking(sage, workload)
    if tier == "analytical":
        problem = _same_edps([c.edp for c in decision.ranking],
                             [c.edp for c in oracle], "ranked")
    else:
        table = sage.ensure_calibration()
        menu = {combo(c): c for c in oracle[:CYCLE_TOP_K]}
        want = [table.apply(c, workload.kernel, workload.density_a)[0].edp
                for c in menu.values()]
        got = [c.edp for c in decision.ranking if c.acf[0] in MATRIX_ACF_STREAMED]
        problem = _same_edps(got, want, "calibrated")
    return problem or _ranked(decision)


def check_served(decision) -> str | None:
    """A served reply decodes to a well-formed analytical decision."""
    if decision.fidelity != "analytical":
        return f"fidelity {decision.fidelity!r}, expected 'analytical'"
    return _ranked(decision)


@contextlib.contextmanager
def sequential_simulator():
    """Run the simulator's batches in-process (``processes=1``)."""
    simulator.fork_map = functools.partial(fork_map, processes=1)
    try:
        yield
    finally:
        simulator.fork_map = fork_map


def _cycle_decision(workload):
    """Pool task: a fresh ``Sage``'s cycle decision, simulated in-process."""
    with sequential_simulator():
        return Sage().predict(workload, fidelity="cycle")


def tier_agreement(runs: list, sage: Sage, processes: int) -> dict:
    """Compare the tiers' winners on a fixed set of workloads, untimed.

    ``runs`` holds ``(workload, cycle_decision_or_None)``; missing cycle
    decisions are computed here, spread over *processes* fresh processes.
    *sage* carries the calibration table.  Returns the counts behind
    ``top1_agreement`` (calibrated winner == cycle winner),
    ``sage.rerank_changed_ratio`` (cycle winner != analytical winner) and
    ``sage.bound_coverage`` (the calibrated winner's compute cycles lie
    within its advertised p95 error of the cycle-measured ones, over
    winners simulated at full scale).
    """
    missing = [workload for workload, cycle in runs if cycle is None]
    if missing:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=processes, mp_context=context) as pool:
            computed = iter(list(pool.map(_cycle_decision, missing)))
        runs = [(w, cycle if cycle is not None else next(computed)) for w, cycle in runs]
    out = {"n": 0, "agree": 0, "changed": 0, "comparable": 0, "covered": 0}
    for workload, cycle in runs:
        analytical = sage.predict(workload)
        calibrated = sage.predict(workload, fidelity="calibrated")
        out["n"] += 1
        out["agree"] += combo(calibrated.best) == combo(cycle.best)
        out["changed"] += combo(analytical.best) != combo(cycle.best)
        bound = calibrated.error_bound
        measured = [c for c in cycle.ranking if combo(c) == combo(calibrated.best)]
        if bound is not None and cycle.sim_scale == 1.0 and measured:
            out["comparable"] += 1
            sim = measured[0].compute_cycles
            err = abs(calibrated.best.compute_cycles - sim) / sim
            out["covered"] += err <= bound.p95_rel
    return out
