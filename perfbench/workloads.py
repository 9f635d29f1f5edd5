"""Seeded operation lists for the three benchmark workloads.

Every list is a pure function of ``--seed`` and the operation count: the
program under test only ever sees the workload objects generated here, and
a run executes exactly the list it was given, however long each operation
takes.  Streams are *stratified*: each slot of a fixed block (kernel x
tier) walks a seeded permutation of (size class x density decade) cells,
and only the exact extents and densities are drawn inside a cell.  The mix
of a run is therefore the same for every seed, which keeps the
seed-to-seed spread of the end-to-end medians small, while every request
is still a fresh, first-seen workload.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.serve import fingerprint_of, warm_candidates
from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload

#: Density decades (upper, lower), ~80% down to ~0.005% (Table III spans
#: 78.5% .. 0.039%).
DENSITY_DECADES = ((0.8, 0.08), (0.08, 8e-3), (8e-3, 8e-4), (8e-4, 5e-5))

#: Matrix extent ranges per size class: interactive sizes up to Table III
#: scale (speech1 is 11000 x 3600, nd3k 9000 x 9000).
MATRIX_SIZES = {"small": (64, 512), "medium": (512, 4096), "large": (4096, 12000)}

#: 3-D tensor extent ranges per size class (Uber is 4400 x 1100 x 1700).
TENSOR_SIZES = {"small": (16, 128), "medium": (128, 1024), "large": (1024, 4400)}

#: ``run_cycle`` extents: operands that fit the cycle tier's simulation cap
#: (2**18 elements) and ones that are simulated through a proxy.  Proxied
#: shapes keep k >= min(m, n) / 2, as the Table III matrices do, so a
#: proxy's output stays within 2**19 elements.
FIT_SIZES = (128, 384)
PROXY_SIZES = (1024, 12000)
PROXY_K_FLOOR = 0.5

#: ``predict_local`` block: (kernel, tier) slots asked in a fixed rotation.
PREDICT_BLOCK = (
    (Kernel.SPMM, "analytical"),
    (Kernel.SPMM, "calibrated"),
    (Kernel.SPGEMM, "analytical"),
    (Kernel.SPGEMM, "calibrated"),
    (Kernel.SPTTM, "analytical"),
    (Kernel.MTTKRP, "analytical"),
)

#: ``run_cycle`` block of (kernel, fits the simulation cap): kernels
#: alternate, and 3 of every 10 pairs need a proxy.
CYCLE_BLOCK = tuple(
    (kernel, pair not in (2, 5, 8))
    for pair in range(10)
    for kernel in (Kernel.SPMM, Kernel.SPGEMM)
)

#: ``serve_zipf`` traffic: of every block of ``NEW_BLOCK[1]`` requests a
#: client sends, ``NEW_BLOCK[0]`` name a workload it never sent before; of
#: every ``FRESH_CYCLE`` of those, one falls in the near-hit band of one of
#: its earlier workloads (``NEAR_AT``) and one in a band the server's
#: speculative warmer filled from one of them (``WARM_AT``); repeats are
#: Zipf(``ZIPF_S``); the server warms ``WARM_BANDS`` density bands
#: (``repro serve`` default).  Exact shares, not coin flips: the
#: hit/near-hit/miss mix sets the median, so it must not move with the seed.
NEW_BLOCK = (3, 10)
FRESH_CYCLE = 5
NEAR_AT = 0
WARM_AT = 3
ZIPF_S = 1.1
WARM_BANDS = 1
#: A warm-band request follows its parent's first request by at least this
#: many of the client's own requests (about 3 s), so the warmer has filled
#: the band by then.
WARM_LAG = 60


#: Step of the R4 low-discrepancy sequence: powers of 1/phi_4, where
#: phi_4 is the real root of x**5 = x + 1.
_R4_STEP = np.array([1.1673039782614187 ** -(i + 1) for i in range(4)]) % 1.0


def _log_scale(u: float, lo: float, hi: float) -> float:
    """Map ``u`` in [0, 1) log-uniformly onto [lo, hi]."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _extent(u: float, lo: int, hi: int) -> int:
    return int(round(_log_scale(u, lo, hi)))


class _Cells:
    """Endless seeded walk over a grid of cells, reshuffled every lap.

    Each visit also draws the next point of that cell's randomly shifted R4
    sequence (four uniforms in [0, 1)), so the extents and densities of a
    run fill every cell evenly whatever the seed; plain random draws left
    the run-to-run spread of the medians to chance.
    """

    def __init__(self, rng: np.random.Generator, cells: list) -> None:
        self._rng = rng
        self._cells = cells
        self._shifts = rng.random((len(cells), 4))
        self._visits = [0] * len(cells)
        self._lap: list[int] = []

    def next(self) -> tuple[object, np.ndarray]:
        if not self._lap:
            self._lap = list(self._rng.permutation(len(self._cells)))
        index = self._lap.pop()
        self._visits[index] += 1
        point = (self._shifts[index] + self._visits[index] * _R4_STEP) % 1.0
        return self._cells[index], point


class _Factory:
    """Draws unique workloads (no two share kernel, extents and nnz)."""

    def __init__(self, rng: np.random.Generator, prefix: str) -> None:
        self.rng = rng
        self.prefix = prefix
        self.seen: set[tuple] = set()
        self.count = 0

    def _claim(self, workload):
        if identity(workload) in self.seen:
            return None
        self.seen.add(identity(workload))
        self.count += 1
        return dataclasses.replace(
            workload, name=f"{self.prefix}-{workload.kernel.value}-{self.count}")

    def matrix(
        self, kernel: Kernel, sizes: tuple[int, int], decade: tuple[float, float],
        point: np.ndarray, k_floor: float = 0.0,
    ) -> MatrixWorkload:
        """``k_floor`` keeps the inner extent at least that share of min(m, n)."""
        while True:
            m, n = _extent(point[0], *sizes), _extent(point[2], *sizes)
            k = _extent(point[1], max(sizes[0], min(sizes[1], k_floor * min(m, n))), sizes[1])
            density = _log_scale(point[3], decade[1], decade[0])
            nnz_a = max(1, min(m * k, round(density * m * k)))
            nnz_b = (
                k * n
                if kernel is Kernel.SPMM
                else max(1, min(k * n, round(density * k * n)))
            )
            claimed = self._claim(MatrixWorkload("", kernel, m, k, n, nnz_a, nnz_b))
            if claimed is not None:
                return claimed
            point = self.rng.random(4)  # taken: fall back to a random draw

    def tensor(
        self, kernel: Kernel, sizes: tuple[int, int], decade: tuple[float, float],
        point: np.ndarray,
    ) -> TensorWorkload:
        while True:
            shape = tuple(_extent(u, *sizes) for u in point[:3])
            size = shape[0] * shape[1] * shape[2]
            density = _log_scale(point[3], decade[1], decade[0])
            nnz = max(1, min(size, round(density * size)))
            claimed = self._claim(
                TensorWorkload("", kernel, shape, nnz, rank=max(1, shape[0] // 2)))
            if claimed is not None:
                return claimed
            point = self.rng.random(4)


def _grid(sizes: dict) -> list:
    return [(size, decade) for size in sizes.values() for decade in DENSITY_DECADES]


def _is_tensor(kernel: Kernel) -> bool:
    return kernel in (Kernel.SPTTM, Kernel.MTTKRP)


class PredictStream:
    """``predict_local``: first-seen SpMM/SpGEMM/SpTTM/MTTKRP requests.

    Yields ``(workload, fidelity)``; matrix kernels alternate between the
    analytical and the calibrated tier, tensors are analytical-only.
    """

    def __init__(self, seed: int, prefix: str = "pl", key: int = 11) -> None:
        rng = np.random.default_rng([seed, key])
        self.factory = _Factory(rng, prefix)
        self._cells = {
            slot: _Cells(rng, _grid(TENSOR_SIZES if _is_tensor(slot[0]) else MATRIX_SIZES))
            for slot in PREDICT_BLOCK
        }
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self) -> tuple[MatrixWorkload | TensorWorkload, str]:
        kernel, tier = slot = PREDICT_BLOCK[self._index % len(PREDICT_BLOCK)]
        self._index += 1
        (sizes, decade), point = self._cells[slot].next()
        if _is_tensor(kernel):
            return self.factory.tensor(kernel, sizes, decade, point), tier
        return self.factory.matrix(kernel, sizes, decade, point), tier


class CycleStream:
    """``run_cycle``: first-seen matrix workloads for ``Session.run``.

    Seven in ten fit the cycle tier's simulation cap; three in ten exceed
    it and run through the density-preserving proxy.
    """

    def __init__(self, seed: int, prefix: str = "rc", key: int = 12) -> None:
        rng = np.random.default_rng([seed, key])
        self.factory = _Factory(rng, prefix)
        self._cells = {
            slot: _Cells(rng, [(FIT_SIZES if slot[1] else PROXY_SIZES, decade)
                               for decade in DENSITY_DECADES])
            for slot in dict.fromkeys(CYCLE_BLOCK)
        }
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self) -> MatrixWorkload:
        slot = CYCLE_BLOCK[self._index % len(CYCLE_BLOCK)]
        self._index += 1
        (sizes, decade), point = self._cells[slot].next()
        return self.factory.matrix(slot[0], sizes, decade, point,
                                   k_floor=0.0 if slot[1] else PROXY_K_FLOOR)


def predict_ops(seed: int, count: int) -> list[tuple]:
    """``predict_local``'s timed requests: ``(workload, fidelity)`` pairs."""
    stream = PredictStream(seed)
    return [next(stream) for _ in range(count)]


def prime_ops(count: int) -> list[tuple]:
    """``predict_local``'s untimed priming requests, the same for every seed.

    Drawn like the timed requests but from a generator of their own, so no
    seed's timed workloads repeat them.
    """
    stream = PredictStream(0, "pw", key=14)
    return [next(stream) for _ in range(count)]


def cycle_ops(seed: int, count: int) -> list[MatrixWorkload]:
    """``run_cycle``'s timed workloads."""
    stream = CycleStream(seed)
    return [next(stream) for _ in range(count)]


def cycle_first_request() -> MatrixWorkload:
    """``run_cycle``'s set-up request, the same for every seed."""
    return next(CycleStream(0, "rc-setup", key=16))


def agreement_suite() -> list[MatrixWorkload]:
    """Half a block drawn like ``run_cycle``'s, the same for every seed:
    the ``top1_agreement`` sample of workloads that make no cycle decisions."""
    stream = CycleStream(0, "ag", key=17)
    return [next(stream) for _ in range(len(CYCLE_BLOCK) // 2)]


# ------------------------------------------------------------- serve_zipf
@dataclasses.dataclass(frozen=True)
class ServeOp:
    """One request of a ``serve_zipf`` client.

    ``kind`` is what the server's decision cache must answer: ``"miss"``
    (the client's first request of a workload no cached band covers),
    ``"hit"`` (a repeat of such a workload) or ``"near"`` (a workload in
    the band of one the client sent before, or in a band the warmer filled
    from one, first request or repeat).
    """

    workload: MatrixWorkload | TensorWorkload
    kind: str


def _band(workload) -> tuple:
    return fingerprint_of(workload).band_key()


def _warm_bands(workload) -> set[tuple]:
    fp = fingerprint_of(workload)
    return {_band(w) for w in warm_candidates(fp, WARM_BANDS)}


class _BandGuard:
    """Keeps every workload of a serve run in a near-hit band of its own.

    A workload is admitted only if its band is neither taken nor one the
    server's speculative warmer would fill from an admitted workload, and
    if none of its own warm bands is taken.  Then no miss is answered from
    another client's band or from speculation, whose timing varies from run
    to run: which requests hit, near-hit or miss is fixed by the operation
    list alone.  Warm-band requests (:meth:`admit_warm`) are the planned
    exception: late enough that the warmer has filled their band.
    """

    def __init__(self) -> None:
        self.taken: set[tuple] = set()
        self.warm: set[tuple] = set()

    def admit(self, workload) -> bool:
        band, warm = _band(workload), _warm_bands(workload)
        if band in self.taken or band in self.warm or warm & self.taken:
            return False
        self.taken.add(band)
        self.warm |= warm
        return True

    def admit_warm(self, workload, sent: set[tuple]) -> bool:
        """A request in a warmed band; its near-hit warms bands in turn,
        which may only be bands the same client has sent already."""
        band, warm = _band(workload), _warm_bands(workload)
        if band not in self.warm or (warm & self.taken) - sent:
            return False
        self.taken.add(band)
        self.warm |= warm
        return True


def _sibling(workload, seen: set[tuple]):
    """A first-seen workload in *workload*'s band (nnz nudged by a few)."""
    band = _band(workload)
    matrix = isinstance(workload, MatrixWorkload)
    nnz = workload.nnz_a if matrix else workload.nnz
    size = workload.m * workload.k if matrix else math.prod(workload.shape)
    for step in (1, -1, 2, -2, 3, -3):
        if not 1 <= nnz + step <= size:
            continue
        nudged = dataclasses.replace(
            workload, name=workload.name + "n", **{"nnz_a" if matrix else "nnz": nnz + step})
        if identity(nudged) not in seen and _band(nudged) == band:
            return nudged
    return None


def _warm_sibling(parent, seen: set[tuple]):
    """First-seen workloads in the bands *parent*'s miss warms, within the
    run's density range (a doubled density may reach 100%)."""
    for index, candidate in enumerate(warm_candidates(fingerprint_of(parent), WARM_BANDS)):
        sibling = _sibling(dataclasses.replace(candidate, name=f"{parent.name}w{index}"), seen)
        if sibling is not None and _density(sibling) <= DENSITY_DECADES[0][0]:
            yield sibling


def serve_first_requests(clients: int) -> list:
    """One fixed set-up request per client, the same for every seed."""
    factory = _Factory(np.random.default_rng(0), "sz-setup")
    return [
        factory.matrix(Kernel.SPMM, MATRIX_SIZES["small"], DENSITY_DECADES[1],
                       np.full(4, (slot + 1) / (clients + 1)))
        for slot in range(clients)
    ]


def serve_ops(seed: int, clients: int, per_client: int) -> list[list[ServeOp]]:
    """Each ``serve_zipf`` client's request list, fixed before the run.

    Three requests in ten, at seeded places in each block, name a workload
    the client never sent (one in five of those a same-band sibling of an
    earlier one, and one in five a workload in a band the warmer filled
    from an earlier one at least :data:`WARM_LAG` requests before; both
    are answered as near-hits); the rest are truncated Zipf
    (:data:`ZIPF_S`) draws over the client's own earlier workloads, ranked
    by first request.  With closed loops a repeat is therefore always
    cached already, whatever the other client does.
    """
    guard = _BandGuard()
    for workload in serve_first_requests(clients):
        guard.admit(workload)
    seen: set[tuple] = set()
    lists = []
    for slot in range(clients):
        source = PredictStream(seed, f"sz{slot}", key=13 + 100 * slot)
        rng = np.random.default_rng([seed, 15, slot])
        own: list[ServeOp] = []  # distinct workloads in first-request order
        first_at: list[int] = []  # index of each one's first request
        sent: set[tuple] = set()  # bands of this client's sent workloads
        ops = []
        new_at: set[int] = set()
        fresh = 0
        for index in range(per_client):
            if index % NEW_BLOCK[1] == 0:
                new_at = set(index + rng.permutation(NEW_BLOCK[1])[: NEW_BLOCK[0]])
            pick = rng.random()
            op = None
            if own and index not in new_at:
                weights = np.arange(1, len(own) + 1, dtype=float) ** -ZIPF_S
                rank = int(np.searchsorted(np.cumsum(weights), pick * weights.sum()))
                op = own[min(rank, len(own) - 1)]
            elif own and (fresh := fresh + 1) % FRESH_CYCLE == NEAR_AT:
                parents = [o.workload for o in own if o.kind == "hit"]
                sibling = _sibling(parents[int(pick * len(parents))], seen)
                if sibling is not None:
                    op = ServeOp(sibling, "near")
            elif fresh % FRESH_CYCLE == WARM_AT:
                parents = [o.workload for o, at in zip(own, first_at)
                           if o.kind == "hit" and at <= index - WARM_LAG]
                if parents:
                    parent = parents[int(pick * len(parents))]
                    for sibling in _warm_sibling(parent, seen):
                        if guard.admit_warm(sibling, sent):
                            op = ServeOp(sibling, "near")
                            break
            if op is None:
                while not guard.admit(workload := next(source)[0]):
                    pass
                op = ServeOp(workload, "miss")
            if identity(op.workload) not in seen:
                seen.add(identity(op.workload))
                sent.add(_band(op.workload))
                own.append(op if op.kind == "near" else ServeOp(op.workload, "hit"))
                first_at.append(index)
            ops.append(op)
        lists.append(ops)
    return lists


def _density(workload: MatrixWorkload | TensorWorkload) -> float:
    """Density of the workload's sparse operand (A for matrix kernels)."""
    if isinstance(workload, MatrixWorkload):
        return workload.density_a
    return workload.density


def density_decade(workload: MatrixWorkload | TensorWorkload) -> int:
    """Index of the :data:`DENSITY_DECADES` bin the workload's A lands in."""
    density = _density(workload)
    for index, (_hi, lo) in enumerate(DENSITY_DECADES):
        if density >= lo:
            return index
    return len(DENSITY_DECADES) - 1


def identity(workload: MatrixWorkload | TensorWorkload) -> tuple:
    """Everything a decision depends on (the name is a label, not an input)."""
    if isinstance(workload, MatrixWorkload):
        return (workload.kernel, workload.m, workload.k, workload.n,
                workload.nnz_a, workload.nnz_b)
    return (workload.kernel, workload.shape, workload.nnz, workload.rank)
