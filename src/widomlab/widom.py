"""Widom factor sequences, monotonicity classification, and parameter-grid scans.

The Widom factor of a weight at degree ``n`` is ``2**n`` times the weighted
minimax norm of the monic minimizer.  This module computes those factors,
classifies finite sequences of them as increasing / decreasing / constant /
non-monotone, scans square parameter grids (solving one triangle and
mirroring the other), labels parameters relative to the conjectured
monotonicity disc, and probes the continuity of ``W_n`` in the weight
exponents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from widomlab.bounds import asymptote, weight_sup_bound
from widomlab.minimax import _batches, solve, solve_many
from widomlab.special import WeightParams

__all__ = [
    "CLASSIFICATIONS",
    "WidomSequence",
    "ScanCell",
    "ScanResult",
    "classify",
    "widom_factor",
    "widom_sequence",
    "scan",
    "conjecture_region",
    "continuity_probe",
]

CLASSIFICATIONS = ("Increasing", "Decreasing", "Constant", "NonMonotone")

# Conjectured monotonicity disc: centre (1/4, 1/4), squared radius 1/8.  The
# outer gate 1.184/8 marks where decreasing behaviour is observed instead.
_DISC_CENTER = 0.25
_INNER_R2 = 1.0 / 8.0
_OUTER_R2 = 1.184 / 8.0

# relative tolerance below which a step of a Widom sequence counts as flat
_CLASSIFY_TOL = 1e-9


@dataclass(frozen=True)
class WidomSequence:
    """Widom factors ``W_n`` for ``n = n_start .. n_start + len(values) - 1``."""

    weight: WeightParams
    n_start: int
    values: tuple[float, ...]
    asymptote: float
    classification: str

    def __post_init__(self) -> None:
        if self.n_start < 1:
            raise ValueError("n_start must be at least 1")
        if any(v <= 0.0 for v in self.values):
            raise ValueError("Widom factors must be positive")
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")


@dataclass(frozen=True)
class ScanCell:
    """One grid cell of a parameter scan.

    ``classification`` is one of the sequence labels, or ``"Failed"`` when the
    solver raised for this cell; ``error`` then carries the message.  A cell
    a scan mirrored from its solved twin carries the twin's message with a
    note naming the twin.
    """

    weight: WeightParams
    values: tuple[float, ...]
    classification: str
    error: str | None = None

    def __post_init__(self) -> None:
        if self.classification not in CLASSIFICATIONS + ("Failed",):
            raise ValueError(f"unknown classification {self.classification!r}")
        if (self.classification == "Failed") != (self.error is not None):
            raise ValueError("error message must accompany exactly the Failed label")


@dataclass(frozen=True)
class ScanResult:
    """Full grid scan: ``resolution**2`` cells over a square parameter range.

    Cells are stored row-major with ``rho_a`` varying fastest:
    ``cells[i_b * resolution + i_a]`` holds the point
    ``(grid[i_a], grid[i_b])``.
    """

    grid_spec: tuple[tuple[float, float], int]
    cells: tuple[ScanCell, ...]
    n_max: int
    runtime: float

    def __post_init__(self) -> None:
        (_, resolution) = self.grid_spec
        if len(self.cells) != resolution * resolution:
            raise ValueError("cell count must equal resolution squared")

    def grid_values(self) -> tuple[float, ...]:
        (lo, hi), resolution = self.grid_spec
        return tuple(float(v) for v in np.linspace(lo, hi, resolution))

    def cell(self, i_a: int, i_b: int) -> ScanCell:
        (_, resolution) = self.grid_spec
        if not (0 <= i_a < resolution and 0 <= i_b < resolution):
            raise IndexError("grid index out of range")
        return self.cells[i_b * resolution + i_a]


def classify(values) -> str:
    """Label a finite sequence by its monotonicity at relative tolerance 1e-9.

    A sequence whose total spread is below tolerance is ``Constant``.
    Otherwise it is ``Increasing`` when no step drops below minus the
    tolerance and some step exceeds it (``Decreasing`` symmetrically), else
    ``NonMonotone``.  A value that is not finite raises ``ValueError``.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("classification needs at least two values")
    if not np.isfinite(vals).all():
        raise ValueError("classification needs finite values")
    scale = max(abs(v) for v in vals)
    gate = _CLASSIFY_TOL * scale if scale > 0.0 else _CLASSIFY_TOL
    if max(vals) - min(vals) <= gate:
        return "Constant"
    steps = [b - a for a, b in zip(vals, vals[1:])]
    if all(s >= -gate for s in steps) and any(s > gate for s in steps):
        return "Increasing"
    if all(s <= gate for s in steps) and any(s < -gate for s in steps):
        return "Decreasing"
    return "NonMonotone"


def widom_factor(w: WeightParams, n: int) -> float:
    """Return ``W_n = 2**n`` times the weighted minimax norm at degree ``n >= 1``.

    Degree zero is excluded: ``W_0`` equals the weight supremum and is served
    by :func:`widomlab.bounds.weight_sup_bound`.
    """
    _check_degree(n)
    return solve(w, n).widom


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("widom_factor requires n >= 1; degree 0 is weight_sup_bound")


def _check_n_max(n_max: int) -> None:
    if n_max < 2:
        raise ValueError("n_max must be at least 2")


def _sequence(w: WeightParams, values) -> WidomSequence:
    return WidomSequence(
        weight=w,
        n_start=1,
        values=tuple(values),
        asymptote=asymptote(w),
        classification=classify(values),
    )


def widom_sequence(w: WeightParams, n_max: int) -> WidomSequence:
    """Compute ``W_1 .. W_{n_max}`` in the lockstep batches of :func:`solve_many` and classify the sequence.

    A solver failure raises the error of the first failing degree, and no later batch is solved.
    """
    _check_n_max(n_max)
    return _sequence(w, _widoms(_batches([(w, n) for n in range(1, n_max + 1)])))


def _solve_batch(task: tuple[list[WeightParams], list[int]]) -> list:
    """The Widom factor of each problem of a batch, or the solver error it raised."""
    weights, degrees = task
    return [out if isinstance(out, Exception) else out.widom for out in solve_many(weights, degrees)]


def _widoms(tasks) -> list[float]:
    """The Widom factors of the problems of ``tasks``; raises the first error before a later batch."""
    values = []
    for outs in map(_solve_batch, tasks):
        for out in outs:
            if isinstance(out, Exception):
                raise out
        values += outs
    return values


def _scan_cell(w: WeightParams, outcomes: list) -> ScanCell:
    """The cell of ``w`` from its outcomes at n = 1, 2, ...: failed at its first error."""
    for out in outcomes:
        if isinstance(out, Exception):
            error = f"{type(out).__name__}: {out}"
            return ScanCell(weight=w, values=(), classification="Failed", error=error)
    seq = _sequence(w, outcomes)
    return ScanCell(weight=w, values=seq.values, classification=seq.classification)


def _mirror_cell(twin: ScanCell) -> ScanCell:
    """The cell at the reflected weight: ``W_n(a, b) = W_n(b, a)`` under x -> -x."""
    w = twin.weight
    error = twin.error
    if error is not None:
        error = f"{error} (mirror of ({w.rho_a}, {w.rho_b}))"
    return ScanCell(
        weight=WeightParams(w.rho_b, w.rho_a),
        values=twin.values,
        classification=twin.classification,
        error=error,
    )


def scan(
    rho_range: tuple[float, float] = (0.0, 0.8),
    resolution: int = 40,
    n_max: int = 10,
    *,
    workers: int = 1,
) -> ScanResult:
    """Classify every cell of a ``resolution**2`` grid over ``rho_range`` squared.

    The reflection x -> -x swaps the exponents of the weight and maps the
    monic minimizer ``p(x)`` to ``(-1)**n p(-x)``, so ``W_n(a, b) = W_n(b, a)``.
    Only the ``resolution * (resolution + 1) / 2`` cells with
    ``rho_a <= rho_b`` are solved, each at every degree 1..n_max.  These
    (cell, degree) problems go degree after degree into the lockstep
    batches of :func:`widomlab.minimax.solve_many`, up to 64 problems, fewer
    at high degree, and with ``workers > 1`` the batches run in a process
    pool.  Each cell equals its own ``widom_sequence`` bit for bit, whatever
    the batching or the worker count, since ``solve_many`` solves each
    problem as it would alone; a cell keeps the error of its first failed
    degree.
    Every cell with ``rho_a > rho_b`` copies the values, label and error of
    its twin.
    Results are gathered by grid index, so the classification matrix is
    deterministic regardless of execution order.  A solver failure is
    recorded in its cell (and its twin) and the scan continues.
    """
    lo, hi = float(rho_range[0]), float(rho_range[1])
    if not (0.0 <= lo < hi):
        raise ValueError("rho_range must satisfy 0 <= lo < hi")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    _check_n_max(n_max)
    points = [float(v) for v in np.linspace(lo, hi, resolution)]
    # the grid ascends, so i_a <= i_b is rho_a <= rho_b
    triangle = [(i_a, i_b) for i_b in range(resolution) for i_a in range(i_b + 1)]
    weights = [WeightParams(points[i_a], points[i_b]) for i_a, i_b in triangle]
    start = time.perf_counter()
    tasks = _batches([(w, n) for n in range(1, n_max + 1) for w in weights])
    if workers > 1:
        # imported here: a serial scan does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_solve_batch, tasks))
    else:
        batches = list(map(_solve_batch, tasks))
    # degree after degree: a weight's outcomes are every len(weights)-th
    flat = [out for batch in batches for out in batch]
    outcomes = [flat[j :: len(weights)] for j in range(len(weights))]
    solved = dict(zip(triangle, map(_scan_cell, weights, outcomes)))
    cells = tuple(
        solved[i_a, i_b] if i_a <= i_b else _mirror_cell(solved[i_b, i_a])
        for i_b in range(resolution)
        for i_a in range(resolution)
    )
    runtime = time.perf_counter() - start
    return ScanResult(
        grid_spec=((lo, hi), resolution),
        cells=cells,
        n_max=n_max,
        runtime=runtime,
    )


def conjecture_region(w: WeightParams) -> str:
    """Place a parameter point relative to the conjectured monotonicity disc.

    Returns ``"Inside"`` when the squared distance from (1/4, 1/4) is below
    1/8, ``"Outside"`` when it exceeds 1.184/8, and ``"Between"`` otherwise.
    """
    r2 = (w.rho_a - _DISC_CENTER) ** 2 + (w.rho_b - _DISC_CENTER) ** 2
    if r2 < _INNER_R2:
        return "Inside"
    if r2 > _OUTER_R2:
        return "Outside"
    return "Between"


def continuity_probe(w: WeightParams, delta: float, n: int) -> float:
    """Maximum change of ``W_n`` over the four axis perturbations of size ``delta``.

    Perturbations that would push an exponent negative are skipped, so the
    probe is well defined on the boundary of the parameter quadrant.  ``w``
    and its perturbations go through one :func:`solve_many` call, one batch
    with one grid's cosine rows up to n = 112 where no exponent is 0 or
    within ``delta`` of it.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be nonnegative and finite")
    if delta == 0.0:
        return 0.0
    _check_degree(n)
    steps = ((delta, 0.0), (-delta, 0.0), (0.0, delta), (0.0, -delta))
    moved = [(w.rho_a + da, w.rho_b + db) for da, db in steps]
    weights = [w] + [WeightParams(ra, rb) for ra, rb in moved if ra >= 0.0 and rb >= 0.0]
    base, *others = _widoms([(weights, [n] * len(weights))])
    return max((abs(v - base) for v in others), default=0.0)
