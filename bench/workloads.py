"""Benchmark workloads: inputs generated from a seed, and the calls each pass times.

Every workload is a closed loop with one caller.  A pass runs a fixed list of
:class:`Task` objects in order; each task's ``call`` is the timed work and its
``check`` inspects the output afterwards, outside the timing.  Calls reach
the package through module attributes at call time, so wrappers installed by
:mod:`tracing` see them.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

__all__ = ["WORKLOADS", "Task", "Tally", "make_inputs", "build_tasks", "scan_cells"]

WORKLOADS = ("scan", "high_degree", "verify")

# acceptance square at reduced resolution, plus a corner whose exponent 0.004
# makes the endpoint-hump search fire (the (0, 0.02) corner needs a 6x6 grid
# to reach an exponent that small)
SCAN_GRIDS = (((0.0, 0.8), 4), ((0.0, 0.008), 3))
SCAN_N_MAX = 10

HIGH_DEGREES = (100, 200, 400)
# At the seed commit the outcome of a solve at n >= 200 turns on whether the
# levelling defect ends below 1e-12, and over the inner square [0.05, 0.62]^2
# it does for 30% of points at n = 200, 8% at n = 400 and all at n = 100
# (50 points each).  Points drawn freely would make the failed count of a
# run depend on the seed, so the seed draws from pools of points whose
# outcome at the seed commit is known: for each n, CERTIFIED points (re-checked
# defect at most 0.8e-12) and FAILED ones (ConvergenceError, or a re-checked
# defect of at least 1.5e-12), each clear of the 1e-12 line so that a change
# of BLAS kernel does not flip them.  HIGH_DEGREE_DRAWS says how many of each
# a run takes; with SLOW_SOLVE, 3 of the 7 solves fail at the seed commit
# for every seed.
CERTIFIED = {
    100: ((0.265, 0.374), (0.163, 0.296), (0.407, 0.332), (0.382, 0.23),
          (0.454, 0.375), (0.23, 0.528), (0.51, 0.596), (0.551, 0.504)),
    200: ((0.089, 0.18), (0.093, 0.361), (0.29, 0.109), (0.154, 0.138),
          (0.39, 0.217), (0.262, 0.308), (0.192, 0.158), (0.47, 0.451)),
    400: ((0.17, 0.275), (0.171, 0.204), (0.158, 0.188), (0.175, 0.213),
          (0.245, 0.239), (0.262, 0.199), (0.169, 0.192), (0.264, 0.228)),
}
FAILED = {
    100: (),
    200: ((0.609, 0.424), (0.597, 0.326), (0.553, 0.394), (0.471, 0.586),
          (0.13, 0.07), (0.45, 0.599), (0.162, 0.592), (0.573, 0.166)),
    400: ((0.494, 0.204), (0.339, 0.385), (0.189, 0.393), (0.577, 0.315),
          (0.49, 0.238), (0.346, 0.415), (0.308, 0.369), (0.369, 0.305)),
}
# (certified, failed) points per n
HIGH_DEGREE_DRAWS = {100: (2, 0), 200: (1, 1), 400: (1, 1)}
# A failing solve either stalls after ~8 iterations or runs all 60, which at
# n=400 takes 9-12 s instead of about 1 s; the slow kind covers the outer band
# rho_a >~ 0.65 or rho_b >~ 0.72 of [0, 0.8]^2, which the pools avoid.  Every
# pass adds this n=200 solve from the band, which runs all 60 iterations
# (about 5 s).  It is not drawn: near it the cost of such a failure varies by
# 25% from point to point.
SLOW_SOLVE = (0.78, 0.03, 200)

VERIFY_CHECKS = ("bounds", "coeffs", "circle", "jacobi")
ORACLE_DEGREES = (1, 2, 3)
# criterion 9 draws oracle weights from [0, 1.5]^2
ORACLE_RHO_MAX = 1.5
# Each pass checks each degree at the next of ORACLE_ROUNDS seeded points.
# The oracle's cost varies by up to 20% from point to point and makes most of
# a pass, so one point per degree would move wall_s with the luck of the
# seed; the per-call median over a run's passes averages over several points.
ORACLE_ROUNDS = 8

SCAN_REFERENCE = Path(__file__).with_name("scan_reference.json")


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs of ``workload``; the same seed gives the same inputs.

    The scan grids are fixed, because the scan is checked against a stored
    classification matrix; the seed moves the solve and oracle points.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return {"n_max": SCAN_N_MAX, "grids": [[lo, hi, res] for (lo, hi), res in SCAN_GRIDS]}
    if workload == "high_degree":
        solves = []
        for n in HIGH_DEGREES:
            n_certified, n_failed = HIGH_DEGREE_DRAWS[n]
            points = rng.sample(CERTIFIED[n], n_certified) + rng.sample(FAILED[n], n_failed)
            solves += [[ra, rb, n] for ra, rb in points]
        solves.append(list(SLOW_SOLVE))
        return {"solves": solves}
    if workload == "verify":
        oracle = [
            [rng.uniform(0.0, ORACLE_RHO_MAX), rng.uniform(0.0, ORACLE_RHO_MAX), n]
            for n in ORACLE_DEGREES
            for _ in range(ORACLE_ROUNDS)
        ]
        return {"checks": list(VERIFY_CHECKS), "oracle": oracle}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


@dataclass(frozen=True)
class Tally:
    """Units one task attempted and failed, and the oracle gap it saw."""

    units: int
    failed: int
    oracle_gap: float = 0.0


@dataclass(frozen=True)
class Task:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Tally]


def scan_cells(inputs: dict) -> int:
    """Cells one pass of the workload scans."""
    return sum(res * res for _, _, res in inputs.get("grids", ()))


def _solver_errors(wl):
    m = wl.minimax
    return (m.ConvergenceError, m.ExchangeError, m.DegeneracyError)


def _solve(wl, ra: float, rb: float, n: int):
    try:
        return wl.minimax.solve(wl.special.WeightParams(ra, rb), n)
    except _solver_errors(wl) as exc:
        # the traceback would hold the solver's frames, and their arrays,
        # in a reference cycle with the caller until a garbage collection
        return exc.with_traceback(None)


def _solution_failed(out, what: str) -> bool:
    """A solver error, or a returned solution that misses its certificate."""
    if isinstance(out, Exception):
        return True
    return not checks.recertify(out, what).certified


def _scan_task(wl, lo: float, hi: float, res: int, n_max: int, reference: dict) -> Task:
    label = f"scan[{lo:g}:{hi:g}]x{res}"
    labels, values = reference["classification"][label], reference["values"][label]

    def call():
        return wl.widom.scan(rho_range=(lo, hi), resolution=res, n_max=n_max, workers=1)

    def check(result) -> Tally:
        checks.check_disc_rule(result.cells)
        checks.check_matrix(result.cells, labels)
        checks.check_values(result.cells, values)
        checks.check_mirror(result.cells, res)
        failed = sum(cell.classification == "Failed" for cell in result.cells)
        return Tally(len(result.cells), failed)

    return Task(label, call, check)


def _solve_task(wl, ra: float, rb: float, n: int) -> Task:
    label = f"solve({ra:.4f},{rb:.4f},n={n})"
    return Task(
        label,
        lambda: _solve(wl, ra, rb, n),
        lambda out: Tally(1, int(_solution_failed(out, label))),
    )


def _verify_task(wl, name: str) -> Task:
    def call():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = wl.cli.main(["verify", name])
        return code, buffer.getvalue()

    def check(out) -> Tally:
        checks.check_verify_output(name, *out)
        return Tally(1, 0)

    return Task(f"verify {name}", call, check)


def _oracle_task(wl, n: int, points) -> Task:
    """Each call takes the next of ``points``, cycling."""
    upcoming = itertools.cycle(points)

    def call():
        ra, rb = next(upcoming)
        sol = _solve(wl, ra, rb, n)
        _, value = wl.oracle.brute_minimax(wl.special.WeightParams(ra, rb), n)
        return ra, rb, sol, value

    def check(out) -> Tally:
        ra, rb, sol, value = out
        label = f"oracle({ra:.4f},{rb:.4f},n={n})"
        if _solution_failed(sol, label):
            return Tally(1, 1)
        return Tally(1, 0, checks.check_oracle_gap(sol.norm, value, label))

    return Task(f"oracle n={n}", call, check)


def build_tasks(workload: str, inputs: dict, wl) -> list[Task]:
    """The tasks of one pass; ``wl`` is the imported ``widomlab`` package."""
    if workload == "scan":
        reference = json.loads(SCAN_REFERENCE.read_text())
        return [
            _scan_task(wl, lo, hi, res, inputs["n_max"], reference)
            for lo, hi, res in inputs["grids"]
        ]
    if workload == "high_degree":
        return [_solve_task(wl, ra, rb, n) for ra, rb, n in inputs["solves"]]
    if workload == "verify":
        return [_verify_task(wl, name) for name in inputs["checks"]] + [
            _oracle_task(wl, n, [(ra, rb) for ra, rb, m in inputs["oracle"] if m == n])
            for n in ORACLE_DEGREES
        ]
    raise ValueError(f"unknown workload {workload!r}")
