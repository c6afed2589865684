"""Correctness checks the benchmark applies to every output it times.

A :class:`WrongAnswer` aborts the run: the program returned something that
is not a near-best approximation, a classification that contradicts the
disc rule or the stored matrix, Widom factors away from the stored ones, or a
verification that did not pass.  A solution that is right but misses its
1e-12 certificate by less than DEFECT_CEILING is not wrong; the workload
counts it as a failed unit, like a solver error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from widomlab.minimax import weight_eval

__all__ = [
    "CERTIFICATE",
    "WrongAnswer",
    "Recheck",
    "recertify",
    "check_disc_rule",
    "check_matrix",
    "check_values",
    "check_mirror",
    "check_oracle_gap",
    "check_verify_output",
]

# levelling defect every returned solution promises
CERTIFICATE = 1e-12
# a defect above this is not a near-best approximation but a wrong answer;
# the seed commit returns true defects of up to 2e-12
DEFECT_CEILING = 1e-9
# criterion 9: solver norm against the brute-force oracle, relative
ORACLE_TOL = 1e-4
# W_n(a, b) = W_n(b, a); each side carries a certificate of 1e-12
MIRROR_TOL = 2.0 * CERTIFICATE
# W_n against the values stored from the seed commit, relative
VALUES_TOL = 1e-11

_KNOWN_CONSTANT_POINTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


class WrongAnswer(Exception):
    """An output failed a correctness check; the benchmark run is void."""


@dataclass(frozen=True)
class Recheck:
    """Independent look at a solution's equioscillation certificate.

    ``defect`` is ``(norm - min_j |e_j|) / norm`` over the reference points,
    the de la Vallee-Poussin gap; ``overshoot`` is ``(max_j |e_j| - norm) /
    norm``, positive when the claimed norm is below an attained error.
    """

    alternates: bool
    defect: float
    overshoot: float

    @property
    def certified(self) -> bool:
        return self.defect <= CERTIFICATE


def recertify(sol, what: str = "solution") -> Recheck:
    """Recompute the weighted error at ``sol.reference`` outside the solver.

    Evaluates in x through ``weight_eval`` and ``MonicPolynomial.__call__``,
    where the solver works in theta.  Raises :class:`WrongAnswer` when the
    signs do not alternate, an attained error exceeds the claimed norm by
    more than the certificate, or the defect exceeds DEFECT_CEILING; a right
    answer whose defect exceeds only the certificate comes back with
    ``certified`` false.
    """
    x = np.asarray(sol.reference, dtype=float)
    e = np.asarray(weight_eval(sol.weight, x) * sol.poly(x), dtype=float)
    ae = np.abs(e)
    check = Recheck(
        alternates=bool(np.all(np.sign(e[:-1]) * np.sign(e[1:]) < 0.0)),
        defect=float((sol.norm - ae.min()) / sol.norm),
        overshoot=float((ae.max() - sol.norm) / sol.norm),
    )
    if not (
        check.alternates and check.overshoot <= CERTIFICATE and check.defect <= DEFECT_CEILING
    ):
        raise WrongAnswer(f"{what}: certificate broken ({check})")
    return check


def check_disc_rule(cells) -> None:
    """Criterion 10: Increasing inside the disc, Decreasing outside, constants excepted."""
    for cell in cells:
        ra, rb = cell.weight.rho_a, cell.weight.rho_b
        if cell.classification == "Failed" or any(
            abs(ra - ka) < 1e-12 and abs(rb - kb) < 1e-12 for ka, kb in _KNOWN_CONSTANT_POINTS
        ):
            continue
        r2 = (ra - 0.25) ** 2 + (rb - 0.25) ** 2
        want = "Increasing" if r2 < 1.0 / 8.0 else "Decreasing" if r2 > 1.184 / 8.0 else None
        if want is not None and cell.classification != want:
            raise WrongAnswer(f"cell ({ra}, {rb}) is {cell.classification}, disc rule says {want}")


def check_matrix(cells, expected) -> None:
    """Classifications equal the stored matrix; failed cells are counted elsewhere."""
    got = [cell.classification for cell in cells]
    if len(got) != len(expected):
        raise WrongAnswer(f"scan has {len(got)} cells, stored matrix {len(expected)}")
    for cell, label in zip(cells, expected):
        if cell.classification not in ("Failed", label):
            raise WrongAnswer(
                f"cell ({cell.weight.rho_a}, {cell.weight.rho_b}) is"
                f" {cell.classification}, stored matrix says {label}"
            )


def check_values(cells, expected) -> None:
    """Each cell's ``W_n`` equal the stored ones within VALUES_TOL; failed cells are skipped."""
    if len(cells) != len(expected):
        raise WrongAnswer(f"scan has {len(cells)} cells, stored values {len(expected)}")
    for cell, want in zip(cells, expected):
        if cell.classification == "Failed":
            continue
        if want is None or len(cell.values) != len(want):
            raise WrongAnswer(
                f"cell ({cell.weight.rho_a}, {cell.weight.rho_b}) has {len(cell.values)}"
                f" values, stored {None if want is None else len(want)}"
            )
        for n, (got, ref) in enumerate(zip(cell.values, want), start=1):
            gap = abs(got - ref) / ref
            if not gap <= VALUES_TOL:
                raise WrongAnswer(
                    f"W_{n}({cell.weight.rho_a}, {cell.weight.rho_b}) = {got!r},"
                    f" stored {ref!r} (relative gap {gap:.3g})"
                )


def check_mirror(cells, resolution: int) -> float:
    """``W_n(a, b)`` against ``W_n(b, a)`` for every mirror pair; returns the worst gap."""
    worst = 0.0
    for ib in range(resolution):
        for ia in range(ib + 1, resolution):
            one = cells[ib * resolution + ia]
            two = cells[ia * resolution + ib]
            if "Failed" in (one.classification, two.classification):
                continue
            for va, vb in zip(one.values, two.values):
                gap = abs(va - vb) / max(va, vb)
                worst = max(worst, gap)
                if not gap <= MIRROR_TOL:
                    raise WrongAnswer(
                        f"W_n({one.weight.rho_a}, {one.weight.rho_b}) mirror gap {gap:.3g}"
                    )
    return worst


def check_oracle_gap(norm: float, oracle_value: float, what: str) -> float:
    """Criterion 9: relative gap to the brute-force oracle at most 1e-4."""
    gap = abs(oracle_value - norm) / norm
    if not (math.isfinite(gap) and gap <= ORACLE_TOL):
        raise WrongAnswer(f"{what}: oracle gap {gap:.3g} > {ORACLE_TOL:g}")
    return gap


def check_verify_output(check: str, code: int, text: str) -> None:
    """Every line of ``widomlab verify <check>`` says PASS and the exit code is 0."""
    lines = text.strip().splitlines()
    if code != 0 or not lines or lines[-1] != f"{check}: PASS":
        raise WrongAnswer(f"verify {check} exited {code}: {text.strip()!r}")
    for line in lines[:-1]:
        if not line.endswith("-> PASS"):
            raise WrongAnswer(f"verify {check}: {line!r}")
