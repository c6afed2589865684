"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Each test computes its criterion at the stated tolerance, prints a single
summary line (outside pytest capture so it is always visible), and then
asserts.  Criterion 10 runs the 40x40 desk-scale scan; the full 250x250
figure is reproduced only when WIDOMLAB_FULL_SCAN=1 is set.
"""

import math
import os
import time

import numpy as np
import pytest

from widomlab.bounds import (
    PropertyViolation,
    asymptote,
    m_bound,
    verify_coeff_lemma,
    weight_sup_bound,
    weighted_monic_jacobi_sup,
)
from widomlab.circle import erdos_lax_check, polya_szego_roots, verify_cn_relation
from widomlab.oracle import brute_minimax
from widomlab.minimax import solve
from widomlab.special import (
    JacobiParams,
    WeightParams,
    weight_to_param,
)
from widomlab.widom import continuity_probe, scan, widom_factor


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def test_criterion_01_classical_kinds(capsys):
    start = time.perf_counter()
    cases = {
        (0.0, 0.0): 2.0,
        (0.5, 0.5): 1.0,
        (0.5, 0.0): math.sqrt(2.0),
        (0.0, 0.5): math.sqrt(2.0),
    }
    worst = 0.0
    for (ra, rb), expected in cases.items():
        w = WeightParams(ra, rb)
        for n in range(1, 21):
            worst = max(worst, abs(widom_factor(w, n) - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(
        capsys,
        f"criterion 1 (classical kinds): {'PASS' if ok else 'FAIL'}"
        f" — worst rel err {worst:.3g} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_02_small_parameter_bound_and_chain(capsys):
    worst_over = -math.inf
    trend_ok = True
    chain_ok = True
    for ra in (0.1, 0.25, 0.4):
        for rb in (0.1, 0.25, 0.4):
            w = WeightParams(ra, rb)
            p = weight_to_param(w)
            lim = asymptote(w)
            factors = [widom_factor(w, n) for n in range(1, 21)]
            for n, wn in enumerate(factors, start=1):
                worst_over = max(worst_over, wn / lim - 1.0)
                sup = (2.0 ** n) * weighted_monic_jacobi_sup(w, n)
                mb = m_bound(p, n)
                if not (wn <= sup * (1.0 + 1e-8) and sup <= mb * (1.0 + 1e-9)):
                    chain_ok = False
                if not mb <= lim * (1.0 + 1e-12):
                    chain_ok = False
            if factors[19] < factors[4]:
                trend_ok = False
    bound_ok = worst_over <= 1e-8
    ok = bound_ok and chain_ok and trend_ok
    _report(
        capsys,
        f"criterion 2 (part-2 bound and chain): {'PASS' if ok else 'FAIL'}"
        f" — worst W_n/limit - 1 = {worst_over:.3g} (slack 1e-8),"
        f" chain {'ok' if chain_ok else 'BROKEN'}, W_20 >= W_5 {'ok' if trend_ok else 'BROKEN'}",
    )
    assert bound_ok
    assert chain_ok
    assert trend_ok


def test_criterion_03_m_bound_monotone_and_limit(capsys):
    start = time.perf_counter()
    grid = np.linspace(-0.5, 0.5, 9)
    monotone_ok = True
    worst_dev = 0.0
    for b in grid:
        for a in grid:
            p = JacobiParams(float(a), float(b))
            corner = abs(abs(p.alpha) - 0.5) < 1e-15 and abs(abs(p.beta) - 0.5) < 1e-15
            lim = 2.0 ** (0.5 * (1.0 - p.alpha - p.beta))
            prev = m_bound(p, 1)
            first = prev
            for n in range(2, 1001):
                cur = m_bound(p, n)
                if corner:
                    if cur < prev - 1e-11:
                        monotone_ok = False
                elif cur <= prev:
                    monotone_ok = False
                prev = cur
            if not corner and prev <= first:
                monotone_ok = False
            worst_dev = max(worst_dev, abs(prev - lim))
    elapsed = time.perf_counter() - start
    limit_ok = worst_dev <= 1e-4
    ok = monotone_ok and limit_ok and elapsed < 5.0
    _report(
        capsys,
        f"criterion 3 (M_n monotone + limit): {'PASS' if ok else 'FAIL'}"
        f" — monotone {'ok' if monotone_ok else 'BROKEN'},"
        f" |M_1000 - limit| worst {worst_dev:.6g} (tol 1e-4), {elapsed:.1f}s (< 5s)",
    )
    assert monotone_ok
    assert elapsed < 5.0
    assert limit_ok, (
        f"final deviation {worst_dev:.6g} exceeds 1e-4; the Gamma-form bound"
        f" approaches its limit only at rate ~ limit*|c2|/(2n)"
    )


def test_criterion_04_coefficient_lemma(capsys):
    try:
        report = verify_coeff_lemma(200, 1e-12)
        ok = report.max_violation == 0.0
        detail = f"max coefficient {max(report.values):.3g} (tol 1e-12)"
    except PropertyViolation as exc:
        ok = False
        detail = str(exc)
    _report(
        capsys,
        f"criterion 4 (coefficient sign lemma): {'PASS' if ok else 'FAIL'} — {detail}",
    )
    assert ok, detail


def test_criterion_05_circle_correspondence(capsys):
    start = time.perf_counter()
    worst = 0.0
    for ra, rb in ((0.5, 0.5), (0.75, 0.75), (1.0, 1.0), (0.75, 1.25)):
        for n in range(0, 6):
            _, _, defect = verify_cn_relation(WeightParams(ra, rb), n)
            worst = max(worst, defect)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        capsys,
        f"criterion 5 (circle correspondence): {'PASS' if ok else 'FAIL'}"
        f" — worst rel defect {worst:.3g} (tol 1e-6), {elapsed:.1f}s (< 60s)",
    )
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_06_part_three_monotonicity(capsys):
    worst_slack = -math.inf
    sup_ok = True
    for ra in (0.5, 0.75, 1.0, 1.5):
        for rb in (0.5, 0.75, 1.0, 1.5):
            w = WeightParams(ra, rb)
            factors = [widom_factor(w, n) for n in range(1, 11)]
            chain = factors + [asymptote(w)]
            for a, b in zip(chain, chain[1:]):
                worst_slack = max(worst_slack, (b - a) / abs(a))
            if factors[0] > weight_sup_bound(w) * (1.0 + 1e-9):
                sup_ok = False
    mono_ok = worst_slack <= 1e-9
    ok = mono_ok and sup_ok
    _report(
        capsys,
        f"criterion 6 (part-3 monotonicity): {'PASS' if ok else 'FAIL'}"
        f" — worst increase {worst_slack:.3g} (slack 1e-9),"
        f" W_1 <= weight sup {'ok' if sup_ok else 'BROKEN'}",
    )
    assert mono_ok
    assert sup_ok


def test_criterion_07_erdos_lax(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 6))
        angles = rng.uniform(0.0, 2.0 * np.pi, m)
        exponents = rng.uniform(1.0, 12.0 / m, m)
        lhs, rhs = erdos_lax_check(angles, exponents)
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-6
    _report(
        capsys,
        f"criterion 7 (Erdos-Lax equality): {'PASS' if ok else 'FAIL'}"
        f" — worst rel defect {worst:.3g} (tol 1e-6)",
    )
    assert ok


def test_criterion_08_polya_szego(capsys):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 8))
        pts = rng.uniform(-1.0, 1.0, m) + 1j * rng.uniform(-1.0, 1.0, m)
        pts = np.where(np.abs(pts) > 0.99, pts * 0.99 / np.abs(pts), pts)
        roots = polya_szego_roots(pts)
        worst = max(worst, float(np.max(np.abs(np.abs(roots) - 1.0))))
    ok = worst <= 1e-8
    _report(
        capsys,
        f"criterion 8 (Polya-Szego roots): {'PASS' if ok else 'FAIL'}"
        f" — worst distance from unit circle {worst:.3g} (tol 1e-8)",
    )
    assert ok


def test_criterion_09_oracle_equivalence(capsys):
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        w = WeightParams(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.5)))
        n = int(rng.integers(1, 4))
        sol = solve(w, n)
        _, value = brute_minimax(w, n)
        worst = max(worst, abs(value - sol.norm) / sol.norm)
    ok = worst <= 1e-4
    _report(
        capsys,
        f"criterion 9 (oracle equivalence): {'PASS' if ok else 'FAIL'}"
        f" — worst rel norm gap {worst:.3g} (tol 1e-4)",
    )
    assert ok


_KNOWN_CONSTANT_POINTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


def _classify_scan_against_circles(result):
    inside_bad = []
    outside_bad = []
    between = 0
    failed = 0
    for cell in result.cells:
        ra, rb = cell.weight.rho_a, cell.weight.rho_b
        if cell.classification == "Failed":
            failed += 1
            continue
        r2 = (ra - 0.25) ** 2 + (rb - 0.25) ** 2
        known_constant = any(
            abs(ra - ka) < 1e-12 and abs(rb - kb) < 1e-12
            for ka, kb in _KNOWN_CONSTANT_POINTS
        )
        if r2 < 1.0 / 8.0 and not known_constant:
            if cell.classification != "Increasing":
                inside_bad.append((ra, rb, cell.classification))
        elif r2 > 1.184 / 8.0:
            if cell.classification != "Decreasing":
                outside_bad.append((ra, rb, cell.classification))
        else:
            between += 1
    return inside_bad, outside_bad, between, failed


def test_criterion_10_desk_scale_scan(capsys):
    start = time.perf_counter()
    result = scan(rho_range=(0.0, 0.8), resolution=40, n_max=10)
    elapsed = time.perf_counter() - start
    inside_bad, outside_bad, between, failed = _classify_scan_against_circles(result)
    ok = not inside_bad and not outside_bad and failed == 0 and elapsed < 600.0
    _report(
        capsys,
        f"criterion 10 (40x40 scan): {'PASS' if ok else 'FAIL'}"
        f" — inside misclassified {len(inside_bad)}, outside misclassified"
        f" {len(outside_bad)}, between-band cells {between} (reported only),"
        f" failed {failed}, {elapsed:.0f}s (< 600s)",
    )
    assert not inside_bad, inside_bad[:5]
    assert not outside_bad, outside_bad[:5]
    assert failed == 0
    assert elapsed < 600.0


@pytest.mark.skipif(
    os.environ.get("WIDOMLAB_FULL_SCAN") != "1",
    reason="full 250x250 figure reproduction only behind WIDOMLAB_FULL_SCAN=1",
)
def test_criterion_10_full_resolution_scan(capsys):
    start = time.perf_counter()
    result = scan(rho_range=(0.0, 0.8), resolution=250, n_max=10)
    elapsed = time.perf_counter() - start
    inside_bad, outside_bad, between, failed = _classify_scan_against_circles(result)
    ok = not inside_bad and not outside_bad and failed == 0
    _report(
        capsys,
        f"criterion 10 (250x250 scan): {'PASS' if ok else 'FAIL'}"
        f" — inside misclassified {len(inside_bad)}, outside misclassified"
        f" {len(outside_bad)}, between-band cells {between}, failed {failed},"
        f" {elapsed:.0f}s",
    )
    assert not inside_bad, inside_bad[:5]
    assert not outside_bad, outside_bad[:5]
    assert failed == 0


def test_criterion_11_continuity_probe(capsys):
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(10):
        w = WeightParams(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.5)))
        worst = max(worst, continuity_probe(w, 1e-5, 5))
    ok = worst <= 1e-3
    _report(
        capsys,
        f"criterion 11 (continuity probe): {'PASS' if ok else 'FAIL'}"
        f" — worst |delta W_5| {worst:.3g} (tol 1e-3)",
    )
    assert ok
