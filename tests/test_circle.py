"""Tests for the circle correspondence, Erdos-Lax identity, and Polya-Szego roots."""

import math
from dataclasses import replace

import numpy as np
import pytest

from widomlab import circle
from widomlab.circle import (
    CircleFunction,
    RealPolynomial,
    circle_minimizer_from_interval,
    circle_sup,
    erdos_lax_check,
    polya_szego_combine,
    polya_szego_roots,
    verify_cn_relation,
)
from widomlab.minimax import MonicPolynomial, solve
from widomlab.special import WeightParams


def test_real_polynomial_basics():
    p = RealPolynomial((1.0, 0.0, 2.0))
    assert p.degree == 2
    assert p(2.0) == 9.0
    assert p.derivative().coeffs == (0.0, 4.0)
    with pytest.raises(ValueError):
        RealPolynomial((1.0, 0.0))


def test_circle_function_validation():
    with pytest.raises(ValueError):
        CircleFunction(-0.5, 0.0, RealPolynomial((1.0,)))


def test_real_polynomial_rejects_coefficients_that_are_not_finite():
    # (nan, 1) once passed, and circle_sup of it gave -inf
    for coeffs in ((math.nan, 1.0), (0.0, math.inf), (-math.inf,)):
        with pytest.raises(ValueError, match="finite"):
            RealPolynomial(coeffs)


def test_circle_minimizer_degree_zero():
    c, i, defect = verify_cn_relation(WeightParams(0.5, 0.5), 0)
    assert abs(c - 1.0) < 1e-12 and abs(i - 1.0) < 1e-12 and defect < 1e-12
    c, i, defect = verify_cn_relation(WeightParams(1.0, 1.0), 0)
    assert abs(c - 2.0) < 1e-9 and abs(i - 1.0) < 1e-12 and defect < 1e-9


def test_circle_minimizer_degree_and_exponents():
    w = WeightParams(0.75, 1.25)
    for n in (1, 2, 4, 30):
        sol = solve(w, n)
        f = circle_minimizer_from_interval(w, sol)
        assert f.poly.degree == 2 * n + 1
        assert f.exp_plus == 0.5 and f.exp_minus == 1.5
        assert f.poly.coeffs[-1] == 1.0
        # the lift reads only the Chebyshev series, not the roots
        bare = replace(sol, poly=MonicPolynomial(n, sol.poly.cheb_coeffs))
        assert circle_minimizer_from_interval(w, bare) == f
    with pytest.raises(ValueError):
        circle_minimizer_from_interval(WeightParams(0.4, 1.0), solve(WeightParams(0.4, 1.0), 1))


def test_circle_minimizer_rejects_a_solution_for_another_weight():
    # the (0.75, 0.75) solution lifted as if for (1, 1) once gave circle_sup 1.5266,
    # where the (1, 1) lift reads 1.2852 = 2^{n+rho_a+rho_b-1} I_3
    with pytest.raises(ValueError, match="solution is for"):
        circle_minimizer_from_interval(WeightParams(1.0, 1.0), solve(WeightParams(0.75, 0.75), 3))


def test_circle_sup_closed_forms():
    f = CircleFunction(0.0, 0.0, RealPolynomial((-1.0, 0.0, 1.0)))
    assert abs(circle_sup(f) - 2.0) < 1e-9
    f = CircleFunction(0.0, 0.0, RealPolynomial((-0.3, 1.0)))
    assert abs(circle_sup(f) - 1.3) < 1e-9


def test_circle_sup_polishes_only_peaks_that_can_win(monkeypatch):
    # |Q| = 1 on the circle for the (1/2, 1/2) lift, so rounding noise makes
    # 1,761 grid peaks at n = 3, all of which used to be polished; the (1, 1)
    # lift equioscillates, so each of its 8 peaks can win and is polished
    polished = []
    polish = circle._polish_peaks

    def counting(f, t, *args):
        polished.append(len(t))
        return polish(f, t, *args)

    monkeypatch.setattr(circle, "_polish_peaks", counting)
    w = WeightParams(0.5, 0.5)
    assert abs(circle_sup(circle_minimizer_from_interval(w, solve(w, 3))) - 1.0) < 1e-14
    assert polished[-1] <= 300
    w = WeightParams(1.0, 1.0)
    circle_sup(circle_minimizer_from_interval(w, solve(w, 3)))
    assert polished[-1] == 8


def test_circle_sup_matches_interval_value():
    # frozen: C_1(1,1) = 4 I_1 = 8 / (3 sqrt 3)
    w = WeightParams(1.0, 1.0)
    f = circle_minimizer_from_interval(w, solve(w, 1))
    assert abs(circle_sup(f) - 1.539600717839002) < 1e-9


def test_cn_relation_parameter_sweep():
    for ra, rb in ((0.5, 0.5), (0.75, 0.75), (1.0, 1.0), (0.75, 1.25)):
        for n in range(0, 6):
            _, _, defect = verify_cn_relation(WeightParams(ra, rb), n)
            assert defect <= 1e-6
    with pytest.raises(ValueError):
        verify_cn_relation(WeightParams(0.3, 0.7), 1)


@pytest.mark.parametrize("n", [20, 30])
@pytest.mark.parametrize("ra, rb", [(0.5, 0.5), (0.75, 0.75), (1.0, 1.0), (0.75, 1.25)])
def test_cn_relation_high_degree(ra, rb, n):
    _, _, defect = verify_cn_relation(WeightParams(ra, rb), n)
    assert defect <= 1e-12


def test_cn_relations_in_one_batch_equal_each_alone():
    # (0.75, *) and (1, *) lift to the exponents 0.5 and 1.0, and (1.5, *)
    # to 2.0: the polish takes one exponent per point, and the points at 0.5
    # and 2 take numpy's sqrt and square, as each lift alone does
    pairs = [
        (WeightParams(ra, rb), n)
        for ra, rb in ((0.5, 0.5), (0.75, 0.75), (1.0, 1.0), (0.75, 1.25), (1.5, 0.5))
        for n in range(0, 5)
    ]
    got = verify_cn_relation(*zip(*pairs))
    assert got == [verify_cn_relation(w, n) for w, n in pairs]
    assert isinstance(verify_cn_relation(WeightParams(1.0, 1.0), 2), tuple)
    assert verify_cn_relation([], []) == []
    with pytest.raises(ValueError):
        verify_cn_relation([WeightParams(1.0, 1.0), WeightParams(0.3, 0.7)], [1, 1])


@pytest.mark.parametrize("n", [2.7, 2.5])
def test_cn_relation_rejects_a_fractional_degree_in_both_forms(n):
    # the sequence form once truncated 2.7 to 2 and returned the n = 2 triple
    w = WeightParams(0.75, 0.75)
    with pytest.raises(ValueError, match="integer"):
        verify_cn_relation(w, n)
    with pytest.raises(ValueError, match="integer"):
        verify_cn_relation([w], [n])
    for args in ((w, -1), ([w], [-1])):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_cn_relation(*args)
    assert verify_cn_relation([w], [2.0]) == [verify_cn_relation(w, 2)]


def test_circle_minimizer_roots_conjugate_closed():
    w = WeightParams(0.8, 1.1)
    for n in (1, 3):
        f = circle_minimizer_from_interval(w, solve(w, n))
        roots = np.polynomial.polynomial.polyroots(f.poly.coeffs)
        for r in roots:
            assert np.min(np.abs(roots - np.conj(r))) <= 1e-9
        assert np.all(np.abs(roots) < 1.0 + 1e-9)


def test_erdos_lax_closed_forms():
    lhs, rhs = erdos_lax_check([0.0, math.pi], [1.0, 1.0])
    assert abs(lhs - 2.0) < 1e-9 and abs(rhs - 2.0) < 1e-9
    lhs, rhs = erdos_lax_check([0.0], [2.0])
    assert abs(lhs - 4.0) < 1e-9 and abs(rhs - 4.0) < 1e-9
    with pytest.raises(ValueError):
        erdos_lax_check([0.0], [0.5])


def test_erdos_lax_rejects_inputs_that_are_not_finite_or_do_not_pair():
    # each of these once gave (-inf, -inf), (-inf, nan) or numpy's broadcast error
    for angles, exps in (([math.nan], [1.0]), ([math.inf], [1.0]), ([0.0], [math.inf]), ([0.0], [math.nan])):
        with pytest.raises(ValueError, match="finite"):
            erdos_lax_check(angles, exps)
    with pytest.raises(ValueError, match="one exponent per angle"):
        erdos_lax_check([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="one exponent per angle"):
        circle._erdos_lax_checks([([0.0], [1.0]), ([0.0], [1.0, 2.0])])


def test_erdos_lax_moduli_against_mpmath_next_to_a_zero():
    # |F| = prod |z - zeta_j|^{s_j} and |F'| = |F| |sum s_j / (z - zeta_j)| at 40
    # digits, the float angles taken as exact: the old complex-log form lost
    # 1.7e-4 of |F'| at 1e-12 from a zero, where z - zeta_j cancels
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    offsets = np.array([1e-12, 1e-9, 1e-6, 1e-4, 1e-3])
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(1, 6))
        # away from 0 and 2 pi, so a point next to a zero does not wrap round
        angles, exps = rng.uniform(0.2, 2.0 * np.pi - 0.2, m), rng.uniform(1.0, 3.0, m)
        near = angles[int(rng.integers(m))] + np.concatenate((-offsets, offsets))
        phi = np.concatenate((near, rng.uniform(0.0, 2.0 * np.pi, 10)))
        absd, absf = circle._erdos_lax_moduli(phi, angles, exps)
        with mpmath.workdps(40):
            zeta = [mpmath.expj(mpmath.mpf(a)) for a in angles]
            for x, d, f in zip(phi, absd, absf):
                diffs = [mpmath.expj(mpmath.mpf(x)) - c for c in zeta]
                want_f = mpmath.fprod(abs(w) ** mpmath.mpf(sj) for w, sj in zip(diffs, exps))
                want_d = want_f * abs(mpmath.fsum(mpmath.mpf(sj) / w for w, sj in zip(diffs, exps)))
                worst = max(worst, float(abs(f - want_f) / want_f), float(abs(d - want_d) / want_d))
    assert worst <= 1e-13


def test_erdos_lax_random_configurations():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        angles = rng.uniform(0.0, 2.0 * np.pi, m)
        total = rng.uniform(m, 12.0)
        exps = rng.uniform(1.0, 3.0, m)
        exps *= min(1.0, total / np.sum(exps))
        exps = np.maximum(exps, 1.0)
        lhs, rhs = erdos_lax_check(angles, exps)
        assert abs(lhs - rhs) <= 1e-6 * rhs


def test_erdos_lax_checks_in_one_polish_equal_each_alone():
    # the zeros of a check with fewer than the most are padded at the origin
    # with exponent 0, which adds exact zeros
    rng = np.random.default_rng(5)
    checks = [([1.0, 1.0 + 5e-4], [1.0, 2.5]), ([0.0, math.pi], [1.0, 1.0])]
    for _ in range(12):
        m = int(rng.integers(1, 7))
        checks.append((rng.uniform(0.0, 2.0 * np.pi, m), rng.uniform(1.0, 3.0, m)))
    got = circle._erdos_lax_checks(checks)
    assert got == [erdos_lax_check(angles, exps) for angles, exps in checks]
    with pytest.raises(ValueError):
        circle._erdos_lax_checks([([0.0], [1.0]), ([0.0], [0.5])])


def _erdos_lax_by_matrices(angles, exponents):
    # the (grid, m) matrix form that erdos_lax_check replaced, as a reference
    s = np.asarray(exponents, dtype=float)
    zk = np.exp(1j * np.asarray(angles, dtype=float))
    grid = 16384  # the dense grid that every check once sampled
    phi = (np.arange(grid) + 0.31) * 2.0 * np.pi / grid

    def moduli(p):
        z = np.exp(1j * p)
        d = z[..., None] - zk
        logd = np.log(d)
        logf = np.sum(s * logd, axis=-1)
        absf = np.exp(np.real(logf))
        near = np.min(np.abs(d), axis=-1) < 1e-3
        with np.errstate(divide="ignore", invalid="ignore"):
            absd = absf * np.abs(np.sum(s / d, axis=-1))
        if np.any(near):
            terms = s * np.exp(logf[near, None] - logd[near, :])
            absd[near] = np.abs(np.sum(terms, axis=1))
        return absd, absf

    absd, absf = moduli(phi)
    # the polish evaluates t - step and t + step as the two rows of one array
    top = circle._circle_maxes(lambda k: lambda p: np.where(k % 2 == 0, *moduli(p)), [(phi, absd), (phi, absf)])
    return (
        float(top[0]),
        0.5 * float(np.sum(s)) * float(top[1]),
    )


def test_erdos_lax_matches_the_matrix_form():
    rng = np.random.default_rng(43)
    configs = [([1.0, 1.0 + 5e-4], [1.0, 2.5])]  # two zeros closer than 1e-3
    for _ in range(20):
        m = int(rng.integers(1, 6))
        configs.append((rng.uniform(0.0, 2.0 * np.pi, m), rng.uniform(1.0, 3.0, m)))
    for angles, exps in configs:
        # the reference's grid step is 3.8e-4, so some sample lies within 1e-3 of each zero
        got = erdos_lax_check(angles, exps)
        want = _erdos_lax_by_matrices(angles, exps)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_erdos_lax_rejects_an_exponent_sum_that_overflows():
    # 2^S S/2 is the most |F'| and S/2 |F| can reach, and the peak filter
    # doubles a sample; the first two once gave (-inf, -inf) with overflow warnings
    for exps in ([1e6], [1e300], [1014.1], [507.0, 507.1]):
        with pytest.raises(ValueError, match="overflows"):
            erdos_lax_check([0.0] * len(exps), exps)
    lhs, rhs = erdos_lax_check([0.0], [1014.0])
    assert math.isfinite(lhs) and abs(lhs - rhs) <= 1e-14 * rhs


def test_erdos_lax_checks_of_no_checks_are_empty():
    # once max() of an empty sequence
    assert circle._erdos_lax_checks([]) == []


def _erdos_lax_dense(angles, exponents, grid=16384):
    # both maxima from the dense offset grid that every check once sampled
    a, s = np.asarray(angles, dtype=float), np.asarray(exponents, dtype=float)
    phi = (np.arange(grid) + 0.31) * 2.0 * np.pi / grid
    d, f = circle._erdos_lax_moduli(phi, a, s)

    def bind(k):
        return lambda p: np.where(k % 2 == 0, *circle._erdos_lax_moduli(p, a, s))

    top = circle._circle_maxes(bind, [(phi, d), (phi, f)])
    return float(top[0]), float(top[1])


def test_erdos_lax_at_its_bandwidth_loses_no_peak():
    # each check samples 20 ceil(S) + 100 angles; against 16384, with close
    # pairs of zeros and exponents just above 1, whose |F'| peaks sharply
    rng = np.random.default_rng(2602)
    configs = []
    for _ in range(150):
        m = int(rng.integers(1, 7))
        angles, exps = rng.uniform(0.0, 2.0 * np.pi, m), rng.uniform(1.0, 3.0, m)
        if m > 1 and rng.random() < 0.3:
            angles[1] = angles[0] + 10.0 ** rng.uniform(-3.0, math.log10(0.05))
        if rng.random() < 0.3:
            exps[0] = 1.0 + 10.0 ** rng.uniform(-6.0, math.log10(0.05))
        configs.append((angles, exps))
    worst = 0.0
    for (angles, exps), (lhs, rhs) in zip(configs, circle._erdos_lax_checks(configs)):
        d, f = _erdos_lax_dense(angles, exps)
        worst = max(worst, abs(lhs - d) / d, abs(rhs / (0.5 * np.sum(exps)) - f) / f)
    assert worst <= 5e-15


def test_circle_sups_at_their_bandwidth_lose_no_peak():
    # each lift samples 20 ceil(2n + 1 + e_plus + e_minus) + 100 angles; against
    # 16384, on the verify weights and a lopsided one
    fs = [
        circle_minimizer_from_interval(w, solve(w, n))
        for w in map(WeightParams, (0.5, 0.75, 1.0, 0.75, 0.6), (0.5, 0.75, 1.0, 1.25, 1.5))
        for n in (*range(1, 13), 24)
    ]
    phi = np.linspace(0.0, 2.0 * np.pi, 16384, endpoint=False)
    for f, got in zip(fs, circle._circle_sups(fs)):
        (want,) = circle._circle_maxes(lambda k: f.modulus_at_angle, [(phi, f.modulus_at_angle(phi))])
        assert abs(got - want) <= 5e-15 * want


def test_polya_szego_explicit_cases():
    assert np.allclose(polya_szego_combine([0.0]), [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(polya_szego_combine([0.5]), [-1.0, 0.0, 1.0], atol=1e-15)
    p = polya_szego_combine([0.5j])
    assert np.allclose(p, [-1.0, -1.0j, 1.0], atol=1e-15)
    roots = sorted(polya_szego_roots([0.5j]), key=lambda z: z.real)
    expected = [(-math.sqrt(3.0) + 1.0j) / 2.0, (math.sqrt(3.0) + 1.0j) / 2.0]
    assert np.allclose(roots, expected, atol=1e-10)
    with pytest.raises(ValueError):
        polya_szego_combine([1.2])


def test_polya_szego_roots_on_unit_circle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        pts = rng.uniform(-1.0, 1.0, m) + 1j * rng.uniform(-1.0, 1.0, m)
        pts = np.where(np.abs(pts) > 0.99, pts * 0.99 / np.abs(pts), pts)
        roots = polya_szego_roots(pts)
        assert len(roots) == m + 1
        assert np.max(np.abs(np.abs(roots) - 1.0)) <= 1e-8


def test_polya_szego_conjugation_closed_endpoint_zeros():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        half = rng.uniform(-0.7, 0.7, m) + 1j * rng.uniform(0.05, 0.7, m)
        real_pt = rng.uniform(-0.9, 0.9)
        # odd count, closed under conjugation
        pts = np.concatenate((half, np.conj(half), [real_pt]))
        p = polya_szego_combine(pts)
        at_one = complex(np.polynomial.polynomial.polyval(1.0, p))
        at_minus = complex(np.polynomial.polynomial.polyval(-1.0, p))
        assert abs(at_one) <= 1e-12
        assert abs(at_minus) <= 1e-12
