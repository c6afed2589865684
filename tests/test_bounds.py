"""Tests for the M_n bound, ratio function, coefficient lemma, and sup bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widomlab import bounds
from widomlab.bounds import (
    BoundReport,
    PropertyViolation,
    asymptote,
    c_coeffs,
    cgw_rhs,
    m_bound,
    m_bound_raw,
    m_ratio,
    verify_coeff_lemma,
    verify_m_monotone,
    weight_sup_bound,
    weighted_monic_jacobi_sup,
)
from widomlab.minimax import solve
from widomlab.special import (
    JacobiParams,
    WeightParams,
    jacobi_eval,
    monic_scale,
    param_to_weight,
    weight_to_param,
)


def grid9():
    vals = np.linspace(-0.5, 0.5, 9)
    return [JacobiParams(float(a), float(b)) for a in vals for b in vals]


def test_m_bound_frozen_values():
    # sqrt(2) Gamma(2) / ((3/2)^{1/2} Gamma(3/2)), computed independently
    assert abs(m_bound(JacobiParams(0.0, 0.0), 1) - 1.3029400317411198) < 1e-13
    # algebraically exactly 1; log-Gamma rounding leaves ~1e-13 noise at n=100
    for n in (1, 2, 7, 100):
        assert abs(m_bound(JacobiParams(0.5, 0.5), n) - 1.0) < 1e-12


def test_m_bound_limit_is_asymptote():
    assert abs(m_bound(JacobiParams(0.0, 0.0), 10**6) - math.sqrt(2.0)) < 1e-6


def test_m_bound_domain_errors():
    with pytest.raises(ValueError):
        m_bound(JacobiParams(0.6, 0.0), 3)
    with pytest.raises(ValueError):
        m_bound(JacobiParams(0.0, -0.7), 3)
    with pytest.raises(ValueError):
        m_bound(JacobiParams(0.0, 0.0), 0)


def test_m_bound_rejects_degrees_that_are_not_whole():
    # nan once came back as nan and 2.5 as 1.3568; integral floats and numpy ints still work
    p = JacobiParams(0.2, -0.3)
    for n in (2.5, math.nan, math.inf, [1, math.nan], [1.0, 2.5]):
        with pytest.raises(ValueError, match="integer"):
            m_bound(p, n)
    assert m_bound(p, 3.0) == m_bound(p, np.int64(3)) == m_bound(p, 3)
    assert m_bound(p, [1.0, 3.0]).tolist() == m_bound(p, [1, 3]).tolist()


def test_m_bound_raw_rejects_degrees_that_are_not_whole():
    p = JacobiParams(0.2, -0.3)
    for n in (2.5, math.nan):
        with pytest.raises(ValueError, match="integer"):
            m_bound_raw(p, n)
    assert m_bound_raw(p, 3.0) == m_bound_raw(p, np.int64(3)) == m_bound_raw(p, 3)


def test_m_bound_over_degrees_equals_scalar_calls():
    for p in grid9():
        ns = [1, 2, 3, 17, 5, 1000, 999]
        got = m_bound(p, ns)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [m_bound(p, n) for n in ns]
        assert m_bound(p, np.arange(1, 7).reshape(2, 3)).shape == (2, 3)
    p = JacobiParams(0.0, 0.0)
    with pytest.raises(ValueError):
        m_bound(p, [3, 0, 4])
    with pytest.raises(ValueError):
        m_bound(JacobiParams(0.6, 0.0), [3, 4])


def _m_bound_scalar(p, n):
    # the scalar formula of m_bound, one math call per term
    q, s = p.q, p.alpha + p.beta
    return math.exp(
        0.5 * (1.0 - s) * math.log(2.0)
        + math.lgamma(n + q + 1.0)
        + math.lgamma(n + s + 1.0)
        - (q + 0.5) * math.log(n + 0.5 * (s + 1.0))
        - math.lgamma(n + 0.5 * (s + 1.0))
        - math.lgamma(n + 0.5 * s + 1.0)
    )


def test_m_bounds_over_the_grid_equal_each_weight_alone():
    # the batch tabulates each log-Gamma and log term once per distinct
    # argument, shared by the 81 weights, but keeps math.exp per entry
    params, ns = grid9(), np.arange(1, 301)
    table = bounds._m_bounds(params, ns)
    assert table.shape == (81, 300)
    for p, row in zip(params, table):
        assert np.array_equal(row, m_bound(p, ns))
        assert [row[n - 1] for n in (1, 2, 17, 300)] == [_m_bound_scalar(p, n) for n in (1, 2, 17, 300)]
    p = JacobiParams(0.1, -0.3)
    assert m_bound(p, 10**6) == _m_bound_scalar(p, 10**6)


def test_scalar_m_bound_equals_its_batch_entry():
    # the scalar call takes math's functions at one degree and the batch its
    # tables, both through one M_n expression: each entry bit for bit
    rng = np.random.default_rng(29)
    params = [JacobiParams(*ab) for ab in rng.uniform(-0.5, 0.5, (30, 2)).tolist()]
    params += grid9()[::10]
    ns = np.concatenate((np.arange(1, 21), rng.integers(21, 5000, 30)))
    table = bounds._m_bounds(params, ns)
    assert table.size >= 1500
    for p, row in zip(params, table):
        assert row.tolist() == [m_bound(p, n) for n in ns.tolist()]


def test_m_bound_raw_form_agrees():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b = rng.uniform(-0.5, 0.5, size=2)
        n = int(rng.integers(1, 21))
        p = JacobiParams(float(a), float(b))
        x, y = m_bound(p, n), m_bound_raw(p, n)
        assert abs(x - y) <= 1e-12 * abs(x)


def test_m_ratio_frozen_values():
    assert abs(m_ratio(JacobiParams(0.0, 0.0), 1.0) - 1.0327955589886445) < 1e-14
    for x in (0.5, 1.0, 3.7, 40.0):
        assert m_ratio(JacobiParams(0.5, 0.5), x) == 1.0
    assert abs(m_ratio(JacobiParams(0.25, -0.25), 1e6) - 1.0) < 1e-6


def test_m_ratio_matches_bound_quotient():
    for p in (JacobiParams(0.0, 0.0), JacobiParams(0.4, -0.3), JacobiParams(-0.5, -0.5)):
        for n in range(1, 51):
            q = m_bound(p, n + 1) / m_bound(p, n)
            assert abs(m_ratio(p, float(n)) - q) <= 1e-12


def test_m_bound_monotone_on_grid():
    for p in grid9():
        at_corner = abs(p.alpha) == 0.5 and abs(p.beta) == 0.5
        prev = m_bound(p, 1)
        for n in range(2, 201):
            cur = m_bound(p, n)
            if at_corner:
                assert abs(cur - prev) <= 1e-12
            else:
                assert cur > prev
            prev = cur


def test_m_bound_deficit_shrinks_like_one_over_n():
    # |M_n - limit| ~ |c2|/(2n) * limit; halving ratio confirms the 1/n rate
    for p in (JacobiParams(0.0, 0.0), JacobiParams(-0.125, -0.125), JacobiParams(0.375, 0.0)):
        lim = asymptote(param_to_weight(p))
        d1 = abs(m_bound(p, 1000) - lim)
        d2 = abs(m_bound(p, 2000) - lim)
        assert abs(d2 / d1 - 0.5) < 0.05
        c0, c1, c2 = c_coeffs(p)
        assert abs(d1 - lim * abs(c2) / 2000.0) < 0.05 * d1


def test_m_bound_converges_at_the_c2_rate():
    # M_n - limit = limit * c2 / (2n) + O(1/n^2), the rate that puts
    # criterion 3's 1e-4 gate at n = 1000 out of reach; on the sweep's grid
    # off its four corners, where c2 = 0 and M_n is flat (measured worst:
    # 1.20e-3 at n = 1000, 1.24e-4 at n = 10^4)
    for n, tol in ((1000, 2e-3), (10**4, 2e-4)):
        for p in grid9():
            if abs(p.alpha) == 0.5 and abs(p.beta) == 0.5:
                continue
            lim = asymptote(param_to_weight(p))
            rate = (m_bound(p, n) - lim) * 2 * n / (lim * c_coeffs(p)[2])
            assert abs(rate - 1.0) <= tol, (p, n, rate)


def test_m_monotone_reports_worst_drop():
    report = verify_m_monotone(n_max=60, samples=3, limit_tol=0.1)
    drops = []
    for b in (-0.5, 0.0, 0.5):
        for a in (-0.5, 0.0, 0.5):
            m = [m_bound(JacobiParams(a, b), n) for n in range(1, 61)]
            drops += [max(x - y, 0.0) for x, y in zip(m, m[1:])]
    # log-Gamma noise makes the flat corner sequences dip by ~1e-13
    assert max(drops) > 0.0
    assert report.max_violation == max(drops)


def test_c_coeffs_values():
    c0, c1, c2 = c_coeffs(JacobiParams(0.5, 0.5))
    assert c2 == 0.0 and abs(c1) < 1e-15
    c0, c1, c2 = c_coeffs(JacobiParams(0.0, 0.0))
    assert c2 == -0.25 and c0 == -0.25


def test_coeff_lemma_report():
    report = verify_coeff_lemma(60)
    assert isinstance(report, BoundReport)
    assert report.max_violation == 0.0
    assert len(report.values) == 3
    assert all(v <= 1e-12 for v in report.values)
    with pytest.raises(ValueError):
        verify_coeff_lemma(1)



def test_coeff_lemma_rejects_a_non_finite_tolerance():
    # every comparison against NaN is false, so a NaN tolerance once passed the lemma
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            verify_coeff_lemma(50, tol)


def test_m_monotone_rejects_a_non_finite_limit_tolerance():
    # a NaN limit_tol once passed the sweep that limit_tol=1e-4 fails at 48 points
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            verify_m_monotone(1000, 9, tol)


def test_coeff_lemma_names_a_positive_interior_point(monkeypatch):
    real = bounds._c_coeffs

    def bumped(a, b):
        c0, c1, c2 = real(a, b)
        hit = (np.asarray(a) == 0.25) & (np.asarray(b) == -0.25)
        return c0, np.where(hit, 1e-3, c1), c2

    monkeypatch.setattr(bounds, "_c_coeffs", bumped)
    with pytest.raises(PropertyViolation, match=r"at 1 points: \(0.25,-0.25\): c1 > 0"):
        verify_coeff_lemma(9)


def test_coeff_lemma_edge_factorization_spot_values():
    # c0 on the edge alpha = 1/2 vanishes at t = 1 (vertex (1/2, 1/2))
    c0, _, _ = c_coeffs(JacobiParams(0.5, 0.5))
    assert abs(c0) < 1e-15
    # c1 on the diagonal edge at t = 1/2 equals 2 (t+1/2) t (t-1) = -1/2
    _, c1, _ = c_coeffs(JacobiParams(0.0, 0.0))
    assert abs(c1 - (-0.5)) < 1e-15


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport((1, 3), (1.0, 2.0), True, 0.0, 0.0)
    with pytest.raises(ValueError):
        BoundReport((1, 2), (1.0, 2.0), True, 0.0, -1.0)


def test_cgw_rhs_frozen_value():
    assert abs(cgw_rhs(JacobiParams(0.5, 0.5), 1) - 0.375) < 1e-15
    with pytest.raises(ValueError):
        cgw_rhs(JacobiParams(0.51, 0.0), 1)


def _trig_weighted_sup(p: JacobiParams, n: int) -> float:
    # sup of (sin t/2)^{a+1/2} (cos t/2)^{b+1/2} |P_n(cos t)| from the monic sup
    w = param_to_weight(p)
    conv = 2.0 ** (-0.5 * (p.alpha + p.beta + 1.0))
    return conv * weighted_monic_jacobi_sup(w, n) / monic_scale(p, n)


def test_cgw_rhs_rejects_degrees_that_are_not_whole():
    p = JacobiParams(0.2, -0.3)
    for n in (2.5, math.nan):
        with pytest.raises(ValueError, match="integer"):
            cgw_rhs(p, n)
    assert cgw_rhs(p, 3.0) == cgw_rhs(p, np.int64(3)) == cgw_rhs(p, 3)


def test_cgw_saturated_at_chebyshev_corners():
    for a in (-0.5, 0.5):
        for b in (-0.5, 0.5):
            p = JacobiParams(a, b)
            for n in (1, 2, 5, 9, 100, 400):
                rhs = cgw_rhs(p, n)
                sup = _trig_weighted_sup(p, n)
                assert abs(rhs - sup) <= 1e-9 * rhs


@pytest.mark.parametrize("ra, rb, n", [(0.125, 0.375, 50), (0.3, 0.3, 4), (2.0, 0.5, 30)])
def test_weighted_sup_against_mpmath(ra, rb, n):
    # a second route: the grid peaks of w |P_n| from jacobi_eval, each refined in 30-digit
    # arithmetic on mpmath.jacobi by golden-section search between its neighbours; all
    # of them, since with rho = alpha / 2 + 1/4 they can agree to 1e-6
    mpmath = pytest.importorskip("mpmath")
    w = WeightParams(ra, rb)
    p = weight_to_param(w)
    theta = np.linspace(0.0, np.pi, 40 * n + 1)[1:-1]
    x = np.cos(theta)
    y = (1.0 - x) ** ra * (1.0 + x) ** rb * np.abs(jacobi_eval(p, n, x)[0])
    peaks = np.nonzero((y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    with mpmath.workdps(30):
        a, b = mpmath.mpf(p.alpha), mpmath.mpf(p.beta)
        s = a + b

        def mag(t):
            return (1 - t) ** ra * (1 + t) ** rb * abs(mpmath.jacobi(n, a, b, t))

        def peak(lo, hi):
            r = (mpmath.sqrt(5) - 1) / 2
            c, d = hi - r * (hi - lo), lo + r * (hi - lo)
            fc, fd = mag(c), mag(d)
            # 40 steps shrink the bracket to 4e-9 of two grid cells, where |w P_n| is flat to about 1e-18
            for _ in range(40):
                if fc >= fd:
                    hi, d, fd = d, c, fc
                    c = hi - r * (hi - lo)
                    fc = mag(c)
                else:
                    lo, c, fc = c, d, fd
                    d = lo + r * (hi - lo)
                    fd = mag(d)
            return max(fc, fd)

        best = max(peak(mpmath.mpf(x[i + 1]), mpmath.mpf(x[i - 1])) for i in peaks)
        scale = mpmath.exp(
            n * mpmath.log(2) + mpmath.loggamma(n + 1) + mpmath.loggamma(n + s + 1) - mpmath.loggamma(2 * n + s + 1)
        )
        want = float(scale * best)
    assert abs(weighted_monic_jacobi_sup(w, n) - want) <= 1e-12 * want


def test_weighted_sup_takes_degrees_by_the_rule_of_solve():
    # 2.0 once raised TypeError, while solve(w, 2.0) works
    w = WeightParams(0.3, 0.4)
    assert weighted_monic_jacobi_sup(w, 2.0) == weighted_monic_jacobi_sup(w, np.int64(2)) == weighted_monic_jacobi_sup(w, 2)
    assert weighted_monic_jacobi_sup(w, [0.0, 3.0]).tolist() == weighted_monic_jacobi_sup(w, [0, 3]).tolist()
    for n in (2.5, math.nan, [1, 2.5]):
        with pytest.raises(ValueError, match="integer"):
            weighted_monic_jacobi_sup(w, n)


def test_cgw_dominates_interior():
    p = JacobiParams(0.0, 0.0)
    for n in (1, 4, 9):
        assert cgw_rhs(p, n) >= _trig_weighted_sup(p, n)


def test_asymptote_values():
    assert asymptote(WeightParams(0.0, 0.0)) == 2.0
    assert asymptote(WeightParams(0.5, 0.5)) == 1.0
    assert asymptote(WeightParams(1.0, 1.0)) == 0.5


def test_weight_sup_bound_values():
    assert weight_sup_bound(WeightParams(1.0, 1.0)) == 1.0
    assert weight_sup_bound(WeightParams(1.0, 0.0)) == 2.0
    assert weight_sup_bound(WeightParams(0.5, 0.5)) == 1.0
    assert weight_sup_bound(WeightParams(0.0, 0.0)) == 1.0


def test_weight_sup_bound_is_weight_maximum():
    rng = np.random.default_rng(31)
    x = np.linspace(-1.0, 1.0, 4001)
    for _ in range(25):
        ra, rb = rng.uniform(0.0, 2.0, size=2)
        w = WeightParams(float(ra), float(rb))
        vals = (1.0 - x[1:-1]) ** ra * (1.0 + x[1:-1]) ** rb
        bound = weight_sup_bound(w)
        assert np.max(vals) <= bound + 1e-12
        xstar = (rb - ra) / (ra + rb)
        attained = (1.0 - xstar) ** ra * (1.0 + xstar) ** rb
        assert abs(attained - bound) < 1e-12


def test_weighted_sup_below_m_bound_chain():
    rhos = np.linspace(0.0, 0.5, 9)
    for ra in rhos:
        for rb in rhos:
            w = WeightParams(float(ra), float(rb))
            p = weight_to_param(w)
            for n in range(1, 21):
                sup = weighted_monic_jacobi_sup(w, n)
                assert sup <= m_bound(p, n) * (1.0 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(
    ra=st.floats(0.0, 0.5, allow_nan=False),
    rb=st.floats(0.0, 0.5, allow_nan=False),
)
def test_paper_chain_widom_below_jacobi_below_m_bound(ra, rb):
    # W_n <= 2^n sup |w P_n^Jacobi| <= M_n: the monic Jacobi polynomial is one
    # competitor of the minimax problem, and M_n bounds its weighted sup
    w = WeightParams(ra, rb)
    ns = np.arange(1, 13)
    jac = np.ldexp(weighted_monic_jacobi_sup(w, ns), ns)
    mn = m_bound(weight_to_param(w), ns)
    assert np.all(jac <= mn * (1.0 + 1e-9))
    for n, top in zip(ns, jac):
        assert solve(w, int(n)).widom <= top * (1.0 + 1e-9)
