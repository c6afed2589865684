"""Tests for Jacobi evaluation, normalization, and weighted sups."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebroots

from widomlab import bounds, minimax, special
from widomlab.special import (
    JacobiParams,
    WeightParams,
    _bracketed_newton,
    _polish_peaks,
    jacobi_eval,
    log_gamma,
    monic_scale,
    param_to_weight,
    weight_to_param,
)
from widomlab.bounds import weighted_monic_jacobi_sup


def test_log_gamma_known_values():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - 0.5723649429247001) < 1e-15
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-14


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_param_validation():
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiParams(0.0, -1.5)
    with pytest.raises(ValueError):
        WeightParams(-0.1, 0.0)
    assert JacobiParams(0.3, -0.2).q == 0.3


def test_parameter_maps_are_inverse():
    assert param_to_weight(JacobiParams(0.0, 0.0)) == WeightParams(0.25, 0.25)
    assert param_to_weight(JacobiParams(-0.5, 0.5)) == WeightParams(0.0, 0.5)
    rng = np.random.default_rng(11)
    for _ in range(50):
        # alpha >= -1/2 keeps the image inside the valid weight-exponent range
        a, b = rng.uniform(-0.5, 3.0, size=2)
        w = param_to_weight(JacobiParams(a, b))
        p = weight_to_param(w)
        assert abs(p.alpha - a) < 1e-14 and abs(p.beta - b) < 1e-14


def test_jacobi_eval_degree_zero():
    v, d = jacobi_eval(JacobiParams(0.7, -0.3), 0, 0.42)
    assert v == 1.0 and d == 0.0


def test_jacobi_eval_legendre_cubic():
    # (5x^3 - 3x)/2 at x = 1/2
    v, _ = jacobi_eval(JacobiParams(0.0, 0.0), 3, 0.5)
    assert abs(v - (-0.4375)) < 1e-15


def test_jacobi_eval_degree_one():
    # P_1 = ((alpha+beta+2)x + (alpha-beta))/2
    v, d = jacobi_eval(JacobiParams(0.5, -0.5), 1, 0.0)
    assert abs(v - 0.5) < 1e-15
    assert abs(d - 1.0) < 1e-15


def test_jacobi_eval_array_input():
    x = np.linspace(-1.0, 1.0, 7)
    v, d = jacobi_eval(JacobiParams(0.25, -0.25), 5, x)
    assert v.shape == x.shape and d.shape == x.shape
    for i, xi in enumerate(x):
        vi, di = jacobi_eval(JacobiParams(0.25, -0.25), 5, float(xi))
        assert v[i] == vi and d[i] == di


def test_jacobi_eval_takes_one_degree_by_the_rule_of_solve():
    p = JacobiParams(0.1, 0.2)
    want = jacobi_eval(p, 2, 0.3)
    assert jacobi_eval(p, 2.0, 0.3) == jacobi_eval(p, np.int64(2), 0.3) == want
    for bad in (2.5, math.nan, math.inf, -1):
        with pytest.raises(ValueError):
            jacobi_eval(p, bad, 0.3)
    with pytest.raises(ValueError, match="one degree"):
        jacobi_eval(p, np.array([1, 2]), np.array([0.3, 0.4]))


def test_jacobi_eval_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.uniform(-0.9, 1.0, size=2)
        n = int(rng.integers(1, 12))
        x = float(rng.uniform(-0.95, 0.95))
        p = JacobiParams(a, b)
        _, d = jacobi_eval(p, n, x)
        h = 1e-6
        vp, _ = jacobi_eval(p, n, x + h)
        vm, _ = jacobi_eval(p, n, x - h)
        assert abs(d - (vp - vm) / (2.0 * h)) < 1e-5


def test_jacobi_eval_endpoint_gamma_identity():
    # P_n(1) = Gamma(n+alpha+1) / (Gamma(alpha+1) Gamma(n+1))
    for a in (-0.75, -0.25, 0.0, 0.5, 1.0):
        for b in (-0.5, 0.25, 1.0):
            for n in (1, 3, 8, 15):
                v, _ = jacobi_eval(JacobiParams(a, b), n, 1.0)
                ref = math.exp(log_gamma(n + a + 1.0) - log_gamma(a + 1.0) - log_gamma(n + 1.0))
                assert abs(v - ref) <= 1e-11 * abs(ref)


def test_monic_scale_values():
    assert monic_scale(JacobiParams(0.3, -0.4), 0) == 1.0
    assert abs(monic_scale(JacobiParams(0.0, 0.0), 2) - 4.0 / 6.0) < 1e-15
    assert abs(monic_scale(JacobiParams(0.5, 0.5), 1) - 2.0 / 3.0) < 1e-15


def test_monic_scale_rejects_degrees_that_are_not_whole():
    # 2.5 once gave 0.5207, and nan failed inside log_gamma
    p = JacobiParams(0.3, -0.4)
    for n in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            monic_scale(p, n)
    with pytest.raises(ValueError, match="nonnegative"):
        monic_scale(p, -1)
    assert monic_scale(p, 3.0) == monic_scale(p, np.int64(3)) == monic_scale(p, 3)


def test_monic_scale_matches_recurrence_leading_coefficient():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a, b = rng.uniform(-0.9, 1.0, size=2)
        n = int(rng.integers(1, 21))
        # leading coefficient of P_n from the recurrence: prod of the x-slopes
        lead = 0.5 * (a + b + 2.0)
        for k in range(2, n + 1):
            s = a + b
            ak = 2.0 * k * (k + s) * (2.0 * k + s - 2.0)
            ck = (2.0 * k + s - 2.0) * (2.0 * k + s - 1.0) * (2.0 * k + s)
            lead *= ck / ak
        assert abs(monic_scale(JacobiParams(a, b), n) * lead - 1.0) < 1e-12


def test_bracketed_newton_keeps_an_exact_zero():
    # Newton from -0.25 lands on 0.0 exactly, where f vanishes
    x = _bracketed_newton(
        lambda x: (x, np.ones_like(x)), np.array([-1.0]), np.array([0.5]), -1.0, 1e-15, 100
    )
    assert x[0] == 0.0


def test_bracketed_newton_accepts_the_bracket_end():
    # Newton from -0.5 lands exactly on hi = 0.0, the root: no bisection after it
    calls = []

    def f(x):
        calls.append(1)
        return x, np.ones_like(x)

    x = _bracketed_newton(f, np.array([-1.0]), np.array([0.0]), -1.0, 1e-15, 100)
    assert x[0] == 0.0
    assert len(calls) <= 3


def test_bracketed_newton_stops_once_converged(monkeypatch):
    # evaluations of f per call, through a counting wrapper around each f
    counts = []

    def counting(f, *args):
        calls = []

        def g(x, *live):
            calls.append(1)
            return f(x, *live)

        out = _bracketed_newton(g, *args)
        counts.append(len(calls))
        return out

    monkeypatch.setattr(special, "_bracketed_newton", counting)
    monkeypatch.setattr(minimax, "_bracketed_newton", counting)

    # root mode: the roots of a solution, one bracket per reference gap
    w = WeightParams(0.3, 0.4)
    sol = minimax.solve(w, 8)
    counts.clear()
    roots = np.array(sol.roots())
    assert len(counts) == 1 and counts[0] <= 8
    assert np.max(np.abs(roots - np.sort(chebroots(sol.poly.full_cheb_coeffs()).real))) <= 1e-14

    # one certified extremum step: a single _refine_newton call, no hump search
    counts.clear()
    minimax.error_extrema(w, sol.poly, 500)
    assert len(counts) == 1 and counts[0] <= 8


def test_bracketed_newton_stops_on_a_two_cycle():
    # Newton hops between a and b, 8 ulp apart, forever: f's value jumps
    # across the root between them.  The point is done once it returns to
    # its iterate of two steps before.
    a = 0.75
    b = a + 8 * np.spacing(a)
    calls = []

    def f(x):
        calls.append(1)
        return np.where(x <= a, x - b, x - a), np.ones_like(x)

    x = _bracketed_newton(f, np.array([a - 1e-3]), np.array([a + 1e-3]), -1.0, 1e-16, 50)
    assert x[0] in (a, b)
    assert len(calls) <= 4


def test_bracketed_newton_names_the_running_brackets_to_its_callback():
    # cube roots of c, in consecutive blocks of brackets: block 2 starts on its
    # root 1, the others stop in turn (3 last), and the empty block 1 never runs
    counts = np.array([3, 0, 1, 4, 2])
    c = np.array([1.001, 1.1, 0.9, 1.0, 0.01, 0.02, 0.05, 0.1, 3.0, 5.0])
    lo, hi = np.zeros(c.size), np.full(c.size, 2.0)
    starts = np.cumsum(counts) - counts

    def cube(c, calls):
        def f(x, live, at):
            calls.append((live, at))
            return x**3 - c[at], 3.0 * x**2

        return f

    calls = []
    got = _bracketed_newton(cube(c, calls), lo, hi, -1.0, 1e-16, 60, counts)
    for live, at in calls:
        assert np.all(np.diff(live) > 0) and 1 not in live
        assert np.array_equal(at, np.concatenate([starts[b] + np.arange(counts[b]) for b in live]))
    assert [live.tolist() for live, _ in calls[:: len(calls) - 1]] == [[0, 2, 3, 4], [3]]
    assert len({live.size for live, _ in calls}) == 4
    # each block alone, bit for bit
    for b in np.flatnonzero(counts):
        part = np.s_[starts[b] : starts[b] + counts[b]]
        alone = _bracketed_newton(cube(c[part], []), lo[part], hi[part], -1.0, 1e-16, 60, counts[b : b + 1])
        assert np.array_equal(got[part], alone)
    assert np.max(np.abs(got**3 - c) / c) <= 1e-15


def test_polish_peaks_finds_maxima_between_grid_points():
    # cos(4(t - c)) peaks at c and c + pi/2 in [0, pi], neither a grid point
    c = 0.4321

    def f(t):
        return np.cos(4.0 * (t - c))

    grid = np.linspace(0.0, np.pi, 40)
    y = f(grid)
    idx = np.nonzero((y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    assert idx.size == 2 and np.all(y[idx] < 1.0 - 1e-4)
    top = _polish_peaks(f, grid[idx], y[idx], grid[1])
    assert np.all(top > 1.0 - 1e-14)
    # a step per point gives the same polish, and the caller's steps stay as passed
    steps = np.full(idx.size, grid[1])
    assert np.array_equal(_polish_peaks(f, grid[idx], y[idx], steps), top)
    assert np.all(steps == grid[1])


def _tail_grid_searching_every_tail(ra, rb, size):
    # the tail grid with the tie search run on every tail, whatever its exponent
    step = np.pi / (size - 1)
    u = step * 0.5 ** np.arange(1, 64)
    lo = u[u >= special._TAIL_END][::-1] if ra > 0.0 else u[:0]
    hi = np.pi - u[u >= np.spacing(np.pi)] if rb > 0.0 else u[:0]
    keep_lo = special._untied(special._weight_theta(ra, rb, lo), special._weight_theta(ra, 0.0, lo))
    keep_hi = special._untied(special._weight_theta(ra, rb, hi)[::-1], special._weight_theta(0.0, rb, hi)[::-1])
    theta = np.linspace(0.0, np.pi, size)
    return np.concatenate((theta[:1], lo[keep_lo], theta[1:-1], hi[keep_hi[::-1]], theta[-1:]))


def test_tail_grid_searches_ties_only_below_their_exponent(monkeypatch):
    # from 1e-14 on no tail point ties, so the search that costs four weight
    # evaluations per grid runs only on a tail with a smaller exponent
    rng = np.random.default_rng(4008)
    draws = [(0.0, 1e-300), (1e-17, 0.3), (1e-14, 2e-15), (60.0, 1e-16)]
    for _ in range(200):
        ra, rb = 10.0 ** rng.uniform(-14.0, math.log10(60.0), 2)
        draws.append((ra, rb) if rng.random() < 0.8 else (ra, 0.0))
    sizes = rng.integers(20, 30000, len(draws)).tolist()
    for (ra, rb), size in zip(draws, sizes):
        assert np.array_equal(special._tail_grid(ra, rb, size), _tail_grid_searching_every_tail(ra, rb, size))
    calls = []
    weight = special._weight_theta
    monkeypatch.setattr(special, "_weight_theta", lambda *args: calls.append(args) or weight(*args))
    for ra, rb in ((0.3, 0.7), (1e-14, 60.0), (0.0, 0.5), (0.0, 0.0)):
        special._tail_grid(ra, rb, 500)
    assert calls == []
    special._tail_grid(1e-16, 0.3, 500)
    assert len(calls) == 2
    special._tail_grid(1e-16, 1e-300, 500)
    assert len(calls) == 6


def test_weighted_sup_classical_kinds():
    # unweighted monic first kind: 2^{1-n}
    assert abs(weighted_monic_jacobi_sup(WeightParams(0.0, 0.0), 3) - 0.25) < 1e-9
    # second kind with sqrt(1-x^2) weight: 2^{-n}
    assert abs(weighted_monic_jacobi_sup(WeightParams(0.5, 0.5), 2) - 0.25) < 1e-9


def test_weighted_sup_frozen_interior_case():
    # dense-grid maximization oracle (10x resolution) for rho = (0.3, 0.3), n = 4
    got = weighted_monic_jacobi_sup(WeightParams(0.3, 0.3), 4)
    assert abs(got - 0.08012820512820513) < 1e-9


def test_weighted_sup_degree_zero_is_weight_max():
    # n = 0: sup of the bare weight
    assert abs(weighted_monic_jacobi_sup(WeightParams(0.0, 0.0), 0) - 1.0) < 1e-12
    assert abs(weighted_monic_jacobi_sup(WeightParams(1.0, 0.0), 0) - 2.0) < 1e-9


@pytest.mark.parametrize("ra", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("rb", [0.0, 0.25, 0.5])
def test_weighted_sup_over_degrees_equals_per_degree_calls(ra, rb):
    w = WeightParams(ra, rb)
    single = [weighted_monic_jacobi_sup(w, n) for n in range(21)]
    batch = weighted_monic_jacobi_sup(w, range(21))
    assert isinstance(batch, np.ndarray) and batch.tolist() == single
    unsorted = [7, 0, 20, 3, 3, 12, 1]
    assert weighted_monic_jacobi_sup(w, unsorted).tolist() == [single[n] for n in unsorted]
    assert isinstance(weighted_monic_jacobi_sup(w, 5), float)
    empty = weighted_monic_jacobi_sup(w, [])
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    with pytest.raises(ValueError):
        weighted_monic_jacobi_sup(w, [2, -1])


def test_weighted_sups_over_weights_equal_each_weight_alone():
    # the peaks of all weights are refined together, under per-point
    # exponents; 0.5 and 2 cover the points that take numpy's sqrt and square
    rhos = (0.0, 0.125, 0.5, 1.0, 2.0, 0.004)
    weights = [WeightParams(ra, rb) for rb in rhos for ra in rhos]
    ns = np.arange(0, 13)
    got = bounds._jacobi_sups(weights, ns)
    for w, row in zip(weights, got):
        assert np.array_equal(row, weighted_monic_jacobi_sup(w, ns))


def test_weighted_sups_at_their_bandwidth_lose_no_peak(monkeypatch):
    # degree k samples 10 k + 50 points; against the same step on the
    # solver's 30 k + 200, within the series stage's own error
    weights = [WeightParams(ra, rb) for rb in (0.0, 0.25, 0.5) for ra in (0.0, 0.125, 0.5)]
    weights += [WeightParams(1.5, 0.2), WeightParams(3.0, 0.0), WeightParams(0.001, 0.3)]
    ns = [*range(0, 41), 103, 150]
    got = bounds._jacobi_sups(weights, ns)
    dense = minimax._certified_extrema
    monkeypatch.setattr(
        bounds,
        "_certified_extrema",
        lambda batch, degrees, coefs, sizes: dense(batch, degrees, coefs, [minimax._grid_size(k) for k in degrees]),
    )
    want = bounds._jacobi_sups(weights, ns)
    assert np.max(np.abs(got - want) / want) <= 2e-13


def test_weighted_sups_at_the_constant_corners_equal_their_closed_form():
    # at the four corners w |P_k| is a Chebyshev polynomial of one of the four
    # kinds, whose weighted sup is 2^{1 - rho_a - rho_b - k}; the series of the
    # monic recurrence miss it by at most 4.1e-14 at k <= 200, where the DCT
    # of values at the Chebyshev--Lobatto points missed by 1.13e-12
    corners = [WeightParams(ra, rb) for rb in (0.0, 0.5) for ra in (0.0, 0.5)]
    ks = np.arange(1, 201)
    got = bounds._jacobi_sups(corners, ks)
    for w, row in zip(corners, got):
        want = np.ldexp(2.0 ** (1.0 - w.rho_a - w.rho_b), -ks)
        assert np.max(np.abs(row - want) / want) <= 3e-13


def test_weighted_sups_check_their_degrees_once(monkeypatch):
    # one check of the degrees for the whole sweep, none per (weight, degree)
    calls = []
    check = special._whole_degrees

    def counting(n, least):
        calls.append(n)
        return check(n, least)

    monkeypatch.setattr(special, "_whole_degrees", counting)
    monkeypatch.setattr(bounds, "_whole_degrees", counting)
    weights = [WeightParams(ra, rb) for rb in (0.0, 0.25, 0.5) for ra in (0.0, 0.25, 0.5)]
    bounds._jacobi_sups(weights, range(8))
    assert len(calls) == 1


def test_weighted_sups_hold_the_series_of_one_batch_at_a_time(monkeypatch):
    # with the extremum steps stubbed, what is left is the series stage; a table
    # of every degree's series would alone be 9 * sum(k + 1) * 8 bytes = 1.46 MB
    weights = [WeightParams(ra, rb) for rb in (0.0, 0.25, 0.5) for ra in (0.0, 0.25, 0.5)]
    monkeypatch.setattr(bounds, "_certified_extrema", lambda batch, degrees, coefs, sizes: [(None, c) for c in coefs])
    tracemalloc.start()
    try:
        sups = bounds._jacobi_sups(weights, range(201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sups.shape == (9, 201)
    assert peak < 1e6


def _sweep_series(monkeypatch, w, ns) -> dict:
    """The series of each degree that the sweep of ``w`` over ``ns`` hands to its extremum steps."""
    series = {}

    def record(batch, degrees, coefs, sizes):
        series.update((k, c[: k + 1]) for k, c in zip(degrees, coefs))
        return [(None, c) for c in coefs]

    monkeypatch.setattr(bounds, "_certified_extrema", record)
    bounds._jacobi_sups([w], ns)
    return series


def test_monic_series_at_the_first_kind_are_exact(monkeypatch):
    # at (0, 0) p_k = 2^{1-k} T_k, and a_k = 0 and b_k = 1/4 from k = 2 on are exact
    series = _sweep_series(monkeypatch, WeightParams(0.0, 0.0), range(401))
    for k in range(1, 401):
        want = np.zeros(k + 1)
        want[k] = 2.0 ** (1 - k)
        assert series[k].tobytes() == want.tobytes()


def test_monic_series_match_the_recurrence_in_40_digits(monkeypatch):
    # alpha + beta = 0 here, where a_0 takes its cancelled form
    mpmath = pytest.importorskip("mpmath")
    w, n = WeightParams(0.125, 0.375), 200
    got = _sweep_series(monkeypatch, w, [n])[n]
    p = weight_to_param(w)
    with mpmath.workdps(40):
        a, b = mpmath.mpf(p.alpha), mpmath.mpf(p.beta)
        s, zero = a + b, mpmath.mpf(0)
        before, series = [], [mpmath.mpf(1)]
        for k in range(n):
            m = 2 * k + s
            ak = (b - a) / (s + 2) if k == 0 else (b * b - a * a) / (m * (m + 2))
            if k < 2:
                bk = k * 4 * (1 + a) * (1 + b) / ((2 + s) ** 2 * (3 + s))
            else:
                bk = 4 * k * (k + a) * (k + b) * (k + s) / (m * m * (m + 1) * (m - 1))
            new = [zero] * (k + 2)
            for j, c in enumerate(series):
                new[j + 1] += c if j == 0 else c / 2
                if j:
                    new[j - 1] += c / 2
                new[j] -= ak * c
            for j, c in enumerate(before):
                new[j] -= bk * c
            before, series = series, new
        want = np.array([float(c) for c in series])
        scale = float(sum(abs(c) for c in series))
    assert np.max(np.abs(got - want)) <= 4e-16 * scale


def test_weighted_sups_step_each_degree_once(monkeypatch):
    # the series of each degree come from the one before it: one step per
    # degree up to the highest, not k steps for degree k
    steps = []
    step = bounds._monic_step

    def counting(a, b, k, p, q):
        steps.append(k)
        return step(a, b, k, p, q)

    monkeypatch.setattr(bounds, "_monic_step", counting)
    monkeypatch.setattr(bounds, "_certified_extrema", lambda batch, degrees, coefs, sizes: [(None, c) for c in coefs])
    weights = [WeightParams(ra, rb) for rb in (0.0, 0.25, 0.5) for ra in (0.0, 0.25, 0.5)]
    bounds._jacobi_sups(weights, [17, 3, 120, 40, 3, 0])
    assert steps == list(range(120))
