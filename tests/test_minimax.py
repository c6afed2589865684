"""Tests for the weighted Remez solver and its equioscillation certificate."""

import math
import pickle
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widomlab import minimax
from widomlab.circle import _degree_zero_solution
from widomlab.minimax import (
    ChebyshevSolution,
    ConvergenceError,
    DegeneracyError,
    ExchangeError,
    MonicPolynomial,
    _cheb_eval_01,
    _cos_sin_k,
    _grid_size,
    _theta_eval,
    error_extrema,
    exchange,
    leveled_system,
    solve,
    solve_many,
    weight_eval,
)
from widomlab.special import WeightParams, _tail_grid, _weight_theta


def dense_weighted_max(w: WeightParams, poly: MonicPolynomial, samples: int = 200001) -> float:
    theta = np.linspace(0.0, np.pi, samples)
    x = np.cos(theta)
    wt = weight_eval(w, x)
    if w.rho_a > 0.0:
        wt[0] = 0.0
    if w.rho_b > 0.0:
        wt[-1] = 0.0
    return float(np.max(np.abs(wt * poly(x))))


def test_weight_eval_values():
    w = WeightParams(0.0, 0.0)
    assert weight_eval(w, 0.3) == 1.0 and weight_eval(w, 1.0) == 1.0
    assert weight_eval(WeightParams(1.0, 1.0), 0.0) == 1.0
    theta = np.linspace(0.01, 3.13, 50)
    got = weight_eval(WeightParams(0.5, 0.5), np.cos(theta))
    assert np.max(np.abs(got - np.sin(theta))) < 1e-14
    # endpoint zeros and the 0^0 = 1 convention
    assert weight_eval(WeightParams(0.5, 0.0), 1.0) == 0.0
    assert weight_eval(WeightParams(0.0, 0.5), 1.0) == 2.0**0.5
    with pytest.raises(ValueError):
        weight_eval(w, 1.5)


def test_monic_polynomial_invariants():
    p = MonicPolynomial(2, (0.0, 0.0))
    assert np.allclose(p.full_cheb_coeffs(), [0.0, 0.0, 0.5])
    assert p.power_coeffs()[-1] == 1.0
    assert abs(p(0.5) - (0.25 - 0.5)) < 1e-15
    with pytest.raises(ValueError):
        MonicPolynomial(2, (0.0,))


def test_monic_leading_coefficient_is_exactly_one():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 11, 20):
        coeffs = tuple(rng.normal(size=n))
        assert MonicPolynomial(n, coeffs).power_coeffs()[-1] == 1.0


def test_solve_first_kind_degree_two():
    sol = solve(WeightParams(0.0, 0.0), 2)
    assert np.allclose(sol.poly.power_coeffs(), [-0.5, 0.0, 1.0], atol=1e-14)
    assert abs(sol.norm - 0.5) < 1e-13
    assert abs(sol.widom - 2.0) < 1e-12
    assert np.allclose(sol.reference, [-1.0, 0.0, 1.0], atol=1e-12)


def test_solve_fourth_kind_degree_one():
    sol = solve(WeightParams(0.5, 0.0), 1)
    assert np.allclose(sol.poly.power_coeffs(), [0.5, 1.0], atol=1e-12)
    assert abs(sol.norm - math.sqrt(2.0) / 2.0) < 1e-13
    assert abs(sol.widom - math.sqrt(2.0)) < 1e-12


def test_solve_symmetric_weight_degree_one():
    # symmetry forces the root to 0; max of (1-x^2)|x| is 2/(3 sqrt 3)
    sol = solve(WeightParams(1.0, 1.0), 1)
    assert abs(sol.poly.power_coeffs()[0]) < 1e-14
    assert abs(sol.norm - 0.3849001794597505) < 1e-13
    assert abs(sol.widom - 0.7698003589195010) < 1e-12
    root = 1.0 / math.sqrt(3.0)
    assert np.allclose(sol.reference, [-root, root], atol=1e-12)


def test_solve_classical_kinds_constant_widom():
    cases = {
        (0.0, 0.0): 2.0,
        (0.5, 0.5): 1.0,
        (0.5, 0.0): math.sqrt(2.0),
        (0.0, 0.5): math.sqrt(2.0),
    }
    for (ra, rb), expected in cases.items():
        for n in range(1, 21):
            sol = solve(WeightParams(ra, rb), n)
            assert abs(sol.widom - expected) <= 1e-9 * expected


def test_roots_match_classical_kinds():
    # zeros of the first-, second-, fourth- and third-kind polynomials, as angles
    cases = {
        (0.0, 0.0): lambda k, n: (2 * k - 1) * np.pi / (2 * n),
        (0.5, 0.5): lambda k, n: k * np.pi / (n + 1),
        (0.5, 0.0): lambda k, n: 2 * k * np.pi / (2 * n + 1),
        (0.0, 0.5): lambda k, n: (2 * k - 1) * np.pi / (2 * n + 1),
    }
    for (ra, rb), angle in cases.items():
        for n in range(1, 21):
            want = np.sort(np.cos(angle(np.arange(1, n + 1), n)))
            got = np.array(solve(WeightParams(ra, rb), n).roots())
            assert np.max(np.abs(got - want)) <= 1e-12, (ra, rb, n)


def test_degree_zero_solution_has_no_roots():
    assert _degree_zero_solution(WeightParams(0.5, 0.5)).roots() == ()


def test_widom_is_derived_from_the_norm():
    for n in (1, 4, 9):
        sol = solve(WeightParams(0.3, 0.7), n)
        assert sol.widom == 2.0**n * sol.norm
        moved = replace(sol, norm=1.5 * sol.norm)
        assert moved.widom == 2.0**n * moved.norm


def test_solve_validates_arguments():
    with pytest.raises(ValueError):
        solve(WeightParams(0.0, 0.0), 0)
    with pytest.raises(ValueError):
        solve(WeightParams(0.0, 0.0), 3, tolerance=-1.0)


def test_non_finite_tolerances_are_rejected():
    # a NaN tolerance once stalled into ConvergenceError ("defect 1.101e-15 > nan"),
    # and an infinite one returned after one iteration at defect 0.357
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            solve(WeightParams(0.3, 0.6), 8, tolerance=tol)
        with pytest.raises(ValueError, match="finite"):
            solve_many([WeightParams(0.3, 0.6)], 8, tolerance=tol)


def test_non_integral_degrees_are_rejected():
    # a degree is not truncated: 2.7 once solved n = 2; integral floats and numpy ints still work
    w = WeightParams(0.3, 0.4)
    for n in (2.7, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            solve(w, n)
    with pytest.raises(ValueError, match="integer"):
        solve_many([w, w], [2.5, 3.0])
    assert solve(w, 3.0).poly == solve(w, np.int64(3)).poly == solve(w, 3).poly
    assert [s.poly.degree for s in solve_many([w, w], [2.0, np.int32(3)])] == [2, 3]


def test_solve_nonconvergence_carries_best_iterate():
    with pytest.raises(ConvergenceError) as info:
        solve(WeightParams(0.9, 0.2), 12, max_iter=1)
    err = info.value
    assert isinstance(err.best, ChebyshevSolution)
    assert err.defect == err.best.levelling_defect
    assert err.defect > 1e-12


def test_alternation_certificate_random_weights():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ra, rb = rng.uniform(0.0, 1.5, size=2)
        n = int(rng.integers(1, 26))
        w = WeightParams(float(ra), float(rb))
        sol = solve(w, n)
        assert sol.levelling_defect <= 1e-12
        x = np.array(sol.reference)
        e = weight_eval(w, x) * sol.poly(x)
        signs = np.sign(e)
        assert np.all(signs[:-1] * signs[1:] == -1.0)
        ae = np.abs(e)
        assert np.max(ae) <= sol.norm * (1.0 + 1e-13)
        assert np.min(ae) >= sol.norm * (1.0 - 1e-11)
        roots = sol.roots()
        assert len(roots) == n
        assert all(-1.0 <= r <= 1.0 for r in roots)
        # roots interlace the reference
        assert all(x[i] < roots[i] < x[i + 1] for i in range(n))
        # certified norm dominates a dense-grid sample of the true sup
        dense = dense_weighted_max(w, sol.poly, 50001)
        assert dense <= sol.norm * (1.0 + 1e-10)
        assert dense >= sol.norm * (1.0 - 1e-6)


@settings(derandomize=True, deadline=None)
@given(
    ra=st.floats(0.0, 1.5),
    rb=st.floats(0.0, 1.5),
    n=st.integers(1, 25),
)
# the boundary hump lies ~1e-18 from theta = pi, so its x rounds onto -1
@example(ra=0.0, rb=6.8932807574548875e-211, n=1)
def test_certificate_routes_agree(ra, rb, n):
    # the norm is the solver's own certified step, so error_extrema on the
    # solver's grid reproduces it; the levelled system on the returned
    # reference reproduces |h|, which de la Vallee-Poussin puts at most at
    # the norm, and the error alternates in sign there; the mirrored weight
    # x -> -x gives the same norm
    w = WeightParams(ra, rb)
    sol = solve(w, n)
    emax = max(abs(e) for _, e in error_extrema(w, sol.poly, 30 * n + 200))
    assert abs(emax - sol.norm) <= 1e-15 * sol.norm
    _, h = leveled_system(w, n, sol.reference)
    assert abs(h - sol.norm) <= 1e-12 * sol.norm
    x = np.array(sol.reference)
    signs = np.sign(weight_eval(w, x) * sol.poly(x))
    assert np.all(signs[:-1] * signs[1:] == -1.0)
    mirrored = solve(WeightParams(rb, ra), n)
    assert abs(mirrored.norm - sol.norm) <= 2e-12 * sol.norm


def _bits(out):
    """Every field of a solve's result, floats as hex: a solution, or an error and its best iterate."""
    if isinstance(out, Exception):
        return type(out).__name__, str(out), _bits(getattr(out, "best", None) or ())
    if out == ():
        return ()
    floats = (out.norm, out.levelling_defect, *out.poly.cheb_coeffs, *out.reference)
    return out.weight, out.iterations, tuple(v.hex() for v in floats)


def _alone(w, n, max_iter):
    """What ``solve(w, n)`` returns, or the solver error it raises."""
    try:
        return solve(w, n, max_iter=max_iter)
    except (ConvergenceError, ExchangeError, DegeneracyError) as exc:
        return exc


# at n = 20: (0, 0) stops after 1 iteration, the rest after 5 to 7, except
# (2, 2) and (20, 0), which find too few alternations at iteration 1
_BATCH = ((0.0, 0.3), (0.2, 0.5), (2.0, 2.0), (0.0, 0.0), (1.3, 0.7), (20.0, 0.0), (0.0, 1e-9), (0.6, 0.1))


@pytest.mark.parametrize(
    "max_iter, outcomes",
    [
        (60, {"ChebyshevSolution", "ExchangeError"}),
        (5, {"ChebyshevSolution", "ExchangeError", "ConvergenceError"}),
    ],
)
def test_solve_many_is_each_single_solve(max_iter, outcomes):
    # a weight's result does not depend on the batch around it, in any bit
    weights = [WeightParams(ra, rb) for ra, rb in _BATCH]
    alone = [_alone(w, 20, max_iter) for w in weights]
    batch = solve_many(weights, 20, max_iter=max_iter)
    assert [_bits(out) for out in batch] == [_bits(out) for out in alone]
    assert {type(out).__name__ for out in batch} == outcomes
    backwards = solve_many(weights[::-1], 20, max_iter=max_iter)[::-1]
    assert [_bits(out) for out in backwards] == [_bits(out) for out in alone]
    assert solve_many([], 20) == []
    with pytest.raises(ValueError):
        solve_many(weights, 0)


# each _BATCH weight at several degrees from 1 to 20, (2, 2) and (20, 0) at 20
_RAGGED = ((20, 3, 1), (7, 12), (20, 2), (1, 5, 20), (9, 16), (20, 4), (11, 2), (6, 18))


@pytest.mark.parametrize("max_iter", [60, 5])
def test_ragged_solve_many_is_each_single_solve(max_iter):
    # one batch of problems at different degrees, which stop at different
    # iterations or fail: each result is its single solve's, in every bit,
    # the error messages with their own n included
    problems = [(WeightParams(ra, rb), n) for (ra, rb), ns in zip(_BATCH, _RAGGED) for n in ns]
    weights, degrees = [w for w, _ in problems], [n for _, n in problems]
    alone = [_bits(_alone(w, n, max_iter)) for w, n in problems]
    assert [_bits(out) for out in solve_many(weights, degrees, max_iter=max_iter)] == alone
    backwards = solve_many(weights[::-1], degrees[::-1], max_iter=max_iter)[::-1]
    assert [_bits(out) for out in backwards] == alone
    kinds = {bits[0] for bits in alone if isinstance(bits[0], str)}
    assert kinds == ({"ExchangeError", "ConvergenceError"} if max_iter == 5 else {"ExchangeError"})
    assert len({bits[1] for bits in alone if not isinstance(bits[0], str)}) >= 3
    # one degree for all still works; a length mismatch or a degree below 1 does not
    assert [_bits(out) for out in solve_many(weights[:4], 7)] == [
        _bits(_alone(w, 7, 60)) for w in weights[:4]
    ]
    with pytest.raises(ValueError):
        solve_many(weights, degrees[:-1])
    with pytest.raises(ValueError):
        solve_many(weights, [0] + degrees[1:])


def test_solve_many_caps_its_batches(monkeypatch):
    # at n = 150 a grid holds no cosine matrix, and a batch holds the arrays of
    # at most four problems, so a long list of weights runs in batches of four;
    # each result is its single solve's, in every bit
    weights = [WeightParams(0.1 * i, 0.3) for i in range(1, 6)]
    alone = [_bits(_alone(w, 150, 60)) for w in weights]
    batches, lockstep = [], minimax._lockstep
    monkeypatch.setattr(minimax, "_lockstep", lambda ws, *args: batches.append(len(ws)) or lockstep(ws, *args))
    assert [_bits(out) for out in solve_many(weights, 150)] == alone
    assert batches == [4, 1]


def test_batch_weight_is_each_weight_alone():
    # one numpy power over the per-point exponents gives each point what its
    # exponent gives it as a number, except at 0.5 and 2, where a number
    # takes numpy's sqrt and square: those points take them too
    rhos = (0.0, 0.5, 1.0, 2.0, 1e-16, 12.0, 30.0)
    pairs = [(ra, rb) for ra in rhos for rb in rhos]
    cells = minimax._Cells([WeightParams(ra, rb) for ra, rb in pairs], 1)
    rng = np.random.default_rng(11)
    rows, sizes = rng.permutation(len(pairs)), rng.integers(0, 40, len(pairs))
    theta = rng.uniform(0.0, np.pi, sizes.sum())
    cuts = np.cumsum(sizes)[:-1]

    def alone(t):
        return np.concatenate([_weight_theta(*pairs[i], block) for i, block in zip(rows, np.split(t, cuts))])

    assert np.array_equal(cells.weight(theta, rows, sizes), alone(theta))
    # two rows of points against one row of exponents, as the peak polish calls it
    ra, rb = cells.exponent(0, rows, sizes), cells.exponent(1, rows, sizes)
    both = _weight_theta(ra, rb, np.stack((theta, np.pi - theta)))
    assert np.array_equal(both, np.stack((alone(theta), alone(np.pi - theta))))


@pytest.mark.parametrize(
    "ra, rb", [(0.3, 0.6), (0.0, 0.4), (0.0, 0.0), (0.78, 0.03), (1e-17, 0.3), (0.0, 1e-300)]
)
def test_grid_cosines_equal_plain_cosines(ra, rb):
    # below _FFT_DEGREE a key's transform holds, bit for bit, the plain cosine
    # row of every grid point, on small grids and large ones
    for size in (230, 1023, 1024, 2400, _grid_size(150), 4097):
        theta = _tail_grid(ra, rb, size)
        for n in (1, 2, 7, 60, 142):
            transform = minimax._Transform(theta, size, n)
            assert not transform.fft
            assert np.array_equal(transform.rows, np.cos(np.outer(theta, np.arange(n + 1))))


def _joined_grids(weights, n):
    return minimax._Grids(minimax._Cells(weights, n), _grid_size(n)).join(np.arange(len(weights)))


# open ends, each end vanishing, both, and an exponent below 1e-14 (a key of its own)
@pytest.mark.parametrize("ra, rb", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.6), (0.78, 0.03), (1e-17, 0.3)])
@pytest.mark.parametrize("n", [minimax._FFT_DEGREE, 400])
def test_fft_grid_errors_match_the_cosine_matrix(ra, rb, n):
    # from _FFT_DEGREE on, the uniform points take one real FFT, a DCT-I at
    # the exact angles pi j k / (size - 1); the matrix rounds each argument
    # k theta.  Measured in units of sum |c_k|: the two differ by up to
    # 1.4e-14 at n = 400, and the FFT is within 4.1e-16 of long-double sums
    w, rng = WeightParams(ra, rb), np.random.default_rng(int(1e3 * (ra + rb)) + n)
    grids = _joined_grids([w], n)
    ((transform, _),) = grids.keys
    assert transform.fft
    assert transform.rows.shape == (grids.theta.size - _grid_size(n), n + 1)
    for c in (rng.uniform(-1.0, 1.0, n + 1), rng.standard_normal(n + 1) * 0.9 ** np.arange(n + 1)):
        scale = np.abs(c).sum()
        ref = grids.weight * (np.cos(np.outer(grids.theta, np.arange(n + 1))) @ c)
        assert np.all(np.abs(grids.errors(c[None]) - ref) <= 3e-14 * scale * grids.weight)
        values = np.empty((1, grids.theta.size))
        transform(c[None], values)
        size = _grid_size(n)
        j = np.arange(0, size, 7)
        jk = (np.outer(j, np.arange(n + 1)) % (2 * size - 2)).astype(np.longdouble)
        exact = np.cos(np.arccos(np.longdouble(-1.0)) * jk / (size - 1)) @ c.astype(np.longdouble)
        assert float(np.abs(values[0, transform.uniform][j] - exact).max()) <= 1e-15 * scale


def test_fft_batch_rows_equal_each_problem_alone():
    # a batch transforms its problems of one key together, and each row is
    # that problem's transform alone, bit for bit, tail points included
    n = minimax._FFT_DEGREE + 7
    weights = [WeightParams(ra, rb) for ra, rb in ((0.3, 0.6), (0.0, 0.6), (0.5, 0.1), (1e-17, 0.3))]
    coefs = np.random.default_rng(8).uniform(-1.0, 1.0, (len(weights), n + 1))
    batch = _joined_grids(weights, n)
    assert len(batch.keys) == 3
    got = np.split(batch.errors(coefs), np.cumsum(batch.size[batch.cells])[:-1])
    for i, e in zip(batch.cells, got):
        assert np.array_equal(e, _joined_grids([weights[i]], n).errors(coefs[i][None]))


def test_fft_takes_over_from_the_matrix_at_its_degree():
    # one degree below _FFT_DEGREE the transform holds the rows of every grid
    # point and no FFT; at it, the rows of the tail points only
    w, n = WeightParams(0.3, 0.6), minimax._FFT_DEGREE
    below, at = _joined_grids([w], n - 1), _joined_grids([w], n)
    ((rows, _),), ((fft, _),) = below.keys, at.keys
    assert not rows.fft and rows.rows.shape == (below.theta.size, n)
    assert fft.fft and fft.rows.shape == (at.theta.size - _grid_size(n), n + 1)
    assert 0 < fft.rows.shape[0] == np.count_nonzero(~fft.uniform)


def test_a_solve_at_n_400_holds_no_cosine_matrix():
    # the grid's matrix alone would be 39 MB; the solve peaked at 45 MB with it
    tracemalloc.start()
    try:
        sol = solve(WeightParams(0.262, 0.199), 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.levelling_defect <= 1e-12
    assert peak < 10e6


def _recorded_rows(monkeypatch, w, n):
    """The points at which each iteration's levelled system and extremum steps computed cosine rows."""
    iterations = []
    level, cos_sin_k, rows_call = minimax._level, minimax._cos_sin_k, minimax._Rows.__call__

    def levelling(*args):
        iterations.append({"_level": [], "_extremum_step": []})
        return level(*args)

    def recording(theta, degree):
        caller = sys._getframe(1).f_code.co_name
        if caller in ("_level", "_extremum_step"):
            iterations[-1][caller] += theta.tolist()
        return cos_sin_k(theta, degree)

    def recording_rows(self, theta, slots):
        hi = np.round(theta / minimax._SPLIT) * minimax._SPLIT
        iterations[-1]["_extremum_step"] += theta[hi != self.hi[slots]].tolist()
        return rows_call(self, theta, slots)

    monkeypatch.setattr(minimax, "_level", levelling)
    monkeypatch.setattr(minimax, "_cos_sin_k", recording)
    monkeypatch.setattr(minimax._Rows, "__call__", recording_rows)
    sol = solve(w, n)
    return sol, iterations


def test_levelled_systems_take_the_rows_of_the_step_before(monkeypatch):
    # after iteration 1 the levelled system computes a row only at a
    # reference point that no extremum step evaluated: here none at all
    sol, iterations = _recorded_rows(monkeypatch, WeightParams(0.3, 0.6), 60)
    assert sol.iterations == len(iterations) > 2
    assert len(iterations[0]["_level"]) == 61
    for before, now in zip(iterations, iterations[1:]):
        assert before["_extremum_step"]
        assert not set(now["_level"]) & set(before["_extremum_step"])
    assert sum(len(rows["_level"]) for rows in iterations[1:]) == 0


def test_an_extremum_step_without_refined_points_hands_over_no_rows(monkeypatch):
    # at n = 1 under (0, 0) the error x has no interior maximum: each step
    # keeps the two endpoints and evaluates no row
    sol, iterations = _recorded_rows(monkeypatch, WeightParams(0.0, 0.0), 1)
    assert sol.iterations == 1 and sol.norm == 1.0
    assert iterations == [{"_level": [0.0, np.pi], "_extremum_step": []}]
    # a levelled system given no rows, or some rows of a wider step, equals one computed in full
    cells, live = minimax._Cells([WeightParams(0.3, 0.6)], 6), np.array([0])
    tref = np.sort(np.random.default_rng(6).uniform(0.0, np.pi, 7))[None]
    signs = (-1.0) ** np.arange(7)[None]
    none = np.full((1, 7), -1), np.empty((0, 7))
    full = minimax._level(cells, live, tref, signs, 6, *none)
    public = leveled_system(WeightParams(0.3, 0.6), 6, np.cos(tref[0])[::-1])[0]
    assert np.array_equal(full[0][0, :6], public.cheb_coeffs)
    held = _cos_sin_k(np.concatenate(([0.5], tref[0, [1, 4, 6]])), 9)[0]
    got = minimax._level(cells, live, tref, signs, 6, np.array([[-1, 1, -1, -1, 2, -1, 3]]), held)
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], full[:2]))


def _counting_cosines(monkeypatch) -> list:
    """Records [caller, rows computed, rows asked for] for each call of a :class:`minimax._Rows`."""
    calls = []
    rows_call, cos = minimax._Rows.__call__, np.cos

    def counting(self, theta, slots):
        calls.append([sys._getframe(1).f_code.co_name, 0, theta.size])
        return rows_call(self, theta, slots)

    def cosines(x, **kw):
        if sys._getframe(1).f_code.co_name == "__call__":
            calls[-1][1] += x.shape[0]
        return cos(x, **kw)

    monkeypatch.setattr(minimax._Rows, "__call__", counting)
    monkeypatch.setattr(np, "cos", cosines)
    return calls


def test_newton_rows_are_computed_again_only_where_a_point_moved(monkeypatch):
    # a slot keeps its row while its point stays on one 2^-38 split, and the
    # rows it returns equal those computed afresh, bit for bit
    rng = np.random.default_rng(3)
    theta = np.sort(rng.uniform(0.0, np.pi, 40))
    rows = minimax._Rows(theta.size, 30)
    calls = _counting_cosines(monkeypatch)
    for step in (1e-3, 1e-6, 1e-13, 0.0, 1e-3):
        theta = theta + step * rng.standard_normal(theta.size)
        slots = np.sort(rng.choice(theta.size, 25 if step else 40, replace=False))
        moved = np.round(theta[slots] / minimax._SPLIT) * minimax._SPLIT != rows.hi[slots]
        got = rows(theta[slots], slots)
        assert all(np.array_equal(a, b) for a, b in zip(got, _cos_sin_k(theta[slots], 30)))
        assert calls[-1][1] == np.count_nonzero(moved)
        assert moved.all() if step >= 1e-6 else not moved.all()


def test_a_certified_step_evaluates_no_row_that_newton_has(monkeypatch):
    # the evaluation at the points where Newton stopped, and Newton's last
    # iterates, reuse the rows of the iterates before
    calls = _counting_cosines(monkeypatch)
    solve(WeightParams(0.3, 0.6), 60)
    finals = [computed for caller, computed, _ in calls if caller == "_extremum_step"]
    assert finals and all(computed == 0 for computed in finals)
    assert sum(computed for _, computed, _ in calls) < 0.75 * sum(size for *_, size in calls)


def test_convergence_error_survives_pickling():
    # a process pool returns a batch's outcomes, errors included, by pickling them
    (out,) = solve_many([WeightParams(0.78, 0.03)], 60, max_iter=3)
    assert isinstance(out, ConvergenceError)
    back = pickle.loads(pickle.dumps(out))
    assert type(back) is ConvergenceError and str(back) == str(out)
    assert back.best == out.best and back.defect == out.defect


@pytest.mark.parametrize("rb, n", [(0.14779116465863454, 7), (0.6393574297188755, 6)])
def test_cheap_phase_hands_over_once_its_defect_stops_falling(rb, n):
    # two cells of the 250x250 scan: the cheap phase plateaued near 2.3e-8,
    # above its 1e-8 hand-over gate, and ran all 60 iterations; handing over
    # once the defect no longer falls certifies both in 7 iterations
    sol = solve(WeightParams(0.00321285140562249, rb), n)
    assert sol.levelling_defect <= 1e-12
    assert sol.iterations <= 10


def test_certified_phase_does_not_use_an_iteration():
    # the first-kind reference is exact, so the cheap phase levels it at once
    # and the certified redo of that reference still counts as iteration 1
    for n in range(1, 11):
        sol = solve(WeightParams(0.0, 0.0), n, max_iter=1)
        assert sol.iterations == 1
        assert sol.levelling_defect <= 1e-12


def test_solution_norm_is_minimal_among_perturbations():
    # moving any root of the solution can only increase the weighted sup
    w = WeightParams(0.8, 0.3)
    sol = solve(w, 3)
    roots = np.array(sol.roots())
    rng = np.random.default_rng(3)
    theta = np.linspace(0.0, np.pi, 40001)
    x = np.cos(theta)
    wt = weight_eval(w, x)
    wt[0] = 0.0  # rho_a > 0
    for _ in range(30):
        pert = roots + rng.normal(scale=1e-3, size=roots.shape)
        vals = wt * np.abs(np.prod(x[:, None] - pert[None, :], axis=1))
        assert np.max(vals) >= sol.norm * (1.0 - 1e-9)


def test_parity_symmetry_for_equal_exponents():
    rng = np.random.default_rng(5)
    for _ in range(12):
        r = float(rng.uniform(0.0, 1.5))
        n = int(rng.integers(1, 26))
        sol = solve(WeightParams(r, r), n)
        full = sol.poly.full_cheb_coeffs()
        wrong = full[np.arange(n + 1) % 2 != n % 2]
        assert np.max(np.abs(wrong)) <= 1e-12
        ref = np.array(sol.reference)
        assert np.max(np.abs(ref + ref[::-1])) <= 1e-10


# theta = 1e-18 rounds x = cos(theta) onto 1; pi - 1e-6 is near the other end
_THETAS = np.array([1e-18, 1e-6, 1.234, np.pi - 1e-6])


@pytest.mark.parametrize("n", [1, 10, 100, 400])
def test_theta_eval_matches_clenshaw_by_the_chain_rule(n):
    # p_theta = -sin(t) p'(x) and p_thetatheta = sin(t)^2 p''(x) - cos(t) p'(x),
    # each within 1e-12 of a bound on its terms (measured: 1.6e-13 at n = 400,
    # from the rounding of x = cos(t) that the x-space side carries); p'' is
    # numpy's series derivative, p and p' the solver's Clenshaw
    coef = np.random.default_rng(n).standard_normal(n + 1)
    k = np.arange(n + 1)
    p, pt, ptt = _theta_eval(coef[None], *_cos_sin_k(_THETAS, n), [_THETAS.size], np.array([n + 1]))
    x, s = np.cos(_THETAS), np.sin(_THETAS)
    q, dq = _cheb_eval_01(coef, x)
    ddq = np.polynomial.chebyshev.chebval(x, np.polynomial.chebyshev.chebder(coef, 2))
    a1, a2, a4 = (np.sum(k**j * np.abs(coef)) for j in (0, 2, 4))
    assert np.all(np.abs(p - q) <= 1e-12 * a1)
    assert np.all(np.abs(pt + s * dq) <= 1e-12 * s * a2)
    assert np.all(np.abs(ptt - (s * s * ddq - x * dq)) <= 1e-12 * (s * s * a4 + np.abs(x) * a2))


def _endpoint_scan(w: WeightParams, poly: MonicPolynomial, side: int, width: float) -> float:
    """Max |w p| on 200,001 log-spaced points 1e-18 to ``width`` from theta = 0 (+1) or pi (-1)."""
    u = np.exp(np.linspace(np.log(1e-18), np.log(width), 200001))
    theta = u if side > 0 else np.pi - u
    cos_k, _ = _cos_sin_k(theta, poly.degree)
    e = _weight_theta(w.rho_a, w.rho_b, theta) * (cos_k @ poly.full_cheb_coeffs())
    return float(np.max(np.abs(e)))


def _endpoint_extremum(w: WeightParams, poly: MonicPolynomial, side: int) -> tuple[float, float]:
    """(theta-distance to the endpoint, |e|) of the error_extrema point nearest it, on the solver's grid."""
    ext = error_extrema(w, poly, 30 * poly.degree + 200)
    x, e = ext[-1] if side > 0 else ext[0]
    t = float(np.arccos(x))
    return (t if side > 0 else np.pi - t), abs(e)


def test_endpoint_extremum_beyond_the_first_cell():
    # at (0, 0.004, 10) |e| still rises across the whole first cell next to
    # x = -1, so the extremum nearest that end is an ordinary interior one,
    # beyond the cell, and it tops every point of the cell
    n, w = 10, WeightParams(0.0, 0.004)
    poly = solve(w, n).poly
    step = np.pi / (30 * n + 199)
    dist, found = _endpoint_extremum(w, poly, -1)
    assert dist > step
    assert found >= (1.0 - 1e-15) * _endpoint_scan(w, poly, -1, step)


@pytest.mark.parametrize("ra, rb, n", [(0.0, 1e-6, 10), (1e-6, 0.0, 3), (0.0, 1e-9, 20)])
def test_endpoint_hump_inside_the_first_cell_is_found(ra, rb, n):
    # a tiny exponent puts the boundary hump 2e-6 to 5e-4 from its endpoint,
    # inside the first cell of the uniform grid: a local maximum of the
    # error on the grid's geometric tail, refined like any other
    w = WeightParams(ra, rb)
    poly = solve(w, n).poly
    side = -1 if rb > 0.0 else 1
    grids = minimax._Grids(minimax._Cells([w], n), [30 * n + 200]).join(np.array([0]))
    theta, step = grids.theta, grids.step[0]
    ae = np.abs(grids.errors(poly.full_cheb_coeffs()[None]))
    peak = theta[np.nonzero((ae[1:-1] >= ae[:-2]) & (ae[1:-1] >= ae[2:]))[0] + 1]
    assert np.any(np.minimum(peak, np.pi - peak) < 0.75 * step)
    dist, found = _endpoint_extremum(w, poly, side)
    assert dist < step
    assert found >= (1.0 - 1e-15) * _endpoint_scan(w, poly, side, step)


@pytest.mark.parametrize(
    "ra, rb, n", [(0.0, 6.89e-211, 1), (0.0, 1e-300, 5), (0.0, 1e-17, 5), (1e-17, 0.0, 5)]
)
def test_tied_tail_points_are_not_refined(monkeypatch, ra, rb, n):
    # below about 1e-16 the weight reads the same on most tail points, and
    # each tied point would count as a grid maximum and get a Newton refine
    refine = minimax._refine_newton
    refined = []

    def counting(cells, blocks, counts, coefs, lo, hi, *rows):
        refined.append(lo.size)
        return refine(cells, blocks, counts, coefs, lo, hi, *rows)

    monkeypatch.setattr(minimax, "_refine_newton", counting)
    sol = solve(WeightParams(ra, rb), n)
    assert sol.levelling_defect <= 1e-12
    assert refined and max(refined) <= 6


@pytest.mark.parametrize("ra, rb", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.5, 1e-300)])
@pytest.mark.parametrize("size", [230, 501, 12200])
def test_remez_grid_is_the_uniform_grid_plus_endpoint_tails(ra, rb, size):
    theta = _tail_grid(ra, rb, size)
    assert np.all(np.diff(theta) > 0.0)
    assert theta[-1] == np.pi
    uniform = np.linspace(0.0, np.pi, size)
    step = uniform[1]
    # the uniform points, bit for bit, between the tails
    at = np.searchsorted(theta, uniform)
    assert np.array_equal(theta[at], uniform)
    # the solver's grid weighs each point as the weight alone does, with exact
    # zeros at the ends where it vanishes
    grids = minimax._Grids(minimax._Cells([WeightParams(ra, rb)], 1), [size]).join(np.array([0]))
    assert np.array_equal(grids.theta, theta) and grids.step[0] == step
    weight = _weight_theta(ra, rb, theta)
    if ra > 0.0:
        weight[0] = 0.0
    if rb > 0.0:
        weight[-1] = 0.0
    assert np.array_equal(grids.weight, weight)
    lo_tail = theta[(theta > 0.0) & (theta < step)]
    hi_tail = theta[(theta > uniform[-2]) & (theta < np.pi)]
    if ra == 0.0:
        assert lo_tail.size == 0
    else:
        assert lo_tail[0] <= 2e-18 and lo_tail[-1] == step / 2
    if rb == 0.0:
        assert hi_tail.size == 0
    else:
        assert np.pi - hi_tail[-1] <= 1e-15 and hi_tail[0] == np.pi - step / 2


def test_theta_eval_against_mpmath():
    # n = 400 against 50-digit sums, error relative to sum k^j |c_k| for the
    # j-th derivative.  Measured: compensated 3.3e-17, 2.1e-17, 2.1e-17;
    # plain cos(k * theta) 1.4e-15, 3.8e-15, 4.0e-15.  Gate: twice measured.
    mpmath = pytest.importorskip("mpmath")
    n = 400
    coef = np.random.default_rng(0).standard_normal(n + 1)
    k = np.arange(n + 1)
    theta = np.array([1e-18, 1e-6, 0.3, 1.234, 2.5, 3.1, np.pi - 1e-6])
    exact = np.empty((3, theta.size))
    with mpmath.workdps(50):
        c = [mpmath.mpf(float(v)) for v in coef]
        for i, t in enumerate(theta):
            co = [mpmath.cos(j * mpmath.mpf(float(t))) for j in range(n + 1)]
            si = [mpmath.sin(j * mpmath.mpf(float(t))) for j in range(n + 1)]
            exact[:, i] = [
                float(mpmath.fsum(c[j] * co[j] for j in range(n + 1))),
                float(-mpmath.fsum(j * c[j] * si[j] for j in range(n + 1))),
                float(-mpmath.fsum(j * j * c[j] * co[j] for j in range(n + 1))),
            ]
    scale = np.array([np.sum(k**j * np.abs(coef)) for j in (0, 1, 2)])[:, None]
    got = np.array(_theta_eval(coef[None], *_cos_sin_k(theta, n), [theta.size], np.array([n + 1])))
    err = np.max(np.abs(got - exact) / scale, axis=1)
    cos_k, sin_k = np.cos(np.outer(theta, k)), np.sin(np.outer(theta, k))
    plain = np.array([cos_k @ coef, -(sin_k @ (k * coef)), -(cos_k @ (k * k * coef))])
    plain_err = np.max(np.abs(plain - exact) / scale, axis=1)
    assert np.all(err <= [6.7e-17, 4.3e-17, 4.2e-17])
    assert np.all(10.0 * err < plain_err)


def test_solve_certifies_at_degree_400():
    # stalled at defect 2.9e-12 with the x-space Clenshaw evaluator; the
    # reference passes an x-space re-check independent of the theta evaluator
    w = WeightParams(0.3, 0.3)
    sol = solve(w, 400)
    assert sol.levelling_defect <= 1e-12
    x = np.array(sol.reference)
    e = weight_eval(w, x) * sol.poly(x)
    assert np.all(np.sign(e[:-1]) * np.sign(e[1:]) < 0.0)
    assert (sol.norm - np.min(np.abs(e))) / sol.norm <= 1e-12
    assert (np.max(np.abs(e)) - sol.norm) / sol.norm <= 1e-12


def test_leveled_system_classical_references():
    poly, h = leveled_system(WeightParams(0.0, 0.0), 1, [-1.0, 1.0])
    assert np.allclose(poly.power_coeffs(), [0.0, 1.0], atol=1e-15)
    assert abs(h - 1.0) < 1e-15
    poly, h = leveled_system(WeightParams(0.0, 0.0), 2, [-1.0, 0.0, 1.0])
    assert np.allclose(poly.power_coeffs(), [-0.5, 0.0, 1.0], atol=1e-15)
    assert abs(h - 0.5) < 1e-15
    c = math.cos(math.pi / 4.0)
    poly, h = leveled_system(WeightParams(0.5, 0.5), 1, [-c, c])
    assert np.allclose(poly.power_coeffs(), [0.0, 1.0], atol=1e-15)
    assert abs(h - 0.5) < 1e-15


def test_leveled_system_fixed_point_of_solution():
    w = WeightParams(0.7, 0.25)
    sol = solve(w, 5)
    _, h = leveled_system(w, 5, sol.reference)
    assert abs(h - sol.norm) <= 1e-12 * sol.norm


def test_leveled_system_errors():
    w = WeightParams(0.0, 0.0)
    with pytest.raises(ValueError):
        leveled_system(w, 2, [0.5, -0.5, 0.8])  # not increasing
    with pytest.raises(DegeneracyError):
        leveled_system(w, 2, [-0.5, 0.5, 0.5 + 5e-15])  # collapsed
    with pytest.raises(ValueError):
        leveled_system(WeightParams(0.5, 0.0), 1, [0.0, 1.0])  # on the weight zero


def test_error_extrema_first_kind():
    poly = MonicPolynomial(2, (0.0, 0.0))  # x^2 - 1/2
    ext = error_extrema(WeightParams(0.0, 0.0), poly, 400)
    assert len(ext) == 3
    xs = [x for x, _ in ext]
    es = [e for _, e in ext]
    assert np.allclose(xs, [-1.0, 0.0, 1.0], atol=1e-9)
    assert np.allclose(es, [0.5, -0.5, 0.5], atol=1e-9) or np.allclose(
        es, [-0.5, 0.5, -0.5], atol=1e-9
    )


def test_error_extrema_interior_only_for_vanishing_weight():
    poly = MonicPolynomial(1, (0.0,))  # x
    ext = error_extrema(WeightParams(1.0, 1.0), poly, 300)
    assert len(ext) == 2
    root = 1.0 / math.sqrt(3.0)
    assert abs(ext[0][0] + root) < 1e-6 and abs(ext[1][0] - root) < 1e-6
    target = 2.0 / (3.0 * math.sqrt(3.0))
    assert abs(abs(ext[0][1]) - target) < 1e-9
    assert abs(abs(ext[1][1]) - target) < 1e-9


def test_error_extrema_half_exponent():
    poly = MonicPolynomial(1, (0.5,))  # x + 1/2
    ext = error_extrema(WeightParams(0.5, 0.0), poly, 300)
    assert len(ext) == 2
    vals = sorted(e for _, e in ext)
    assert abs(vals[0] + math.sqrt(2.0) / 2.0) < 1e-9
    assert abs(vals[1] - math.sqrt(2.0) / 2.0) < 1e-9


def test_certified_extrema_take_grid_points_on_compensated_rows():
    # the monic series at (0.5, 0) is 2^{-k} times the Dirichlet kernel, so w p is
    # sqrt(2) 2^{-k} sin((k + 1/2) theta); at k = 103 a point of the default grid
    # sits on the peak 189 pi / 207, where plain cos(k theta) rows read 2.35e-13 high
    w = WeightParams(0.5, 0.0)
    worst = 0.0
    for k in range(1, 201):
        coef = np.full(k + 1, 2.0 ** (1 - k))
        coef[0] = 2.0**-k
        ((_, e),) = minimax._certified_extrema([w], [k], coef[None])
        want = np.ldexp(math.sqrt(2.0), -k)
        worst = max(worst, abs(np.abs(e).max() - want) / want)
    assert worst <= 5e-14


def test_error_extrema_rejects_coarse_grid():
    with pytest.raises(ValueError):
        error_extrema(WeightParams(0.0, 0.0), MonicPolynomial(5, (0.0,) * 5), 20)


def test_exchange_fixed_point_and_trivial_window():
    w = WeightParams(0.3, 0.6)
    sol = solve(w, 4)
    ext = error_extrema(w, sol.poly, 500)
    new_ref = exchange(sol.reference, ext)
    assert len(new_ref) == 5
    assert np.max(np.abs(np.array(new_ref) - np.array(sol.reference))) < 1e-7
    # candidate list of exactly n+1 points: output equals candidates
    assert exchange([0.0] * len(ext), ext) == [x for x, _ in ext]


def test_exchange_single_step_contracts_perturbation():
    # perturb the interior (critical) points of the first-kind reference by
    # 1e-3; one leveled-solve + exchange step contracts quadratically, landing
    # within 1e-6 of the true extrema cos(j pi / n)
    n = 3
    w = WeightParams(0.0, 0.0)
    exact = np.cos(np.pi * np.arange(n, -1, -1) / n)
    perturbed = exact + np.array([0.0, 1e-3, -1e-3, 0.0])
    poly, _ = leveled_system(w, n, perturbed)
    ext = error_extrema(w, poly, 2000)
    new_ref = exchange(list(perturbed), ext)
    assert np.max(np.abs(np.array(new_ref) - exact)) < 1e-6


def test_exchange_errors():
    with pytest.raises(ExchangeError):
        exchange([0.0, 0.5, 1.0], [(0.0, 1.0), (0.5, -1.0)])  # too few
    with pytest.raises(ExchangeError):
        exchange([0.0, 0.5], [(0.0, 1.0), (0.5, 1.0)])  # no alternation
    with pytest.raises(ExchangeError):
        exchange([0.0, 0.5], [(0.5, 1.0), (0.0, -1.0)])  # unsorted
