"""Tests for Widom factor sequences, classification, scans, and the continuity probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widomlab import minimax, widom
from widomlab.bounds import asymptote, m_bound, weight_sup_bound, weighted_monic_jacobi_sup
from widomlab.minimax import ConvergenceError, DegeneracyError, ExchangeError, solve
from widomlab.special import WeightParams, _tail_grid, _tail_kind, weight_to_param
from widomlab.widom import (
    ScanCell,
    ScanResult,
    WidomSequence,
    classify,
    conjecture_region,
    continuity_probe,
    scan,
    widom_factor,
    widom_sequence,
)


def test_classify_basic_shapes():
    assert classify([1.0, 1.0, 1.0]) == "Constant"
    assert classify([1.0, 1.1, 1.2]) == "Increasing"
    assert classify([1.2, 1.1, 1.0]) == "Decreasing"
    assert classify([1.0, 0.9, 0.95]) == "NonMonotone"
    # spread below relative tolerance collapses to Constant
    assert classify([1.0, 1.0 + 1e-12, 1.0 - 1e-12]) == "Constant"
    # a flat step does not break monotonicity
    assert classify([1.0, 1.0, 1.1]) == "Increasing"
    with pytest.raises(ValueError):
        classify([1.0])
    # a NaN compares false either way, so its place would pick the label
    for values in ([1.0, math.nan], [math.nan, 1.0], [1.0, math.inf]):
        with pytest.raises(ValueError):
            classify(values)


def test_widom_factor_known_values():
    assert abs(widom_factor(WeightParams(0.0, 0.0), 5) - 2.0) < 1e-8
    assert abs(widom_factor(WeightParams(0.5, 0.5), 7) - 1.0) < 1e-8
    assert abs(widom_factor(WeightParams(1.0, 1.0), 1) - 4.0 / (3.0 * math.sqrt(3.0))) < 1e-12
    with pytest.raises(ValueError):
        widom_factor(WeightParams(0.0, 0.0), 0)


def test_widom_sequence_constant_kind():
    seq = widom_sequence(WeightParams(0.5, 0.5), 10)
    assert seq.classification == "Constant"
    assert seq.n_start == 1 and len(seq.values) == 10
    assert np.allclose(seq.values, 1.0, atol=1e-9)
    assert abs(seq.asymptote - 1.0) < 1e-15


def test_widom_sequence_decreasing_above_asymptote():
    seq = widom_sequence(WeightParams(1.0, 1.0), 10)
    assert seq.classification == "Decreasing"
    assert all(a > b for a, b in zip(seq.values, seq.values[1:]))
    assert all(v >= 0.5 - 1e-12 for v in seq.values)
    assert abs(seq.asymptote - 0.5) < 1e-15


def test_widom_sequence_increasing_below_asymptote():
    seq = widom_sequence(WeightParams(0.25, 0.25), 10)
    assert seq.classification == "Increasing"
    assert all(v <= math.sqrt(2.0) * (1.0 + 1e-8) for v in seq.values)
    with pytest.raises(ValueError):
        widom_sequence(WeightParams(0.25, 0.25), 1)


@pytest.mark.parametrize("ra, rb", [(0.3, 0.6), (0.0, 0.004), (1.0, 1.0)])
def test_widom_sequence_is_each_widom_factor(ra, rb):
    # the lockstep batches of degrees 1..n_max, each bit for bit its own solve;
    # (0, 0.004) peaks in a boundary hump on the grid's tail
    w = WeightParams(ra, rb)
    got = widom_sequence(w, 10).values
    assert [v.hex() for v in got] == [widom_factor(w, n).hex() for n in range(1, 11)]


def test_widom_sequence_raises_the_first_failing_degree():
    w = WeightParams(2.0, 2.0)
    for n in range(1, 21):
        try:
            solve(w, n)
        except (ConvergenceError, DegeneracyError, ExchangeError) as exc:
            first = exc
            break
    else:
        pytest.fail("expected a failing degree at (2, 2) below 21")
    with pytest.raises(type(first)) as got:
        widom_sequence(w, 20)
    assert type(got.value) is type(first)
    assert str(got.value) == str(first)


def test_widom_sequence_solves_no_batch_past_its_first_error(monkeypatch):
    called = []

    def failing_solve_many(weights, n):
        called.append(list(n))
        return [ConvergenceError(f"forced at {k}", None, 1.0) for k in n]

    monkeypatch.setattr(widom, "solve_many", failing_solve_many)
    with pytest.raises(ConvergenceError, match="^forced at 1$"):
        widom_sequence(WeightParams(0.3, 0.6), 400)
    assert called == [minimax._batches([(WeightParams(0.3, 0.6), n) for n in range(1, 401)])[0][1]]


def test_batches_bound_their_cosine_matrices():
    # every problem once, in order; more than one to a batch only within the
    # budget, so a long sequence holds few degrees' matrices and arrays at
    # once; from _FFT_DEGREE on a grid holds no matrix, and a few degrees
    # share a batch again up to n = 227
    w, fft = WeightParams(0.3, 0.6), minimax._FFT_DEGREE
    batches = minimax._batches([(w, n) for n in range(1, 401)])
    assert [n for _, degrees in batches for n in degrees] == list(range(1, 401))
    for weights, degrees in batches:
        assert weights == [w] * len(degrees) and len(degrees) <= minimax._BATCH_PROBLEMS
        own = sum(minimax._PROBLEM_ROWS * (n + 1) ** 2 for n in degrees)
        entries = own + sum((30 * n + 200) * (n + 1) for n in degrees if n < fft)
        assert len(degrees) == 1 or entries <= minimax._BATCH_COSINES
    assert [len(d) for _, d in batches if 112 <= d[0] < fft] == [1] * (fft - 112)
    shared = [len(d) for _, d in batches if d[0] >= fft]
    assert shared[:5] == [4] * 5 and shared == sorted(shared, reverse=True)
    assert max(d[0] for _, d in batches if len(d) > 1) == 227
    # at low degree the problem count alone splits a scan's problems
    weights = [WeightParams(a / 10, 0.5) for a in range(10)]
    problems = [(v, n) for n in range(1, 11) for v in weights]
    expected = [tuple(zip(*problems[c : c + 64])) for c in range(0, 100, 64)]
    assert [tuple(map(tuple, b)) for b in minimax._batches(problems)] == expected


def test_batches_charge_each_grid_once():
    # problems of one degree on one grid share its matrix: the batch charges
    # it once, and each problem its own arrays
    cost = lambda n: (30 * n + 200) * (n + 1)  # noqa: E731
    one_grid = [WeightParams(0.3 + 1e-3 * i, 0.6) for i in range(5)]
    for n in (100, 112):
        assert [len(b[0]) for b in minimax._batches([(v, n) for v in one_grid])] == [5]
        assert cost(n) + 5 * minimax._PROBLEM_ROWS * (n + 1) ** 2 <= minimax._BATCH_COSINES
    assert [len(b[0]) for b in minimax._batches([(v, 113) for v in one_grid])] == [4, 1]
    assert [len(b[0]) for b in minimax._batches([(v, 142) for v in one_grid])] == [2, 2, 1]
    # from _FFT_DEGREE on a grid holds its tail rows only, and the batch charges
    # the problems' own arrays: five at n = 143, two up to n = 227
    assert minimax._FFT_DEGREE == 143
    assert [len(b[0]) for b in minimax._batches([(v, 143) for v in one_grid])] == [5]
    assert [len(b[0]) for b in minimax._batches([(v, 227) for v in one_grid])] == [2, 2, 1]
    assert [len(b[0]) for b in minimax._batches([(v, 228) for v in one_grid])] == [1] * 5
    # a weight that vanishes at other ends, or an exponent below 1e-14, has a grid of its own
    for other in (WeightParams(0.0, 0.6), WeightParams(0.3, 0.0), WeightParams(1e-15, 0.6)):
        batches = minimax._batches([(v, 100) for v in one_grid[:2] + [other] + one_grid[2:]])
        assert [len(b[0]) for b in batches] == [3, 3]


@given(
    st.sampled_from([0.0, 1e-14, 2e-14, 1e-9, 0.25, 0.5, 3.0, 12.0]),
    st.sampled_from([0.0, 1e-14, 3e-12, 0.1, 0.6, 2.0, 20.0]),
    st.sampled_from([230, 1400, 4789]),
)
@settings(max_examples=40, deadline=None)
def test_tail_kind_keys_the_grid(ra, rb, size):
    # weights of one tail kind have one grid, point for point
    same = [1.0 if r > 0.0 else 0.0 for r in (ra, rb)]
    assert _tail_kind(ra, rb) == _tail_kind(*same)
    assert np.array_equal(_tail_grid(ra, rb, size), _tail_grid(*same, size))


def test_scan_builds_each_grid_once_per_batch(monkeypatch):
    # the 4x4 scan to n = 10 solves 100 problems in two batches, on 32
    # distinct grid keys: degree and tail kind, and degree 7 in both batches
    built, tail_grid = [], minimax._tail_grid
    monkeypatch.setattr(minimax, "_tail_grid", lambda *args: built.append(args) or tail_grid(*args))
    scan(rho_range=(0.0, 0.8), resolution=4, n_max=10)
    assert len(built) == 32


def test_widom_sequence_bounded_by_asymptote_small_parameters():
    for ra in (0.1, 0.25, 0.4):
        for rb in (0.1, 0.25, 0.4):
            w = WeightParams(ra, rb)
            seq = widom_sequence(w, 8)
            lim = asymptote(w)
            assert all(v <= lim * (1.0 + 1e-8) for v in seq.values)


def test_chain_inequality_links():
    for ra, rb in ((0.1, 0.4), (0.25, 0.25)):
        w = WeightParams(ra, rb)
        p = weight_to_param(w)
        for n in range(1, 11):
            wn = widom_factor(w, n)
            mid = (2.0 ** n) * weighted_monic_jacobi_sup(w, n)
            top = m_bound(p, n)
            assert wn <= mid * (1.0 + 1e-9)
            assert mid <= top * (1.0 + 1e-9)


def test_part_three_monotone_and_first_factor_bound():
    for ra in (0.5, 1.0, 1.5):
        for rb in (0.5, 1.0, 1.5):
            w = WeightParams(ra, rb)
            seq = widom_sequence(w, 6)
            lim = asymptote(w)
            vals = seq.values + (lim,)
            assert all(a >= b - 1e-9 * abs(a) for a, b in zip(vals, vals[1:]))
            assert seq.values[0] <= weight_sup_bound(w) * (1.0 + 1e-12)


def test_scan_layout_and_known_cells():
    result = scan(rho_range=(0.0, 0.8), resolution=3, n_max=6)
    assert len(result.cells) == 9
    assert result.grid_values() == (0.0, 0.4, 0.8)
    assert result.n_max == 6 and result.runtime > 0.0
    # row-major with rho_a fastest
    assert result.cells[1].weight == WeightParams(0.4, 0.0)
    assert result.cells[3].weight == WeightParams(0.0, 0.4)
    assert result.cell(1, 0).weight == WeightParams(0.4, 0.0)
    assert all(cell.error is None for cell in result.cells)
    assert result.cell(0, 0).classification == "Constant"  # W_n = 2 for all n
    assert result.cell(1, 1).classification == "Increasing"
    assert result.cell(2, 2).classification == "Decreasing"
    assert all(len(cell.values) == 6 for cell in result.cells)


def test_scan_is_deterministic():
    a = scan(rho_range=(0.1, 0.7), resolution=3, n_max=4)
    b = scan(rho_range=(0.1, 0.7), resolution=3, n_max=4)
    assert [c.classification for c in a.cells] == [c.classification for c in b.cells]
    assert [c.values for c in a.cells] == [c.values for c in b.cells]


def test_scan_workers_match_serial():
    serial = scan(rho_range=(0.2, 0.6), resolution=3, n_max=4)
    pooled = scan(rho_range=(0.2, 0.6), resolution=3, n_max=4, workers=2)
    assert [c.weight for c in serial.cells] == [c.weight for c in pooled.cells]
    assert [c.classification for c in serial.cells] == [
        c.classification for c in pooled.cells
    ]
    assert [c.values for c in serial.cells] == [c.values for c in pooled.cells]


def test_scan_solves_one_triangle(monkeypatch):
    # the degree-1 problems of the batches: a scan solves each cell there
    solved = []
    real_sequence = widom.widom_sequence
    real_solve_many = widom.solve_many

    def counting_solve_many(weights, n):
        solved.extend(w for w, k in zip(weights, n) if k == 1)
        return real_solve_many(weights, n)

    monkeypatch.setattr(widom, "solve_many", counting_solve_many)
    resolution, n_max = 4, 5
    result = scan(rho_range=(0.1, 0.7), resolution=resolution, n_max=n_max)
    grid = result.grid_values()
    assert len(solved) == resolution * (resolution + 1) // 2
    assert all(w.rho_a <= w.rho_b for w in solved)
    for i_b in range(resolution):
        for i_a in range(resolution):
            cell, twin = result.cell(i_a, i_b), result.cell(i_b, i_a)
            assert cell.weight == WeightParams(grid[i_a], grid[i_b])
            assert cell.values == twin.values
            assert cell.classification == twin.classification
            if i_a <= i_b:
                assert cell.values == real_sequence(cell.weight, n_max).values


def test_scan_mirrors_a_failed_cell(monkeypatch):
    solved = []
    real_solve_many = widom.solve_many

    def failing_solve_many(weights, n):
        solved.extend(zip(weights, n))
        forced = ConvergenceError("forced failure", None, 1.0)
        results = real_solve_many(weights, n)
        return [forced if w == WeightParams(0.2, 0.4) else r for w, r in zip(weights, results)]

    monkeypatch.setattr(widom, "solve_many", failing_solve_many)
    result = scan(rho_range=(0.0, 0.4), resolution=3, n_max=3)
    solved_cell, mirrored = result.cell(1, 2), result.cell(2, 1)
    assert solved_cell.classification == mirrored.classification == "Failed"
    assert solved_cell.error == "ConvergenceError: forced failure"
    assert mirrored.error == "ConvergenceError: forced failure (mirror of (0.2, 0.4))"
    assert mirrored.weight == WeightParams(0.4, 0.2)
    # each (weight, degree) problem once
    assert all(solved.count((WeightParams(0.2, 0.4), n)) == 1 for n in (1, 2, 3))
    assert WeightParams(0.4, 0.2) not in [w for w, _ in solved]
    others = [c for c in result.cells if c not in (solved_cell, mirrored)]
    assert all(c.error is None and len(c.values) == 3 for c in others)


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        scan(rho_range=(0.5, 0.5), resolution=3)
    with pytest.raises(ValueError):
        scan(rho_range=(-0.1, 0.5), resolution=3)
    with pytest.raises(ValueError):
        scan(resolution=1)
    with pytest.raises(ValueError, match="n_max must be at least 2"):
        scan(resolution=2, n_max=1)


def test_sequence_and_cell_validation():
    with pytest.raises(ValueError):
        WidomSequence(WeightParams(0.0, 0.0), 1, (1.0, -1.0), 2.0, "Constant")
    with pytest.raises(ValueError):
        WidomSequence(WeightParams(0.0, 0.0), 1, (1.0, 1.0), 2.0, "Sideways")
    with pytest.raises(ValueError):
        ScanCell(WeightParams(0.0, 0.0), (), "Failed", None)
    with pytest.raises(ValueError):
        ScanCell(WeightParams(0.0, 0.0), (1.0,), "Constant", "boom")
    with pytest.raises(ValueError):
        ScanResult(((0.0, 0.8), 3), (), 10, 0.1)


def test_conjecture_region_labels():
    assert conjecture_region(WeightParams(0.25, 0.25)) == "Inside"
    assert conjecture_region(WeightParams(0.25 + math.sqrt(1.3 / 8.0), 0.25)) == "Outside"
    assert conjecture_region(WeightParams(0.25 + math.sqrt(1.1 / 8.0), 0.25)) == "Between"
    # the origin sits exactly on the circle: distance squared is 1/16 + 1/16
    assert conjecture_region(WeightParams(0.0, 0.0)) == "Between"
    assert conjecture_region(WeightParams(0.1, 0.1)) == "Inside"
    assert conjecture_region(WeightParams(1.5, 1.5)) == "Outside"


def test_continuity_probe_values():
    assert continuity_probe(WeightParams(0.5, 0.5), 0.0, 3) == 0.0
    assert continuity_probe(WeightParams(0.3, 0.6), 1e-4, 5) <= 1e-2
    # boundary point: negative perturbations are skipped
    assert continuity_probe(WeightParams(0.0, 0.0), 1e-4, 5) <= 1e-2
    with pytest.raises(ValueError):
        continuity_probe(WeightParams(0.5, 0.5), -1.0, 3)


def test_continuity_probe_rejects_a_non_finite_delta():
    # a NaN delta once skipped every perturbation and returned 0.0
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            continuity_probe(WeightParams(0.3, 0.6), delta, 3)


@pytest.mark.parametrize("ra, rb", [(0.3, 0.6), (0.0, 0.0), (0.0, 0.4), (5e-5, 0.2)])
def test_continuity_probe_is_the_max_over_its_widom_factors(ra, rb):
    # one lockstep batch of w and its perturbations, bit for bit the single
    # solves; at rho = 0 and 5e-5 a perturbation of 1e-4 is skipped
    w, delta, n = WeightParams(ra, rb), 1e-4, 5
    base = widom_factor(w, n)
    expected = 0.0
    for da, db in ((delta, 0.0), (-delta, 0.0), (0.0, delta), (0.0, -delta)):
        if w.rho_a + da >= 0.0 and w.rho_b + db >= 0.0:
            moved = WeightParams(w.rho_a + da, w.rho_b + db)
            expected = max(expected, abs(widom_factor(moved, n) - base))
    assert continuity_probe(w, delta, n).hex() == expected.hex()


def test_continuity_probe_builds_its_grid_once(monkeypatch):
    # at n = 100 the probe's five weights share one grid and go into one
    # batch, which builds its transform once; the result is that of the
    # five solves made one at a time
    w, delta, n = WeightParams(0.3, 0.6), 1e-3, 100
    expected = [
        widom_factor(WeightParams(w.rho_a + da, w.rho_b + db), n)
        for da, db in ((0.0, 0.0), (delta, 0.0), (-delta, 0.0), (0.0, delta), (0.0, -delta))
    ]
    built = []
    transform = minimax._Transform
    monkeypatch.setattr(minimax, "_Transform", lambda theta, size, m: built.append(m) or transform(theta, size, m))
    got = continuity_probe(w, delta, n)
    assert got.hex() == max(abs(v - expected[0]) for v in expected[1:]).hex()
    assert built == [n]


def test_continuity_probe_random_points():
    rng = np.random.default_rng(19)
    for _ in range(3):
        w = WeightParams(rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5))
        assert continuity_probe(w, 1e-5, 5) <= 1e-3
