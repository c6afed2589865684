"""Tests for the brute-force minimax oracle (the discrete minimax LP)."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from widomlab.bounds import weight_sup_bound
from widomlab.minimax import solve
from widomlab.oracle import _GRID, _exchange, brute_minimax
from widomlab.special import WeightParams, _weight_theta


def _grid_weight(w: WeightParams) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's grid points and weights, with exact zeros where the weight vanishes."""
    theta = np.linspace(0.0, np.pi, _GRID)
    wgrid = _weight_theta(w.rho_a, w.rho_b, theta)
    wgrid[[0, -1]] *= [w.rho_a == 0.0, w.rho_b == 0.0]
    return np.cos(theta), wgrid


def test_brute_unweighted_degree_one():
    nodes, norm = brute_minimax(WeightParams(0.0, 0.0), 1)
    assert abs(nodes[0]) < 1e-3
    assert abs(norm - 1.0) < 1e-5


def test_brute_unweighted_degree_two():
    nodes, norm = brute_minimax(WeightParams(0.0, 0.0), 2)
    root = 1.0 / math.sqrt(2.0)
    assert abs(nodes[0] + root) < 1e-3 and abs(nodes[1] - root) < 1e-3
    assert abs(norm - 0.5) < 1e-5


def test_brute_symmetric_weight_degree_one():
    nodes, norm = brute_minimax(WeightParams(1.0, 1.0), 1)
    assert abs(nodes[0]) < 1e-3
    assert abs(norm - 2.0 / (3.0 * math.sqrt(3.0))) < 1e-5


def test_brute_degree_zero_is_weight_max():
    nodes, norm = brute_minimax(WeightParams(1.0, 0.0), 0)
    assert nodes == []
    assert abs(norm - 2.0) < 1e-8


def test_brute_rejects_large_degree():
    with pytest.raises(ValueError):
        brute_minimax(WeightParams(0.0, 0.0), 4)


@pytest.mark.parametrize("n", [2.0, np.int64(2)])
def test_brute_takes_whole_degrees_of_any_type(n):
    assert brute_minimax(WeightParams(0.3, 0.7), n) == brute_minimax(WeightParams(0.3, 0.7), 2)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -1, [1, 2]])
def test_brute_rejects_degrees_that_are_not_one_whole_number(n):
    with pytest.raises(ValueError):
        brute_minimax(WeightParams(0.3, 0.7), n)


def test_exchange_keeps_the_signs_alternating():
    # errors at grid indices 10, 20, 30 are +, -, +
    ref, up = np.array([10, 20, 30]), np.array([True, False, True])
    # between two points: the neighbour of the new point's sign goes
    assert _exchange(ref, up, 15, True).tolist() == [15, 20, 30]
    assert _exchange(ref, up, 15, False).tolist() == [10, 15, 30]
    # past an end: that end goes if the signs agree, else the far end
    assert _exchange(ref, up, 5, True).tolist() == [5, 20, 30]
    assert _exchange(ref, up, 5, False).tolist() == [5, 10, 20]
    assert _exchange(ref, up, 35, True).tolist() == [10, 20, 35]
    assert _exchange(ref, up, 35, False).tolist() == [20, 30, 35]


def test_package_import_leaves_scipy_unloaded():
    # scipy.optimize would dominate a cold import, and nothing in the package, the oracle included, loads it
    code = (
        "import sys, widomlab, widomlab.cli\n"
        "from widomlab.oracle import brute_minimax\n"
        "brute_minimax(widomlab.WeightParams(0.3, 0.7), 3)\n"
        "print('scipy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_brute_agrees_with_remez():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ra, rb = rng.uniform(0.0, 1.5, size=2)
        n = int(rng.integers(1, 4))
        w = WeightParams(float(ra), float(rb))
        _, brute_norm = brute_minimax(w, n)
        sol = solve(w, n)
        assert abs(brute_norm - sol.norm) <= 1e-4 * sol.norm
        # never below the de la Vallee-Poussin lower bound of the Remez run
        lower = sol.norm * (1.0 - sol.levelling_defect)
        assert brute_norm >= lower * (1.0 - 1e-6)


def test_brute_value_brackets_the_remez_norm():
    # the oracle is the optimum over its own grid, so it cannot beat the
    # Remez polynomial sampled there, and it cannot fall below the de la
    # Vallee-Poussin lower bound of the Remez run
    rng = np.random.default_rng(17)
    for i in range(24):
        ra, rb = rng.uniform(0.0, 1.5, size=2)
        if i % 3 == 0:
            ra = rng.uniform(0.0, 0.01)
        w = WeightParams(float(ra), float(rb))
        n = i % 4
        nodes, value = brute_minimax(w, n)
        assert len(nodes) == n and nodes == sorted(nodes)
        x, wgrid = _grid_weight(w)
        if n == 0:
            assert value == float(np.max(wgrid))
            assert value <= weight_sup_bound(w) * (1.0 + 1e-12)
            assert value >= weight_sup_bound(w) * (1.0 - 1e-6)
            continue
        sol = solve(w, n)
        assert value <= float(np.max(np.abs(wgrid * sol.poly(x)))) * (1.0 + 1e-12)
        assert value >= sol.norm * (1.0 - sol.levelling_defect) * (1.0 - 1e-6)


def test_brute_nodes_are_the_minimizer_roots():
    w = WeightParams(0.3, 0.7)
    nodes, _ = brute_minimax(w, 3)
    assert np.allclose(nodes, solve(w, 3).roots(), atol=1e-6)


def test_brute_matches_highs_on_the_full_grid_lp():
    # HiGHS solves the same LP with every grid point as a constraint: a second route to the value
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(29)
    for i in range(12):
        w = WeightParams(*(float(r) for r in rng.uniform(0.0, 1.5, size=2)))
        n = i % 3 + 1
        x, wgrid = _grid_weight(w)
        live = wgrid > 0.0
        x, wgrid = x[live], wgrid[live]
        # +-w_i (sum_{k<n} c_k x_i^k) - t <= -+w_i x_i^n, minimise t
        rows = wgrid[:, None] * x[:, None] ** np.arange(n)
        lead = wgrid * x**n
        ones = np.ones((len(x), 1))
        res = linprog(
            np.append(np.zeros(n), 1.0),
            A_ub=np.block([[rows, -ones], [-rows, -ones]]),
            b_ub=np.concatenate((-lead, lead)),
            bounds=[(None, None)] * n + [(0.0, None)],
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert res.status == 0, res.message
        _, value = brute_minimax(w, n)
        assert abs(value - res.fun) <= 1e-8 * res.fun, (w, n, value, res.fun)


@pytest.mark.parametrize("rho", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_brute_meets_the_closed_form_at_the_constant_corners(rho, n):
    # the grid is a subset of [-1, 1], so its minimum lies at or below 2^{1 - rho_a - rho_b - n}
    closed = 2.0 ** (1.0 - rho[0] - rho[1] - n)
    _, value = brute_minimax(WeightParams(*rho), n)
    assert closed * (1.0 - 1e-7) <= value <= closed * (1.0 + 1e-12)
