"""Tests for the brute-force minimax oracle (the discrete minimax LP)."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from widomlab.bounds import weight_sup_bound
from widomlab.minimax import solve
from widomlab.oracle import _GRID, brute_minimax
from widomlab.special import WeightParams, _weight_theta


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


def test_package_import_leaves_scipy_unloaded():
    # scipy.optimize dominates a cold import; only brute_minimax loads it
    code = "import sys, widomlab, widomlab.cli; print('scipy' in sys.modules)"
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
        theta = np.linspace(0.0, np.pi, _GRID)
        wgrid = _weight_theta(w.rho_a, w.rho_b, theta)
        wgrid[[0, -1]] *= [w.rho_a == 0.0, w.rho_b == 0.0]  # exact zeros where it vanishes
        if n == 0:
            assert value == float(np.max(wgrid))
            assert value <= weight_sup_bound(w) * (1.0 + 1e-12)
            assert value >= weight_sup_bound(w) * (1.0 - 1e-6)
            continue
        sol = solve(w, n)
        assert value <= float(np.max(np.abs(wgrid * sol.poly(np.cos(theta))))) * (1.0 + 1e-12)
        assert value >= sol.norm * (1.0 - sol.levelling_defect) * (1.0 - 1e-6)


def test_brute_nodes_are_the_minimizer_roots():
    w = WeightParams(0.3, 0.7)
    nodes, _ = brute_minimax(w, 3)
    assert np.allclose(nodes, solve(w, 3).roots(), atol=1e-6)
