"""Tests for the brute-force minimax oracle."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from widomlab.minimax import solve
from widomlab.oracle import brute_minimax
from widomlab.special import WeightParams


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
        _, brute_norm = brute_minimax(w, n, restarts=16)
        sol = solve(w, n)
        assert abs(brute_norm - sol.norm) <= 1e-4 * sol.norm
        # never below the de la Vallee-Poussin lower bound of the Remez run
        lower = sol.norm * (1.0 - sol.levelling_defect)
        assert brute_norm >= lower * (1.0 - 1e-6)
