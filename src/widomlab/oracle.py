"""Brute-force minimax reference for tiny degrees.

Searches directly over root positions of the monic polynomial with a
multi-start downhill simplex, evaluating the weighted sup on a dense
theta-grid.  Slow and only for n <= 3, but entirely independent of the
Remez machinery, which makes it a trustworthy cross-check.
"""

from __future__ import annotations

import numpy as np

from widomlab.special import WeightParams

__all__ = ["brute_minimax"]

_GRID = 20001


def brute_minimax(
    w: WeightParams, n: int, restarts: int = 32, seed: int = 11
) -> tuple[list[float], float]:
    """Best root placement and weighted sup for the monic degree-n problem.

    Returns (sorted nodes, certified grid max).  Accuracy target is 1e-5
    relative; nodes are kept in [-1, 1] by a soft box penalty.
    """
    if n < 0 or n > 3:
        raise ValueError("brute_minimax only supports degrees 0 through 3")
    if restarts < 1:
        raise ValueError("need at least one restart")
    # scipy.optimize takes most of a cold `import widomlab`; only the oracle needs it
    from scipy.optimize import minimize

    theta = np.linspace(0.0, np.pi, _GRID)
    x = np.cos(theta)
    wt = np.ones_like(theta)
    if w.rho_a != 0.0:
        wt *= (2.0 * np.sin(0.5 * theta) ** 2) ** w.rho_a
        wt[0] = 0.0
    if w.rho_b != 0.0:
        wt *= (2.0 * np.cos(0.5 * theta) ** 2) ** w.rho_b
        wt[-1] = 0.0

    def objective(nodes: np.ndarray) -> float:
        pv = np.ones_like(x)
        for a in nodes:
            pv = pv * (x - a)
        value = float(np.max(wt * np.abs(pv)))
        overshoot = float(np.sum(np.maximum(np.abs(nodes) - 1.0, 0.0)))
        return value + overshoot

    if n == 0:
        return [], float(np.max(wt))

    rng = np.random.default_rng(seed)
    best_nodes = np.cos(np.pi * (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n))
    best_val = objective(best_nodes)
    for _ in range(restarts - 1):
        # stratified start: one node drawn from each of n equal subintervals
        start = -1.0 + 2.0 * (np.arange(n) + rng.uniform(size=n)) / n
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options=dict(xatol=1e-10, fatol=1e-12, maxiter=4000, maxfev=8000),
        )
        if res.fun < best_val:
            best_val, best_nodes = float(res.fun), np.asarray(res.x)
    # polish the incumbent once more
    res = minimize(
        objective,
        best_nodes,
        method="Nelder-Mead",
        options=dict(xatol=1e-10, fatol=1e-12, maxiter=4000, maxfev=8000),
    )
    if res.fun < best_val:
        best_val, best_nodes = float(res.fun), np.asarray(res.x)
    nodes = np.sort(np.clip(best_nodes, -1.0, 1.0))
    return [float(a) for a in nodes], objective(nodes)
