"""Brute-force minimax reference for tiny degrees.

Solves the discrete minimax LP on a 20,001-point grid, by constraint
generation: minimise t subject to |w(x_i) p(x_i)| <= t at the grid points
x_i = cos(theta_i), over the n free monomial coefficients of the monic p
(Cheney, *Introduction to Approximation Theory*, 1966, ch. 2).  The problem is
convex, so one LP gives the global optimum on the grid.  Only for n <= 3, and
entirely independent of the Remez machinery, which makes it a trustworthy
cross-check.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from widomlab.special import WeightParams

__all__ = ["brute_minimax"]

_GRID = 20001
# evenly spaced grid indices of the first LP
_START = 257
# the full-grid max may exceed the LP value by this relative margin
_STOP_RTOL = 1e-9
_MAX_ROUNDS = 20
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def brute_minimax(w: WeightParams, n: int) -> tuple[list[float], float]:
    """Minimax monic degree-n polynomial on the grid: (sorted real roots, grid max).

    Starts from 257 evenly spaced grid points.  Each round solves the LP on
    the active points with HiGHS, evaluates the weighted error on the full
    grid, and adds every grid local maximum and endpoint whose error is above
    the LP value.  Stops once the full-grid max is within a relative 1e-9 of
    the LP value; raises ``RuntimeError`` after 20 rounds or when a round adds
    no point.
    """
    if n < 0 or n > 3:
        raise ValueError("brute_minimax only supports degrees 0 through 3")
    theta = np.linspace(0.0, np.pi, _GRID)
    x = np.cos(theta)
    wt = np.ones_like(theta)
    if w.rho_a != 0.0:
        wt *= (2.0 * np.sin(0.5 * theta) ** 2) ** w.rho_a
        wt[0] = 0.0
    if w.rho_b != 0.0:
        wt *= (2.0 * np.cos(0.5 * theta) ** 2) ** w.rho_b
        wt[-1] = 0.0
    if n == 0:
        return [], float(np.max(wt))
    # scipy.optimize takes most of a cold `import widomlab`; only the oracle needs it
    from scipy.optimize import linprog

    cost = np.zeros(n + 1)
    cost[n] = 1.0
    bounds = [(None, None)] * n + [(0.0, None)]
    active = np.round(np.linspace(0, _GRID - 1, _START)).astype(int)
    for _ in range(_MAX_ROUNDS):
        # +-wt_i (sum_{k<n} c_k x_i^k) - t <= -+wt_i x_i^n
        xa, wa = x[active], wt[active]
        rows = wa[:, None] * xa[:, None] ** np.arange(n)
        lead = wa * xa**n
        ones = np.ones((len(active), 1))
        a_ub = np.block([[rows, -ones], [-rows, -ones]])
        b_ub = np.concatenate((-lead, lead))
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=_LP_OPTIONS)
        if res.status != 0:
            raise RuntimeError(f"oracle LP failed: {res.message}")
        coef, value = np.append(res.x[:n], 1.0), float(res.x[n])
        # weighted error on the full grid, by Horner's rule
        p = np.ones_like(x)
        for c in coef[-2::-1]:
            p = p * x + c
        err = wt * np.abs(p)
        top = float(np.max(err))
        if top <= value * (1.0 + _STOP_RTOL):
            roots = npp.polyroots(coef)
            return sorted(float(r.real) for r in roots if r.imag == 0.0), top
        peak = np.nonzero((err[1:-1] >= err[:-2]) & (err[1:-1] >= err[2:]))[0] + 1
        cand = np.concatenate(([0], peak, [_GRID - 1]))
        new = np.setdiff1d(cand[err[cand] > value], active)
        if new.size == 0:
            raise RuntimeError(f"oracle LP added no point: grid max {top!r}, LP value {value!r}")
        active = np.union1d(active, new)
    raise RuntimeError(f"oracle LP did not settle in {_MAX_ROUNDS} rounds")
