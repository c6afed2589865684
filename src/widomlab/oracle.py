"""Brute-force minimax reference for tiny degrees.

Solves the discrete minimax problem on a 20,001-point grid exactly: minimise
max_i |w(x_i) p(x_i)| at the grid points x_i = cos(theta_i), over the n free
monomial coefficients of the monic p.  That is a linear program, and
Stiefel's exchange, the dual simplex method for discrete Chebyshev problems
(Stiefel, *Numer. Math.* 1, 1959; Cheney, *Introduction to Approximation
Theory*, 1966, ch. 2), solves it with one (n+1)x(n+1) system per step, in
numpy alone.  It stops on an LP-duality lower bound, so its answer rests on no
alternation theorem.  Only for n <= 3, and entirely independent of the Remez
machinery, which makes it a trustworthy cross-check.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from widomlab.special import WeightParams, _whole_degrees

__all__ = ["brute_minimax"]

_GRID = 20001
# the full-grid max may exceed the duality lower bound by this relative margin
_STOP_RTOL = 1e-9
_MAX_EXCHANGES = 100


def brute_minimax(w: WeightParams, n: int) -> tuple[list[float], float]:
    """Minimax monic degree-n polynomial on the grid: (sorted real roots, grid max).

    The degree is a whole number from 0 to 3 (integral floats pass), or
    ``ValueError``.  The reference holds n + 1 grid points of positive
    weight, first evenly spaced.  Each step solves the levelled system
    ``w_j p(x_j) = (-1)^j h`` on the reference, evaluates the weighted error
    on the full grid and swaps its largest point into the reference, keeping
    the signs alternating.  The vector ``lam`` with ``A^T lam = e_{n+1}``
    annihilates ``w x^k`` (k < n) on the reference, so every monic q has
    ``|sum_j lam_j w_j x_j^n| <= sum_j |lam_j| max |w q|``: a lower bound on
    the grid minimum.  Stops once the full-grid max is within a relative
    1e-9 of it; raises ``RuntimeError`` after 100 exchanges.
    """
    deg = _whole_degrees(n, 0)
    if deg.ndim or deg > 3:
        raise ValueError("brute_minimax only supports one degree, 0 through 3")
    n = int(deg)
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
    live = np.flatnonzero(wt)  # all but the ends where the weight vanishes
    ref = np.round(np.linspace(live[0], live[-1], n + 1)).astype(int)
    sign = (-1.0) ** np.arange(n + 1)
    for _ in range(_MAX_EXCHANGES):
        # w_j (sum_{k<n} c_k x_j^k) - (-1)^j h = -w_j x_j^n
        xr, wr = x[ref], wt[ref]
        a = np.column_stack((wr[:, None] * xr[:, None] ** np.arange(n), -sign))
        lead = wr * xr**n
        sol = np.linalg.solve(a, -lead)
        lam = np.linalg.solve(a.T, np.eye(n + 1)[n])
        bound = abs(float(lam @ lead)) / float(np.sum(np.abs(lam)))
        coef = np.append(sol[:n], 1.0)
        # weighted error on the full grid, by Horner's rule
        p = np.ones_like(x)
        for c in coef[-2::-1]:
            p = p * x + c
        err = wt * p
        top_at = int(np.argmax(np.abs(err)))
        top = abs(float(err[top_at]))
        if top <= bound * (1.0 + _STOP_RTOL):
            roots = npp.polyroots(coef)
            return sorted(float(r.real) for r in roots if r.imag == 0.0), top
        ref = _exchange(ref, sign * sol[n] > 0.0, top_at, err[top_at] > 0.0)
    raise RuntimeError(f"oracle exchange did not settle in {_MAX_EXCHANGES} steps")


def _exchange(ref: np.ndarray, ref_up: np.ndarray, i: int, up: bool) -> np.ndarray:
    """Reference ``ref`` with grid index ``i`` swapped in, the signs still alternating.

    ``ref`` holds sorted grid indices whose errors alternate in sign,
    positive where ``ref_up``; ``up`` is the sign of the error at ``i``.
    Between two reference points ``i`` replaces the neighbour of its sign.
    Past an end it replaces that end if the signs agree, and otherwise
    shifts the reference by one, dropping the far end.
    """
    j = int(np.searchsorted(ref, i))
    if j == 0 and ref_up[0] != up:
        return np.concatenate(([i], ref[:-1]))
    if j == len(ref) and ref_up[-1] != up:
        return np.concatenate((ref[1:], [i]))
    out = ref.copy()
    out[j if j < len(ref) and ref_up[j] == up else j - 1] = i
    return out
