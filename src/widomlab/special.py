"""Jacobi polynomials: evaluation, monic normalization, zeros, and weighted sups.

Conventions follow Szego: P_n^{(alpha,beta)} is orthogonal on [-1,1] for the
measure (1-x)^alpha (1+x)^beta dx, normalized by P_n(1) = C(n+alpha, n).
The sup-norm side works with the weight (1-x)^rho_a (1+x)^rho_b, linked to
the L2 parameters by rho = alpha/2 + 1/4 (and the same for beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "WeightParams",
    "log_gamma",
    "param_to_weight",
    "weight_to_param",
    "jacobi_eval",
    "monic_scale",
    "jacobi_zeros",
    "weighted_monic_jacobi_sup",
]


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (alpha, beta) of the Jacobi orthogonality measure."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha <= -1.0 or self.beta <= -1.0:
            raise ValueError("alpha and beta must exceed -1")

    @property
    def q(self) -> float:
        return max(self.alpha, self.beta)


@dataclass(frozen=True)
class WeightParams:
    """Exponents of the sup-norm weight (1-x)^rho_a (1+x)^rho_b."""

    rho_a: float
    rho_b: float

    def __post_init__(self):
        if not (math.isfinite(self.rho_a) and math.isfinite(self.rho_b)):
            raise ValueError("rho_a and rho_b must be finite")
        if self.rho_a < 0.0 or self.rho_b < 0.0:
            raise ValueError("rho_a and rho_b must be nonnegative")


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def param_to_weight(p: JacobiParams) -> WeightParams:
    """Map L2 exponents (alpha, beta) to sup-norm exponents (rho_a, rho_b)."""
    return WeightParams(p.alpha / 2.0 + 0.25, p.beta / 2.0 + 0.25)


def weight_to_param(w: WeightParams) -> JacobiParams:
    """Inverse of param_to_weight: alpha = 2 rho_a - 1/2, beta = 2 rho_b - 1/2."""
    return JacobiParams(2.0 * w.rho_a - 0.5, 2.0 * w.rho_b - 0.5)


def _recurrence_terms(a: float, b: float, k: int) -> tuple[float, float, float, float]:
    """Coefficients of a_k P_k = (b_k + c_k x) P_{k-1} - d_k P_{k-2}."""
    s = a + b
    ak = 2.0 * k * (k + s) * (2.0 * k + s - 2.0)
    bk = (2.0 * k + s - 1.0) * (a * a - b * b)
    ck = (2.0 * k + s - 2.0) * (2.0 * k + s - 1.0) * (2.0 * k + s)
    dk = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + s)
    return ak, bk, ck, dk


def jacobi_eval(p: JacobiParams, n: int, x):
    """P_n^{(alpha,beta)}(x) and its derivative by forward three-term recurrence.

    Accepts scalar or array x; returns a matching (value, derivative) pair.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a, b = p.alpha, p.beta
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)

    v0 = np.ones_like(xs)
    d0 = np.zeros_like(xs)
    if n == 0:
        v, d = v0, d0
    else:
        v1 = 0.5 * ((a + b + 2.0) * xs + (a - b))
        d1 = np.full_like(xs, 0.5 * (a + b + 2.0))
        for k in range(2, n + 1):
            ak, bk, ck, dk = _recurrence_terms(a, b, k)
            v2 = ((bk + ck * xs) * v1 - dk * v0) / ak
            d2 = (ck * v1 + (bk + ck * xs) * d1 - dk * d0) / ak
            v0, v1 = v1, v2
            d0, d1 = d1, d2
        v, d = v1, d1
    if scalar:
        return float(v[0]), float(d[0])
    return v, d


def monic_scale(p: JacobiParams, n: int) -> float:
    """Factor turning P_n^{(alpha,beta)} monic: 2^n n! Gamma(n+a+b+1)/Gamma(2n+a+b+1)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1.0
    s = p.alpha + p.beta
    # all Gamma arguments are positive for n >= 1 when alpha, beta > -1
    return math.exp(
        n * math.log(2.0)
        + log_gamma(n + 1.0)
        + log_gamma(n + s + 1.0)
        - log_gamma(2.0 * n + s + 1.0)
    )


def _weight_theta(ra: float, rb: float, theta: np.ndarray) -> np.ndarray:
    """(1-x)^ra (1+x)^rb at x = cos(theta), via half-angle forms stable near the endpoints."""
    out = np.ones_like(theta)
    if ra != 0.0:
        out = out * (2.0 * np.sin(0.5 * theta) ** 2) ** ra
    if rb != 0.0:
        out = out * (2.0 * np.cos(0.5 * theta) ** 2) ** rb
    return out


def _theta_grid(ra: float, rb: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform theta-grid of ``size`` points on [0, pi] and the weight on it."""
    theta = np.linspace(0.0, np.pi, size)
    wgrid = _weight_theta(ra, rb, theta)
    # exact endpoint zeros: float cos(pi/2) rounding would otherwise leak through
    if ra > 0.0:
        wgrid[0] = 0.0
    if rb > 0.0:
        wgrid[-1] = 0.0
    return theta, wgrid


def _parabolic_shift(yl, y, yh, step):
    """Vertex offset of the parabola through (-step, yl), (0, y), (step, yh), clipped to +-step."""
    den = yl - 2.0 * y + yh
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(den != 0.0, 0.5 * (yl - yh) / den * step, 0.0)
    return np.clip(shift, -step, step)


def _polish_peaks(f, t, y, step: float, rounds: int, shrink: float):
    """Iterated parabolic polish of the peaks of ``f`` at points ``t`` with values ``y``.

    Each round fits a parabola to f at t - step, t, t + step, moves each point
    to its vertex (at most ``step`` away) unless f is lower there, and scales
    ``step`` by ``shrink``.  ``f`` must accept points up to ``step`` outside
    the range ``t`` was sampled from.  Returns the polished values.
    """
    for _ in range(rounds):
        t2 = t + _parabolic_shift(f(t - step), y, f(t + step), step)
        y2 = f(t2)
        better = y2 >= y
        t = np.where(better, t2, t)
        y = np.where(better, y2, y)
        step *= shrink
    return y


def _bracketed_newton(f, lo, hi, sign_lo, tol: float, max_steps: int) -> np.ndarray:
    """Safeguarded Newton on f = 0 inside brackets [lo, hi], where f has sign ``sign_lo`` at lo.

    ``f`` maps points to (value, derivative); a step that leaves the shrinking
    bracket becomes a bisection, a step that lands on a bracket end is kept,
    and a point where f is exactly 0 stays put.  A point is done once it moved
    by at most ``max(tol, 2 ulp)``, since a ``tol`` below the float spacing near
    it could otherwise be met only by collapsing its bracket, or once it
    returned to its iterate of two steps before: rounding noise in f can hold
    Newton in a 2-cycle a few ulp wide.  Stops once every point is done.
    """
    x = 0.5 * (lo + hi)
    prev = np.full_like(x, np.nan)
    for _ in range(max_steps):
        v, dv = f(x)
        same = np.sign(v) == sign_lo
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - v / dv
        bad = ~np.isfinite(xn) | (xn < lo) | (xn > hi)
        xn = np.where(v == 0.0, x, np.where(bad, 0.5 * (lo + hi), xn))
        settled = np.abs(xn - x) <= np.maximum(tol, 2.0 * np.spacing(np.abs(x)))
        if np.all(settled | (xn == prev)):
            return xn
        prev, x = x, xn
    return x


def jacobi_zeros(p: JacobiParams, n: int) -> list[float]:
    """The n simple zeros of P_n^{(alpha,beta)}, strictly increasing in (-1,1).

    Brackets the sign changes of P_n on a uniform theta-grid of 20n + 100
    points and refines each by bracketed Newton.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    grid = np.cos(np.linspace(0.0, np.pi, 20 * n + 100))[::-1]
    vals, _ = jacobi_eval(p, n, grid)
    flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if flip.size != n:
        raise RuntimeError(f"zero bracketing found {flip.size} of {n} zeros for {p}")
    x = _bracketed_newton(
        lambda t: jacobi_eval(p, n, t), grid[flip], grid[flip + 1], np.sign(vals[flip]), 1e-15, 100
    )
    return [float(t) for t in x]


def weighted_monic_jacobi_sup(w: WeightParams, n: int) -> float:
    """Sup over [-1,1] of the weight times |monic Jacobi polynomial| of degree n.

    Samples a uniform theta-grid of 50n + 500 points, theta = arccos x, and
    refines local maxima by iterated 3-point parabolic interpolation; relative
    accuracy target 1e-9.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p = weight_to_param(w)
    scale = monic_scale(p, n)

    def eval_mag(t: np.ndarray) -> np.ndarray:
        # even about theta = 0 and pi, so the polish may step past either end
        v, _ = jacobi_eval(p, n, np.cos(t))
        return _weight_theta(w.rho_a, w.rho_b, t) * np.abs(scale * v)

    theta, wt = _theta_grid(w.rho_a, w.rho_b, 50 * n + 500)
    vals, _ = jacobi_eval(p, n, np.cos(theta))
    mag = wt * np.abs(scale * vals)
    best = max(mag[0], mag[-1])
    idx = np.nonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]))[0] + 1
    if idx.size:
        y = _polish_peaks(eval_mag, theta[idx], mag[idx], theta[1], 3, 0.25)
        best = max(best, float(np.max(y)))
    return best
