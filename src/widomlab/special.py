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


def _zero_guesses(p: JacobiParams, n: int) -> np.ndarray:
    """Interior-asymptotic angles for the zeros, increasing in theta."""
    k = np.arange(1, n + 1, dtype=float)
    return (k + 0.5 * p.alpha - 0.25) * np.pi / (n + 0.5 * (p.alpha + p.beta + 1.0))


def _newton_zeros(p: JacobiParams, n: int, x0: np.ndarray, max_steps: int = 100):
    """Vectorized Newton on P_n from starting points x0; returns (x, converged)."""
    x = x0.copy()
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(max_steps):
        v, d = jacobi_eval(p, n, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = v / d
        step = np.where(np.isfinite(step), step, 0.0)
        x = x - np.where(done, 0.0, step)
        done |= np.abs(step) <= 1e-13 * np.maximum(np.abs(x), 1e-3)
        if done.all():
            break
    return x, done


def jacobi_zeros(p: JacobiParams, n: int) -> list[float]:
    """The n simple zeros of P_n^{(alpha,beta)}, strictly increasing in (-1,1)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    theta = _zero_guesses(p, n)
    x, done = _newton_zeros(p, n, np.cos(theta)[::-1])
    if done.all() and x.shape == (n,) and np.all(np.diff(x) > 0) and np.all(np.abs(x) < 1.0):
        return [float(t) for t in x]

    # fallback: bracket sign changes on a dense theta-grid, then bisect
    grid = np.cos(np.linspace(0.0, np.pi, 20 * n + 100))
    vals, _ = jacobi_eval(p, n, grid)
    sign_flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_flip.size != n:
        raise RuntimeError(
            f"zero bracketing found {sign_flip.size} of {n} zeros for {p}"
        )
    lo = np.minimum(grid[sign_flip], grid[sign_flip + 1])
    hi = np.maximum(grid[sign_flip], grid[sign_flip + 1])
    flo, _ = jacobi_eval(p, n, lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm, _ = jacobi_eval(p, n, mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    x, done = _newton_zeros(p, n, 0.5 * (lo + hi))
    bad = np.nonzero(~done)[0]
    if bad.size:
        raise RuntimeError(f"Newton did not converge for zero index {bad[0]} of {p}")
    return sorted(float(t) for t in x)


def _weight_theta(ra: float, rb: float, theta: np.ndarray) -> np.ndarray:
    """(1-x)^ra (1+x)^rb at x = cos(theta), via half-angle forms stable near the endpoints."""
    out = np.ones_like(theta)
    if ra != 0.0:
        out = out * (2.0 * np.sin(0.5 * theta) ** 2) ** ra
    if rb != 0.0:
        out = out * (2.0 * np.cos(0.5 * theta) ** 2) ** rb
    return out


def weighted_monic_jacobi_sup(w: WeightParams, n: int, grid: int | None = None) -> float:
    """Sup over [-1,1] of the weight times |monic Jacobi polynomial| of degree n.

    Samples uniformly in theta = arccos x and refines local maxima by iterated
    3-point parabolic interpolation; relative accuracy target 1e-9.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p = weight_to_param(w)
    scale = monic_scale(p, n)
    if grid is None:
        grid = 50 * n + 500

    theta = np.linspace(0.0, np.pi, grid)
    wt = _weight_theta(w.rho_a, w.rho_b, theta)
    # exact endpoint zeros: float cos(pi/2) rounding would otherwise leak through
    if w.rho_a > 0.0:
        wt[0] = 0.0
    if w.rho_b > 0.0:
        wt[-1] = 0.0
    vals, _ = jacobi_eval(p, n, np.cos(theta))
    mag = wt * np.abs(scale * vals)

    def eval_mag(t: np.ndarray) -> np.ndarray:
        v, _ = jacobi_eval(p, n, np.cos(t))
        return _weight_theta(w.rho_a, w.rho_b, t) * np.abs(scale * v)

    best = max(mag[0], mag[-1])
    is_max = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    idx = np.nonzero(is_max)[0] + 1
    if idx.size:
        t = theta[idx]
        y = mag[idx]
        step = theta[1]
        for _ in range(3):
            lo = np.clip(t - step, 0.0, np.pi)
            hi = np.clip(t + step, 0.0, np.pi)
            yl, yh = eval_mag(lo), eval_mag(hi)
            den = yl - 2.0 * y + yh
            with np.errstate(divide="ignore", invalid="ignore"):
                shift = np.where(den != 0.0, 0.5 * (yl - yh) / den * step, 0.0)
            shift = np.clip(shift, -step, step)
            t2 = np.clip(t + shift, 0.0, np.pi)
            y2 = eval_mag(t2)
            better = y2 >= y
            t = np.where(better, t2, t)
            y = np.where(better, y2, y)
            step /= 4.0
        best = max(best, float(np.max(y)))
    return best
