"""Jacobi polynomials: evaluation and monic normalization, and the weight in theta.

Conventions follow Szego: P_n^{(alpha,beta)} is orthogonal on [-1,1] for the
measure (1-x)^alpha (1+x)^beta dx, normalized by P_n(1) = C(n+alpha, n).
The sup-norm side works with the weight (1-x)^rho_a (1+x)^rho_b, linked to
the L2 parameters by rho = alpha/2 + 1/4 (and the same for beta).  The
module also holds the tailed theta-grid and the root and peak refiners that
the solver and the circle layer build on; the weighted sups of the monic
Jacobi polynomials are in :mod:`widomlab.bounds`, which builds their
Chebyshev series by the monic recurrence on coefficients, not by
:func:`jacobi_eval`.
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


def jacobi_eval(p: JacobiParams, n, x):
    """P_n^{(alpha,beta)}(x) and its derivative by forward three-term recurrence in x.

    Accepts scalar or array x; returns a matching (value, derivative) pair.
    ``n`` is one degree, by the rule of :func:`minimax.solve`: a whole
    number of at least 0, where integral floats and numpy integers pass and
    2.5, nan or an array of degrees raise ValueError.
    """
    deg = _whole_degrees(n, 0)
    if deg.ndim:
        raise ValueError("jacobi_eval takes one degree, as solve does")
    a, b, s = p.alpha, p.beta, p.alpha + p.beta
    xs = np.asarray(x, dtype=float)
    v, d = np.ones_like(xs), np.zeros_like(xs)
    if deg > 0:
        v0, v = v, 0.5 * ((s + 2.0) * xs + (a - b))
        d0, d = d, np.full_like(xs, 0.5 * (s + 2.0))
        # a_k P_k = (b_k + c_k x) P_{k-1} - d_k P_{k-2}
        for k in range(2, int(deg) + 1):
            ak = 2.0 * k * (k + s) * (2.0 * k + s - 2.0)
            bk = (2.0 * k + s - 1.0) * (a * a - b * b)
            ck = (2.0 * k + s - 2.0) * (2.0 * k + s - 1.0) * (2.0 * k + s)
            dk = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + s)
            t = bk + ck * xs
            v0, v, d0, d = v, (t * v - dk * v0) / ak, d, (ck * v + t * d - dk * d0) / ak
    return (v, d) if xs.ndim else (float(v), float(d))


def _whole_degrees(n, least: int) -> np.ndarray:
    """``n``, a degree or an array of degrees, as integers; each must be a whole number of at least ``least``.

    Integral floats and numpy integers pass; 2.5, nan and inf raise ValueError.
    """
    deg = np.asarray(n)
    if (deg < least).any():
        raise ValueError(f"degree must be at least {least}" if least else "degree must be nonnegative")
    real = deg.astype(float)
    if not (np.isfinite(real) & (real == np.floor(real))).all():
        raise ValueError("degree must be an integer")
    return deg.astype(int)


def monic_scale(p: JacobiParams, n: int) -> float:
    """Factor turning P_n^{(alpha,beta)} monic: 2^n n! Gamma(n+a+b+1)/Gamma(2n+a+b+1)."""
    n = int(_whole_degrees(n, 0))
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


def _power(base: np.ndarray, rho) -> np.ndarray:
    """``base ** rho``, with ``rho`` a number or one exponent per point along the last axis of ``base``.

    An array of exponents goes through one ``np.power``, which gives each
    point what ``base ** r`` gives it with its exponent ``r`` as a number,
    except at 0.5 and 2: there a number takes numpy's sqrt and square, which
    round differently, and so do those points.  Exponents are nonnegative.
    """
    if not np.ndim(rho):
        return base ** rho
    out = np.power(base, rho)
    at = (rho == 0.5) | (rho == 2.0)
    if np.count_nonzero(at):
        b = base[..., at]
        out[..., at] = np.where(rho[at] == 0.5, np.sqrt(b), np.square(b))
    return out


def _weight_theta(ra, rb, theta: np.ndarray) -> np.ndarray:
    """(1-x)^ra (1+x)^rb at x = cos(theta), via half-angle forms stable near the endpoints.

    Each exponent is a number, or one per point along the last axis of
    ``theta``; a point gets what its own exponents give it alone.
    """
    half = 0.5 * theta
    return _power(2.0 * np.sin(half) ** 2, ra) * _power(2.0 * np.cos(half) ** 2, rb)


# the geometric tail of a sampling grid reaches about this close to an endpoint
_TAIL_END = 1e-18

# from this exponent on, the vanishing factor changes by at least 60 ulp from
# one tail point to the next, so :func:`_untied` drops no tail point
_TIES_BELOW = 1e-14


def _untied(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Mask of the tail points to keep, given their weights ``w`` and vanishing factors ``f``.

    Both are ordered from the endpoint inward.  A point goes where the weight
    and the factor both equal their values at the point before it: the tail
    no longer resolves the weight there.  A tie of the weight alone can be a
    rounding coincidence near the weight's maximum, and a factor that has
    underflowed to 0 (exponents above about 9) leaves the grid as it was.
    """
    keep = np.ones(w.shape, dtype=bool)
    keep[1:] = (w[1:] != w[:-1]) | (f[1:] != f[:-1]) | (f[1:] == 0.0)
    return keep


def _tail_grid(ra: float, rb: float, size: int) -> np.ndarray:
    """Uniform theta-grid of ``size`` points on [0, pi], with geometric endpoint tails.

    The uniform points have step ``pi / (size - 1)``.  At each endpoint
    where the weight vanishes a geometric tail ``step * 2^-k`` adds points,
    from ``step / 2`` down to about ``_TAIL_END``: there a weighted
    polynomial can peak in a boundary hump narrower than one step, and the
    tail samples that hump.  Toward pi the tail stops at ulp(pi): below it
    ``pi - u`` rounds onto pi or onto its neighbour, and tied points would
    each count as a maximum.  For the same reason :func:`_untied` drops the
    tail points where the weight stops changing, as on most of the tail for
    an exponent below about 1e-16; a side whose exponent is at least
    ``_TIES_BELOW`` keeps every point without that search.  The caller
    weighs the grid.
    """
    step = np.pi / (size - 1)
    u = step * 0.5 ** np.arange(1, 64)
    lo = u[u >= _TAIL_END][::-1] if ra > 0.0 else u[:0]
    hi = np.pi - u[u >= np.spacing(np.pi)] if rb > 0.0 else u[:0]
    if 0.0 < ra < _TIES_BELOW:
        lo = lo[_untied(_weight_theta(ra, rb, lo), _weight_theta(ra, 0.0, lo))]
    if 0.0 < rb < _TIES_BELOW:
        hi = hi[_untied(_weight_theta(ra, rb, hi)[::-1], _weight_theta(0.0, rb, hi)[::-1])[::-1]]
    theta = np.linspace(0.0, np.pi, size)
    return np.concatenate((theta[:1], lo, theta[1:-1], hi, theta[-1:]))


def _tail_kind(ra: float, rb: float) -> tuple:
    """A key that weights with one :func:`_tail_grid` of each size share.

    The grid depends on the exponents only through the ends where the weight
    vanishes, except that an exponent below ``_TIES_BELOW`` can drop tied
    tail points (:func:`_untied`).  Such an exponent, or 0, is its own key.
    """
    return (ra if ra < _TIES_BELOW else True, rb if rb < _TIES_BELOW else True)


def _sample_count(bandwidth: float, period: bool = False) -> int:
    """The uniform samples that a sup takes of a function of ``bandwidth`` b:
    ``10 ceil(b) + 50`` on [0, pi], and twice that on a full period if ``period``.

    A function of bandwidth b has at most about b local maxima on [0, pi],
    so each gets about 10 samples; the caller's refiner finds the peak
    between two of them.  For b = n this is the least grid that
    :func:`minimax.error_extrema` accepts, plus 50.
    """
    count = 10 * math.ceil(bandwidth) + 50
    return 2 * count if period else count


def _parabolic_shift(yl, y, yh, step):
    """Vertex offset of the parabola through (-step, yl), (0, y), (step, yh), clipped to +-step."""
    den = yl - 2.0 * y + yh
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(den != 0.0, 0.5 * (yl - yh) / den * step, 0.0)
    return np.clip(shift, -step, step)


def _polish_peaks(f, t, y, step, rounds: int, shrink: float):
    """Iterated parabolic polish of the peaks of ``f`` at points ``t`` with values ``y``.

    Each round fits a parabola to f at t - step, t, t + step, moves each point
    to its vertex (at most ``step`` away) unless f is lower there, and scales
    ``step`` by ``shrink``; ``step`` is a number or one per point.  ``f`` must
    accept points up to ``step`` outside the range ``t`` was sampled from,
    and be elementwise: it gets t - step and t + step in one call, stacked
    as the two rows of an array, and anything it holds per peak must
    broadcast against each row.  Returns the polished values.
    """
    for _ in range(rounds):
        yl, yh = f(np.stack((t - step, t + step)))
        t2 = t + _parabolic_shift(yl, y, yh, step)
        y2 = f(t2)
        better = y2 >= y
        t = np.where(better, t2, t)
        y = np.where(better, y2, y)
        step = step * shrink
    return y


def _bracketed_newton(f, lo, hi, sign_lo, tol: float, max_steps: int, counts=None) -> np.ndarray:
    """Safeguarded Newton on f = 0 inside brackets [lo, hi], where f has sign ``sign_lo`` at lo.

    ``f`` maps points to (value, derivative); a step that leaves the shrinking
    bracket becomes a bisection, a step that lands on a bracket end is kept,
    and a point where f is exactly 0 stays put.  A point is done once it moved
    by at most ``max(tol, 2 ulp)``, since a ``tol`` below the float spacing near
    it could otherwise be met only by collapsing its bracket, or once it
    returned to its iterate of two steps before: rounding noise in f can hold
    Newton in a 2-cycle a few ulp wide.  Stops once every point is done.

    With ``counts`` the points form consecutive blocks of those sizes, each a
    problem of its own: a block stops once its own points are done, with the
    result it would have alone, and ``f`` is called as ``f(x, live)`` with the
    points of the blocks ``live`` (indices into ``counts``) still running.
    """
    x = 0.5 * (lo + hi)
    prev = np.full_like(x, np.nan)
    out = np.empty_like(x)
    if counts is None:
        counts, call = np.array([x.size]), lambda t, live: f(t)
    else:
        counts, call = np.asarray(counts), f
    # a block without points is done at once
    live = np.flatnonzero(counts)
    starts = np.cumsum(counts[live]) - counts[live]
    at = np.arange(x.size)  # where the running points go in the result
    sign_lo = np.asarray(sign_lo, dtype=float)
    for _ in range(max_steps):
        v, dv = call(x, live)
        same = np.sign(v) == sign_lo
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - v / dv
        bad = ~np.isfinite(xn) | (xn < lo) | (xn > hi)
        xn = np.where(v == 0.0, x, np.where(bad, 0.5 * (lo + hi), xn))
        settled = np.abs(xn - x) <= np.maximum(tol, 2.0 * np.spacing(np.abs(x)))
        busy = ~(settled | (xn == prev))
        if not busy.any():
            out[at] = xn
            return out
        if live.size > 1:
            running = np.logical_or.reduceat(busy, starts)
            if not running.all():
                keep = np.repeat(running, counts[live])
                out[at[~keep]] = xn[~keep]
                live, at, x, xn = live[running], at[keep], x[keep], xn[keep]
                lo, hi = lo[keep], hi[keep]
                if sign_lo.ndim:
                    sign_lo = sign_lo[keep]
                starts = np.cumsum(counts[live]) - counts[live]
        prev, x = x, xn
    out[at] = x
    return out
