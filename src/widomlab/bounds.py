"""Bernstein-type bounds for weighted Jacobi sup-norms, and the sup-norms themselves.

Centerpiece is the quantity

    M_n(alpha, beta) = 2^{(1-alpha-beta)/2} Gamma(n+q+1) Gamma(n+alpha+beta+1)
                       / [ (n+(alpha+beta+1)/2)^{q+1/2}
                           Gamma(n+(alpha+beta+1)/2) Gamma(n+(alpha+beta)/2+1) ],

q = max(alpha, beta), which dominates the weighted sup of the monic Jacobi
polynomial for alpha, beta in [-1/2, 1/2] and increases to 2^{1-rho_a-rho_b}.
The module also carries the Chow--Gatteschi--Wong right-hand side, the ratio
function f with f(n) = M_{n+1}/M_n, and the sign analysis of the quadratic
numerator coefficients c_0, c_1, c_2 of (log f)', and the weighted sup of the
monic Jacobi polynomial that M_n bounds, by the solver's certified extremum step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from widomlab.minimax import _batches, _certified_extrema
from widomlab.special import (
    JacobiParams,
    WeightParams,
    _sample_count,
    _whole_degrees,
    log_gamma,
    weight_to_param,
)

__all__ = [
    "BoundReport",
    "PropertyViolation",
    "m_bound",
    "m_bound_raw",
    "m_ratio",
    "c_coeffs",
    "verify_coeff_lemma",
    "cgw_rhs",
    "asymptote",
    "weight_sup_bound",
    "weighted_monic_jacobi_sup",
]


class PropertyViolation(RuntimeError):
    """A verified mathematical property failed beyond tolerance."""


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a bound-verification sweep.

    ``values`` holds one number per index in the inclusive ``n_range``;
    ``max_violation`` is the worst breach the sweep measured, clipped at 0
    (for :func:`verify_m_monotone`, the largest drop M_n - M_{n+1}).
    """

    n_range: tuple[int, int]
    values: tuple[float, ...]
    monotone: bool
    limit: float
    max_violation: float

    def __post_init__(self):
        lo, hi = self.n_range
        if len(self.values) != hi - lo + 1:
            raise ValueError("values must have one entry per n in n_range")
        if self.max_violation < 0.0:
            raise ValueError("max_violation must be nonnegative")


def _check_square(p: JacobiParams) -> None:
    if not (-0.5 <= p.alpha <= 0.5 and -0.5 <= p.beta <= 0.5):
        raise ValueError(
            f"bound is only asserted for alpha, beta in [-1/2, 1/2], got {p}"
        )


_LN2 = math.log(2.0)


def _tabulate(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a scalar math function) at each entry of ``x``, called once per distinct value."""
    values = np.unique(x)
    table = np.fromiter(map(fn, values), dtype=float, count=values.size)
    return table[np.searchsorted(values, x)]


def _log_m(n, q, s, lgamma=math.lgamma, log=math.log):
    """log M_n at the degree ``n`` and the constants q and s = alpha + beta.

    ``lgamma`` and ``log`` take each term's argument: by default ``math``'s,
    for a float ``n``; :func:`_m_bounds` passes tabulating ones for an array.
    The Gamma arguments are positive for n >= 1 on the square.
    """
    half = n + 0.5 * (s + 1.0)
    return (
        0.5 * (1.0 - s) * _LN2
        + lgamma(n + q + 1.0)
        + lgamma(n + s + 1.0)
        - (q + 0.5) * log(half)
        - lgamma(half)
        - lgamma(n + 0.5 * s + 1.0)
    )


def _m_bounds(params, ns) -> np.ndarray:
    """M_n for each of ``params`` (rows) at each of the degrees ``ns`` (columns).

    Each log-Gamma and log term comes from ``math.lgamma`` and ``math.log``,
    once per distinct argument of each distinct argument array, which the
    params with equal q or s share, and ``math.exp`` is taken per entry,
    since numpy's exp rounds some entries differently: an entry equals
    ``math.exp(_log_m(n, q, s))`` and does not depend on the other params or
    degrees.
    """
    n = np.asarray(ns, dtype=float)
    tables = {}

    def tabulated(fn):
        def at(x: np.ndarray) -> np.ndarray:
            key = (fn, x.tobytes())
            if key not in tables:
                tables[key] = _tabulate(fn, x)
            return tables[key]

        return at

    lgamma, log = tabulated(math.lgamma), tabulated(math.log)
    out = np.empty((len(params), n.size))
    for row, p in zip(out, params):
        row[:] = list(map(math.exp, _log_m(n, p.q, p.alpha + p.beta, lgamma, log).tolist()))
    return out


def m_bound(p: JacobiParams, n):
    """The dominating quantity M_n(alpha, beta), via log-space Gamma arithmetic.

    ``n`` is a degree, for a float, or a sequence of degrees, for an array of
    M_n; each entry equals the value of its scalar call.
    """
    _check_square(p)
    ns = _whole_degrees(n, 1)
    if not ns.ndim:
        return math.exp(_log_m(float(ns), p.q, p.alpha + p.beta))
    return _m_bounds([p], ns.ravel())[0].reshape(ns.shape)


def m_bound_raw(p: JacobiParams, n: int) -> float:
    """M_n in its raw binomial form; algebra guard for :func:`m_bound`.

    Gamma(q+1) 2^{2n+(a+b+1)/2} C(n+q, n) / [ sqrt(pi) (n+(a+b+1)/2)^{q+1/2} C(2n+a+b, n) ].
    """
    _check_square(p)
    n = int(_whole_degrees(n, 1))
    a, b = p.alpha, p.beta
    q, s = p.q, a + b
    log_binom1 = log_gamma(n + q + 1.0) - log_gamma(n + 1.0) - log_gamma(q + 1.0)
    log_binom2 = log_gamma(2.0 * n + s + 1.0) - log_gamma(n + 1.0) - log_gamma(n + s + 1.0)
    return math.exp(
        log_gamma(q + 1.0)
        + (2.0 * n + 0.5 * (s + 1.0)) * math.log(2.0)
        + log_binom1
        - 0.5 * math.log(math.pi)
        - (q + 0.5) * math.log(n + 0.5 * (s + 1.0))
        - log_binom2
    )


def m_ratio(p: JacobiParams, x: float) -> float:
    """The ratio function f with f(n) = M_{n+1}(alpha,beta) / M_n(alpha,beta).

    f(x) = (x+q+1)(x+a+b+1)(x+(a+b+1)/2)^{q-1/2}
           / [ (x+(a+b)/2+1)(x+(a+b+1)/2+1)^{q+1/2} ].
    """
    if not x > 0.0:
        raise ValueError("x must be positive")
    a, b = p.alpha, p.beta
    q, s = p.q, a + b
    return (
        (x + q + 1.0)
        * (x + s + 1.0)
        * (x + 0.5 * (s + 1.0)) ** (q - 0.5)
        / ((x + 0.5 * s + 1.0) * (x + 0.5 * (s + 1.0) + 1.0) ** (q + 0.5))
    )


def c_coeffs(p: JacobiParams) -> tuple[float, float, float]:
    """Coefficients (c0, c1, c2) of the quadratic numerator of (log f)'.

    Written for the branch beta <= alpha (so q = alpha); all three are <= 0 on
    the triangle -1/2 <= beta <= alpha <= 1/2, vanishing only at the vertices
    with |alpha| = |beta| = 1/2.
    """
    return _c_coeffs(p.alpha, p.beta)


def _c_coeffs(a, b):
    """(c0, c1, c2) of :func:`c_coeffs` at alpha = a, beta = b, numbers or arrays."""
    c2 = 0.5 * a * a + 0.5 * b * b - 0.25
    c1 = (
        0.75 * a**3
        + (4.0 * b + 8.0) * a**2 / 8.0
        + (b * b - 1.0) * a / 4.0
        + 0.5 * b**3
        + b * b
        - 0.25 * b
        - 0.5
    )
    c0 = (
        0.25 * a**4
        + (3.0 * b + 6.0) * a**3 / 8.0
        + (b + 2.0) ** 2 * a**2 / 8.0
        + (b * b - 1.0) * (b + 2.0) * a / 8.0
        + 0.125 * b**4
        + 0.5 * b**3
        + 0.375 * b * b
        - 0.25 * b
        - 0.25
    )
    return c0, c1, c2


# boundary factorizations of c0 and c1 along the three triangle edges,
# parametrized by t in [0, 1]
_EDGE_FACTORIZATIONS = {
    "alpha=1/2": (
        lambda t: (0.5, t - 0.5),
        lambda t: 0.125 * (t + 2.5) * (t + 1.0) * t * (t - 1.0),
        lambda t: t * (t - 1.0) * (0.5 * t + 0.875),
    ),
    "beta=-1/2": (
        lambda t: (t - 0.5, -0.5),
        lambda t: t * (t - 1.0) * (0.25 * t * t + 0.3125 * t + 0.125),
        lambda t: 0.75 * t * (t - 1.0) * (t + 0.5),
    ),
    "alpha=beta": (
        lambda t: (t - 0.5, t - 0.5),
        lambda t: (t + 0.5) ** 2 * t * (t - 1.0),
        lambda t: 2.0 * (t + 0.5) * t * (t - 1.0),
    ),
}

_TRIANGLE_VERTICES = ((0.5, 0.5), (0.5, -0.5), (-0.5, -0.5))


def verify_coeff_lemma(samples: int, tol: float = 1e-12) -> BoundReport:
    """Check c0, c1, c2 <= 0 on the triangle -1/2 <= beta <= alpha <= 1/2.

    Samples the closed triangle on a ``samples`` x ``samples`` grid, confirms
    the sign of each coefficient, that equality occurs only at the triangle
    vertices, and that the printed edge factorizations of c0 and c1 agree with
    direct evaluation.  Returns a report whose ``values`` are the per-
    coefficient maxima; raises :class:`PropertyViolation` on any failure.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per axis")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    grid = np.linspace(-0.5, 0.5, samples)
    alpha, beta = np.meshgrid(grid, grid, indexing="ij")
    tri = beta <= alpha
    a, b = alpha[tri], beta[tri]
    cs = np.array(_c_coeffs(a, b))
    near_vertex = np.zeros(a.shape, dtype=bool)
    for va, vb in _TRIANGLE_VERTICES:
        near_vertex |= (np.abs(a - va) <= tol) & (np.abs(b - vb) <= tol)
    positive = cs > tol
    off_vertex_zero = (np.abs(cs) <= tol) & ~near_vertex
    offenders: list[tuple[float, float, str, float]] = []
    # point by point, c0 before c1 before c2 at each
    for i, k in zip(*np.nonzero((positive | off_vertex_zero).T)):
        why = f"c{k} > 0" if positive[k, i] else f"c{k} = 0 off-vertex"
        offenders.append((float(a[i]), float(b[i]), why, float(cs[k, i])))
    maxima = [float(m) for m in cs.max(axis=1)]

    t = np.linspace(0.0, 1.0, max(samples, 5))
    for name, (point, c0_fact, c1_fact) in _EDGE_FACTORIZATIONS.items():
        a, b = np.broadcast_arrays(*point(t))
        c0, c1, _ = _c_coeffs(a, b)
        bad = (np.abs(c0 - c0_fact(t)) > tol) | (np.abs(c1 - c1_fact(t)) > tol)
        for i in np.nonzero(bad)[0]:
            offenders.append(
                (float(a[i]), float(b[i]), f"factorization mismatch on edge {name}", float(t[i]))
            )

    if offenders:
        shown = ", ".join(f"({a:.6g},{b:.6g}): {why}" for a, b, why, _ in offenders[:5])
        raise PropertyViolation(
            f"coefficient sign lemma failed at {len(offenders)} points: {shown}"
        )
    violation = max(maxima)
    return BoundReport(
        n_range=(0, 2),
        values=tuple(maxima),
        monotone=True,
        limit=0.0,
        max_violation=violation if violation > tol else 0.0,
    )


def verify_m_monotone(
    n_max: int = 1000, samples: int = 9, limit_tol: float = 1e-3
) -> BoundReport:
    """Check that M_n increases in n toward its limit on the parameter square.

    For every (alpha, beta) on a ``samples`` x ``samples`` grid of
    [-1/2, 1/2]^2, checks M_1 <= M_2 <= ... <= M_{n_max}, strictly except at
    the four corners where the sequence is identically flat (tiny log-Gamma
    cancellation noise is tolerated), and that
    |M_{n_max} - 2^{(1-alpha-beta)/2}| <= limit_tol.  Returns a report whose
    ``values`` are the final deviations per grid point, indexed row-major with
    alpha fastest, and whose ``max_violation`` is the largest drop; raises
    :class:`PropertyViolation` on any monotonicity break or limit miss.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if samples < 2:
        raise ValueError("need at least 2 samples per axis")
    if not math.isfinite(limit_tol):
        raise ValueError("limit_tol must be finite")
    grid = np.linspace(-0.5, 0.5, samples)
    step_tol = 1e-11
    offenders: list[str] = []
    deviations: list[float] = []
    params = [JacobiParams(float(a), float(b)) for b in grid for a in grid]
    ms = _m_bounds(params, range(1, n_max + 1))
    steps = np.maximum(0.0, np.max(ms[:, :-1] - ms[:, 1:], axis=1)).tolist()
    for p, m, worst_step in zip(params, ms, steps):
        a, b = p.alpha, p.beta
        corner = abs(abs(a) - 0.5) < 1e-15 and abs(abs(b) - 0.5) < 1e-15
        lim = 2.0 ** (0.5 * (1.0 - a - b))
        dev = abs(float(m[-1]) - lim)
        deviations.append(dev)
        if worst_step > step_tol:
            offenders.append(f"({a:.6g},{b:.6g}): M_n decreased by {worst_step:.3g}")
        if not corner and m[-1] - m[0] <= 0.0:
            offenders.append(f"({a:.6g},{b:.6g}): no strict increase off-corner")
        if dev > limit_tol:
            offenders.append(f"({a:.6g},{b:.6g}): |M_{n_max} - limit| = {dev:.3g}")
    if offenders:
        raise PropertyViolation(
            f"M_n sweep failed at {len(offenders)} points: " + ", ".join(offenders[:5])
        )
    return BoundReport(
        n_range=(1, samples * samples),
        values=tuple(deviations),
        monotone=True,
        limit=max(deviations),
        max_violation=max(steps),
    )


def cgw_rhs(p: JacobiParams, n: int) -> float:
    """Chow--Gatteschi--Wong bound: Gamma(q+1)/Gamma(1/2) C(n+q,n) (n+(a+b+1)/2)^{-q-1/2}."""
    _check_square(p)
    n = int(_whole_degrees(n, 1))
    q, s = p.q, p.alpha + p.beta
    return math.exp(
        log_gamma(n + q + 1.0)
        - log_gamma(n + 1.0)
        - 0.5 * math.log(math.pi)
        - (q + 0.5) * math.log(n + 0.5 * (s + 1.0))
    )


def asymptote(w: WeightParams) -> float:
    """Large-n limit of the Widom factors: 2^{1 - rho_a - rho_b}."""
    return 2.0 ** (1.0 - w.rho_a - w.rho_b)


def weight_sup_bound(w: WeightParams) -> float:
    """Max over [-1,1] of (1-x)^rho_a (1+x)^rho_b, attained at (rho_b-rho_a)/(rho_a+rho_b).

    Uses the 0^0 = 1 convention when an exponent vanishes.
    """
    ra, rb = w.rho_a, w.rho_b
    s = ra + rb
    if s == 0.0:
        return 1.0
    out = 1.0
    if ra > 0.0:
        out *= (2.0 * ra / s) ** ra
    if rb > 0.0:
        out *= (2.0 * rb / s) ** rb
    return out


def weighted_monic_jacobi_sup(w: WeightParams, n):
    """Sup over [-1,1] of the weight times |monic Jacobi polynomial| of degree n.

    The largest |w p| that the certified extremum step of
    :func:`minimax.solve` finds in the Chebyshev series of p from the monic
    three-term recurrence (:func:`_monic_step`), on a grid of
    ``special._sample_count(n)`` = 10 n + 50 uniform points (the least that
    :func:`minimax.error_extrema` accepts, plus 50) with its endpoint tails:
    grid local maxima of |w p| refined by bracketed Newton, a boundary hump
    inside the first cell included, and the endpoints where the weight does
    not vanish.  ``n`` is a
    degree, for a float, or a sequence of degrees, for an array of sups, each
    equal to its scalar call.  Degrees are whole numbers of at least 0.
    """
    degrees = _whole_degrees(n, 0)
    sups = _jacobi_sups([w], degrees.ravel())[0]
    return float(sups[0]) if degrees.ndim == 0 else sups.reshape(degrees.shape)


def _jacobi_sups(weights, ns) -> np.ndarray:
    """:func:`weighted_monic_jacobi_sup` of each of ``weights`` (rows) at each of the degrees ``ns`` (columns).

    The extremum steps run degree after degree in the batches of
    :func:`minimax._batches`, degree k on ``special._sample_count(k)``
    uniform points.  The Chebyshev series of the monic p_k come from
    :func:`_monic_step`, one step per degree for all weights at once, run
    forward as the batches ask for higher degrees; only p_k and p_{k-1} of
    each weight are held.  Each sup equals its single call bit for bit.
    """
    deg = _whole_degrees(ns, 0)
    if not (len(weights) and deg.size):
        return np.empty((len(weights), deg.size))
    ks = np.unique(deg)
    sups = np.empty((ks.size, len(weights)))
    params = [weight_to_param(w) for w in weights]
    a, b = np.array([[p.alpha] for p in params]), np.array([[p.beta] for p in params])
    problems = [(w, k) for k in ks.tolist() for w in weights]
    flat, done = sups.reshape(-1), 0
    # p_{k-1} and p_k of each weight, from p_{-1} = 0 and p_0 = 1
    at, before, series = 0, np.zeros((len(weights), 0)), np.ones((len(weights), 1))
    for batch, degrees in _batches(problems):
        coefs = np.zeros((len(batch), max(degrees) + 1))
        for i, k in enumerate(degrees):
            for j in range(at, k):
                before, series = series, _monic_step(a, b, j, series, before)
            at = k
            coefs[i, : k + 1] = series[(done + i) % len(weights)]
        extrema = _certified_extrema(batch, degrees, coefs, [_sample_count(k) for k in degrees])
        flat[done : done + len(batch)] = [np.abs(e).max() for _, e in extrema]
        done += len(batch)
    return sups.T[:, np.searchsorted(ks, deg)]


def _monic_step(a, b, k: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Chebyshev series of the monic Jacobi p_{k+1} = (x - a_k) p_k - b_k p_{k-1}.

    ``p`` and ``q`` hold the series of p_k and p_{k-1}, one row per
    exponent pair (alpha, beta) of the columns ``a`` and ``b``; x p comes
    from x T_0 = T_1 and x T_j = (T_{j+1} + T_{j-1})/2.
    """
    s, m = a + b, 2 * k + a + b
    # a_0 and b_1 in cancelled form, since s = 0 or -1 makes the general ones 0/0
    ak = (b - a) / (s + 2.0) if k == 0 else (b * b - a * a) / (m * (m + 2.0))
    if k < 2:
        bk = k * 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s))
    else:
        bk = 4.0 * k * (k + a) * (k + b) * (k + s) / (m * m * (m + 1.0) * (m - 1.0))
    out = np.zeros((p.shape[0], k + 2))
    out[:, 1:] = p
    out[:, 1] += p[:, 0]
    out[:, :k] += p[:, 1:]
    out *= 0.5
    out[:, : k + 1] -= ak * p
    out[:, :k] -= bk * q
    return out
