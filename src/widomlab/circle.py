"""Unit-circle counterpart of the interval minimax problem.

For the weight |z-1|^{2 rho_a - 1} |z+1|^{2 rho_b - 1} (rho_a, rho_b >= 1/2),
the circle minimizer lifted from an interval solution P of degree n is

    Q(z) = [ 2 rho_a (z+1) R(z) + 2 rho_b (z-1) R(z) + (z^2-1) R'(z) ]
           / (2 rho_a + 2 rho_b + 2n),

with R(z) = prod (z^2 - 2 x_k z + 1) over the zeros x_k of P, and the two
extremal values are tied by C_n = 2^{n + rho_a + rho_b - 1} I_n.  R(z) equals
2^n z^n P((z + 1/z) / 2), and T_k((z + 1/z) / 2) = (z^k + z^-k) / 2, so R's
coefficients are the Chebyshev coefficients of P, scaled and mirrored about
z^n, and Q follows by polynomial products in coefficient space.  The module
also carries an Erdos-Lax-type derivative-norm identity and the Polya-Szego
combination whose roots all sit on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from widomlab.bounds import weight_sup_bound
from widomlab.minimax import ChebyshevSolution, MonicPolynomial, solve_many
from widomlab.special import WeightParams, _polish_peaks, _power, _sample_count

__all__ = [
    "RealPolynomial",
    "CircleFunction",
    "circle_minimizer_from_interval",
    "circle_sup",
    "verify_cn_relation",
    "erdos_lax_check",
    "polya_szego_combine",
    "polya_szego_roots",
]


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial, coefficients ascending by degree."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("coefficients must be finite")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0.0:
            raise ValueError("highest coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return npp.polyval(z, np.asarray(self.coeffs))

    def derivative(self) -> "RealPolynomial":
        if self.degree == 0:
            return RealPolynomial((0.0,))
        return RealPolynomial(tuple(npp.polyder(np.asarray(self.coeffs))))


@dataclass(frozen=True)
class CircleFunction:
    """|z-1|^exp_plus |z+1|^exp_minus |poly(z)| on the unit circle."""

    exp_plus: float
    exp_minus: float
    poly: RealPolynomial

    def __post_init__(self):
        if not (math.isfinite(self.exp_plus) and math.isfinite(self.exp_minus)):
            raise ValueError("exponents must be finite")
        if self.exp_plus < 0.0 or self.exp_minus < 0.0:
            raise ValueError("exponents must be nonnegative")

    def modulus_at_angle(self, phi):
        at = np.atleast_1d(np.asarray(phi, dtype=float))
        m = _moduli(at, np.asarray(self.poly.coeffs), self.exp_plus, self.exp_minus)
        return float(m[0]) if np.ndim(phi) == 0 else m


def _moduli(phi: np.ndarray, coeffs: np.ndarray, plus, minus, rows=...) -> np.ndarray:
    """|z-1|^e_plus |z+1|^e_minus |poly(z)| at z = exp(i phi), elementwise.

    ``coeffs`` holds the ascending coefficients of one polynomial, or one
    polynomial per row, zero above its own degree, and ``rows`` then gives
    the row of each point (along the last axis of ``phi``): Horner, as
    numpy's ``polyval`` runs it, turns a leading zero into an exact zero.
    ``plus`` and ``minus`` are the exponents: numbers, or one per point.
    """
    z = np.exp(1j * phi)
    val = coeffs[rows, -1] + z * 0
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        val = coeffs[rows, k] + val * z
    return np.abs(val) * _power(np.abs(z - 1.0), plus) * _power(np.abs(z + 1.0), minus)


def circle_minimizer_from_interval(w: WeightParams, sol: ChebyshevSolution) -> CircleFunction:
    """Lift an interval solution to the monic degree 2n+1 circle minimizer."""
    if w.rho_a < 0.5 or w.rho_b < 0.5:
        raise ValueError("circle correspondence requires rho_a, rho_b >= 1/2")
    n = sol.poly.degree
    ra, rb = w.rho_a, w.rho_b
    # T_k((z + 1/z) / 2) = (z^k + z^-k) / 2, so R = 2^n z^n P carries
    # 2^{n-1} c_k at both z^{n+k} and z^{n-k}
    half = 2.0 ** (n - 1) * sol.poly.full_cheb_coeffs()
    r = np.zeros(2 * n + 1)
    r[n:] += half
    r[n::-1] += half
    num = npp.polyadd(
        npp.polymul([2.0 * ra - 2.0 * rb, 2.0 * ra + 2.0 * rb], r),
        npp.polymul([-1.0, 0.0, 1.0], npp.polyder(r)),
    )
    coeffs = num / (2.0 * ra + 2.0 * rb + 2.0 * n)
    coeffs[-1] = 1.0  # Q is monic by construction
    return CircleFunction(2.0 * ra - 1.0, 2.0 * rb - 1.0, RealPolynomial(tuple(coeffs)))


def _circle_peaks(y: np.ndarray) -> np.ndarray:
    """The local maxima of the samples ``y`` of one period, neighbours taken cyclically,
    that can still reach the highest sample.

    The parabola through a peak's three samples rises at most a quarter of
    the curvature term ``2 y - y_left - y_right`` above the middle one; a peak
    more than half that term below the highest sample cannot win and is
    skipped.  Where |f| is flat, as for a constant-modulus minimizer, this
    leaves a few of its thousands of rounding-level peaks.
    """
    yl, yh = np.roll(y, 1), np.roll(y, -1)
    reach = y + 0.5 * (2.0 * y - yl - yh)
    return np.nonzero((y >= yl) & (y >= yh) & (reach >= np.max(y)))[0]


def _circle_maxes(bind, samples) -> np.ndarray:
    """The max of each periodic function k from its samples, the k-th (phi, y) pair of
    ``samples``, on a uniform grid phi of one period: its :func:`_circle_peaks`, polished by
    iterated parabolic steps.

    The peaks of all the functions go through one polish: ``bind(k)`` returns
    the elementwise function that evaluates each peak's points under its
    function ``k[i]``, as :func:`special._polish_peaks` calls it.  Only the
    peaks of a sample set are kept, so ``samples`` can make each set on demand.
    """
    t, y, step, counts = [], [], [], []
    for phi, ys in samples:
        at = _circle_peaks(ys)
        t.append(phi[at])
        y.append(ys[at])
        step.append(2.0 * np.pi / len(phi))
        counts.append(at.size)
    k = np.repeat(np.arange(len(counts)), counts)
    top = _polish_peaks(bind(k), np.concatenate(t), np.concatenate(y), np.repeat(step, counts), 30, 0.5)
    out = np.full(len(counts), -np.inf)
    np.maximum.at(out, k, top)
    return out


def circle_sup(f: CircleFunction) -> float:
    """Max modulus over the unit circle: the grid peaks that can still win, polished."""
    return float(_circle_sups([f])[0])


def _circle_sups(fs) -> np.ndarray:
    """:func:`circle_sup` of each of ``fs``, each sampled on its own grid and all polished together.

    A function of degree d with exponents e_plus and e_minus takes the
    ``special._sample_count`` of its bandwidth d + e_plus + e_minus over the
    period: 20 ceil(d + e_plus + e_minus) + 100 angles.
    """
    if not fs:
        return np.empty(0)
    coeffs = np.zeros((len(fs), max(len(f.poly.coeffs) for f in fs)))
    for row, f in zip(coeffs, fs):
        row[: len(f.poly.coeffs)] = f.poly.coeffs
    plus, minus = np.array([f.exp_plus for f in fs]), np.array([f.exp_minus for f in fs])

    def samples():
        for f in fs:
            size = _sample_count(f.poly.degree + f.exp_plus + f.exp_minus, period=True)
            phi = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
            yield phi, f.modulus_at_angle(phi)

    def bind(k):
        return lambda t: _moduli(t, coeffs, plus[k], minus[k], k)

    return _circle_maxes(bind, samples())


def _degree_zero_solution(w: WeightParams) -> ChebyshevSolution:
    # the monic "polynomial" 1: its weighted sup is the weight maximum
    s = w.rho_a + w.rho_b
    xstar = (w.rho_b - w.rho_a) / s if s > 0.0 else 0.0
    norm = weight_sup_bound(w)
    return ChebyshevSolution(
        weight=w,
        poly=MonicPolynomial(0, ()),
        reference=(xstar,),
        norm=norm,
        iterations=0,
        levelling_defect=0.0,
    )


def verify_cn_relation(w, n):
    """(C_n, I_n, relative defect of C_n = 2^{n+rho_a+rho_b-1} I_n).

    ``w`` and ``n`` may also be equal-length sequences of weights and
    degrees: the triples then come back as a list, each equal to its single
    call.  Their degrees from 1 up go through one
    :func:`widomlab.minimax.solve_many` call, and the circle sups of all
    their lifts are polished together; the first solver error, in the order
    given, is raised.
    """
    single = isinstance(w, WeightParams)
    weights, degrees = ([w], [n]) if single else (list(w), [int(k) for k in n])
    if len(weights) != len(degrees):
        raise ValueError("give one degree per weight")
    if any(v.rho_a < 0.5 or v.rho_b < 0.5 for v in weights):
        raise ValueError("circle correspondence requires rho_a, rho_b >= 1/2")
    problems = [(v, k) for v, k in zip(weights, degrees) if k != 0]
    outs = iter(solve_many([v for v, _ in problems], [k for _, k in problems]))
    sols = [next(outs) if k != 0 else _degree_zero_solution(v) for v, k in zip(weights, degrees)]
    for sol in sols:
        if isinstance(sol, Exception):
            raise sol
    sups = _circle_sups([circle_minimizer_from_interval(v, sol) for v, sol in zip(weights, sols)])
    out = []
    for v, k, sol, c_n in zip(weights, degrees, sols, sups.tolist()):
        i_n = sol.norm
        expected = 2.0 ** (k + v.rho_a + v.rho_b - 1.0) * i_n
        out.append((c_n, i_n, abs(c_n - expected) / c_n))
    return out[0] if single else out


def erdos_lax_check(angles, exponents) -> tuple[float, float]:
    """(max |F'| on the circle, (sum s_j)/2 * max |F|) for F = prod (z - exp(i a_j))^{s_j}.

    The a_j are ``angles`` and the s_j ``exponents``, one per angle, finite,
    each at least 1; S = sum s_j must leave 2^S S, twice the most either
    value can reach, below the largest double (S up to about 1014).  The
    moduli take the ``special._sample_count`` of the bandwidth S over the
    period, 20 ceil(S) + 100 angles, and are polished.  They come in the
    closed real form of :func:`_erdos_lax_moduli`, whose |F'| is 0 * inf = nan
    at a zero, so the angle grid is offset to keep its samples off the zeros.
    """
    return _erdos_lax_checks([(angles, exponents)])[0]


def _erdos_lax_checks(checks) -> list[tuple[float, float]]:
    """:func:`erdos_lax_check` of each (angles, exponents) pair of ``checks``, each equal to its single call.

    Each check samples its own grid, and the peaks of |F'| and |F| of all
    the checks go through one polish.  A check with fewer zeros than the
    most has the rest at angle 0 with exponent 0: each adds an exact zero
    to every sum.
    """
    pairs = [(np.asarray(a, dtype=float), np.asarray(s, dtype=float)) for a, s in checks]
    totals = [float(np.sum(si)) for _, si in pairs]
    for (ai, si), total in zip(pairs, totals):
        if ai.shape != si.shape:
            raise ValueError("give one exponent per angle")
        if not (np.isfinite(ai).all() and np.isfinite(si).all()):
            raise ValueError("angles and exponents must be finite")
        if (si < 1.0).any():
            raise ValueError("all exponents must be at least 1")
        # max |F| <= 2^S, so neither value exceeds 2^S S/2, and the peak
        # filter and the polish form twice a sample
        if si.size and total + math.log2(total) >= 1024.0:
            raise ValueError(f"exponent sum {total:g} overflows: 2^S S must stay below the largest double")
    if not pairs:
        return []
    angles, s = np.zeros((2, len(pairs), max(si.size for _, si in pairs)))
    for i, (ai, si) in enumerate(pairs):
        angles[i, : si.size], s[i, : si.size] = ai, si

    def samples():
        # |F'| and then |F| of each check, one check at a time
        for ar, sr, total in zip(angles, s, totals):
            size = _sample_count(total, period=True)
            # offset so that zeros at multiples of the step, as 0 and pi, fall between samples
            phi = (np.arange(size) + 0.31) * 2.0 * np.pi / size
            for m in _erdos_lax_moduli(phi, ar, sr):
                yield phi, m

    def bind(k):
        ar, sr, want_d = angles[k // 2], s[k // 2], k % 2 == 0

        def moduli(p: np.ndarray) -> np.ndarray:
            d, f = _erdos_lax_moduli(p, ar, sr)
            return np.where(want_d, d, f)

        return moduli

    top = _circle_maxes(bind, samples()).tolist()
    return [(top[2 * i], 0.5 * total * top[2 * i + 1]) for i, total in enumerate(totals)]


def _erdos_lax_moduli(p: np.ndarray, angles: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|F'|, |F|) at the angles ``p``, elementwise, for F = prod (z - exp(i a_j))^{s_j}.

    ``angles`` and ``s`` hold the a_j and s_j along their last axis, for
    every point, or one row per point along the last axis of ``p``.  With
    u_j = (p - a_j)/2, |z - exp(i a_j)| = 2 |sin u_j| and
    z F'/F = S/2 - (i/2) sum s_j cot u_j, S = sum s_j, so

        |F| = exp(sum s_j log|2 sin u_j|),  |F'| = |F| hypot(S, sum s_j cot u_j) / 2,

    in real arithmetic, with nothing that cancels next to a zero.  At a zero
    itself |F| is 0 and the cotangent infinite, so |F'| is nan: sample off them.
    """
    logf, cot, total = np.zeros((3,) + np.broadcast_shapes(np.shape(p), angles.shape[:-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(angles.shape[-1]):
            u, sj = 0.5 * (p - angles[..., j]), s[..., j]
            sin = np.sin(u)
            logf += sj * np.log(2.0 * np.abs(sin))
            cot += sj * (np.cos(u) / sin)
            total += sj
        absf = np.exp(logf)
        return 0.5 * absf * np.hypot(total, cot), absf


def polya_szego_combine(points) -> np.ndarray:
    """P(z) = z prod (z - a_k) - prod (1 - conj(a_k) z), ascending coefficients."""
    a = np.asarray(points, dtype=complex)
    if np.any(np.abs(a) > 1.0 + 1e-12):
        raise ValueError("all points must satisfy |a_k| <= 1")
    first = np.array([1.0 + 0.0j])
    second = np.array([1.0 + 0.0j])
    for ak in a:
        first = npp.polymul(first, np.array([-ak, 1.0]))
        second = npp.polymul(second, np.array([1.0, -np.conj(ak)]))
    first = npp.polymul(first, np.array([0.0, 1.0]))  # multiply by z
    m = max(len(first), len(second))
    out = np.zeros(m, dtype=complex)
    out[: len(first)] += first
    out[: len(second)] -= second
    return out


def polya_szego_roots(points) -> np.ndarray:
    """Roots of the combined polynomial; all lie on the unit circle."""
    return npp.polyroots(polya_szego_combine(points))
