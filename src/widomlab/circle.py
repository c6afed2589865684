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
from widomlab.minimax import ChebyshevSolution, MonicPolynomial, solve
from widomlab.special import WeightParams, _polish_peaks

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
        z = np.exp(1j * np.asarray(phi, dtype=float))
        m = np.abs(self.poly(z))
        if self.exp_plus != 0.0:
            m = m * np.abs(z - 1.0) ** self.exp_plus
        if self.exp_minus != 0.0:
            m = m * np.abs(z + 1.0) ** self.exp_minus
        return float(m) if np.ndim(phi) == 0 else m


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


def _circle_max(f, phi: np.ndarray, y: np.ndarray) -> float:
    """Max of the periodic ``f`` from its samples ``y`` on a uniform grid ``phi`` of one period:
    its :func:`_circle_peaks`, polished by iterated parabolic steps."""
    idx = _circle_peaks(y)
    top = _polish_peaks(f, phi[idx], y[idx], 2.0 * np.pi / len(phi), 30, 0.5)
    return float(np.max(top))


def circle_sup(f: CircleFunction) -> float:
    """Max modulus over the unit circle: the grid peaks that can still win, polished."""
    size = max(4096, math.ceil(10 * (f.poly.degree + f.exp_plus + f.exp_minus + 4)))
    phi = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    return _circle_max(f.modulus_at_angle, phi, f.modulus_at_angle(phi))


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


def verify_cn_relation(w: WeightParams, n: int) -> tuple[float, float, float]:
    """(C_n, I_n, relative defect of C_n = 2^{n+rho_a+rho_b-1} I_n)."""
    if w.rho_a < 0.5 or w.rho_b < 0.5:
        raise ValueError("circle correspondence requires rho_a, rho_b >= 1/2")
    sol = _degree_zero_solution(w) if n == 0 else solve(w, n)
    f = circle_minimizer_from_interval(w, sol)
    c_n = circle_sup(f)
    i_n = sol.norm
    expected = 2.0 ** (n + w.rho_a + w.rho_b - 1.0) * i_n
    return c_n, i_n, abs(c_n - expected) / c_n


_ERDOS_LAX_GRID = 16384


def erdos_lax_check(angles, exponents) -> tuple[float, float]:
    """(max |F'| on the circle, (sum s_j)/2 * max |F|) for F = prod (z-zeta_j)^{s_j}.

    The derivative modulus uses the logarithmic-derivative form away from the
    zeros and an explicit product-rule expansion within distance 1e-3 of one.
    """
    s = np.asarray(exponents, dtype=float)
    if np.any(s < 1.0):
        raise ValueError("all exponents must be at least 1")
    zk = np.exp(1j * np.asarray(angles, dtype=float))
    # offset grid so no sample collides with a zero of F
    phi = (np.arange(_ERDOS_LAX_GRID) + 0.31) * 2.0 * np.pi / _ERDOS_LAX_GRID

    def moduli(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.exp(1j * p)
        # one zero at a time: only the rows near a zero need the (grid, m) matrices
        logf = np.zeros_like(z)
        dlogf = np.zeros_like(z)
        logdist = np.full(z.shape, np.inf)
        for sj, zj in zip(s, zk):
            d = z - zj
            logd = np.log(d)
            np.minimum(logdist, logd.real, out=logdist)
            logd *= sj
            logf += logd
            with np.errstate(divide="ignore", invalid="ignore"):
                dlogf += sj / d
        absf = np.exp(np.real(logf))
        with np.errstate(invalid="ignore"):
            absd = absf * np.abs(dlogf)
        near = logdist < np.log(1e-3)
        if np.any(near):
            logd = np.log(z[near, None] - zk[None, :])
            terms = s * np.exp(logf[near, None] - logd)
            absd[near] = np.abs(np.sum(terms, axis=1))
        return absd, absf

    absd, absf = moduli(phi)
    # the peaks of |F'| and then those of |F|, polished together: moduli is elementwise
    at_d, at_f = _circle_peaks(absd), _circle_peaks(absf)
    split = at_d.size

    def both(p: np.ndarray) -> np.ndarray:
        d, f = moduli(p)
        return np.concatenate((d[:split], f[split:]))

    t, y = np.concatenate((phi[at_d], phi[at_f])), np.concatenate((absd[at_d], absf[at_f]))
    top = _polish_peaks(both, t, y, 2.0 * np.pi / len(phi), 30, 0.5)
    return float(np.max(top[:split])), 0.5 * float(np.sum(s)) * float(np.max(top[split:]))


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
