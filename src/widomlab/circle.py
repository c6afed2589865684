"""Unit-circle counterpart of the interval minimax problem.

From an interval solution with roots cos(theta_k), the circle minimizer for
the weight |z-1|^{2 rho_a - 1} |z+1|^{2 rho_b - 1} (rho_a, rho_b >= 1/2) is

    Q(z) = [ 2 rho_a (z+1) R(z) + 2 rho_b (z-1) R(z) + (z^2-1) R'(z) ]
           / (2 rho_a + 2 rho_b + 2n),

with R(z) = prod (z^2 - 2 cos(theta_k) z + 1), and the two extremal values
are tied by C_n = 2^{n + rho_a + rho_b - 1} I_n.  The module also carries an
Erdos-Lax-type derivative-norm identity and the Polya-Szego combination whose
roots all sit on the unit circle.
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
    "angles_to_real_poly",
    "circle_minimizer_from_interval",
    "circle_sup",
    "verify_cn_relation",
    "erdos_lax_check",
    "polya_szego_combine",
    "polya_szego_roots",
    "aberth_roots",
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


def angles_to_real_poly(angles) -> RealPolynomial:
    """R(z) = prod (z^2 - 2 cos(theta_k) z + 1); the empty product is 1."""
    out = np.array([1.0])
    for theta in angles:
        out = npp.polymul(out, np.array([1.0, -2.0 * math.cos(theta), 1.0]))
    return RealPolynomial(tuple(out))


def circle_minimizer_from_interval(w: WeightParams, sol: ChebyshevSolution) -> CircleFunction:
    """Lift an interval solution to the monic degree 2n+1 circle minimizer."""
    if w.rho_a < 0.5 or w.rho_b < 0.5:
        raise ValueError("circle correspondence requires rho_a, rho_b >= 1/2")
    if sol.poly.roots is None:
        raise ValueError("interval solution must carry its roots")
    n = sol.poly.degree
    ra, rb = w.rho_a, w.rho_b
    R = np.asarray(angles_to_real_poly(np.arccos(np.asarray(sol.poly.roots))).coeffs)
    dR = npp.polyder(R) if len(R) > 1 else np.array([0.0])
    num = npp.polyadd(
        npp.polyadd(
            2.0 * ra * npp.polymul(np.array([1.0, 1.0]), R),
            2.0 * rb * npp.polymul(np.array([-1.0, 1.0]), R),
        ),
        npp.polymul(np.array([-1.0, 0.0, 1.0]), dR),
    )
    Q = num / (2.0 * ra + 2.0 * rb + 2.0 * n)
    if len(Q) != 2 * n + 2:
        raise AssertionError("construction must produce degree 2n+1")
    return CircleFunction(2.0 * ra - 1.0, 2.0 * rb - 1.0, RealPolynomial(tuple(Q)))


def circle_sup(f: CircleFunction, grid: int = 4096) -> float:
    """Max modulus over the unit circle: doubling grid plus parabolic polish."""
    floor = math.ceil(10 * (f.poly.degree + f.exp_plus + f.exp_minus + 4))
    if grid < floor:
        raise ValueError(f"grid must be at least {floor}")
    G = grid
    prev = None
    while True:
        phi = np.linspace(0.0, 2.0 * np.pi, G, endpoint=False)
        m = f.modulus_at_angle(phi)
        cur = float(np.max(m))
        if prev is not None and abs(cur - prev) <= 1e-10 * max(cur, 1.0):
            k = np.argmax(m, keepdims=True)
            top = _polish_peaks(f.modulus_at_angle, phi[k], m[k], 2.0 * np.pi / G, 40, 0.5)
            return float(top[0])
        prev = cur
        G *= 2
        if G > 2**21:
            return cur


def _degree_zero_solution(w: WeightParams) -> ChebyshevSolution:
    # the monic "polynomial" 1: its weighted sup is the weight maximum
    s = w.rho_a + w.rho_b
    xstar = (w.rho_b - w.rho_a) / s if s > 0.0 else 0.0
    norm = weight_sup_bound(w)
    return ChebyshevSolution(
        weight=w,
        poly=MonicPolynomial(0, (), roots=()),
        reference=(xstar,),
        norm=norm,
        widom=norm,
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


def erdos_lax_check(angles, exponents, grid: int = 16384) -> tuple[float, float]:
    """(max |F'| on the circle, (sum s_j)/2 * max |F|) for F = prod (z-zeta_j)^{s_j}.

    The derivative modulus uses the logarithmic-derivative form away from the
    zeros and an explicit product-rule expansion within distance 1e-3 of one.
    """
    s = np.asarray(exponents, dtype=float)
    if np.any(s < 1.0):
        raise ValueError("all exponents must be at least 1")
    zk = np.exp(1j * np.asarray(angles, dtype=float))
    # offset grid so no sample collides with a zero of F
    phi = (np.arange(grid) + 0.31) * 2.0 * np.pi / grid
    h = 2.0 * np.pi / grid

    def moduli(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.exp(1j * p)
        d = z[:, None] - zk[None, :]
        logd = np.log(d)
        logf = np.sum(s * logd, axis=1)
        absf = np.exp(np.real(logf))
        near = np.min(np.abs(d), axis=1) < 1e-3
        with np.errstate(divide="ignore", invalid="ignore"):
            absd = absf * np.abs(np.sum(s / d, axis=1))
        if np.any(near):
            terms = s * np.exp(logf[near, None] - logd[near, :])
            absd[near] = np.abs(np.sum(terms, axis=1))
        return absd, absf

    def peak(which: int, values: np.ndarray) -> float:
        k = np.argmax(values, keepdims=True)
        top = _polish_peaks(lambda p: moduli(p)[which], phi[k], values[k], h, 30, 0.5)
        return float(top[0])

    absd, absf = moduli(phi)
    return peak(0, absd), 0.5 * float(np.sum(s)) * peak(1, absf)


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


def aberth_roots(coeffs, tol: float = 1e-12, max_sweeps: int = 200) -> np.ndarray:
    """All roots of a polynomial by Aberth-Ehrlich simultaneous iteration."""
    c = np.asarray(coeffs, dtype=complex)
    if len(c) < 2:
        raise ValueError("polynomial must have positive degree")
    c = c / c[-1]
    m = len(c) - 1
    dc = npp.polyder(c)
    k = np.arange(m)
    z = 0.9 * np.exp(2j * np.pi * (k + 0.25) / m + 0.4j)
    for _ in range(max_sweeps):
        p = npp.polyval(z, c)
        dp = npp.polyval(z, dc)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = p / dp
            pair = 1.0 / (z[:, None] - z[None, :])
        np.fill_diagonal(pair, 0.0)
        denom = 1.0 - ratio * np.sum(pair, axis=1)
        step = ratio / denom
        step = np.where(np.isfinite(step), step, ratio)
        z = z - step
        if np.max(np.abs(step)) < tol:
            break
    return z


def polya_szego_roots(points) -> np.ndarray:
    """Roots of the combined polynomial; all lie on the unit circle."""
    return aberth_roots(polya_szego_combine(points))
