"""Weighted Remez exchange solver for monic minimax polynomials on [-1, 1].

Solves  min over monic degree-n p  of  sup_{[-1,1]} (1-x)^{rho_a} (1+x)^{rho_b} |p(x)|.
The unique minimizer is certified by an equioscillating reference of n+1
points whose weighted errors alternate in sign and share a common magnitude.

All sampling and refinement happen in theta = arccos x, where the error
oscillates at roughly uniform speed; the polynomial is carried in the
first-kind Chebyshev basis with the monic leading coefficient 2^{1-n} implied,
and the Remez loop evaluates it as trig sums in theta, p = sum c_k cos(k theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from widomlab.special import WeightParams, _bracketed_newton, _parabolic_shift
from widomlab.special import _tail_grid, _weight_theta

__all__ = [
    "MonicPolynomial",
    "ChebyshevSolution",
    "ConvergenceError",
    "DegeneracyError",
    "ExchangeError",
    "weight_eval",
    "solve",
    "leveled_system",
    "error_extrema",
    "exchange",
]


class ConvergenceError(RuntimeError):
    """Remez iteration did not reach the target levelling defect.

    Carries the best iterate seen (``best``) and its defect (``defect``).
    """

    def __init__(self, message: str, best: "ChebyshevSolution", defect: float):
        super().__init__(message)
        self.best = best
        self.defect = defect


class DegeneracyError(RuntimeError):
    """Reference points collapsed or the leveled system became singular."""


class ExchangeError(RuntimeError):
    """Too few alternating extrema to carry out an exchange step."""


def _implied_leading(degree: int) -> float:
    # monic coefficient on T_n; T_0 itself is monic
    return 1.0 if degree == 0 else 2.0 ** (1 - degree)


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial in the first-kind Chebyshev basis.

    ``cheb_coeffs`` holds the free coefficients of T_0 .. T_{n-1}; the T_n
    coefficient is implied by monic normalization (2^{1-n} for n >= 1).
    The roots of a minimax solution come from :meth:`ChebyshevSolution.roots`,
    which brackets them by the reference.
    """

    degree: int
    cheb_coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        object.__setattr__(self, "cheb_coeffs", tuple(float(c) for c in self.cheb_coeffs))
        if len(self.cheb_coeffs) != self.degree:
            raise ValueError("cheb_coeffs must list exactly degree free coefficients")

    def full_cheb_coeffs(self) -> np.ndarray:
        """All Chebyshev coefficients T_0 .. T_n, including the implied leader."""
        return np.concatenate((self.cheb_coeffs, [_implied_leading(self.degree)]))

    def power_coeffs(self) -> np.ndarray:
        """Power-basis coefficients, ascending; the leading entry is exactly 1."""
        return npcheb.cheb2poly(self.full_cheb_coeffs())

    def __call__(self, x):
        val, _, _ = _cheb_eval_012(self.full_cheb_coeffs(), np.asarray(x, dtype=float))
        return float(val) if np.ndim(x) == 0 else val


@dataclass(frozen=True)
class ChebyshevSolution:
    """Converged minimax solution with its equioscillation certificate.

    The Widom factor is derived from the norm, and the roots are computed
    only on request by :meth:`roots`.
    """

    weight: WeightParams
    poly: MonicPolynomial
    reference: tuple[float, ...]
    norm: float
    iterations: int
    levelling_defect: float

    def __post_init__(self):
        object.__setattr__(self, "reference", tuple(float(x) for x in self.reference))
        if len(self.reference) != self.poly.degree + 1:
            raise ValueError("reference must hold degree+1 points")
        if any(b <= a for a, b in zip(self.reference, self.reference[1:])):
            raise ValueError("reference must be strictly increasing")
        if not self.norm > 0.0:
            raise ValueError("norm must be positive")

    @property
    def widom(self) -> float:
        """The Widom factor 2^n * norm."""
        return float(2.0**self.poly.degree * self.norm)

    def roots(self) -> tuple[float, ...]:
        """Roots of the polynomial, one in each reference gap, by bracketed Newton."""
        if self.poly.degree == 0:
            return ()
        coef = self.poly.full_cheb_coeffs()
        xref = np.asarray(self.reference)
        lo, hi = xref[:-1], xref[1:]
        sign_lo = np.sign(_cheb_eval_012(coef, lo)[0])
        roots = _bracketed_newton(
            lambda x: _cheb_eval_012(coef, x)[:2], lo, hi, sign_lo, 1e-16, 100
        )
        return tuple(float(r) for r in roots)


def weight_eval(w: WeightParams, x):
    """(1-x)^rho_a (1+x)^rho_b on [-1, 1], with the 0^0 = 1 convention."""
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0 + 1e-12):
        raise ValueError("x must lie in [-1, 1]")
    xs = np.clip(xs, -1.0, 1.0)
    out = np.ones_like(xs)
    if w.rho_a != 0.0:
        out = out * (1.0 - xs) ** w.rho_a
    if w.rho_b != 0.0:
        out = out * (1.0 + xs) ** w.rho_b
    return float(out) if np.ndim(x) == 0 else out


def _cheb_eval_012(coef, x):
    """Value, first, and second derivative of a Chebyshev series: fused Clenshaw."""
    x = np.asarray(x, dtype=float)
    n = len(coef) - 1
    b1 = b2 = b1p = b2p = b1pp = b2pp = np.zeros_like(x)
    tx = 2.0 * x
    for k in range(n, 0, -1):
        b = coef[k] + tx * b1 - b2
        bp = 2.0 * b1 + tx * b1p - b2p
        bpp = 4.0 * b1p + tx * b1pp - b2pp
        b2, b1 = b1, b
        b2p, b1p = b1p, bp
        b2pp, b1pp = b1pp, bpp
    p = coef[0] + x * b1 - b2
    dp = b1 + x * b1p - b2p
    ddp = 2.0 * b1p + x * b1pp - b2pp
    return p, dp, ddp


# theta-split quantum: on [0, pi] round(theta / q) < 2^40, so k * round(theta / q) * q
# is an exact float for k < 2^13
_SPLIT = 2.0**-38


def _cos_sin_k(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(k theta) and sin(k theta) for k = 0..n, one row per point, with compensated arguments.

    theta = hi + lo with hi on a grid of 2^-38, so each argument k * hi is an
    exact float and only its cosine and sine round; k * lo is at most 7.3e-10
    for k <= 400 and enters at first order, leaving a second-order term below
    3e-19.  Plain ``cos(k * theta)`` rounds each argument by up to half an ulp
    of k * theta, 1.1e-13 at k = 400 near pi.
    """
    k = np.arange(n + 1, dtype=float)
    hi = np.round(theta / _SPLIT) * _SPLIT
    arg = np.multiply.outer(hi, k)
    cos_k, sin_k = np.cos(arg), np.sin(arg)
    # in place from here: at n = 400 each matrix is 1.3 MB
    klo = np.multiply.outer(theta - hi, k, out=arg)
    shift = klo * sin_k
    klo *= cos_k
    cos_k -= shift
    sin_k += klo
    return cos_k, sin_k


def _theta_eval(coef: np.ndarray, theta: np.ndarray):
    """p, dp/dtheta and d2p/dtheta2 of a Chebyshev series at x = cos(theta), as trig sums.

    p = sum c_k cos(k theta), p_theta = -sum k c_k sin(k theta) and
    p_thetatheta = -sum k^2 c_k cos(k theta): a fixed number of numpy calls at
    any degree, where Clenshaw in x takes nine per degree.
    """
    k = np.arange(len(coef))
    cos_k, sin_k = _cos_sin_k(theta, len(coef) - 1)
    return cos_k @ coef, -(sin_k @ (k * coef)), -(cos_k @ (k * k * coef))


def _signed_error_theta(ra: float, rb: float, coef: np.ndarray, theta: np.ndarray) -> np.ndarray:
    cos_k, _ = _cos_sin_k(theta, len(coef) - 1)
    return _weight_theta(ra, rb, theta) * (cos_k @ coef)


def _log_error_slope(ra, rb, coef, theta):
    """g = d/dtheta ln|e| and g' for e(t) = w(cos t) p(cos t)."""
    p, pt, ptt = _theta_eval(coef, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = pt / p
        gp = ptt / p - g * g
        half = 0.5 * theta
        if ra != 0.0:
            g = g + ra / np.tan(half)
            gp = gp - 0.5 * ra / np.sin(half) ** 2
        if rb != 0.0:
            g = g - rb * np.tan(half)
            gp = gp - 0.5 * rb / np.cos(half) ** 2
    return g, gp


def _refine_newton(ra, rb, coef, lo, hi) -> np.ndarray:
    """Maxima of |e| inside brackets [lo, hi], where g = d/dtheta ln|e| falls through 0."""
    return _bracketed_newton(partial(_log_error_slope, ra, rb, coef), lo, hi, 1.0, 3e-16, 50)


def _alternating_prune(cand_t, cand_e, floor: float):
    """Sort by theta, drop near-zero errors, keep max-|e| point of each sign run."""
    order = np.argsort(cand_t)
    keep_t: list[float] = []
    keep_e: list[float] = []
    for o in order:
        t_, e_ = float(cand_t[o]), float(cand_e[o])
        if abs(e_) < floor:
            continue
        if keep_e and (e_ > 0) == (keep_e[-1] > 0):
            if abs(e_) > abs(keep_e[-1]):
                keep_t[-1], keep_e[-1] = t_, e_
        else:
            keep_t.append(t_)
            keep_e.append(e_)
    return np.asarray(keep_t), np.asarray(keep_e)


def _pick_window(ke: np.ndarray, count: int) -> int:
    """Start of the `count`-wide window containing argmax|e| with largest min|e|."""
    star = int(np.argmax(np.abs(ke)))
    best_s0 = None
    best_min = -1.0
    for s0 in range(max(0, star - count + 1), min(star, len(ke) - count) + 1):
        wmin = float(np.min(np.abs(ke[s0 : s0 + count])))
        if wmin > best_min:
            best_min, best_s0 = wmin, s0
    return best_s0


def _solve_leveled_theta(ra, rb, n, tref, signs, lead):
    """Least free coefficients + levelled h on the reference, in theta variables.

    The matrix takes the compensated cosines of :func:`_cos_sin_k`, as the
    extremum step does.  With plain ``cos(k * theta)`` here, 12 of 41 sample
    problems at n = 100 to 400 stayed above the 1e-12 certificate; with
    compensated ones all 41 certify.
    """
    wr = _weight_theta(ra, rb, tref)
    Tn, _ = _cos_sin_k(tref, n)
    A = np.empty((n + 1, n + 1))
    A[:, :n] = wr[:, None] * Tn[:, :n]
    A[:, n] = -signs
    rhs = -wr * lead * Tn[:, n]
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"leveled system is singular: {exc}") from exc
    coef = np.concatenate((sol[:n], [lead]))
    return coef, float(sol[n])


def _remez_grid(ra: float, rb: float, size: int, degree: int):
    """Sampling grid of the Remez loop: (theta, weight, cos(k theta) for k <= degree, step).

    The grid of :func:`special._tail_grid`: the uniform theta-grid of ``size``
    points plus a geometric tail toward each endpoint where the weight
    vanishes, which makes a boundary hump narrower than one step an ordinary
    grid local maximum, bracketed by its neighbours.
    """
    theta, wgrid, step = _tail_grid(ra, rb, size)
    cos_k = np.outer(theta, np.arange(degree + 1))
    np.cos(cos_k, out=cos_k)  # in place: at n = 400 each copy is 39 MB
    return theta, wgrid, cos_k, step


def _extremum_step(ra, rb, coef, theta, step, e, certify: bool, floor: float):
    """Alternating extrema of the error w p from its samples ``e`` on the grid ``theta``.

    ``theta`` is a grid of :func:`_remez_grid` with uniform step ``step``.
    Grid local maxima of |e|, tail points included, are refined by bracketed
    Newton on the log-derivative (certified) or by one parabolic step
    (cheap); the parabola needs a full step on either side, so a point next
    to a tail point keeps its grid value in the cheap phase.  A point keeps
    its grid value where refinement lowered |e|.  An endpoint is a candidate
    where the weight does not vanish.  Returns (theta, e) of the max-|e|
    point of each sign run, ignoring errors below ``floor``.
    """
    ae = np.abs(e)
    idx = np.nonzero((ae[1:-1] >= ae[:-2]) & (ae[1:-1] >= ae[2:]))[0] + 1
    left, right = theta[idx - 1], theta[idx + 1]
    if certify:
        tr = _refine_newton(ra, rb, coef, left, right)
    else:
        d = _parabolic_shift(ae[idx - 1], ae[idx], ae[idx + 1], step)
        # a tail point, or a uniform point next to one, has a neighbour nearer than step
        tr = np.clip(theta[idx] + np.where(right - left > 1.75 * step, d, 0.0), 0.0, np.pi)
    er = _signed_error_theta(ra, rb, coef, tr)
    worse = np.abs(er) < ae[idx]
    cand_t = np.where(worse, theta[idx], tr)
    cand_e = np.where(worse, e[idx], er)
    if ra == 0.0 and ae[0] >= ae[1]:
        cand_t, cand_e = np.append(0.0, cand_t), np.append(e[0], cand_e)
    if rb == 0.0 and ae[-1] >= ae[-2]:
        cand_t, cand_e = np.append(cand_t, np.pi), np.append(cand_e, e[-1])
    return _alternating_prune(cand_t, cand_e, floor)


def leveled_system(w: WeightParams, n: int, reference) -> tuple[MonicPolynomial, float]:
    """Solve w(x_j) p(x_j) = (-1)^{n-j} h on a fixed reference; returns (p, |h|)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    xref = np.asarray(reference, dtype=float)
    if xref.shape != (n + 1,):
        raise ValueError("reference must hold n+1 points")
    if np.any(np.diff(xref) <= 0.0):
        raise ValueError("reference points must be strictly increasing")
    if np.any(np.diff(xref) <= 1e-14):
        raise DegeneracyError("reference points collapsed")
    wr = weight_eval(w, xref)
    if np.any(wr <= 0.0):
        raise ValueError("reference must stay inside the open support of the weight")
    # theta-ascending order flips x order; (-1)^{n-j} becomes (-1)^i there
    tref = np.arccos(xref)[::-1]
    signs = (-1.0) ** np.arange(n + 1)
    lead = _implied_leading(n)
    coef, h = _solve_leveled_theta(w.rho_a, w.rho_b, n, tref, signs, lead)
    return MonicPolynomial(n, tuple(coef[:n])), abs(h)


def error_extrema(w: WeightParams, poly: MonicPolynomial, grid: int) -> list[tuple[float, float]]:
    """Local extrema of the weighted error w p on [-1,1], sorted by x with alternating signs.

    This is the certified extremum step of :func:`solve` on a uniform
    theta-grid of ``grid`` points, with a geometric tail toward each endpoint
    where the weight vanishes: grid local maxima of |w p| refined by bracketed
    Newton, a boundary hump inside the first cell included, and the endpoints
    where the weight does not vanish.  Of each run of one sign only the
    largest |w p| is kept.
    """
    if grid < 10 * max(poly.degree, 1):
        raise ValueError("grid must be at least 10 times the degree")
    ra, rb = w.rho_a, w.rho_b
    coef = poly.full_cheb_coeffs()
    theta, wgrid, cos_k, step = _remez_grid(ra, rb, grid, poly.degree)
    e = wgrid * (cos_k @ coef)
    kt, ke = _extremum_step(ra, rb, coef, theta, step, e, True, 1e-15 * float(np.max(np.abs(e))))
    if len(kt) < poly.degree + 1:
        raise ExchangeError(
            f"found {len(kt)} alternations, need {poly.degree + 1}; grid too coarse"
        )
    # theta ascending is x descending; report by increasing x
    return [(float(np.cos(t)), float(v)) for t, v in zip(kt[::-1], ke[::-1])]


def exchange(reference, extrema) -> list[float]:
    """Pick n+1 alternating candidate points containing the global max of |e|."""
    count = len(reference)
    if len(extrema) < count:
        raise ExchangeError(f"only {len(extrema)} candidates for {count} reference points")
    xs = np.asarray([x for x, _ in extrema], dtype=float)
    es = np.asarray([e for _, e in extrema], dtype=float)
    if np.any(np.diff(xs) <= 0.0):
        raise ExchangeError("candidates must be sorted by x")
    if np.any(np.sign(es[:-1]) * np.sign(es[1:]) >= 0.0):
        raise ExchangeError("candidate errors must alternate in sign")
    s0 = _pick_window(es, count)
    return [float(x) for x in xs[s0 : s0 + count]]


@dataclass(frozen=True)
class _Iterate:
    """A levelled iterate: coefficients, theta-reference, max error E and levelling defect."""

    coef: np.ndarray
    tref: np.ndarray
    E: float
    it: int
    defect: float


def solve(
    w: WeightParams,
    n: int,
    *,
    tolerance: float = 1e-12,
    max_iter: int = 60,
) -> ChebyshevSolution:
    """Compute the weighted minimax monic polynomial of degree n.

    Remez exchange on a uniform theta-grid of ``30 * n + 200`` points, with a
    geometric tail toward each endpoint where the weight vanishes (see
    :func:`_remez_grid`).  Each iteration solves the levelled system on the
    reference, samples the error on the grid and takes one extremum step, in
    one of two phases.  The cheap phase refines grid maxima by one parabolic
    step and keeps a tail maximum at its grid point.  Once its levelling
    defect is below max(1e-8, 10 * tolerance), or the reference stops
    moving, the iteration redoes the same reference in the certified phase,
    the step of :func:`error_extrema`, which every later iteration keeps.  A
    certified defect within ``tolerance`` returns the solution.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if tolerance <= 0.0 or max_iter < 1:
        raise ValueError("tolerance and max_iter must be positive")
    ra, rb = w.rho_a, w.rho_b
    tgrid, wgrid, cos_k, step = _remez_grid(ra, rb, 30 * n + 200, n)
    lead = _implied_leading(n)

    tref = np.pi * np.arange(n + 1) / n
    if ra > 0.0:
        tref[0] = np.pi / (2 * n + 2)
    if rb > 0.0:
        tref[-1] = np.pi - np.pi / (2 * n + 2)
    signs = (-1.0) ** np.arange(n + 1)

    best: _Iterate | None = None
    certify = False
    for it in range(1, max_iter + 1):
        if np.any(np.diff(np.cos(tref)[::-1]) <= 1e-14):
            raise DegeneracyError(f"reference collapse at iteration {it}")
        coef, h = _solve_leveled_theta(ra, rb, n, tref, signs, lead)
        h = abs(h)
        e = wgrid * (cos_k @ coef)
        while True:
            kt, ke = _extremum_step(ra, rb, coef, tgrid, step, e, certify, 1e-15 * h)
            if len(kt) < n + 1:
                raise ExchangeError(
                    f"found {len(kt)} alternations, need {n + 1} "
                    f"(rho_a={ra}, rho_b={rb}, n={n}, iteration {it})"
                )
            E = float(np.max(np.abs(ke)))
            cur = _Iterate(coef, tref, E, it, (E - h) / E)
            if best is None or cur.defect < best.defect:
                best = cur
            s0 = _pick_window(ke, n + 1)
            new_tref = kt[s0 : s0 + n + 1]
            stalled = np.max(np.abs(new_tref - tref)) <= 1e-14
            if certify or not (stalled or cur.defect <= max(1e-8, 10.0 * tolerance)):
                break
            certify = True  # redo this reference with certified extrema

        if certify and cur.defect <= tolerance:
            return _package(w, n, cur)
        if stalled:
            # the certified reference has stopped moving above tolerance:
            # further exchanges cannot improve the iterate
            raise ConvergenceError(
                f"reference stalled at defect {cur.defect:.3e} > {tolerance:.1e} "
                f"(rho_a={ra}, rho_b={rb}, n={n}, iteration {it})",
                _package(w, n, best),
                best.defect,
            )
        tref = new_tref
        signs = (1.0 if ke[s0] > 0 else -1.0) * (-1.0) ** np.arange(n + 1)

    raise ConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(rho_a={ra}, rho_b={rb}, n={n}, best defect {best.defect:.3e})",
        _package(w, n, best),
        best.defect,
    )


def _package(w: WeightParams, n: int, state: _Iterate) -> ChebyshevSolution:
    # a boundary hump closer to its endpoint than the float spacing at -1 or 1
    # would round onto the endpoint, where the weight vanishes; report the
    # nearest float inside the weight's open support instead
    lo = np.nextafter(-1.0, 0.0) if w.rho_b > 0.0 else -1.0
    hi = np.nextafter(1.0, 0.0) if w.rho_a > 0.0 else 1.0
    xref = np.clip(np.cos(state.tref)[::-1], lo, hi)
    return ChebyshevSolution(
        weight=w,
        poly=MonicPolynomial(n, tuple(state.coef[:n])),
        reference=tuple(xref),
        norm=state.E,
        iterations=state.it,
        levelling_defect=state.defect,
    )
