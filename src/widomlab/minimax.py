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

from widomlab.special import (
    WeightParams,
    _bracketed_newton,
    _parabolic_shift,
    _tail_grid,
    _tail_kind,
    _weight_theta,
    _whole_degrees,
)

__all__ = [
    "MonicPolynomial",
    "ChebyshevSolution",
    "ConvergenceError",
    "DegeneracyError",
    "ExchangeError",
    "weight_eval",
    "solve",
    "solve_many",
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

    def __reduce__(self):
        # pickled with all three arguments: a process pool can return the error
        return type(self), (self.args[0], self.best, self.defect)


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
        val, _ = _cheb_eval_01(self.full_cheb_coeffs(), np.asarray(x, dtype=float))
        return float(val) if np.ndim(x) == 0 else val


@dataclass(frozen=True)
class ChebyshevSolution:
    """Converged minimax solution with its equioscillation certificate.

    The Widom factor is derived from the norm, and the roots are computed
    only on request by :meth:`roots`.  ``levelling_defect`` is (E - |h|)/E of
    the solver's theta-space iterate: E is the largest |w p| its extremum
    step found and h its levelled error on the reference.  A re-check of
    |w p| at the returned float reference can read higher, since rounding
    cos(theta) moves the error near the endpoints: 9.70e-13 against 5.23e-13
    at (0.78, 0.03, 200).
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
        sign_lo = np.sign(_cheb_eval_01(coef, lo)[0])
        roots = _bracketed_newton(
            lambda x: _cheb_eval_01(coef, x), lo, hi, sign_lo, 1e-16, 100
        )
        return tuple(float(r) for r in roots)


def weight_eval(w: WeightParams, x):
    """(1-x)^rho_a (1+x)^rho_b on [-1, 1], with the 0^0 = 1 convention; nan is outside."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + 1e-12):
        raise ValueError("x must lie in [-1, 1]")
    xs = np.clip(xs, -1.0, 1.0)
    out = np.ones_like(xs)
    if w.rho_a != 0.0:
        out = out * (1.0 - xs) ** w.rho_a
    if w.rho_b != 0.0:
        out = out * (1.0 + xs) ** w.rho_b
    return float(out) if np.ndim(x) == 0 else out


def _cheb_eval_01(coef, x):
    """Value and first derivative of a Chebyshev series: fused Clenshaw."""
    x = np.asarray(x, dtype=float)
    n = len(coef) - 1
    b1 = b2 = b1p = b2p = np.zeros_like(x)
    tx = 2.0 * x
    for k in range(n, 0, -1):
        b = coef[k] + tx * b1 - b2
        bp = 2.0 * b1 + tx * b1p - b2p
        b2, b1 = b1, b
        b2p, b1p = b1p, bp
    p = coef[0] + x * b1 - b2
    dp = b1 + x * b1p - b2p
    return p, dp


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
    return _compensated(theta - hi, k, np.cos(arg), np.sin(arg), arg)


def _compensated(lo, k, cos_k, sin_k, out=None):
    """The rows of :func:`_cos_sin_k` from ``cos_k`` and ``sin_k`` at the split's hi."""
    # into two new matrices, ``out`` a spare one: at n = 400 each matrix is 1.3 MB
    klo = np.multiply.outer(lo, k, out=out)
    shift = klo * sin_k
    klo *= cos_k
    return np.subtract(cos_k, shift, out=shift), np.add(sin_k, klo, out=klo)


class _Rows:
    """The rows of :func:`_cos_sin_k` at degree ``n`` for points that move, one slot each.

    A slot keeps the cosines and sines at the 2^-38 split of its last point
    and computes them again only once its point moves onto another split:
    a Newton iterate that moves by less than 2^-39 keeps them, and so does
    the extremum step's evaluation at the points where Newton stopped.
    """

    def __init__(self, size: int, n: int):
        self.k = np.arange(n + 1, dtype=float)
        self.hi = np.full(size, np.nan)
        self.cos, self.sin = np.empty((size, n + 1)), np.empty((size, n + 1))

    def __call__(self, theta: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows at the points ``theta``, which take the ascending slots ``slots``."""
        hi = np.round(theta / _SPLIT) * _SPLIT
        moved = hi != self.hi[slots]
        if moved.any():
            at, arg = slots[moved], np.multiply.outer(hi[moved], self.k)
            self.hi[at], self.cos[at] = hi[moved], np.cos(arg)
            self.sin[at] = np.sin(arg, out=arg)
            del arg  # at n = 400 it is 1.3 MB
        if slots.size == self.hi.size:  # every slot, in order
            return _compensated(theta - hi, self.k, self.cos, self.sin)
        return _compensated(theta - hi, self.k, self.cos[slots], self.sin[slots])


def _gemv_blocks(M: np.ndarray, counts, coefs: np.ndarray, widths) -> np.ndarray:
    """``M[rows, :widths[i]] @ coefs[i, :widths[i]]`` for the i-th block of ``counts[i]`` rows of M.

    Each block is a gemv of its own rows and width, copied out of M and
    rounded as a product of those alone would be; blocks of equal size and
    width go through one stacked matmul.  One tall gemv over several blocks
    rounds some rows differently, and so can a strided one.
    """
    out = np.empty(M.shape[0])
    sizes, widths = [int(m) for m in counts], [int(k) for k in widths]
    b0 = row = 0
    while b0 < len(sizes):
        m, k, b1 = sizes[b0], widths[b0], b0 + 1
        while b1 < len(sizes) and (sizes[b1], widths[b1]) == (m, k):
            b1 += 1
        end = row + (b1 - b0) * m
        block = np.ascontiguousarray(M[row:end, :k]).reshape(b1 - b0, m, k)
        out[row:end] = np.matmul(block, np.ascontiguousarray(coefs[b0:b1, :k])[..., None]).ravel()
        b0, row = b1, end
    return out


def _theta_eval(coef: np.ndarray, cos_k: np.ndarray, sin_k: np.ndarray, counts, widths: np.ndarray):
    """p, dp/dtheta and d2p/dtheta2 of Chebyshev series at x = cos(theta), as trig sums.

    p = sum c_k cos(k theta), p_theta = -sum k c_k sin(k theta) and
    p_thetatheta = -sum k^2 c_k cos(k theta): a fixed number of numpy calls at
    any degree, where Clenshaw in x takes nine per degree.  ``coef`` holds
    one series per row, the first ``widths[i]`` entries of row i, and row i
    is evaluated at the i-th block of ``counts[i]`` consecutive points, whose
    rows of :func:`_cos_sin_k`, at least that wide, are ``cos_k`` and ``sin_k``.
    """
    coef = coef[:, : widths.max(initial=1)]
    k = np.arange(coef.shape[1])
    gemv = partial(_gemv_blocks, counts=counts, widths=widths)
    return gemv(cos_k, coefs=coef), -gemv(sin_k, coefs=k * coef), -gemv(cos_k, coefs=k * k * coef)


class _Cells:
    """A batch of problems solved side by side: the weight ``weights[i]`` at degree ``deg[i]``.

    The methods take points in consecutive blocks, ``sizes[j]`` points of
    the problem ``rows[j]``: a layout.  :meth:`weight` gives each point the
    weight of its own problem, bit for bit as that weight alone gives it.
    """

    def __init__(self, weights, degrees):
        self.weights = list(weights)
        self.deg = np.broadcast_to(np.asarray(degrees, dtype=int), (len(self.weights),))
        self.ra = np.array([w.rho_a for w in self.weights], dtype=float)
        self.rb = np.array([w.rho_b for w in self.weights], dtype=float)

    def about(self, i: int) -> str:
        w = self.weights[i]
        return f"rho_a={w.rho_a}, rho_b={w.rho_b}, n={self.deg[i]}"

    def exponent(self, side: int, rows, sizes) -> np.ndarray:
        """rho_a (side 0) or rho_b (side 1) at each point."""
        return np.repeat((self.ra, self.rb)[side][rows], sizes)

    def weight(self, theta: np.ndarray, rows, sizes) -> np.ndarray:
        """(1-x)^rho_a (1+x)^rho_b at x = cos(theta), under each point's own exponents."""
        return _weight_theta(self.exponent(0, rows, sizes), self.exponent(1, rows, sizes), theta)


def _log_error_slope(cells: _Cells, blocks, counts, coefs, theta, cos_k, sin_k):
    """g = d/dtheta ln|e| and g' for e(t) = w(cos t) p(cos t).

    Block j of the points ``theta`` holds ``counts[j]`` points of the problem
    ``blocks[j]``, whose series is ``coefs[j]``; ``cos_k`` and ``sin_k`` are
    their rows of :func:`_cos_sin_k`.
    """
    p, pt, ptt = _theta_eval(coefs, cos_k, sin_k, counts, cells.deg[blocks] + 1)
    ra, rb = cells.exponent(0, blocks, counts), cells.exponent(1, blocks, counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = pt / p
        gp = ptt / p - g * g
        half = 0.5 * theta
        # each term only where its exponent is nonzero: at theta = 0 or pi it is 0/0
        on = ra != 0.0
        g = np.where(on, g + ra / np.tan(half), g)
        gp = np.where(on, gp - 0.5 * ra / np.sin(half) ** 2, gp)
        on = rb != 0.0
        g = np.where(on, g - rb * np.tan(half), g)
        gp = np.where(on, gp - 0.5 * rb / np.cos(half) ** 2, gp)
    return g, gp


def _refine_newton(cells: _Cells, blocks, counts, coefs, lo, hi, rows: _Rows, slots) -> np.ndarray:
    """Maxima of |e| inside brackets [lo, hi], where g = d/dtheta ln|e| falls through 0.

    The brackets come in consecutive blocks, ``counts[i]`` of them for the
    problem ``blocks[i]``; each problem's Newton stops on its own step.  The
    iterate in bracket j takes its trig rows from ``rows``, in slot ``slots[j]``;
    Newton passes the brackets ``at`` still running, in the slots ``slots[at]``.
    """
    coefs = coefs[blocks]

    def slope(theta, live, at):
        trig = rows(theta, slots[at])
        return _log_error_slope(cells, blocks[live], counts[live], coefs[live], theta, *trig)

    return _bracketed_newton(slope, lo, hi, 1.0, 3e-16, 50, counts)


def _alternating(seg, t, e, floor, count: int):
    """The max-|e| point of each sign run of each segment's points by ascending theta ``t``,
    ignoring |e| below the segment's ``floor``; ties keep their given order.

    Returns the (theta, e) kept, segment after segment, their number per
    segment, and the index of each in the given points.
    """
    order = np.lexsort((t, seg))
    keep = order[~(np.abs(e[order]) < floor[seg[order]])]
    kseg, pos = seg[keep], e[keep] > 0
    run = np.empty(keep.size, dtype=bool)
    run[:1] = True
    run[1:] = (kseg[1:] != kseg[:-1]) | (pos[1:] != pos[:-1])
    if not run.all():
        # a stable sort by run, then by |e| descending, puts each run's first max first
        keep = keep[np.lexsort((-np.abs(e[keep]), run.cumsum()))[run.nonzero()[0]]]
    return t[keep], e[keep], np.bincount(seg[keep], minlength=count), keep


def _windows(ae: np.ndarray, sizes: np.ndarray, width: np.ndarray):
    """The first max of each segment j of ``ae``, its ``sizes[j] >= width[j]`` entries, and
    the start of the first ``width[j]``-wide window that holds it with the largest min:
    both as indices into ``ae``.
    """
    base = sizes.cumsum() - sizes
    star = np.lexsort((-ae, np.arange(sizes.size).repeat(sizes)))[base]
    if (sizes == width).all():
        return star, base
    lo = np.maximum(base, star - width + 1)
    span = np.minimum(star, base + sizes - width) - lo
    # one row of window starts per segment, its last start repeated past its end
    s = lo[:, None] + np.minimum(np.arange(span.max() + 1), span[:, None])
    ends = np.stack((s, s + width[:, None]), axis=-1).ravel()
    wmin = np.minimum.reduceat(np.concatenate((ae, [np.inf])), ends)[::2].reshape(s.shape)
    return star, s[np.arange(s.shape[0]), wmin.argmax(axis=1)]


def _stack_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of ``a`` and then those of ``b``, the narrower zero-padded."""
    if not a.shape[0]:
        return b
    out = np.zeros((a.shape[0] + b.shape[0], max(a.shape[1], b.shape[1])))
    out[: a.shape[0], : a.shape[1]], out[a.shape[0] :, : b.shape[1]] = a, b
    return out


def _level(cells: _Cells, live, tref, signs, n: int, at, held):
    """Least free coefficients + levelled h on each problem's reference, in theta variables.

    Row i of ``tref`` and ``signs`` is the reference of the degree-n problem
    ``live[i]``.  Returns the coefficients (one row per problem, the implied
    leader last), h, and the :class:`DegeneracyError` of each singular row.
    One stacked solve rounds each system as a solve of its own would.  The
    matrix takes the compensated cosines of :func:`_cos_sin_k`: with plain
    ``cos(k * theta)``, 12 of 41 sample problems at n = 100 to 400 missed
    the 1e-12 certificate; with compensated ones all 41 certify.  A
    reference point whose entry of ``at`` is not -1 takes its cosine row from
    the extremum steps that evaluated it: row ``at`` of their stacked ``held``.
    """
    rows, lead = len(live), _implied_leading(n)
    points, at = tref.ravel(), at.ravel()
    wr = cells.weight(points, live, n + 1).reshape(rows, n + 1)
    fresh = at < 0
    computed = _cos_sin_k(points[fresh], n)[0]
    A = np.empty((points.size, n + 1))
    A[fresh], A[~fresh] = computed, held[at[~fresh], : n + 1]
    A = A.reshape(rows, n + 1, n + 1)
    # the matrix in place of the cosines T_k: w T_k in the free columns, -signs in the last
    rhs = -wr * lead * A[:, :, n]
    A[:, :, :n] *= wr[:, :, None]
    A[:, :, n] = -signs
    errors = {}
    try:
        sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sol = np.zeros((rows, n + 1))
        for i in range(rows):
            try:
                sol[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError as exc:
                errors[i] = DegeneracyError(f"leveled system is singular: {exc}")
                errors[i].__cause__ = exc
    coef = np.empty((rows, n + 1))
    coef[:, :n] = sol[:, :n]
    coef[:, n] = lead
    return coef, sol[:, n], errors


def _grid_size(n):
    """The uniform points of the Remez grid at degree n, before its endpoint tails."""
    return 30 * n + 200


def _grid_key(w: WeightParams, n: int, size: int) -> tuple:
    """The problems at degree n on grids of ``size`` uniform points with one key share one
    theta-grid (it depends on the weight through :func:`special._tail_kind`) and its cosines."""
    return size, n, _tail_kind(w.rho_a, w.rho_b)


# from this degree a grid's uniform points take one real FFT per problem, not
# cosine rows: a batch there holds few problems, and one transform costs less
# than building the rows (39 MB at n = 400).  Below it rows shared by the
# problems of a batch cost less than a transform of each
_FFT_DEGREE = 143


class _Transform:
    """p = sum c_k cos(k theta) at degree n on a grid of ``size`` uniform points and its tails.

    Below :data:`_FFT_DEGREE` every grid point takes its plain cosine row,
    one gemv per problem.  From there the uniform points pi j / (size - 1)
    take the DCT-I of the n + 1 coefficients, the real part of one FFT of
    length 2 (size - 1) per problem, and only the tail points, about 90 at
    most, take cosine rows.  A problem's values do not depend on the others.
    """

    def __init__(self, theta: np.ndarray, size: int, n: int):
        self.fft = n >= _FFT_DEGREE
        if self.fft:
            self.length = 2 * (size - 1)
            self.uniform = np.isin(theta, np.linspace(0.0, np.pi, size))
            theta = theta[~self.uniform]
        self.rows = np.multiply.outer(theta, np.arange(n + 1.0))
        np.cos(self.rows, out=self.rows)  # in place: at n = 142 the rows are 5.2 MB

    def __call__(self, coefs: np.ndarray, out: np.ndarray) -> None:
        """Write the values of the series ``coefs``, one per row, into the rows of ``out``."""
        if not self.fft:
            np.matmul(self.rows, coefs[..., None], out=out[..., None])
            return
        out[:, self.uniform] = np.fft.rfft(coefs, n=self.length).real
        out[:, ~self.uniform] = np.matmul(self.rows, coefs[..., None])[..., 0]


class _Grids:
    """The Remez grids of a batch of problems, ``sizes[i]`` uniform points for problem i,
    end to end and grouped by key, with one theta-grid per :func:`_grid_key` and its
    :class:`_Transform`.

    :meth:`join` keeps those of the problems ``cells`` for the elementwise
    steps: ``theta`` and ``weight`` at each point, the ``first`` and ``last``
    point of each problem's grid, the ``end`` of each grid in that order, and
    as ``ends`` the problems whose weight does not vanish at theta = 0 and at pi.
    """

    def __init__(self, cells: _Cells, sizes):
        sizes = np.broadcast_to(sizes, cells.deg.shape)
        kind, keys, thetas, transforms = [], {}, [], []
        for w, size, n in zip(cells.weights, sizes.tolist(), cells.deg.tolist()):
            kind.append(keys.setdefault(_grid_key(w, n, size), len(keys)))
            if kind[-1] == len(thetas):  # the first problem of its key
                thetas.append(_tail_grid(w.rho_a, w.rho_b, size))
                transforms.append(_Transform(thetas[-1], size, n))
        self.kind, self.step = np.array(kind), np.pi / (sizes - 1)
        self.open = (cells.ra == 0.0, cells.rb == 0.0)
        self.order = np.argsort(self.kind, kind="stable")
        # each key's transform with its problems, ascending
        self.keys = list(zip(transforms, np.split(self.order, np.cumsum(np.bincount(self.kind))[:-1])))
        self.size = np.array([thetas[k].size for k in self.kind])
        self.all_theta = np.concatenate([thetas[k] for k in self.kind[self.order]])
        counts = self.size[self.order]
        self.all_weight = cells.weight(self.all_theta, self.order, counts)
        # exact zeros where the weight vanishes: rounding cos(pi / 2) would leak through at pi
        end = np.cumsum(counts) - 1
        self.all_weight[(end - counts + 1)[~self.open[0][self.order]]] = 0.0
        self.all_weight[end[~self.open[1][self.order]]] = 0.0

    def join(self, live: np.ndarray) -> "_Grids":
        alive = np.zeros(self.kind.size, dtype=bool)
        alive[live] = True
        on = alive[self.order]
        self.cells = cells = self.order[on]
        points = np.repeat(on, self.size[self.order])
        self.theta, self.weight = self.all_theta[points], self.all_weight[points]
        self.end = np.cumsum(self.size[cells]) - 1
        self.first, self.last = np.full(self.kind.size, -1), np.full(self.kind.size, -1)
        self.first[cells], self.last[cells] = self.end - self.size[cells] + 1, self.end
        self.ends = (cells[self.open[0][cells]], cells[self.open[1][cells]])
        self.inner = np.ones(self.end[-1] + 1, dtype=bool)
        self.inner[self.first[cells]] = self.inner[self.end] = False
        # each key's transform with its problems still live
        self.runs = [(t, run[alive[run]]) for t, run in self.keys if alive[run].any()]
        return self

    def errors(self, coefs: np.ndarray) -> np.ndarray:
        """The weighted error w p of each problem on its grid, by its key's transform."""
        out, at = np.empty(self.theta.size), 0
        for transform, run in self.runs:
            points = self.size[run[0]]
            part = out[at : at + run.size * points].reshape(run.size, points)
            transform(np.ascontiguousarray(coefs[run, : transform.rows.shape[1]]), part)
            at += part.size
        out *= self.weight
        return out

    def peaks(self, ae: np.ndarray) -> np.ndarray:
        """Grid local maxima of ``ae``, each compared with neighbours of its own grid."""
        return np.nonzero(self.inner[1:-1] & (ae[1:-1] >= ae[:-2]) & (ae[1:-1] >= ae[2:]))[0] + 1


def _extremum_step(cells: _Cells, grids: _Grids, coefs, e, ae, peaks, chosen, certify, floor):
    """Alternating extrema of the error w p of each problem in ``chosen`` from its samples ``e``.

    ``e`` holds the errors on the joined ``grids``, ``ae`` their moduli and
    ``peaks`` their grid local maxima, tail points included.  A maximum is
    refined by bracketed Newton on the log-derivative where its problem's
    ``certify`` is set, or else by one parabolic step; the parabola needs a
    full step on either side, so a point next to a tail point keeps its grid
    value in the cheap phase.  A point keeps its grid point where refinement
    lowered |e| below the value there, which is then taken again on
    compensated rows, as the refined value is: the grid's plain cos(k theta)
    rows can round above a peak.  An endpoint is a candidate where the
    weight does not vanish.  Returns ``chosen`` in the order it took them;
    :func:`_alternating` of their candidates, ignoring errors below each
    problem's ``floor``: the (theta, e) kept and their number per problem;
    the compensated cosine rows it computed at its refined points; and for
    each point kept its row there, or -1 at a grid point.
    """
    idx, count = peaks, len(cells.weights)
    # the problem whose grid holds each maximum
    own, (low, high) = grids.cells[np.searchsorted(grids.end, idx)], grids.ends
    mine = np.bincount(chosen, minlength=count) > 0
    idx, own, low, high = idx[mine[own]], own[mine[own]], low[mine[low]], high[mine[high]]
    rank, per = np.zeros(count, dtype=int), np.bincount(own, minlength=count)
    # by degree and number of maxima, so that equal blocks meet in _gemv_blocks
    order = chosen[np.lexsort((per[chosen], cells.deg[chosen]))]
    rank[order] = np.arange(order.size)
    at = np.argsort(rank[own], kind="stable")
    idx, own, sizes = idx[at], own[at], per[order]
    theta, step = grids.theta, grids.step[own]
    left, right = theta[idx - 1], theta[idx + 1]
    newton, top = certify[order], int(cells.deg[order].max())
    d = _parabolic_shift(ae[idx - 1], ae[idx], ae[idx + 1], step)
    # a tail point, or a uniform point next to one, has a neighbour nearer than step
    tr = np.clip(theta[idx] + np.where(right - left > 1.75 * step, d, 0.0), 0.0, np.pi)
    if newton.any():
        # Newton overwrites the vertices of its maxima; its trig rows, a slot each, serve every point
        at = np.repeat(newton, sizes)
        rows, slots = _Rows(idx.size, top), np.flatnonzero(at)
        tr[at] = _refine_newton(cells, order[newton], sizes[newton], coefs, left[at], right[at], rows, slots)
        cos_k, _ = rows(tr, np.arange(idx.size))
    else:
        cos_k, _ = _cos_sin_k(tr, top)
    widths = cells.deg[order] + 1
    er = cells.weight(tr, order, sizes) * _gemv_blocks(cos_k, sizes, coefs[order], widths)
    eg = e[idx]
    worse = np.abs(er) < np.abs(eg)
    if worse.any():
        counts = np.bincount(np.repeat(np.arange(order.size), sizes)[worse], minlength=order.size)
        rows = _cos_sin_k(theta[idx[worse]], top)[0]
        eg[worse] = grids.weight[idx[worse]] * _gemv_blocks(rows, counts, coefs[order], widths)
        worse = np.abs(er) < np.abs(eg)
    tm = np.where(worse, theta[idx], tr)
    # an open grid end is a candidate where |e| does not rise inward; the
    # candidates at theta = 0 come first and those at pi last, to lead and close their ties
    a, b = grids.first[low], grids.last[high]
    lows, highs = ae[a] >= ae[a + 1], ae[b] >= ae[b - 1]
    seg = rank[np.concatenate((low[lows], own, high[highs]))]
    low, high = a[lows], b[highs]
    t = np.concatenate((theta[low], tm, theta[high]))
    ev = np.concatenate((e[low], np.where(worse, eg, er), e[high]))
    row = np.full(t.size, -1)
    row[low.size : low.size + tm.size] = np.where(tm == tr, np.arange(tm.size), -1)
    kt, ke, found, keep = _alternating(seg, t, ev, floor[order], order.size)
    return order, kt, ke, found, cos_k, row[keep]


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
    none = np.full((1, n + 1), -1), np.empty((0, n + 1))
    coef, h, errors = _level(_Cells([w], n), np.array([0]), tref[None], signs[None], n, *none)
    if errors:
        raise errors[0]
    return MonicPolynomial(n, tuple(coef[0, :n])), abs(float(h[0]))


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
    ((kt, ke),) = _certified_extrema([w], [poly.degree], poly.full_cheb_coeffs()[None], [grid])
    if kt.size < poly.degree + 1:
        raise ExchangeError(f"found {kt.size} alternations, need {poly.degree + 1}; grid too coarse")
    # theta ascending is x descending; report by increasing x
    return [(float(np.cos(t)), float(v)) for t, v in zip(kt[::-1], ke[::-1])]


def _certified_extrema(weights, degrees, coefs, sizes) -> list:
    """The certified extremum step of :func:`solve` on the series ``coefs[i]`` of ``weights[i]`` at ``degrees[i]``.

    Each problem's grid has ``sizes[i]`` uniform points, and its step
    ignores errors below 1e-15 times its largest |e| on that grid.  Returns,
    in the order of ``weights``, the (theta, e) that the step keeps of each
    problem, by ascending theta; no problem's result depends on the others.
    """
    cells = _Cells(weights, degrees)
    every = np.arange(cells.deg.size)
    grids = _Grids(cells, sizes).join(every)
    e = grids.errors(coefs)
    ae = np.abs(e)
    floor = np.empty(every.size)
    floor[grids.cells] = 1e-15 * np.maximum.reduceat(ae, grids.first[grids.cells])
    order, kt, ke, found, *_ = _extremum_step(cells, grids, coefs, e, ae, grids.peaks(ae), every, every >= 0, floor)
    out, cuts = [None] * every.size, np.cumsum(found)[:-1]
    for i, t, v in zip(order.tolist(), np.split(kt, cuts), np.split(ke, cuts)):
        out[i] = (t, v)
    return out


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
    s0 = int(_windows(np.abs(es), np.array([es.size]), np.array([count]))[1][0])
    return [float(x) for x in xs[s0 : s0 + count]]


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
    :func:`special._tail_grid`).  Each iteration solves the levelled system
    on the reference, samples the error on the grid and takes one extremum
    step, in one of two phases.  The cheap phase refines grid maxima by one
    parabolic step and keeps a tail maximum at its grid point.  Once its
    levelling defect is below max(1e-8, 10 * tolerance), or did not fall
    below its best so far, or the reference stops moving, the iteration
    redoes the same reference in the certified phase, the step of
    :func:`error_extrema`, which every later iteration keeps.  A certified
    defect within ``tolerance`` returns the solution.  This is a lockstep
    batch of one, as :func:`solve_many` runs it.
    """
    # the loop by its private name: a tracer of the public functions sees one span
    (out,) = _lockstep([w], _degrees(1, n, tolerance, max_iter), tolerance, max_iter)
    if isinstance(out, Exception):
        raise out
    return out


def solve_many(
    weights,
    n,
    *,
    tolerance: float = 1e-12,
    max_iter: int = 60,
) -> list:
    """:func:`solve` for each of ``weights`` at degree n, or at degree ``n[i]`` for ``weights[i]``,
    in lockstep Remez loops over the batches of :func:`_batches`.

    Returns, in the order of ``weights``, what ``solve(w, n)`` returns for
    each weight, or the :class:`ConvergenceError`, :class:`DegeneracyError` or
    :class:`ExchangeError` it raises, bit for bit: a batch shares the
    elementwise steps and the grids of each :func:`_grid_key`, but no
    problem's arithmetic depends on the others.  Each problem takes its own
    iterations, phases and Newton steps, and drops out of its loop once it
    is solved or fails.
    """
    weights = list(weights)
    degrees = _degrees(len(weights), n, tolerance, max_iter)
    batches = _batches(zip(weights, degrees))
    return [out for batch in batches for out in _lockstep(*batch, tolerance, max_iter)]


def _degrees(count: int, n, tolerance: float, max_iter: int) -> list[int]:
    """The degree of each of ``count`` problems, from one degree or one per problem; checks the arguments."""
    degrees = _whole_degrees(n, 1)
    if degrees.ndim and degrees.shape != (count,):
        raise ValueError("give one degree, or one degree per weight")
    if not 0.0 < tolerance < np.inf or max_iter < 1:
        raise ValueError("tolerance must be positive and finite, and max_iter positive")
    return np.broadcast_to(degrees, (count,)).tolist()


# a lockstep batch holds at most _BATCH_PROBLEMS problems, and more than one only
# while its arrays hold at most _BATCH_COSINES entries (8 MB): the cosine rows of
# each grid key below _FFT_DEGREE (from there a key holds only its tail rows, about
# 90 at most, which the next term covers), and _PROBLEM_ROWS * (n + 1)^2 for each
# problem's own arrays (9 to 10 traced at n = 100 and 150).  That is 64 problems
# up to n = 36 on at most three grids, a sequence's degrees one at a time from
# n = 112 to 142 and 4 to 2 at a time up to n = 228, and problems of one degree on
# one grid 5 at a time at n = 143, down to 2 at n = 227; fixed sizes keep a scan's
# work items the same for any worker count
_BATCH_PROBLEMS = 64
_PROBLEM_ROWS = 10
_BATCH_COSINES = 2**20


def _grid_cost(n: int) -> int:
    """The entries of the cosine rows that a grid key at degree n holds."""
    return _grid_size(n) * (n + 1) if n < _FFT_DEGREE else 0


def _batches(problems) -> list[tuple[list, list[int]]]:
    """Split (weight, degree) ``problems``, in order, into the (weights, degrees) of lockstep batches."""
    tasks, entries, keys = [], 0, set()
    for w, n in problems:
        key = _grid_key(w, n, _grid_size(n))
        # the problem's own arrays, and its grid's cosine rows unless the batch holds them
        cost = _PROBLEM_ROWS * (n + 1) ** 2 + (key not in keys) * _grid_cost(n)
        if not tasks or len(tasks[-1][0]) == _BATCH_PROBLEMS or entries + cost > _BATCH_COSINES:
            tasks.append(([], []))
            entries, keys = 0, set()
            cost = _PROBLEM_ROWS * (n + 1) ** 2 + _grid_cost(n)
        tasks[-1][0].append(w)
        tasks[-1][1].append(n)
        entries += cost
        keys.add(key)
    return tasks


def _lockstep(weights: list, degrees: list[int], tolerance: float, max_iter: int) -> list:
    count, out = len(weights), [None] * len(weights)
    cells = _Cells(weights, degrees)
    deg, levels = cells.deg, np.unique(cells.deg).tolist()
    grids = _Grids(cells, _grid_size(deg)).join(np.arange(count))
    cols = np.arange(levels[-1] + 1)
    gaps = cols[1:] <= deg[:, None]
    alternate = (-1.0) ** cols
    tref = np.pi * cols / deg[:, None]
    ends = np.pi / (2 * deg + 2)
    tref[cells.ra > 0.0, 0] = ends[cells.ra > 0.0]
    on = np.flatnonzero(cells.rb > 0.0)
    tref[on, deg[on]] = np.pi - ends[on]
    # a problem's reference fills the first deg + 1 columns of its row, and its last point the rest
    last = np.minimum(cols, deg[:, None])
    tref = np.take_along_axis(tref, last, axis=1)
    signs = np.tile(alternate, (count, 1))
    certify, open_, live = np.zeros(count, dtype=bool), np.ones(count, dtype=bool), np.arange(count)
    # a problem's iterate is its row of an iteration's coefs and tref, with its E
    # and defect; its best so far is its row of those of iteration best_it
    E, defect, seen = np.zeros(count), np.zeros(count), [None]
    best_it, best_E, best_defect = np.zeros(count, int), np.zeros(count), np.full(count, np.inf)
    # the cosine rows that the last extremum steps computed, for the levelled systems:
    # ``held`` holds them, and ``held_at`` where each reference point's row is there, or -1
    no_rows = np.empty((0, cols.size))
    held, held_at = no_rows, np.full(tref.shape, -1)

    def settle(rows, make) -> None:
        # the outcome make(i) of each problem i of ``rows``, which leave the loop
        for i in rows.tolist():
            out[i] = make(i)
        open_[rows] = False

    def give_up(i: int, message: str) -> ConvergenceError:
        coef, at = seen[best_it[i]]
        best = _package(cells, i, coef[i], at[i], best_E[i], best_it[i], best_defect[i])
        return ConvergenceError(message, best, float(best_defect[i]))

    def exchange_step(chosen):
        # one extremum step of the problems ``chosen``, and its exchange
        nonlocal held
        order, kt, ke, found, evaluated, kr = _extremum_step(
            cells, grids, coefs, e, ae, peaks, chosen, certify, floor
        )
        short = found <= deg[order]
        if short.any():
            for i, m in zip(order[short].tolist(), found[short].tolist()):
                about = f"{cells.about(i)}, iteration {it}"
                out[i] = ExchangeError(f"found {m} alternations, need {deg[i] + 1} ({about})")
            open_[order[short]] = False
            at = np.repeat(~short, found)
            order, found, kt, ke, kr = order[~short], found[~short], kt[at], ke[at], kr[at]
        if not order.size:
            return
        ak = np.abs(ke)
        star, s0 = _windows(ak, found, deg[order] + 1)
        E[order] = top = ak[star]
        defect[order] = (top - h[order]) / top
        better = order[defect[order] < best_defect[order]]
        best_it[better], best_E[better], best_defect[better] = it, E[better], defect[better]
        pick = s0[:, None] + last[order]
        new_tref[order] = kt[pick]
        # the step's rows at the new reference, stacked after those of the iteration's earlier step
        kr = kr[pick]
        held_at[order] = np.where(kr < 0, -1, kr + held.shape[0])
        held = _stack_rows(held, evaluated)
        up[order] = ke[s0] > 0
        stalled[order] = np.abs(new_tref[order] - tref[order]).max(axis=1) <= 1e-14

    for it in range(1, max_iter + 1):
        # the reference in x, ascending, must not collapse
        x = np.cos(tref[live])
        collapsed = ((x[:, :-1] - x[:, 1:] <= 1e-14) & gaps[live]).any(axis=1)
        if collapsed.any():
            settle(live[collapsed], lambda i: DegeneracyError(f"reference collapse at iteration {it}"))
            live = live[~collapsed]
        coefs, h = np.zeros((count, cols.size)), np.zeros(count)
        seen.append((coefs, tref))
        for n in levels:
            rows = live[deg[live] == n]
            if rows.size:
                ref = np.s_[rows, : n + 1]
                levelled, h_n, singular = _level(cells, rows, tref[ref], signs[ref], n, held_at[ref], held)
                coefs[rows, : n + 1], h[rows] = levelled, np.abs(h_n)
                for r, exc in singular.items():
                    out[rows[r]], open_[rows[r]] = exc, False
        live = live[open_[live]]
        if not live.size:
            return out
        if live.size < grids.cells.size:
            grids.join(live)
        e = grids.errors(coefs)
        ae = np.abs(e)
        peaks = grids.peaks(ae)
        floor = 1e-15 * h
        new_tref, up, stalled = tref.copy(), np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
        held, held_at = no_rows, np.full(tref.shape, -1)
        exchange_step(grids.cells)
        # redo the reference with certified extrema once the cheap phase levels
        # it, or once its defect no longer falls below its best so far
        cheap = live[open_[live] & ~certify[live]]
        redo = cheap[
            stalled[cheap] | (defect[cheap] <= max(1e-8, 10.0 * tolerance)) | (best_it[cheap] < it)
        ]
        if redo.size:
            certify[redo] = True
            if redo.size == np.count_nonzero(open_[live]):
                held = no_rows  # the redo replaces every row held: free them before its step
            exchange_step(redo)
        live = live[open_[live]]
        done = certify[live] & (defect[live] <= tolerance)
        # a certified reference that stopped moving above tolerance: further
        # exchanges cannot improve the iterate
        stuck = live[stalled[live] & ~done]
        settle(live[done], lambda i: _package(cells, i, coefs[i], tref[i], E[i], it, defect[i]))
        settle(stuck, lambda i: give_up(i, (
            f"reference stalled at defect {defect[i]:.3e} > {tolerance:.1e} "
            f"({cells.about(i)}, iteration {it})"
        )))
        live = live[open_[live]]
        if not live.size:
            return out
        tref = new_tref
        signs = np.where(up, 1.0, -1.0)[:, None] * alternate

    settle(live, lambda i: give_up(i, (
        f"no convergence after {max_iter} iterations "
        f"({cells.about(i)}, best defect {best_defect[i]:.3e})"
    )))
    return out


def _package(cells: _Cells, i: int, coef, tref, E, it, defect) -> ChebyshevSolution:
    w, n = cells.weights[i], int(cells.deg[i])
    # a boundary hump closer to its endpoint than the float spacing at -1 or 1
    # would round onto the endpoint, where the weight vanishes; report the
    # nearest float inside the weight's open support instead
    lo = np.nextafter(-1.0, 0.0) if w.rho_b > 0.0 else -1.0
    hi = np.nextafter(1.0, 0.0) if w.rho_a > 0.0 else 1.0
    xref = np.clip(np.cos(tref[: n + 1])[::-1], lo, hi)
    return ChebyshevSolution(
        weight=w,
        poly=MonicPolynomial(n, tuple(coef[:n])),
        reference=tuple(xref),
        norm=float(E),
        iterations=int(it),
        levelling_defect=float(defect),
    )
