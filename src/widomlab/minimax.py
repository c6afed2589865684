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
from itertools import groupby

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from widomlab.special import WeightParams, _bracketed_newton, _parabolic_shift, _tail_grid

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


def _gemv_blocks(M: np.ndarray, counts, coefs: np.ndarray) -> np.ndarray:
    """``M[rows] @ coefs[i]`` for the i-th block of ``counts[i]`` consecutive rows of M.

    Each block is a gemv of its own rows, rounded as a product of those rows
    alone would be; blocks of equal size go through one stacked matmul.  One
    tall gemv over several blocks rounds some rows differently.
    """
    if len(counts) == 1:
        return M @ coefs[0]
    out = np.empty(M.shape[0])
    sizes = [int(m) for m in counts]
    b0 = row = 0
    while b0 < len(sizes):
        m, b1 = sizes[b0], b0 + 1
        while b1 < len(sizes) and sizes[b1] == m:
            b1 += 1
        end = row + (b1 - b0) * m
        block = M[row:end].reshape(b1 - b0, m, M.shape[1])
        out[row:end] = np.matmul(block, coefs[b0:b1, :, None]).ravel()
        b0, row = b1, end
    return out


def _theta_eval(coef: np.ndarray, theta: np.ndarray, counts=None):
    """p, dp/dtheta and d2p/dtheta2 of a Chebyshev series at x = cos(theta), as trig sums.

    p = sum c_k cos(k theta), p_theta = -sum k c_k sin(k theta) and
    p_thetatheta = -sum k^2 c_k cos(k theta): a fixed number of numpy calls at
    any degree, where Clenshaw in x takes nine per degree.  With ``counts``,
    ``coef`` holds one series per row and row i is evaluated at the i-th
    block of ``counts[i]`` consecutive points.
    """
    if coef.ndim == 1:
        coef, counts = coef[None], [theta.size]
    k = np.arange(coef.shape[1])
    cos_k, sin_k = _cos_sin_k(theta, coef.shape[1] - 1)
    p = _gemv_blocks(cos_k, counts, coef)
    return p, -_gemv_blocks(sin_k, counts, k * coef), -_gemv_blocks(cos_k, counts, k * k * coef)


class _Cells:
    """A batch of weights solved side by side: their exponents, and their weight at any points.

    Cell i is ``weights[i]``.  The methods take points in consecutive blocks,
    ``sizes[j]`` points of the cell ``rows[j]``, and evaluate each point as
    :func:`special._weight_theta` would evaluate it alone, bit for bit.
    """

    def __init__(self, weights):
        self.weights = list(weights)
        self.ra = np.array([w.rho_a for w in self.weights], dtype=float)
        self.rb = np.array([w.rho_b for w in self.weights], dtype=float)
        self._exponents = [
            self._groups([w.rho_a for w in self.weights]),
            self._groups([w.rho_b for w in self.weights]),
        ]

    @staticmethod
    def _groups(rhos):
        # (group of each cell, the exponent of each group as the caller gave it)
        index: dict = {}
        group = np.array([index.setdefault(r, len(index)) for r in rhos], dtype=int)
        return group, list(index)

    def exponent(self, side: int, rows, sizes):
        """rho_a (side 0) or rho_b (side 1) at each point; one scalar if all cells share it."""
        rhos = self._exponents[side][1]
        if len(rhos) == 1:
            return rhos[0]
        return np.repeat((self.ra, self.rb)[side][rows], sizes)

    def weight(self, theta: np.ndarray, rows, sizes) -> np.ndarray:
        """(1-x)^rho_a (1+x)^rho_b at x = cos(theta), under each point's own exponents.

        numpy's power takes a fast path for some scalar exponents (0.5, 2
        and -1) that rounds differently from the path an array of exponents
        takes, so each distinct exponent is applied as a scalar to its points.
        """
        out = np.ones_like(theta)
        for (group, rhos), trig in zip(self._exponents, (np.sin, np.cos)):
            if not any(r != 0.0 for r in rhos):
                continue
            base = 2.0 * trig(0.5 * theta) ** 2
            if len(rhos) == 1:
                factor = base ** rhos[0]
            else:
                factor = np.ones_like(theta)
                of_point = np.repeat(group[rows], sizes)
                order = np.argsort(of_point, kind="stable")
                bounds = np.searchsorted(of_point[order], np.arange(len(rhos) + 1))
                for g, rho in enumerate(rhos):
                    at = order[bounds[g] : bounds[g + 1]]
                    if rho != 0.0 and at.size:
                        factor[at] = base[at] ** rho
            out = out * factor
        return out


def _log_error_slope(cells: _Cells, blocks, counts, coefs, theta, live):
    """g = d/dtheta ln|e| and g' for e(t) = w(cos t) p(cos t).

    The points come in the blocks ``live`` of ``blocks``: block j holds
    ``counts[j]`` points of the cell ``blocks[j]``, whose series is ``coefs[j]``.
    """
    if live.size < blocks.size:
        blocks, counts, coefs = blocks[live], counts[live], coefs[live]
    p, pt, ptt = _theta_eval(coefs, theta, counts)
    ra, rb = cells.exponent(0, blocks, counts), cells.exponent(1, blocks, counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = pt / p
        gp = ptt / p - g * g
        half = 0.5 * theta
        # each term only where its exponent is nonzero: at theta = 0 or pi it is 0/0
        on = ra != 0.0
        if isinstance(on, np.ndarray) or on:
            g = _where(on, g + ra / np.tan(half), g)
            gp = _where(on, gp - 0.5 * ra / np.sin(half) ** 2, gp)
        on = rb != 0.0
        if isinstance(on, np.ndarray) or on:
            g = _where(on, g - rb * np.tan(half), g)
            gp = _where(on, gp - 0.5 * rb / np.cos(half) ** 2, gp)
    return g, gp


def _where(on, new, old):
    """``new`` where ``on``, else ``old``; ``on`` is one flag or one per point."""
    return np.where(on, new, old) if isinstance(on, np.ndarray) else new if on else old


def _refine_newton(cells: _Cells, blocks, counts, coefs, lo, hi) -> np.ndarray:
    """Maxima of |e| inside brackets [lo, hi], where g = d/dtheta ln|e| falls through 0.

    The brackets come in consecutive blocks, ``counts[i]`` of them for the
    cell ``blocks[i]``; each cell's Newton stops on its own step.
    """
    slope = partial(_log_error_slope, cells, blocks, counts, coefs[blocks])
    return _bracketed_newton(slope, lo, hi, 1.0, 3e-16, 50, counts)


def _alternating_prune(cand_t, cand_e, floor: float):
    """Sort by theta, drop near-zero errors, keep max-|e| point of each sign run."""
    order = np.argsort(cand_t)
    keep_t: list[float] = []
    keep_e: list[float] = []
    for t_, e_ in zip(cand_t[order].tolist(), cand_e[order].tolist()):
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
    ae = np.abs(ke)
    star = int(np.argmax(ae))
    best_s0 = None
    best_min = -1.0
    for s0 in range(max(0, star - count + 1), min(star, len(ke) - count) + 1):
        wmin = float(np.min(ae[s0 : s0 + count]))
        if wmin > best_min:
            best_min, best_s0 = wmin, s0
    return best_s0


def _level(cells: _Cells, live, tref, signs, n: int, lead: float):
    """Least free coefficients + levelled h on each cell's reference, in theta variables.

    Row i of ``tref`` and ``signs`` is the reference of cell ``live[i]``.
    Returns the coefficients (one row per cell, the implied leader last), h,
    and the :class:`DegeneracyError` of each row whose system is singular.
    All systems go through one stacked solve, which rounds each as a solve
    of its own would.  The matrix takes the compensated cosines of
    :func:`_cos_sin_k`, as the extremum step does.  With plain
    ``cos(k * theta)`` here, 12 of 41 sample problems at n = 100 to 400
    stayed above the 1e-12 certificate; with compensated ones all 41 certify.
    """
    rows = len(live)
    points = tref.ravel()
    wr = cells.weight(points, live, n + 1).reshape(rows, n + 1)
    Tn = _cos_sin_k(points, n)[0].reshape(rows, n + 1, n + 1)
    A = np.empty((rows, n + 1, n + 1))
    A[:, :, :n] = wr[:, :, None] * Tn[:, :, :n]
    A[:, :, n] = -signs
    rhs = -wr * lead * Tn[:, :, n]
    errors = {}
    try:
        # one system alone takes numpy's cheaper vector form, which rounds alike
        if rows == 1:
            sol = np.linalg.solve(A[0], rhs[0])[None]
        else:
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


def _grid_cosines(theta: np.ndarray, degree: int) -> np.ndarray:
    """cos(k theta) for k <= degree, one row per grid point."""
    cos_k = np.outer(theta, np.arange(degree + 1))
    np.cos(cos_k, out=cos_k)  # in place: at n = 400 each copy is 39 MB
    return cos_k


def _remez_grid(ra: float, rb: float, size: int, degree: int):
    """Sampling grid of the Remez loop: (theta, weight, cos(k theta) for k <= degree, step).

    The grid of :func:`special._tail_grid`: the uniform theta-grid of ``size``
    points plus a geometric tail toward each endpoint where the weight
    vanishes, which makes a boundary hump narrower than one step an ordinary
    grid local maximum, bracketed by its neighbours.
    """
    theta, wgrid, step = _tail_grid(ra, rb, size)
    return theta, wgrid, _grid_cosines(theta, degree), step


class _Grids:
    """The Remez grids of a batch of cells, with one cosine matrix per distinct grid.

    :meth:`join` lays the grids of some of the cells end to end, grouped by
    grid, for the elementwise steps, and evaluates their errors.
    """

    def __init__(self, cells: _Cells, size: int, degree: int):
        self.theta, self.weight, self.cosines = [], [], []
        self.kind = np.empty(len(cells.weights), dtype=int)
        seen: dict[bytes, int] = {}
        for i, w in enumerate(cells.weights):
            theta, wgrid, self.step = _tail_grid(w.rho_a, w.rho_b, size)
            key = theta.tobytes()
            if key not in seen:
                seen[key] = len(self.cosines)
                self.cosines.append(_grid_cosines(theta, degree))
            self.kind[i] = seen[key]
            self.theta.append(theta)
            self.weight.append(wgrid)

    def join(self, live: np.ndarray) -> "_Joined":
        cells = live[np.argsort(self.kind[live], kind="stable")]
        sizes = np.array([self.theta[i].size for i in cells])
        last = np.cumsum(sizes) - 1
        first = np.full(len(self.theta), -1)
        end = np.full(len(self.theta), -1)
        first[cells], end[cells] = last - sizes + 1, last
        inner = np.ones(last[-1] + 1, dtype=bool)
        inner[first[cells]] = inner[end[cells]] = False
        runs, r0 = [], 0
        for kind, group in groupby(self.kind[cells].tolist()):
            r1 = r0 + len(list(group))
            runs.append((self.cosines[kind], cells[r0:r1]))
            r0 = r1
        return _Joined(
            step=self.step,
            cells=cells,
            theta=np.concatenate([self.theta[i] for i in cells]),
            weight=np.concatenate([self.weight[i] for i in cells]),
            cell=np.repeat(cells, sizes),
            first=first,
            last=end,
            inner=inner,
            runs=runs,
        )


@dataclass(frozen=True)
class _Joined:
    """The grids of the cells ``cells`` end to end: ``first`` and ``last`` give each cell's ends.

    ``runs`` pairs each cosine matrix with the cells whose grid it samples.
    """

    step: float
    cells: np.ndarray
    theta: np.ndarray
    weight: np.ndarray
    cell: np.ndarray
    first: np.ndarray
    last: np.ndarray
    inner: np.ndarray
    runs: list

    def errors(self, coefs: np.ndarray) -> np.ndarray:
        """The weighted error w p of each cell on its grid: one gemv per cell, stacked per grid."""
        parts = [np.matmul(cos_k, coefs[run, :, None]).ravel() for cos_k, run in self.runs]
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)) * self.weight

    def peaks(self, ae: np.ndarray) -> np.ndarray:
        """Grid local maxima of ``ae``, each compared with neighbours of its own grid."""
        return np.nonzero(self.inner[1:-1] & (ae[1:-1] >= ae[:-2]) & (ae[1:-1] >= ae[2:]))[0] + 1


def _extremum_step(cells: _Cells, joined: _Joined, coefs, e, ae, peaks, chosen, certify, floor):
    """Alternating extrema of the error w p of each cell in ``chosen`` from its samples ``e``.

    ``e`` holds the errors on the grids ``joined``, ``ae`` their moduli and
    ``peaks`` their grid local maxima, tail points included.  A maximum is
    refined by bracketed Newton on the log-derivative where its cell's
    ``certify`` is set, or else by one parabolic step; the parabola needs a
    full step on either side, so a point next to a tail point keeps its grid
    value in the cheap phase.  A point keeps its grid value where refinement
    lowered |e|.  An endpoint is a candidate where the weight does not
    vanish.  Yields each cell with the (theta, e) of the max-|e| point of
    each sign run of its candidates, ignoring errors below the cell's
    ``floor``.
    """
    idx = peaks
    if chosen.size < joined.cells.size:
        mine = np.zeros(len(cells.weights), dtype=bool)
        mine[chosen] = True
        idx = idx[mine[joined.cell[idx]]]
    if chosen.size == 1:
        order, sizes = chosen, np.array([idx.size])
    else:
        count = np.bincount(joined.cell[idx], minlength=len(cells.weights))
        # cells by their number of maxima, so that equal blocks meet in _gemv_blocks
        order = chosen[np.argsort(count[chosen], kind="stable")]
        rank = np.empty(len(cells.weights), dtype=int)
        rank[order] = np.arange(order.size)
        idx = idx[np.argsort(rank[joined.cell[idx]], kind="stable")]
        sizes = count[order]
    theta, step = joined.theta, joined.step
    left, right = theta[idx - 1], theta[idx + 1]
    newton = certify[order]
    if newton.all():
        tr = _refine_newton(cells, order, sizes, coefs, left, right)
    else:
        d = _parabolic_shift(ae[idx - 1], ae[idx], ae[idx + 1], step)
        # a tail point, or a uniform point next to one, has a neighbour nearer than step
        tr = np.clip(theta[idx] + np.where(right - left > 1.75 * step, d, 0.0), 0.0, np.pi)
        if newton.any():
            at = np.repeat(newton, sizes)
            tr[at] = _refine_newton(cells, order[newton], sizes[newton], coefs, left[at], right[at])
    cos_k, _ = _cos_sin_k(tr, coefs.shape[1] - 1)
    er = cells.weight(tr, order, sizes) * _gemv_blocks(cos_k, sizes, coefs[order])
    worse = np.abs(er) < ae[idx]
    cand_t = np.where(worse, theta[idx], tr)
    cand_e = np.where(worse, e[idx], er)
    ends = np.cumsum(sizes).tolist()
    for i, a, b in zip(order.tolist(), [0] + ends, ends):
        ct, ce = cand_t[a:b], cand_e[a:b]
        w, first, last = cells.weights[i], joined.first[i], joined.last[i]
        if w.rho_a == 0.0 and ae[first] >= ae[first + 1]:
            ct, ce = np.append(0.0, ct), np.append(e[first], ce)
        if w.rho_b == 0.0 and ae[last] >= ae[last - 1]:
            ct, ce = np.append(ct, np.pi), np.append(ce, e[last])
        yield i, *_alternating_prune(ct, ce, floor[i])


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
    coef, h, errors = _level(_Cells([w]), np.array([0]), tref[None], signs[None], n, lead)
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
    cells, one = _Cells([w]), np.array([0])
    joined = _Grids(cells, grid, poly.degree).join(one)
    coefs = poly.full_cheb_coeffs()[None]
    e = joined.errors(coefs)
    ae = np.abs(e)
    floor = np.array([1e-15 * float(np.max(ae))])
    peaks = joined.peaks(ae)
    [(_, kt, ke)] = _extremum_step(cells, joined, coefs, e, ae, peaks, one, one == 0, floor)
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
    certified defect within ``tolerance`` returns the solution.  This is
    :func:`solve_many` on one weight.
    """
    # the loop by its private name: a tracer of the public functions sees one span
    (out,) = _lockstep([w], n, tolerance, max_iter)
    if isinstance(out, Exception):
        raise out
    return out


def solve_many(
    weights,
    n: int,
    *,
    tolerance: float = 1e-12,
    max_iter: int = 60,
) -> list:
    """:func:`solve` for each of ``weights`` at degree n, in one lockstep Remez loop.

    Returns, in the order of ``weights``, what ``solve(w, n)`` returns for
    each weight, or the :class:`ConvergenceError`, :class:`DegeneracyError` or
    :class:`ExchangeError` it raises, bit for bit: the batch shares the
    elementwise steps, but no weight's arithmetic depends on the others.
    Each cell takes its own iterations, phases and Newton steps, and drops
    out of the loop once it is solved or fails.
    """
    return _lockstep(weights, n, tolerance, max_iter)


def _lockstep(weights, n: int, tolerance: float, max_iter: int) -> list:
    if n < 1:
        raise ValueError("degree must be at least 1")
    if tolerance <= 0.0 or max_iter < 1:
        raise ValueError("tolerance and max_iter must be positive")
    cells = _Cells(weights)
    count = len(cells.weights)
    out: list = [None] * count
    if not count:
        return out
    grids = _Grids(cells, 30 * n + 200, n)
    lead = _implied_leading(n)
    alternate = (-1.0) ** np.arange(n + 1)

    tref = np.tile(np.pi * np.arange(n + 1) / n, (count, 1))
    tref[cells.ra > 0.0, 0] = np.pi / (2 * n + 2)
    tref[cells.rb > 0.0, -1] = np.pi - np.pi / (2 * n + 2)
    signs = np.tile(alternate, (count, 1))
    certify = np.zeros(count, dtype=bool)
    best: list[_Iterate | None] = [None] * count
    cur: list[_Iterate | None] = [None] * count
    live = list(range(count))
    joined = grids.join(np.arange(count))

    def exchange_step(chosen):
        # one extremum step of the cells ``chosen``, and its exchange
        for i, kt, ke in _extremum_step(cells, joined, coefs, e, ae, peaks, chosen, certify, floor):
            if len(kt) < n + 1:
                w = cells.weights[i]
                out[i] = ExchangeError(
                    f"found {len(kt)} alternations, need {n + 1} "
                    f"(rho_a={w.rho_a}, rho_b={w.rho_b}, n={n}, iteration {it})"
                )
                continue
            E = float(np.max(np.abs(ke)))
            cur[i] = _Iterate(coefs[i], tref[i], E, it, (E - float(h[i])) / E)
            if best[i] is None or cur[i].defect < best[i].defect:
                best[i] = cur[i]
            s0 = _pick_window(ke, n + 1)
            new_tref[i] = kt[s0 : s0 + n + 1]
            up[i] = ke[s0] > 0
            stalled[i] = bool(np.max(np.abs(new_tref[i] - tref[i])) <= 1e-14)

    for it in range(1, max_iter + 1):
        rows = np.array(live)
        # the reference in x, ascending, must not collapse
        x = np.cos(tref[rows] if len(live) < count else tref)
        collapsed = (x[:, :-1] - x[:, 1:] <= 1e-14).any(axis=1)
        if collapsed.any():
            for i in rows[collapsed]:
                out[i] = DegeneracyError(f"reference collapse at iteration {it}")
            live, rows = [i for i in live if out[i] is None], rows[~collapsed]
        levelled, h_live, singular = _level(cells, live, tref[rows], signs[rows], n, lead)
        for row, exc in singular.items():
            out[live[row]] = exc
        if len(live) == count:
            coefs, h = levelled, np.abs(h_live)
        else:
            coefs, h = np.zeros((count, n + 1)), np.zeros(count)
            coefs[live], h[live] = levelled, np.abs(h_live)
        live = [i for i in live if out[i] is None]
        if not live:
            return out
        if len(live) < joined.cells.size:
            joined = grids.join(np.array(live))
        e = joined.errors(coefs)
        ae = np.abs(e)
        peaks = joined.peaks(ae)
        floor = 1e-15 * h
        new_tref = tref.copy()
        up, stalled = [False] * count, [False] * count
        exchange_step(joined.cells)
        # redo the reference with certified extrema once the cheap phase levels it
        redo = [
            i
            for i in live
            if out[i] is None
            and not certify[i]
            and (stalled[i] or cur[i].defect <= max(1e-8, 10.0 * tolerance))
        ]
        if redo:
            certify[redo] = True
            exchange_step(np.array(redo))

        for i in live:
            if out[i] is not None:
                continue
            w = cells.weights[i]
            if certify[i] and cur[i].defect <= tolerance:
                out[i] = _package(w, n, cur[i])
            elif stalled[i]:
                # the certified reference has stopped moving above tolerance:
                # further exchanges cannot improve the iterate
                out[i] = ConvergenceError(
                    f"reference stalled at defect {cur[i].defect:.3e} > {tolerance:.1e} "
                    f"(rho_a={w.rho_a}, rho_b={w.rho_b}, n={n}, iteration {it})",
                    _package(w, n, best[i]),
                    best[i].defect,
                )
        live = [i for i in live if out[i] is None]
        if not live:
            return out
        tref = new_tref
        signs = np.where(up, 1.0, -1.0)[:, None] * alternate

    for i, w in enumerate(cells.weights):
        if out[i] is None:
            out[i] = ConvergenceError(
                f"no convergence after {max_iter} iterations "
                f"(rho_a={w.rho_a}, rho_b={w.rho_b}, n={n}, best defect {best[i].defect:.3e})",
                _package(w, n, best[i]),
                best[i].defect,
            )
    return out


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
