"""Closed forms for the two-variable power-kernel expansion.

Everything here evaluates gamma-product formulas: the expansion
coefficients of |s-t|^(2 nu) sgn^eps(s-t) in products of ultraspherical
polynomials, the sheared plus-part integrals and their sign variants, the
projection identity linking the two, classical specializations (Selberg,
Warnaar, Tarasov-Varchenko, Dotsenko-Fateev, Mehta), the trigonometric and
Hermite limit forms, and the sup-norm tail machinery used to pick
truncation orders.  All gamma ratios run in log space with separate sign
tracking; a gamma pole in a denominator produces an exact zero.  Every
gamma is taken by specfun._lgamma_at at a lattice point c + j/2: the
coefficient grid's gamma vectors directly, and every other gamma as a
factor of specfun.gamma_ratio, a real or a lattice point (c, j).  lam = 0
(or mu = 0) is the Chebyshev point of the series: its basis there is T_n,
and the trigonometric expansion is the series at lam = mu = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .orthopoly import gegenbauer_all, gegenbauer_norm_sq
from .specfun import (
    LN2, LNPI, DomainError, _lgamma_at, _log_gamma_ratio, check_above, check_at_least,
    check_degree, check_points, gamma_ratio, hyp2f1,
)

#: Search cap for truncation orders.
MAX_ORDER = 2000
#: Tail estimates sum terms exactly up to order max(L, M) + _WINDOW.
_WINDOW = 32
#: A lattice gamma vector takes _lgamma_at at every _ANCHOR-th point of each
#: parity chain and the recurrence between them.
_ANCHOR = 32
#: Rows per block of the tail's one pass over a term grid.
_SHELL_ROWS = 64
#: Entries per block of rows that the coefficient lattice exponentiates.
_BLOCK = 2**14


class HypothesisError(DomainError):
    """The series convergence hypothesis 2 nu > lambda + mu + 4 fails."""


def _check_parity(name: str, v) -> None:
    """Raise DomainError unless v, called name, is an integer 0 or 1, as check_degree reads one."""
    if not (isinstance(v, (int, np.integer)) and v in (0, 1)):
        raise DomainError(f"{name} must be 0 or 1")


@dataclass(frozen=True)
class ExpansionParams:
    """Kernel parameters: |s-t|^(2 nu) sgn^eps(s-t) expanded in the
    lam/mu ultraspherical bases; lam or mu = 0 takes the Chebyshev T_n, the
    limit basis."""

    lam: float
    mu: float
    nu: float
    eps: int = 0

    def __post_init__(self):
        check_at_least("lam", self.lam, 0.0)  # 0 is the Chebyshev point
        check_at_least("mu", self.mu, 0.0)
        check_above("nu", self.nu, 0.0)
        _check_parity("eps", self.eps)

    @property
    def series_hypothesis_ok(self) -> bool:
        return 2.0 * self.nu > self.lam + self.mu + 4.0

    def require_hypothesis(self, force: bool = False) -> None:
        if not force and not self.series_hypothesis_ok:
            raise HypothesisError(
                f"series needs 2*nu > lam + mu + 4 "
                f"(2*{self.nu} <= {self.lam} + {self.mu} + 4); pass force to override"
            )


@dataclass(frozen=True)
class SeriesEvalResult:
    value: float
    tail_bound: float


def _log_numerator(lam: float, mu: float, nu: float) -> float:
    """log Gamma(lam+mu+2nu+1) Gamma(lam) Gamma(mu) Gamma(2nu+1) - 2nu ln 2,
    the log of b_{l,m}'s constant numerator, without Gamma(lam) at lam = 0
    or Gamma(mu) at mu = 0, the limit that _degree_factor completes."""
    args = (lam + mu + 2.0 * nu + 1.0, lam, mu, 2.0 * nu + 1.0)
    return _log_gamma_ratio([a for a in args if a])[0] - 2.0 * nu * LN2


def _degree_factor(lam: float, k):
    """lam + k for a degree k or a vector of them, and at lam = 0 its limit e_k
    (1, then 2): (lam + k) Gamma(lam) C_k^lam tends to e_k T_k (DLMF 18.7(iii))."""
    return lam + k if lam else 2.0 - (k == 0)


def _denominator_lattices(lam: float, mu: float, nu: float, s, d):
    """b_{l,m}'s four denominator gammas as (c, j) pairs, Gamma(c + j/2):
    nu+1+lam+mu+s/2 and nu+1-s/2 on s = l+m, then nu+1+lam+d/2 and
    nu+1+mu-d/2 on d = l-m (integers, or integer vectors for a grid)."""
    return (
        ((nu + 1.0 + lam + mu, s), (nu + 1.0, -s)),
        ((nu + 1.0 + lam, d), (nu + 1.0 + mu, -d)),
    )


def expansion_coeff(lam: float, mu: float, nu: float, ell: int, m: int) -> float:
    """Coefficient of C_ell(s) C_m(t) in the two-variable power expansion.

    (-1)^m (lam+ell)(mu+m) Gamma(lam+mu+2nu+1) Gamma(lam) Gamma(mu)
    Gamma(2nu+1) divided by 2^(2nu) and the four gammas at
    nu+1+(lam+mu)/2 +- (lam+ell)/2 +- (mu+m)/2, taken from the same lattice
    pairs as coeff_table; at lam = 0 (or mu = 0) the coefficient of T_ell
    (or T_m), its limit.  A pole in any denominator gamma gives an exact
    zero, which is what truncates polynomial kernels.
    """
    ExpansionParams(lam, mu, nu)  # checks lam, mu and nu
    check_degree("ell", ell)
    check_degree("m", m)
    log, sign = _log_numerator(lam, mu, nu), -1.0 if m % 2 else 1.0
    s_pairs, d_pairs = _denominator_lattices(lam, mu, nu, ell + m, ell - m)
    ratio = gamma_ratio((), s_pairs + d_pairs, log, sign)
    return _degree_factor(lam, ell) * _degree_factor(mu, m) * ratio


def _hankel(v: np.ndarray, n: int) -> np.ndarray:
    """Read-only view H[i, j] = v[i + j], shape (len(v) - n + 1, n)."""
    return sliding_window_view(v, n)


def _toeplitz(v: np.ndarray, n: int) -> np.ndarray:
    """Read-only view T[i, j] = v[i - j + n - 1], shape (len(v) - n + 1, n)."""
    return sliding_window_view(v[::-1], n)[::-1]


def _reciprocal_gammas(*groups) -> list:
    """For each group of (c, j) pairs of a scalar and a 1-D vector of
    ascending consecutive integers: log|1 / prod Gamma(c + j/2)| and its
    sign, the log -inf where any argument is a pole.  Each
    distinct c is taken once, over the union of its pairs' j, and sliced:
    an entry depends on c and its own j alone (_lattice_gammas), so a slice
    equals the pair's own vector to the bit."""
    spans = {}
    for c, j in (pair for group in groups for pair in group):
        lo, hi = spans.get(c, (j.min(), j.max()))
        spans[c] = min(lo, j.min()), max(hi, j.max())
    union = [(c, np.arange(lo, hi + 1)) for c, (lo, hi) in spans.items()]
    gammas = dict(zip(spans, _lattice_gammas(*union)))
    out = []
    for group in groups:
        log, sign = 0.0, 1.0
        for c, j in group:
            at = j - spans[c][0]
            lg, sg = gammas[c]
            log, sign = log - lg[at], sign * sg[at]
        out.append((log, sign))
    return out


def _half_crossing(c: float, odd: int) -> int:
    """The smallest j of parity odd with c + j/2 >= 1/2 in floating point,
    where _lgamma_at stops reflecting.  Past |c| = 2^50 a chain stays on one
    side of 1/2 over any j a grid can hold, so j = odd serves."""
    if abs(c) > 2.0**50:
        return odd
    j = math.ceil(1.0 - 2.0 * c)
    j += (j - odd) % 2
    while c + 0.5 * (j - 2) >= 0.5:
        j -= 2
    while c + 0.5 * j < 0.5:
        j += 2
    return j


def _lattice_gammas(*lattices) -> list:
    """(log|Gamma(c + j/2)|, sign) for each (c, j) pair of a scalar and a
    1-D vector of ascending consecutive integers, with (+inf, 1.0) at a
    pole.

    Each parity chain of j steps x = c + j/2 by 1, so Gamma(x + 1) =
    x Gamma(x) (DLMF 5.5.1) carries _lgamma_at's value at an anchor through
    the _ANCHOR - 1 points above it: a cumulative sum of log|x| and a
    cumulative product of sign(x), the sum added to the anchor's log last.
    x is c + j/2 rounded once, so next to a pole, where it is c's offset from
    that pole, it is exact.  Anchors sit every _ANCHOR points from the
    chain's crossing of 1/2, reaching past the ends of j where needed: no
    block straddles x = 1/2, and an entry depends on c and its own j alone,
    not on the range of j.  A block below 1/2 has poles at all its points
    or at none, and its anchor says which, so _lgamma_at stays the one rule
    for poles, signs and the reflection.  The blocks of all pairs run as
    one array.
    """
    B = _ANCHOR
    anchors, chains = [], []  # each block's (c, first j); where each chain's points lie
    for c, j in lattices:
        lo, n = int(j[0]), len(j)
        chains.append([n])
        for odd in (0, 1):
            first = lo + (lo - odd) % 2
            count = len(range(first, lo + n, 2))
            if count:
                start = first - 2 * ((first - _half_crossing(c, odd)) // 2 % B)
                skip = len(anchors) * B + (first - start) // 2
                chains[-1].append((first - lo, slice(skip, skip + count)))
                anchors += [(c, k) for k in range(start, first + 2 * count - 1, 2 * B)]
    c0, j0 = np.array(anchors).T
    x = c0[:, None] + 0.5 * (j0[:, None] + np.arange(0, 2 * B, 2))
    at = np.array([_lgamma_at(c, k) for c, k in anchors])
    lg, sg = np.zeros(x.shape), np.ones(x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at a pole, overwritten
        np.cumsum(np.log(np.abs(x[:, :-1])), axis=1, out=lg[:, 1:])
        lg += at[:, :1]
    np.cumprod(np.where(x[:, :-1] < 0.0, -1.0, 1.0), axis=1, out=sg[:, 1:])
    sg *= at[:, 1:]
    pole = at[:, 0] == math.inf
    lg[pole], sg[pole] = math.inf, 1.0
    lg, sg = lg.ravel(), sg.ravel()
    out = []
    for n, *parts in chains:
        log, sign = np.empty(n), np.empty(n)
        for offset, points in parts:
            log[offset::2], sign[offset::2] = lg[points], sg[points]
        out.append((log, sign))
    return out


def _lattice(log_s, sign_s, log_d, sign_d, n: int, odd: int, factors=()):
    """exp of the l+m (Hankel) and l-m (Toeplitz) gathers of two 1-D logs at
    the entries (i, j) of a (len - n + 1) x n grid with i + j of parity odd,
    times each factor in turn (a column vector scales the rows, a 1-D vector
    the columns), zero at the other entries; and the same gathers of the
    signs.  The kept entries of the rows of one parity in a block of rows
    are gathered into one reused buffer of about _BLOCK / 2 entries, so that exp
    and the factors run on contiguous memory that stays in cache and skip
    the zeros."""
    H, T = _hankel(log_s, n), _toeplitz(log_d, n)
    vals = np.zeros(H.shape)
    step = 2 * max(1, _BLOCK // n)
    buf = np.empty(min(step, len(vals) + 1) // 2 * ((n + 1) // 2))
    for i in range(0, len(vals), step):
        for r in (i, i + 1):  # the rows of parity r, at their columns of parity odd - r
            rows, cols = slice(r, i + step, 2), slice((odd - r) % 2, None, 2)
            gather = vals[rows, cols]
            block = buf[: gather.size].reshape(gather.shape)
            np.add(H[rows, cols], T[rows, cols], out=block)
            np.exp(block, out=block)
            for f in factors:
                block *= f[rows] if f.ndim == 2 else f[cols]
            gather[...] = block
    return vals, _hankel(sign_s, n), _toeplitz(sign_d, n)


def _coeff_magnitudes(params: ExpansionParams, L: int, M: int, *factors):
    """|b_{l,m}| on the (L+1) x (M+1) grid, zero where l+m has the wrong
    parity, times each factor in turn as _lattice takes them, and the
    lattice's sign views.  The gammas are taken on the s = l+m and d = l-m
    vectors (O(L+M) values), with the numerator folded into the s vector."""
    lam, mu, nu = params.lam, params.mu, params.nu
    s, d = np.arange(L + M + 1), np.arange(-M, L + 1)
    s_pairs, d_pairs = _denominator_lattices(lam, mu, nu, s, d)
    (log_s, sign_s), (log_d, sign_d) = _reciprocal_gammas(s_pairs, d_pairs)
    log_s += _log_numerator(lam, mu, nu)
    degrees = _degree_factor(lam, np.arange(L + 1))[:, None], _degree_factor(mu, np.arange(M + 1))
    return _lattice(log_s, sign_s, log_d, sign_d, M + 1, params.eps, degrees + factors)


def coeff_table(params: ExpansionParams, L: int, M: int) -> np.ndarray:
    """Dense (L+1) x (M+1) coefficient table, entries with l+m of the wrong
    parity zeroed: expansion_coeff on a grid, with the same lattice pairs and
    pole zeros, as the magnitudes times the lattice's sign views and (-1)^m,
    exact factors of +-1 that keep every product's rounding."""
    check_degree("L", L)
    check_degree("M", M)
    vals, sign_h, sign_t = _coeff_magnitudes(params, L, M)
    vals *= sign_h
    vals *= sign_t
    vals[:, 1::2] *= -1.0  # (-1)^m
    vals += 0.0  # a masked entry's or a pole's zero is +0.0, whatever its sign
    return vals


def kernel_value(params: ExpansionParams, s, t):
    """|s-t|^(2 nu) sgn^eps(s-t) at finite points s and t, with sgn(0) = 0."""
    check_points("s", s)
    check_points("t", t)
    d = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    val = np.abs(d) ** (2.0 * params.nu)
    if params.eps:
        val = val * np.sign(d)
    return val if np.ndim(val) else float(val)


def series_eval_grid(
    params: ExpansionParams, s, t, L: int, M: int, force: bool = False
) -> np.ndarray:
    """Partial expansion sum on the tensor grid s x t.  Every point lies in
    [-1, 1], the square that the tail estimate's sup runs over.  Only
    entries with l + m + eps even are nonzero, so the sum is two products,
    one per parity block of the table: rows l = i mod 2 against columns
    m = i + eps mod 2."""
    check_degree("L", L)
    check_degree("M", M)
    check_points("s", s, 1.0)
    check_points("t", t, 1.0)
    params.require_hypothesis(force)
    cs = gegenbauer_all(params.lam, L, np.atleast_1d(s))
    ct = gegenbauer_all(params.mu, M, np.atleast_1d(t))
    table = coeff_table(params, L, M)
    return sum(cs[i::2].T @ table[i::2, j::2] @ ct[j::2]
               for i, j in ((0, params.eps), (1, 1 - params.eps)))


def series_eval(
    params: ExpansionParams, s: float, t: float, L: int, M: int, force: bool = False
) -> SeriesEvalResult:
    """Partial expansion sum at one point, with a sup-norm tail estimate.

    The estimate is tail_bound: the discarded |coefficient| times the
    endpoint values of both polynomials, summed exactly inside a window and
    extrapolated heuristically beyond it, so it is not a proven bound on the
    truncation error.
    """
    value = float(series_eval_grid(params, [s], [t], L, M, force=force)[0, 0])
    bound = tail_bound(params, L, M) if params.series_hypothesis_ok else math.inf
    return SeriesEvalResult(value, bound)


def _endpoint_values(lam: float, n: int) -> np.ndarray:
    """C_k^lam(1) = (2 lam)_k / k! for k = 0..n, as a running product of the
    factors (2 lam + i) / (i + 1), and T_k(1) = 1 at lam = 0."""
    if lam == 0.0:
        return np.ones(n + 1)
    i = np.arange(n)
    return np.concatenate(([1.0], np.cumprod((2.0 * lam + i) / (i + 1.0))))


def _term_sup_grid(params: ExpansionParams, L: int, M: int) -> np.ndarray:
    """|b_{l,m}| C_l(1) C_m(1) with the parity mask applied: coeff_table's
    magnitudes, before any sign is taken, times the endpoint values of both
    polynomials."""
    ends = _endpoint_values(params.lam, L)[:, None], _endpoint_values(params.mu, M)
    return _coeff_magnitudes(params, L, M, *ends)[0]


def tail_bound(params: ExpansionParams, L: int, M: int) -> float:
    """Estimate of the sup norm of the discarded expansion tail.

    Sums |coefficient| C(1) C(1) exactly over the discarded part of a
    square window of side max(L, M) + _WINDOW; everything outside the window
    lies on anti-diagonals ell + m > W and is estimated by an
    integral-comparison extrapolation of the last two anti-diagonal band
    sums, whose decay is the n^(lam - N)-type majorant direction.  The
    extrapolated part carries a safety factor of two; the extrapolation is
    a heuristic, so the result is an estimate, not a proven bound.
    """
    check_degree("L", L)
    check_degree("M", M)
    W = max(L, M) + _WINDOW
    T = _term_sup_grid(params, W, W)
    return _tail_from_grid(T, _shell_sums(T), params, L, M)


def _shell_sums(T: np.ndarray) -> np.ndarray:
    """shell[k], the sum of a square grid T over its entries with
    max(l, m) = k, in one pass over blocks of _SHELL_ROWS rows with
    O(len(T)) extra memory.  Row k is summed pairwise up to its block's
    diagonal square, then in order across it; column k is summed down
    each block above that square, block by block, then in order down it.
    Blocks start at multiples of _SHELL_ROWS, so shell[k] reads
    T[:k+1, :k+1] alone, the same way in every grid that holds that block,
    and is the same to the bit."""
    n = len(T)
    shell, above = np.empty(n), np.zeros(n)
    for i in range(0, n, _SHELL_ROWS):
        j = min(i + _SHELL_ROWS, n)
        square = T[i:j, i:j]
        shell[i:j] = T[i:j, :i].sum(axis=1) + np.cumsum(square, axis=1).diagonal()
        above[i + 1 : j] += np.cumsum(square, axis=0).diagonal(1)
        above[j:] += T[i:j, j:].sum(axis=0)
    shell += above
    return shell


def _tail_from_grid(T: np.ndarray, shell, params: ExpansionParams, L: int, M: int) -> float:
    """tail_bound read from the leading (W+1) x (W+1) block of a term grid
    T = _term_sup_grid(params, N, N) with N >= W = max(L, M) + _WINDOW and
    its _shell_sums, shell.

    The discarded part of the block is the shells max(l, m) = K+1..W, with
    K = max(L, M), summed directly, and for L != M the one rectangle of
    rows past L or columns past M inside the K block, the shells making the
    read O(W).  Grid entries and shells do not depend on the grid's size, so
    the result is bit-identical to tail_bound for every N >= W.
    """
    W, K = max(L, M) + _WINDOW, max(L, M)
    T = T[: W + 1, : W + 1]
    finite = float(shell[K + 1 : W + 1].sum())
    finite += float(T[L + 1 : K + 1, : K + 1].sum() + T[: K + 1, M + 1 : K + 1].sum())

    s_hi = W if (W - params.eps) % 2 == 0 else W - 1
    s_lo = s_hi - 2
    # band s, the anti-diagonal l + m = s, is a diagonal of the flipped block
    b_hi, b_lo = (float(np.trace(T[:, ::-1], offset=W - s)) for s in (s_hi, s_lo))
    if b_hi == 0.0:
        rest = 0.0  # bands terminated: polynomial kernel
    elif b_lo <= b_hi or s_lo <= 0:
        rest = math.inf
    else:
        q = math.log(b_lo / b_hi) / math.log(s_hi / s_lo)
        rest = math.inf if q <= 1.0 else b_hi * s_hi / (q - 1.0)
    return finite + 2.0 * rest


def truncation_order(params: ExpansionParams, tol: float) -> tuple:
    """Smallest square order on the search ladder whose tail estimate
    (tail_bound, not a proven bound) is below tol.

    The rungs are scanned in order, since the estimate need not be monotone
    in the order.  They share one term grid, built once per growth step:
    when a rung's window outgrows it, the grid at least doubles, up to
    MAX_ORDER + _WINDOW per side.  The returned order is the one a scan with
    tail_bound would give.
    """
    check_above("tol", tol, 0.0)
    params.require_hypothesis()
    candidates = [(0, 1)] if params.eps == 1 else [(0, 0)]
    n = 1
    while n <= MAX_ORDER:
        candidates.append((n, n))
        n += 1 if n < 64 else (4 if n < 256 else (16 if n < 1024 else 64))
    T, size = None, 0
    for L, M in candidates:
        W = max(L, M) + _WINDOW
        if W > size:
            size = min(max(W, 2 * size), MAX_ORDER + _WINDOW)
            T = None  # release the old grid before building the larger one
            T = _term_sup_grid(params, size, size)
            shell = _shell_sums(T)
        if _tail_from_grid(T, shell, params, L, M) < tol:
            return (L, M)
    raise DomainError(f"tail estimate cannot reach {tol} by order {MAX_ORDER}")


def _check_plus_part(lam: float, mu: float, nu: float, x: float = 0.0) -> None:
    """Raise DomainError unless lam, mu > -1/2 and nu > 0 are finite and x
    lies in [-1, 1] (a closed form with no shear leaves x at 0)."""
    check_above("lam", lam, -0.5)
    check_above("mu", mu, -0.5)
    check_above("nu", nu, 0.0)
    check_points("x", x, 1.0)


def plus_part_integral(
    lam: float, mu: float, nu: float, ell: int, m: int, x: float
) -> float:
    """Closed form of int int (s - x t)_+^(2 nu) u_ell(s) u_m(t) ds dt,
    with u the normalized weighted ultraspherical polynomials.

    Equals (-1)^m pi^2 Gamma(2nu+1) x^m 2F1(-nu+(ell+m)/2,
    -lam-nu+(m-ell)/2; mu+m+1; x^2) over 2^(2nu+1)
    Gamma(nu-(ell+m)/2+1) Gamma(mu+m+1) Gamma(lam+nu+(ell-m)/2+1).
    """
    _check_plus_part(lam, mu, nu, x)
    check_degree("ell", ell)
    check_degree("m", m)
    return _plus_part(lam, mu, nu, ell, m, x)


def _plus_part(lam, mu, nu, ell, m, x, num=(), scale_log=0.0) -> float:
    """Unchecked plus_part_integral, its gamma ratio times prod Gamma(num)
    e^scale_log.  The three denominators that move with the degrees are the
    lattice points nu+1 - (ell+m)/2, mu+1 + m and lam+nu+1 + (ell-m)/2."""
    coef = gamma_ratio(
        (2.0 * nu + 1.0, *num),
        ((nu + 1.0, -(ell + m)), (mu + 1.0, 2 * m), (lam + nu + 1.0, ell - m)),
        2.0 * LNPI - (2.0 * nu + 1.0) * LN2 + scale_log,
        -1.0 if m % 2 else 1.0,
    )
    if coef == 0.0:
        return 0.0
    f = hyp2f1(-nu + (ell + m) / 2.0, -lam - nu + (m - ell) / 2.0, mu + m + 1.0, x * x)
    return coef * x**m * f.value


#: Each variant's weights (w_plus, w_minus) on (s - x t)_+ and (x t - s)_+.
SHEAR_KINDS = {"plus": (1, 0), "minus": (0, 1), "abs": (1, 1), "abssgn": (1, -1)}


def sheared_integral(
    kind: str, lam: float, mu: float, nu: float, ell: int, m: int, x: float
) -> float:
    """Sign variants of the sheared kernel integral: w_plus + w_minus
    (-1)^(ell+m) times plus_part_integral, the minus part being the plus part
    reflected through (s, t) -> (-s, -t).  Each argument is checked once, as
    plus_part_integral checks it; a zero factor is the parity zero.
    """
    if not isinstance(kind, str) or kind not in SHEAR_KINDS:  # a list is no key
        raise DomainError(f"unknown variant {kind!r}")
    check_degree("ell", ell)
    check_degree("m", m)
    _check_plus_part(lam, mu, nu, x)
    w_plus, w_minus = SHEAR_KINDS[kind]
    factor = w_plus - w_minus if (ell + m) % 2 else w_plus + w_minus
    return factor * _plus_part(lam, mu, nu, ell, m, x) if factor else 0.0


def projection_integral(params: ExpansionParams, ell: int, m: int) -> float:
    """Closed form of the kernel's projection onto C_ell(s) C_m(t) under the
    product weight: (1+(-1)^(ell+m+eps))/2 times coefficient times both
    squared norms."""
    check_degree("ell", ell)
    check_degree("m", m)
    if (ell + m + params.eps) % 2:
        return 0.0
    return (
        expansion_coeff(params.lam, params.mu, params.nu, ell, m)
        * gegenbauer_norm_sq(params.lam, ell)
        * gegenbauer_norm_sq(params.mu, m)
    )


def plus_base_integral(a: float, b: float, c: float, x: float) -> float:
    """Closed form of int int (s - x t)_+^(2c-1) (1-s^2)^(a-1) (1-t^2)^(b-1):
    plus_part_integral at ell = m = 0, (lam, mu, nu) = (a, b, c) - 1/2, its
    gamma ratio times Gamma(a) Gamma(b) / pi for the u_0 normalizations, or
    sqrt(pi) G(a) G(b) G(c) / (2 G(a+c) G(b+1/2)) 2F1(1/2-c, 1-a-c; b+1/2; x^2)."""
    check_above("a", a, 0.0)
    check_above("b", b, 0.0)
    check_above("c", c, 0.5)
    check_points("x", x, 1.0)
    return _plus_part(a - 0.5, b - 0.5, c - 0.5, 0, 0, x, (a, b), -LNPI)


def moment_of_plus_integral(
    lam: float, mu: float, nu: float, beta: float, ell: int, m: int
) -> float:
    """Closed form of int_0^1 x^(2 mu + m + 1) (1-x^2)^beta B(x) dx where
    B(x) is plus_part_integral at shear x.

    With y = x^2, the 3-D oracle integral QuadratureSpec("plus", 2 nu,
    gegenbauer=(lam, mu), degrees=(ell, m), extra_axis=(mu + m/2, beta)) is
    2 / (u_prefactor(lam, ell) u_prefactor(mu, m)) times it; the moment
    suite compares the two.  The four denominator gammas are taken at their
    lattice points c + j/2, j = +-(ell + m) or +-(ell - m).
    """
    _check_plus_part(lam, mu, nu)
    check_above("beta", beta, -1.0)
    check_degree("ell", ell)
    check_degree("m", m)
    log, sign = _log_gamma_ratio(
        (2.0 * nu + 1.0, beta + 1.0, lam + mu + 2.0 * nu + beta + 2.0),
        scale_log=2.0 * LNPI - (2.0 * nu + 2.0) * LN2,
        sign=-1.0 if m % 2 else 1.0,
    )
    return gamma_ratio((), (
        (nu + 1.0, -(ell + m)),
        (lam + nu + 1.0, ell - m),
        (mu + nu + beta + 2.0, m - ell),
        (lam + mu + nu + beta + 2.0, ell + m),
    ), log, sign)


def shear_averaged_projection(
    lam: float, mu: float, nu: float, b: float, ell: int, m: int
) -> float:
    """Closed form of the triple integral of |s - t sqrt(y)|^(2 nu)
    C_ell(s) C_m(t) against the y^(mu+m/2) (1-y)^b and product weights,
    with T_ell at lam = 0 (T_m at mu = 0), as the oracle takes that point.

    Defined for even ell + m; the odd case is a domain error.
    """
    check_degree("ell", ell)
    check_degree("m", m)
    _check_plus_part(lam, mu, nu)
    check_above("b", b, -1.0)
    if (ell + m) % 2:
        raise DomainError("requires ell + m even")
    # C_ell(1) (1 for T_ell), C_m(1) and (-nu)_half / (big)_half: running
    # products of factors near 1, the gammas left in one ratio
    half = (ell + m) // 2
    big = lam + mu + nu + b + 2.0
    products = float(
        _endpoint_values(lam, ell)[-1] * _endpoint_values(mu, m)[-1]
        * math.prod((-nu + k) / (big + k) for k in range(half))
    )
    # the two denominators that move with ell - m at their lattice points
    return math.sqrt(math.pi) * (-1.0) ** ((m - ell) // 2) * products * gamma_ratio(
        (lam + 0.5, mu + 0.5, nu + 0.5, lam + mu + 2.0 * nu + b + 2.0, b + 1.0),
        ((lam + nu + 1.0, ell - m), (mu + nu + b + 2.0, m - ell), big),
    )


def cosine_expansion(rho: float, parity: int, phi, psi, K: int) -> np.ndarray:
    """Truncated expansion of |cos(phi) + cos(psi)|^rho
    sgn^parity(cos(phi) + cos(psi)) on the grid phi x psi of finite angles,
    of shape (len(phi), len(psi)), a scalar angle counting as one.

    It is the series at lam = mu = 0, nu = rho/2, eps = parity, with
    l, m <= K, at s = cos(phi), t = -cos(psi): T_l(cos(phi)) = cos(l phi)
    and T_m(-cos(psi)) = (-1)^m cos(m psi).
    """
    check_above("rho", rho, 0.0)
    _check_parity("parity", parity)
    check_degree("K", K)
    check_points("phi", phi)
    check_points("psi", psi)
    b = coeff_table(ExpansionParams(0.0, 0.0, 0.5 * rho, parity), K, K)
    b[:, 1::2] *= -1.0  # T_m(-cos(psi)) = (-1)^m cos(m psi)
    k = np.arange(K + 1)
    return np.cos(np.outer(phi, k)) @ b @ np.cos(np.outer(k, psi))


def hermite_kernel_integral(nu: float, ell: int, m: int, x: float) -> float:
    """Closed form of int int |s - x t|^(2 nu) e^(-s^2-t^2) H_ell(s) H_m(t).

    (-nu)_((ell+m)/2) (-1)^((ell-m)/2) 2^(ell+m) sqrt(pi) Gamma(nu+1/2)
    (x^2+1)^(nu-(ell+m)/2) x^m, for even ell + m, in log space with
    (-nu)_half = (-1)^half Gamma(nu+1) / Gamma(nu+1-half).  That last gamma
    is the lattice point nu + (2 - 2 half)/2, whose pole is the exact zero
    at integer nu < half.
    """
    check_degree("ell", ell)
    check_degree("m", m)
    check_above("nu", nu, 0.0)
    check_above("x", x, -math.inf)
    if (ell + m) % 2:
        raise DomainError("requires ell + m even")
    if m and x == 0.0:
        return 0.0
    half = (ell + m) // 2
    value = gamma_ratio(
        (nu + 1.0, nu + 0.5),
        ((nu, 2 - 2 * half),),
        (ell + m) * LN2 + 0.5 * LNPI + 2.0 * (nu - half) * math.log(math.hypot(1.0, x))
        + (m * math.log(abs(x)) if m else 0.0),
        (-1.0) ** ell * (-1.0 if x < 0.0 and m % 2 else 1.0),
    )
    if abs(value) == math.inf:
        raise DomainError(f"value overflows at nu={nu!r}, ell={ell}, m={m}, x={x!r}")
    return value


def weighted_power_mass(lam: float, mu: float, nu: float) -> float:
    """Closed form of int int |s-t|^(2 nu) (1-s^2)^(lam-1/2) (1-t^2)^(mu-1/2).

    The integral converges for lam, mu, nu > -1/2 with lam + mu + 2 nu + 1
    > 0 (the corners s = t = +-1); elsewhere this raises DomainError.
    """
    check_above("lam", lam, -0.5)
    check_above("mu", mu, -0.5)
    check_above("nu", nu, -0.5)
    if not lam + mu + 2.0 * nu + 1.0 > 0.0:
        raise DomainError("requires lam + mu + 2 nu + 1 > 0")
    return gamma_ratio(
        (lam + 0.5, mu + 0.5, nu + 0.5, lam + mu + 2.0 * nu + 1.0),
        (lam + nu + 1.0, mu + nu + 1.0, lam + mu + nu + 1.0),
        scale_log=0.5 * LNPI,
    )


def selberg2(lam: float, nu: float) -> float:
    """Two-variable Selberg integral, weighted_power_mass at mu = lam; it
    converges for lam, nu > -1/2 with 2 lam + 2 nu + 1 > 0."""
    check_above("lam", lam, -0.5)
    check_above("nu", nu, -0.5)
    if not lam + nu + 0.5 > 0.0:
        raise DomainError("requires 2 lam + 2 nu + 1 > 0")
    return gamma_ratio(
        (lam + 0.5, lam + 0.5, lam + nu + 0.5, lam + nu + 0.5, 1.0 + 2.0 * nu),
        (2.0 * lam + 1.0 + nu, 2.0 * lam + 2.0 * nu + 1.0, 1.0 + nu),
        scale_log=(4.0 * lam + 2.0 * nu) * LN2,
    )


def warnaar(lam: float, mu: float) -> float:
    """Warnaar's 2^(-lam-mu) (I_< + I_> cos(pi lam) / cos(pi mu)), with I_<
    and I_> the integrals of |s-t|^(-lam-mu) (1-s^2)^(mu-1/2) (1-t^2)^(lam-1/2)
    over s < t and t < s in [-1, 1]^2.  Both converge for lam, mu > -1/2 with
    lam + mu < 1; mu = 1/2, where cos(pi mu) = 0, raises PoleError."""
    check_above("lam", lam, -0.5)
    check_above("mu", mu, -0.5)
    if not lam + mu < 1.0:
        raise DomainError("requires lam + mu < 1")
    return gamma_ratio(
        (lam + 0.5, 0.5 - mu, mu + 0.5, mu + 0.5),
        (lam + 1.0 - mu, mu + 1.0 - lam, lam + mu + 1.0),
    )


def tarasov_varchenko(lam: float, nu: float) -> float:
    """Tarasov-Varchenko one-sided integral of (t-s)^(2 nu) (1-s^2)^(lam-1/2)
    over s < t in [-1, 1]^2; it converges for lam, nu > -1/2."""
    check_above("lam", lam, -0.5)
    check_above("nu", nu, -0.5)
    return gamma_ratio(
        (lam + 0.5, 1.5 + lam + 2.0 * nu),
        (2.0 + 2.0 * lam + 2.0 * nu,),
        scale_log=(2.0 * lam + 2.0 * nu + 1.0) * LN2,
    ) / (1.0 + 2.0 * nu)


def dotsenko_fateev(lam: float, mu: float) -> float:
    """Dotsenko-Fateev finite part of int int |s-t|^(-2) (1-s^2)^(lam-1/2)
    (1-t^2)^(mu-1/2), defined for lam, mu > -1/2 with lam + mu > 1."""
    check_above("lam", lam, -0.5)
    check_above("mu", mu, -0.5)
    if not lam + mu > 1.0:
        raise DomainError("requires lam + mu > 1")
    return gamma_ratio(
        (lam + 0.5, lam + 0.5, mu + 0.5, mu + 0.5),
        (2.0 * lam, 2.0 * mu),
        scale_log=(2.0 * lam + 2.0 * mu - 1.0) * LN2,
    ) / (1.0 - lam - mu)


def mehta2(nu: float) -> float:
    """Mehta's (1 / 2 pi) int int |s-t|^(2 nu) e^(-(s^2+t^2)/2) over R^2; it
    converges for nu > -1/2."""
    check_above("nu", nu, -0.5)
    return gamma_ratio((1.0 + 2.0 * nu,), (1.0 + nu,))
