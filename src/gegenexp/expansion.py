"""Closed forms for the two-variable power-kernel expansion.

Everything here evaluates gamma-product formulas: the expansion
coefficients of |s-t|^(2 nu) sgn^eps(s-t) in products of ultraspherical
polynomials, the sheared plus-part integrals and their sign variants, the
projection identity linking the two, classical specializations (Selberg,
Warnaar, Tarasov-Varchenko, Dotsenko-Fateev, Mehta), the trigonometric and
Hermite limit forms, and the sup-norm tail machinery used to pick
truncation orders.  All gamma ratios run in log space with separate sign
tracking; a gamma pole in a denominator produces an exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .orthopoly import gegenbauer_all, gegenbauer_norm_sq
from .specfun import DomainError, _lgamma_1d, gamma_ratio, hyp2f1, pochhammer

LN2 = math.log(2.0)
LNPI = math.log(math.pi)

#: Search cap for truncation orders.
MAX_ORDER = 2000
#: Tail estimates sum terms exactly up to order max(L, M) + _WINDOW.
_WINDOW = 32


class HypothesisError(DomainError):
    """The series convergence hypothesis 2 nu > lambda + mu + 4 fails."""


@dataclass(frozen=True)
class ExpansionParams:
    """Kernel parameters: |s-t|^(2 nu) sgn^eps(s-t) expanded in the
    lam/mu ultraspherical bases."""

    lam: float
    mu: float
    nu: float
    eps: int = 0

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf and 0.0 < self.mu < math.inf
                and 0.0 < self.nu < math.inf):
            raise DomainError("requires lam, mu, nu > 0 and finite")
        if self.eps not in (0, 1):
            raise DomainError("eps must be 0 or 1")

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
class CoeffTable:
    params: ExpansionParams
    L: int
    M: int
    values: np.ndarray


@dataclass(frozen=True)
class SeriesEvalResult:
    value: float
    order_used: tuple
    tail_bound: float


def expansion_coeff(lam: float, mu: float, nu: float, ell: int, m: int) -> float:
    """Coefficient of C_ell(s) C_m(t) in the two-variable power expansion.

    (-1)^m (lam+ell)(mu+m) Gamma(lam+mu+2nu+1) Gamma(lam) Gamma(mu)
    Gamma(2nu+1) divided by 2^(2nu) and the four gammas at
    nu+1+(lam+mu)/2 +- (lam+ell)/2 +- (mu+m)/2.  A pole in any denominator
    gamma gives an exact zero, which is what truncates polynomial kernels.
    """
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf and 0.0 < nu < math.inf):
        raise DomainError("requires lam, mu, nu > 0 and finite")
    if ell < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    base = nu + 1.0 + (lam + mu) / 2.0
    p, q = (lam + ell) / 2.0, (mu + m) / 2.0
    return (
        (lam + ell)
        * (mu + m)
        * gamma_ratio(
            (lam + mu + 2.0 * nu + 1.0, lam, mu, 2.0 * nu + 1.0),
            (base + p + q, base + p - q, base - p + q, base - p - q),
            scale_log=-2.0 * nu * LN2,
            sign=-1.0 if m % 2 else 1.0,
        )
    )


def _hankel(v: np.ndarray, n: int) -> np.ndarray:
    """Read-only view H[i, j] = v[i + j], shape (len(v) - n + 1, n)."""
    return sliding_window_view(v, n)


def _toeplitz(v: np.ndarray, n: int) -> np.ndarray:
    """Read-only view T[i, j] = v[i - j + n - 1], shape (len(v) - n + 1, n)."""
    return sliding_window_view(v[::-1], n)[::-1]


def _reciprocal_gammas(*lattices):
    """log|1 / prod Gamma(c + j/2)| and its sign over (c, j) pairs of a
    scalar and a 1-D integer vector, all j of equal length; the log is -inf
    where any argument is a pole."""
    log, sign, dead = 0.0, 1.0, False
    for c, j in lattices:
        lg, sg, pole = _lgamma_1d(c, j)
        log, sign, dead = log - lg, sign * sg, dead | pole
    return np.where(dead, -np.inf, log), sign


def _diagonal_factors(params: ExpansionParams, L: int, M: int):
    """The four denominator gammas of b_{l,m} on 1-D index vectors.

    nu+1+lam+mu+(l+m)/2 and nu+1-(l+m)/2 depend on s = l+m alone, and
    nu+1+lam+(l-m)/2 and nu+1+mu-(l-m)/2 on d = l-m alone.  Returns
    (log_s, sign_s) over s = 0..L+M, with the numerator constant folded
    into log_s, and (log_d, sign_d) over d = -M..L; a pole gives -inf.
    """
    lam, mu, nu = params.lam, params.mu, params.nu
    s = np.arange(L + M + 1)
    d = np.arange(-M, L + 1)
    log_s, sign_s = _reciprocal_gammas((nu + 1.0 + lam + mu, s), (nu + 1.0, -s))
    log_d, sign_d = _reciprocal_gammas((nu + 1.0 + lam, d), (nu + 1.0 + mu, -d))
    log_s += (
        math.lgamma(lam + mu + 2.0 * nu + 1.0)
        + math.lgamma(lam)
        + math.lgamma(mu)
        + math.lgamma(2.0 * nu + 1.0)
        - 2.0 * nu * LN2
    )
    return log_s, sign_s, log_d, sign_d


def coeff_grid(params: ExpansionParams, L: int, M: int) -> np.ndarray:
    """Dense (L+1) x (M+1) coefficient grid without the parity mask.

    Vectorized counterpart of expansion_coeff with the same pole zeros.  The
    gammas are taken on the l+m and l-m vectors (O(L+M) values) and
    gathered onto the grid as Hankel and Toeplitz views; one exp follows.
    """
    log_s, sign_s, log_d, sign_d = _diagonal_factors(params, L, M)
    vals = _hankel(log_s, M + 1) + _toeplitz(log_d, M + 1)
    np.exp(vals, out=vals)
    vals *= _hankel(sign_s, M + 1)
    vals *= _toeplitz(sign_d, M + 1)
    m = np.arange(M + 1)
    vals *= (params.lam + np.arange(L + 1))[:, None]
    vals *= np.where(m % 2, -1.0, 1.0) * (params.mu + m)
    vals += 0.0  # a pole's zero is +0.0, whatever sign it was given
    return vals


def coeff_table(params: ExpansionParams, L: int, M: int) -> CoeffTable:
    """Coefficient table with entries of the wrong parity zeroed."""
    if L < 0 or M < 0:
        raise DomainError(f"orders must be nonnegative, got L={L!r}, M={M!r}")
    vals = coeff_grid(params, L, M)
    ell = np.arange(L + 1)[:, None]
    m = np.arange(M + 1)[None, :]
    vals = np.where((ell + m) % 2 == params.eps, vals, 0.0)
    return CoeffTable(params, L, M, vals)


def kernel_value(params: ExpansionParams, s, t):
    """|s-t|^(2 nu) sgn^eps(s-t) evaluated pointwise, with sgn(0) = 0."""
    d = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    val = np.abs(d) ** (2.0 * params.nu)
    if params.eps:
        val = val * np.sign(d)
    return val if np.ndim(val) else float(val)


def series_eval_grid(
    params: ExpansionParams, s, t, L: int, M: int, force: bool = False
) -> np.ndarray:
    """Partial expansion sum on the tensor grid s x t."""
    params.require_hypothesis(force)
    table = coeff_table(params, L, M)
    cs = gegenbauer_all(params.lam, L, np.atleast_1d(s))
    ct = gegenbauer_all(params.mu, M, np.atleast_1d(t))
    return cs.T @ table.values @ ct


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
    return SeriesEvalResult(value, (L, M), bound)


def _term_sup_grid(params: ExpansionParams, L: int, M: int) -> np.ndarray:
    """|b_{l,m}| C_l(1) C_m(1) with the parity mask applied.

    Built like coeff_grid, with the mask folded into the l+m vector and the
    endpoint values C_n(1) = Gamma(n + 2 lam) / (n! Gamma(2 lam)) taken on
    the 1-D index vectors.
    """
    lam, mu = params.lam, params.mu
    log_s, _, log_d, _ = _diagonal_factors(params, L, M)
    log_s[np.arange(L + M + 1) % 2 != params.eps] = -np.inf
    vals = _hankel(log_s, M + 1) + _toeplitz(log_d, M + 1)
    np.exp(vals, out=vals)
    ell = np.arange(L + 1)
    m = np.arange(M + 1)
    ce = _lgamma_1d(2.0 * lam, 2 * ell)[0] - _lgamma_1d(1.0, 2 * ell)[0]
    cm = _lgamma_1d(2.0 * mu, 2 * m)[0] - _lgamma_1d(1.0, 2 * m)[0]
    vals *= ((lam + ell) * np.exp(ce - math.lgamma(2.0 * lam)))[:, None]
    vals *= (mu + m) * np.exp(cm - math.lgamma(2.0 * mu))
    return vals


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
    W = max(L, M) + _WINDOW
    return _tail_from_grid(_term_sup_grid(params, W, W), params, L, M)


def _tail_from_grid(T: np.ndarray, params: ExpansionParams, L: int, M: int) -> float:
    """tail_bound read from the leading (W+1) x (W+1) block of a term grid
    T = _term_sup_grid(params, N, N) with N >= W = max(L, M) + _WINDOW.

    Grid entries do not depend on the grid's size, so the result is
    bit-identical to tail_bound for every N >= W.
    """
    W = max(L, M) + _WINDOW
    T = T[: W + 1, : W + 1]
    ell = np.arange(W + 1)
    discard = (ell[:, None] > L) | (ell[None, :] > M)
    finite = float(T[discard].sum())

    bands = np.bincount(
        (ell[:, None] + ell[None, :]).ravel(), weights=T.ravel(), minlength=2 * W + 1
    )
    s_hi = W if (W - params.eps) % 2 == 0 else W - 1
    s_lo = s_hi - 2
    b_hi, b_lo = float(bands[s_hi]), float(bands[s_lo])
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
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
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
        if _tail_from_grid(T, params, L, M) < tol:
            return (L, M)
    raise DomainError(f"tail estimate cannot reach {tol} by order {MAX_ORDER}")


def plus_part_integral(
    lam: float, mu: float, nu: float, ell: int, m: int, x: float
) -> float:
    """Closed form of int int (s - x t)_+^(2 nu) u_ell(s) u_m(t) ds dt,
    with u the normalized weighted ultraspherical polynomials.

    Equals (-1)^m pi^2 Gamma(2nu+1) x^m 2F1(-nu+(ell+m)/2,
    -lam-nu+(m-ell)/2; mu+m+1; x^2) over 2^(2nu+1)
    Gamma(nu-(ell+m)/2+1) Gamma(mu+m+1) Gamma(lam+nu+(ell-m)/2+1).
    """
    if not (-0.5 < lam < math.inf and -0.5 < mu < math.inf and 0.0 < nu < math.inf):
        raise DomainError("requires lam, mu > -1/2 and nu > 0, all finite")
    if not -1.0 <= x <= 1.0:
        raise DomainError("requires -1 <= x <= 1")
    if ell < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    coef = gamma_ratio(
        (2.0 * nu + 1.0,),
        (nu - (ell + m) / 2.0 + 1.0, mu + m + 1.0, lam + nu + (ell - m) / 2.0 + 1.0),
        scale_log=2.0 * LNPI - (2.0 * nu + 1.0) * LN2,
        sign=-1.0 if m % 2 else 1.0,
    )
    if coef == 0.0:
        return 0.0
    f = hyp2f1(-nu + (ell + m) / 2.0, -lam - nu + (m - ell) / 2.0, mu + m + 1.0, x * x)
    return coef * x**m * f.value


SHEAR_KINDS = ("plus", "minus", "abs", "abssgn")


def sheared_integral(
    kind: str, lam: float, mu: float, nu: float, ell: int, m: int, x: float
) -> float:
    """Sign variants of the sheared kernel integral.

    minus flips by (-1)^(ell+m); abs keeps only even ell+m (factor
    1+(-1)^(ell+m)); abssgn keeps only odd (factor 1-(-1)^(ell+m)).
    """
    if kind not in SHEAR_KINDS:
        raise DomainError(f"unknown variant {kind!r}")
    parity = -1.0 if (ell + m) % 2 else 1.0
    if kind == "abs" and parity < 0:
        return 0.0
    if kind == "abssgn" and parity > 0:
        return 0.0
    base = plus_part_integral(lam, mu, nu, ell, m, x)
    if kind == "plus":
        return base
    if kind == "minus":
        return parity * base
    return 2.0 * base


def projection_integral(params: ExpansionParams, ell: int, m: int) -> float:
    """Closed form of the kernel's projection onto C_ell(s) C_m(t) under the
    product weight: (1+(-1)^(ell+m+eps))/2 times coefficient times both
    squared norms."""
    if (ell + m + params.eps) % 2:
        return 0.0
    return (
        expansion_coeff(params.lam, params.mu, params.nu, ell, m)
        * gegenbauer_norm_sq(params.lam, ell)
        * gegenbauer_norm_sq(params.mu, m)
    )


def plus_base_integral(a: float, b: float, c: float, x: float) -> float:
    """Closed form of int int (s - x t)_+^(2c-1) (1-s^2)^(a-1) (1-t^2)^(b-1).

    sqrt(pi) Gamma(a) Gamma(b) Gamma(c) / (2 Gamma(a+c) Gamma(b+1/2)) times
    2F1(-c+1/2, -a-c+1; b+1/2; x^2).
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf and 0.5 < c < math.inf):
        raise DomainError("requires a, b > 0 and c > 1/2, all finite")
    if not -1.0 <= x <= 1.0:
        raise DomainError("requires -1 <= x <= 1")
    coef = gamma_ratio(
        (a, b, c),
        (a + c, b + 0.5),
        scale_log=0.5 * LNPI - LN2,
    )
    return coef * hyp2f1(0.5 - c, 1.0 - a - c, b + 0.5, x * x).value


def moment_of_plus_integral(
    lam: float, mu: float, nu: float, beta: float, ell: int, m: int
) -> float:
    """Closed form of int_0^1 x^(2 mu + m + 1) (1-x^2)^beta B(x) dx where
    B(x) is plus_part_integral at shear x."""
    if not (-0.5 < lam < math.inf and -0.5 < mu < math.inf and 0.0 < nu < math.inf
            and -1.0 < beta < math.inf):
        raise DomainError("requires lam, mu > -1/2, nu > 0 and beta > -1, all finite")
    if ell < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    return gamma_ratio(
        (2.0 * nu + 1.0, beta + 1.0, lam + mu + 2.0 * nu + beta + 2.0),
        (
            nu - (ell + m) / 2.0 + 1.0,
            lam + nu + (ell - m) / 2.0 + 1.0,
            mu + nu + beta + (m - ell) / 2.0 + 2.0,
            lam + mu + nu + beta + (m + ell) / 2.0 + 2.0,
        ),
        scale_log=2.0 * LNPI - (2.0 * nu + 2.0) * LN2,
        sign=-1.0 if m % 2 else 1.0,
    )


def shear_averaged_projection(
    lam: float, mu: float, nu: float, b: float, ell: int, m: int
) -> float:
    """Closed form of the triple integral of |s - t sqrt(y)|^(2 nu)
    C_ell(s) C_m(t) against the y^(mu+m/2) (1-y)^b and product weights.

    Defined for even ell + m; the odd case is a domain error.
    """
    if (ell + m) % 2:
        raise DomainError("requires ell + m even")
    if not (-0.5 < lam < math.inf and -0.5 < mu < math.inf and 0.0 < nu < math.inf
            and -1.0 < b < math.inf):
        raise DomainError("requires lam, mu > -1/2, nu > 0 and b > -1, all finite")
    if ell < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    half = (ell + m) // 2
    const = math.sqrt(math.pi) * (-1.0) ** ((m - ell) // 2) / (
        math.factorial(ell) * math.factorial(m)
    )
    poch = (
        pochhammer(2.0 * lam, ell)
        * pochhammer(2.0 * mu, m)
        * pochhammer(-nu, half)
    )
    return const * poch * gamma_ratio(
        (lam + 0.5, mu + 0.5, nu + 0.5, lam + mu + 2.0 * nu + b + 2.0, b + 1.0),
        (
            lam + mu + nu + b + half + 2.0,
            lam + nu + (ell - m) / 2.0 + 1.0,
            mu + nu + b - (ell - m) / 2.0 + 2.0,
        ),
    )


@lru_cache(maxsize=32)
def _cosine_matrix(rho: float, parity: int, K: int) -> np.ndarray:
    """Reciprocal gamma products over the lattice [-K, K]^2 with the
    parity mask applied.

    The four arguments 1 + (rho +- (l+m))/2 and 1 + (rho +- (l-m))/2 share
    one 1-D vector over k = -2K..2K, taken once and gathered onto the
    lattice by l+m (Hankel) and l-m (Toeplitz, parity-masked) views.
    """
    k = np.arange(-2 * K, 2 * K + 1)
    log_k, sign_k = _reciprocal_gammas((1.0 + 0.5 * rho, k), (1.0 + 0.5 * rho, -k))
    log_d = np.where((k - parity) % 2 == 0, log_k, -np.inf)
    n = 2 * K + 1
    vals = _hankel(log_k, n) + _toeplitz(log_d, n)
    np.exp(vals, out=vals)
    vals *= _hankel(sign_k, n)
    vals *= _toeplitz(sign_k, n)
    return vals


def cosine_expansion(rho: float, parity: int, phi: float, psi: float, K: int) -> float:
    """Truncated bilateral expansion of |cos(phi) + cos(psi)|^rho
    sgn^parity(cos(phi) + cos(psi)).

    Sums 2^(-rho) Gamma(rho+1)^2 cos(l phi) cos(m psi) over the four-gamma
    reciprocal products for all integer |l|, |m| <= K with l = m + parity
    mod 2, without folding the lattice.
    """
    if not 0.0 < rho < math.inf:
        raise DomainError("requires rho > 0 and finite")
    if parity not in (0, 1):
        raise DomainError("parity must be 0 or 1")
    if K < 0:
        raise DomainError("K must be nonnegative")
    mat = _cosine_matrix(rho, parity, K)
    idx = np.arange(-K, K + 1)
    cl = np.cos(idx * phi)
    cm = np.cos(idx * psi)
    pref = gamma_ratio((rho + 1.0, rho + 1.0), (), scale_log=-rho * LN2)
    return pref * float(cl @ mat @ cm)


def hermite_kernel_integral(nu: float, ell: int, m: int, x: float) -> float:
    """Closed form of int int |s - x t|^(2 nu) e^(-s^2-t^2) H_ell(s) H_m(t).

    (-nu)_((ell+m)/2) (-1)^((ell-m)/2) 2^(ell+m) sqrt(pi) Gamma(nu+1/2)
    (x^2+1)^(nu-(ell+m)/2) x^m, for even ell + m.
    """
    if (ell + m) % 2:
        raise DomainError("requires ell + m even")
    if not (0.0 < nu < math.inf and math.isfinite(x)):
        raise DomainError("requires nu > 0 and finite x")
    if ell < 0 or m < 0:
        raise DomainError("indices must be nonnegative")
    half = (ell + m) // 2
    return (
        pochhammer(-nu, half)
        * (-1.0) ** ((ell - m) // 2)
        * 2.0 ** (ell + m)
        * math.sqrt(math.pi)
        * gamma_ratio((nu + 0.5,), ())
        * (x * x + 1.0) ** (nu - half)
        * x**m
    )


def weighted_power_mass(lam: float, mu: float, nu: float) -> float:
    """Closed form of int int |s-t|^(2 nu) (1-s^2)^(lam-1/2) (1-t^2)^(mu-1/2).

    The integral converges for lam, mu, nu > -1/2 with lam + mu + 2 nu + 1
    > 0 (the corners s = t = +-1); elsewhere this raises DomainError.
    """
    if not (
        -0.5 < lam < math.inf and -0.5 < mu < math.inf and -0.5 < nu < math.inf
        and lam + mu + 2.0 * nu + 1.0 > 0.0
    ):
        raise DomainError(
            "requires lam, mu, nu > -1/2 and lam + mu + 2 nu + 1 > 0, all finite"
        )
    return gamma_ratio(
        (lam + 0.5, mu + 0.5, nu + 0.5, lam + mu + 2.0 * nu + 1.0),
        (lam + nu + 1.0, mu + nu + 1.0, lam + mu + nu + 1.0),
        scale_log=0.5 * LNPI,
    )


def selberg2(lam: float, nu: float) -> float:
    """Two-variable Selberg integral, weighted_power_mass at mu = lam; it
    converges for lam, nu > -1/2 with 2 lam + 2 nu + 1 > 0."""
    if not (-0.5 < lam < math.inf and -0.5 < nu < math.inf and lam + nu + 0.5 > 0.0):
        raise DomainError(
            "requires lam, nu > -1/2 and 2 lam + 2 nu + 1 > 0, all finite"
        )
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
    if not (-0.5 < lam and -0.5 < mu and lam + mu < 1.0):
        raise DomainError("requires lam, mu > -1/2 and lam + mu < 1")
    return gamma_ratio(
        (lam + 0.5, 0.5 - mu, mu + 0.5, mu + 0.5),
        (lam + 1.0 - mu, mu + 1.0 - lam, lam + mu + 1.0),
    )


def tarasov_varchenko(lam: float, nu: float) -> float:
    """Tarasov-Varchenko one-sided integral of (t-s)^(2 nu) (1-s^2)^(lam-1/2)
    over s < t in [-1, 1]^2; it converges for lam, nu > -1/2."""
    if not (-0.5 < lam < math.inf and -0.5 < nu < math.inf):
        raise DomainError("requires lam, nu > -1/2, both finite")
    return gamma_ratio(
        (lam + 0.5, 1.5 + lam + 2.0 * nu),
        (2.0 + 2.0 * lam + 2.0 * nu,),
        scale_log=(2.0 * lam + 2.0 * nu + 1.0) * LN2,
    ) / (1.0 + 2.0 * nu)


def dotsenko_fateev(lam: float, mu: float) -> float:
    """Dotsenko-Fateev finite part of int int |s-t|^(-2) (1-s^2)^(lam-1/2)
    (1-t^2)^(mu-1/2), defined for lam, mu > -1/2 with lam + mu > 1."""
    if not (-0.5 < lam < math.inf and -0.5 < mu < math.inf and lam + mu > 1.0):
        raise DomainError("requires lam, mu > -1/2 and lam + mu > 1, both finite")
    return gamma_ratio(
        (lam + 0.5, lam + 0.5, mu + 0.5, mu + 0.5),
        (2.0 * lam, 2.0 * mu),
        scale_log=(2.0 * lam + 2.0 * mu - 1.0) * LN2,
    ) / (1.0 - lam - mu)


def mehta2(nu: float) -> float:
    """Mehta's (1 / 2 pi) int int |s-t|^(2 nu) e^(-(s^2+t^2)/2) over R^2; it
    converges for nu > -1/2."""
    if not -0.5 < nu < math.inf:
        raise DomainError("requires nu > -1/2 and finite")
    return gamma_ratio((1.0 + 2.0 * nu,), (1.0 + nu,))
