"""Ultraspherical (T_n at lam = 0) and Hermite polynomials plus Gaussian rules.

Polynomials come from one in-place three-term recurrence.  A rule is a
(nodes, weights) pair: Jacobi rules come from one stacked eigh over the
Golub-Welsch Jacobi matrices, and the one-pair Jacobi and the Hermite
rules are cached as read-only arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .specfun import LN2, LNPI, DomainError, check_above, check_degree, gamma_ratio


def _recurrence(x, n: int, first: float, step):
    """Yield p_0(x) = 1, p_1(x) = first x, ..., p_n(x) of the three-term
    recurrence p_k = (a x p_(k-1) - b p_(k-2)) / c, (a, b, c) = step(k), in
    place on three rotating buffers of x's shape: it holds three such arrays
    at its peak and overwrites a yielded array two steps later.  x is only
    read, so the oracle's row block keeps its points, and is not checked:
    the oracle evaluates once per row block, and a NaN point gives NaN."""
    prev = np.ones_like(x)
    yield prev
    if n == 0:
        return
    # out= keeps a 0-d result an array, not a numpy scalar, for the steps below to write into
    cur = np.multiply(first, x, out=np.empty_like(x))
    yield cur
    nxt = np.empty_like(x)
    for k in range(2, n + 1):
        a, b, c = step(k)
        np.multiply(a, x, out=nxt)
        nxt *= cur
        prev *= b
        nxt -= prev
        if c != 1.0:
            nxt /= c
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _basis(lam: float, n: int, x):
    """_recurrence for C_n^lam, n C_n = 2 (n + lam - 1) x C_(n-1) - (n + 2 lam
    - 2) C_(n-2) with C_1 = 2 lam x, and at lam = 0 for the limit basis T_n =
    2 x T_(n-1) - T_(n-2), T_1 = x: (lam + n) Gamma(lam) C_n^lam -> 2 T_n, n >= 1."""
    x = np.asarray(x, dtype=float)
    if lam == 0.0:
        return _recurrence(x, n, 1.0, lambda k: (2.0, 1.0, 1.0))
    return _recurrence(x, n, 2.0 * lam, lambda k: (2.0 * (k + lam - 1.0), k + 2.0 * lam - 2.0, k))


def _last(terms):
    *_, p = terms
    return p if p.ndim else float(p)


def gegenbauer(lam: float, n: int, x):
    """Ultraspherical polynomial C_n^lam(x) for scalar or array x, and at
    lam = 0 its limit basis T_n(x) = cos(n arccos x), as gegenbauer_all."""
    check_above("lam", lam, -0.5)
    check_degree("n", n)
    return _last(_basis(lam, n, x))


def gegenbauer_all(lam: float, nmax: int, x) -> np.ndarray:
    """All degrees at once, T_n at lam = 0: shape (nmax+1,) + shape(x)."""
    check_above("lam", lam, -0.5)
    check_degree("nmax", nmax)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1,) + x.shape)
    for k, p in enumerate(_basis(lam, nmax, x)):
        out[k] = p
    return out


def gegenbauer_norm_sq(lam: float, n: int) -> float:
    """Squared L2 norm of C_n^lam under the weight (1-x^2)^(lam-1/2).

    Equals 2^(1-2 lam) pi Gamma(n+2 lam) / (n! (n+lam) Gamma(lam)^2), and
    at lam = 0 that of T_n: pi at n = 0, then pi / 2.
    """
    check_above("lam", lam, -0.5)
    check_degree("n", n)
    if lam == 0.0:
        return math.pi / min(n + 1, 2)
    return gamma_ratio(
        (n + 2.0 * lam,),
        (n + 1.0, lam, lam),
        scale_log=(1.0 - 2.0 * lam) * LN2 + LNPI,
    ) / (n + lam)


def u_prefactor(lam: float, n: int) -> float:
    """Normalization 2^(2 lam - 1) n! Gamma(lam) / Gamma(2 lam + n) of the
    weighted polynomial u_n^lam(s) = u_prefactor (1-s^2)^(lam-1/2) C_n^lam(s)
    that the sheared integrals take, and its limit 1 at lam = 0, where
    u_n^0 = T_n(s) (1-s^2)^(-1/2) for every n."""
    check_above("lam", lam, -0.5)
    check_degree("n", n)
    if lam == 0.0:
        return 1.0
    return gamma_ratio((n + 1.0, lam), (2.0 * lam + n,), scale_log=(2.0 * lam - 1.0) * LN2)


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x), by _recurrence:
    H_n = 2 x H_(n-1) - 2 (n - 1) H_(n-2), with H_1 = 2x."""
    check_degree("n", n)
    x = np.asarray(x, dtype=float)
    return _last(_recurrence(x, n, 2.0, lambda k: (2.0, 2.0 * (k - 1), 1.0)))


def _check_order(order) -> None:
    """Raise DomainError unless a rule's order is an integer >= 1."""
    check_degree("order", order)
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order!r}")


def gauss_jacobi_rules(alpha: list, beta: list, order: int):
    """Gaussian rules of one order for int_{-1}^{1} f(x) (1-x)^alpha
    (1+x)^beta dx, one per pair of the lists alpha and beta, as (nodes,
    weights) of one row per pair.  Exact for polynomial f of degree <=
    2 order - 1; alpha, beta > -1 finite.

    The Jacobi matrices of the monic polynomials orthogonal under the
    weights fill one zeroed (pairs, order, order) array, which one stacked
    eigh solves (Golub and Welsch, Math. Comp. 23, 1969).  Row 0's entries
    and the weight mass mu0 take float arithmetic per pair; rows k = 1, ...,
    order - 1 one (pairs, order - 1) array 2k + alpha + beta.
    """
    # per pair, as floats: the exponents, their sum, b^2 - a^2, row 0's
    # diagonal and squared off-diagonal, and mu0; a float's ** 2 is libm's
    # pow, which rounds otherwise than numpy's square
    head = []
    for a, b in zip(alpha, beta):
        check_above("alpha", a, -1.0)
        check_above("beta", b, -1.0)
        s = a + b
        head.append((
            a, b, s, b * b - a * a, (b - a) / (s + 2.0),
            4.0 * (a + 1.0) * (b + 1.0) / ((s + 2.0) ** 2 * (s + 3.0)),
            gamma_ratio((a + 1.0, b + 1.0), (s + 2.0,), scale_log=(s + 1.0) * LN2),
        ))
    _check_order(order)
    alpha, beta, s, diff, a0, b1, mu0 = np.array(head).T[:, :, None]  # (pairs, 1) each
    n = order
    jac = np.zeros((len(head), n, n))
    flat = jac.reshape(len(head), -1)  # entry (j, l) at [:, j n + l]
    flat[:, :1] = a0
    if n > 1:
        k = np.arange(1.0, n)
        two = 2.0 * k + s
        flat[:, n + 1 :: n + 1] = diff / (two * (two + 2.0))
        b = np.empty_like(two)  # squared subdiagonal entry (k, k-1)
        b[:, :1] = b1
        k, two = k[1:], two[:, 1:]
        b[:, 1:] = (
            4.0 * k * (k + alpha) * (k + beta) * (k + s)
            / (two * two * (two + 1.0) * (two - 1.0))
        )
        np.sqrt(b, out=b)
        flat[:, n :: n + 1] = b  # eigh reads the lower triangle
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, mu0 * vecs[:, 0, :] ** 2


def _read_only(nodes, weights):
    """A cached rule's (nodes, weights), which callers share, as read-only:
    each backed by immutable bytes, so its write flag cannot be set again."""
    return tuple(np.frombuffer(a.tobytes()) for a in (nodes, weights))


@lru_cache(maxsize=512)
def gauss_jacobi_rule(alpha: float, beta: float, order: int):
    """Gaussian rule for int_{-1}^{1} f(x) (1-x)^alpha (1+x)^beta dx:
    row 0 of gauss_jacobi_rules([alpha], [beta], order), cached."""
    nodes, weights = gauss_jacobi_rules([alpha], [beta], order)
    return _read_only(nodes[0], weights[0])


@lru_cache(maxsize=64)
def gauss_hermite_rule(order: int):
    """Gaussian rule for int f(x) exp(-x^2) dx over the real line, cached."""
    _check_order(order)
    return _read_only(*np.polynomial.hermite.hermgauss(order))
