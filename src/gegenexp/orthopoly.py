"""Ultraspherical and Hermite polynomials plus Gaussian quadrature rules.

Polynomial evaluation uses the stable three-term recurrences; nodes and
weights come from the symmetric-tridiagonal (Golub-Welsch) eigenproblem
built on the Jacobi-weight recurrence coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import LN2, LNPI, DomainError, check_above, check_degree, gamma_ratio


def _check_lambda(lam: float) -> None:
    check_above("lam", lam, -0.5)
    if lam == 0.0:
        raise DomainError(f"ultraspherical parameter lam must be nonzero, got {lam!r}")


def gegenbauer(lam: float, n: int, x):
    """Ultraspherical polynomial C_n^lam(x) for scalar or array x.

    Recurrence: n C_n = 2 (n + lam - 1) x C_{n-1} - (n + 2 lam - 2) C_{n-2},
    seeded with C_0 = 1 and C_1 = 2 lam x.  It runs in place on three
    rotating buffers of x's shape, so a call holds three such arrays at its
    peak, and x is only read: the oracle's row block keeps using its points
    after this call.  The points x are not checked: the oracle calls this
    once per row block, and a NaN point gives NaN.
    """
    _check_lambda(lam)
    check_degree("n", n)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    # out= keeps a 0-d result an array, not a numpy scalar, for the steps below to write into
    cur = np.multiply(2.0 * lam, x, out=np.empty_like(x))
    nxt = np.empty_like(x)
    for k in range(2, n + 1):
        np.multiply(2.0 * (k + lam - 1.0), x, out=nxt)
        nxt *= cur
        prev *= k + 2.0 * lam - 2.0
        nxt -= prev
        nxt /= k
        prev, cur, nxt = cur, nxt, prev
    return cur if cur.ndim else float(cur)


def gegenbauer_all(lam: float, nmax: int, x) -> np.ndarray:
    """All degrees at once: array of shape (nmax+1,) + shape(x)."""
    _check_lambda(lam)
    check_degree("nmax", nmax)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2.0 * lam * x
    for k in range(2, nmax + 1):
        out[k] = (2.0 * (k + lam - 1.0) * x * out[k - 1] - (k + 2.0 * lam - 2.0) * out[k - 2]) / k
    return out


def gegenbauer_norm_sq(lam: float, n: int) -> float:
    """Squared L2 norm of C_n^lam under the weight (1-x^2)^(lam-1/2).

    Equals 2^(1-2 lam) pi Gamma(n+2 lam) / (n! (n+lam) Gamma(lam)^2).
    """
    _check_lambda(lam)
    check_degree("n", n)
    return gamma_ratio(
        (n + 2.0 * lam,),
        (n + 1.0, lam, lam),
        scale_log=(1.0 - 2.0 * lam) * LN2 + LNPI,
    ) / (n + lam)


def u_prefactor(lam: float, n: int) -> float:
    """Normalization 2^(2 lam - 1) n! Gamma(lam) / Gamma(2 lam + n) of the
    weighted polynomial u_n^lam(s) = u_prefactor (1-s^2)^(lam-1/2) C_n^lam(s)
    that the sheared integrals take, and its limit 1 at lam = n = 0, where
    the ratio reads Gamma(1) Gamma(0) / Gamma(0) and u_0^0 = (1-s^2)^(-1/2)."""
    check_above("lam", lam, -0.5)
    check_degree("n", n)
    if lam == 0.0 and n == 0:
        return 1.0
    return gamma_ratio((n + 1.0, lam), (2.0 * lam + n,), scale_log=(2.0 * lam - 1.0) * LN2)


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x).

    H_{n+1} = 2 x H_n - 2 n H_{n-1}, with H_0 = 1 and H_1 = 2x, run in place
    on three rotating buffers like gegenbauer's; x is only read.
    """
    check_degree("n", n)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = np.multiply(2.0, x, out=np.empty_like(x))
    nxt = np.empty_like(x)
    for k in range(1, n):
        np.multiply(2.0, x, out=nxt)
        nxt *= cur
        prev *= 2.0 * k
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    return cur if cur.ndim else float(cur)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a Gaussian rule; immutable and shareable."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # Rules are cached and shared, so callers get read-only views.
        for name in ("nodes", "weights"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)


def _check_order(order) -> None:
    """Raise DomainError unless a rule's order is an integer >= 1."""
    check_degree("order", order)
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order!r}")


def _jacobi_coefficients(alpha: float, beta: float, n: int):
    """Recurrence coefficients of monic polynomials orthogonal under
    (1-x)^alpha (1+x)^beta on [-1, 1], plus the total weight mass mu0."""
    s = alpha + beta
    a = np.zeros(n)
    b = np.zeros(n)
    a[0] = (beta - alpha) / (s + 2.0)
    mu0 = gamma_ratio((alpha + 1.0, beta + 1.0), (s + 2.0,), scale_log=(s + 1.0) * LN2)
    if n > 1:
        b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
        k = np.arange(1, n)
        two = 2.0 * k + s
        a[1:] = (beta * beta - alpha * alpha) / (two * (two + 2.0))
        if n > 2:
            k = np.arange(2, n)
            two = 2.0 * k + s
            b[2:] = (
                4.0 * k * (k + alpha) * (k + beta) * (k + s)
                / (two * two * (two + 1.0) * (two - 1.0))
            )
    return a, b, mu0


@lru_cache(maxsize=512)
def gauss_jacobi_rule(alpha: float, beta: float, order: int) -> QuadratureRule:
    """Gaussian rule for int_{-1}^{1} f(x) (1-x)^alpha (1+x)^beta dx.

    Exact for polynomial f of degree <= 2 order - 1; alpha, beta > -1 finite.
    """
    check_above("alpha", alpha, -1.0)
    check_above("beta", beta, -1.0)
    _check_order(order)
    a, b, mu0 = _jacobi_coefficients(alpha, beta, order)
    if order == 1:
        return QuadratureRule(np.array([a[0]]), np.array([mu0]))
    jac = np.diag(a) + np.diag(np.sqrt(b[1:]), 1) + np.diag(np.sqrt(b[1:]), -1)
    nodes, vecs = np.linalg.eigh(jac)
    weights = mu0 * vecs[0, :] ** 2
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=64)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gaussian rule for int f(x) exp(-x^2) dx over the real line."""
    _check_order(order)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(nodes, weights)
