"""Independent numerical ground truth for the weighted singular integrals.

The kernels |s - x t|^p (and their one-sided parts) are integrated against
(1-s^2)^(lam-1/2) (1-t^2)^(mu-1/2) C_ell^lam(s) C_m^mu(t), the paper's
integrand (see QuadratureSpec), by tensor Gaussian quadrature.  Nothing
here evaluates a closed form, so agreement with the expansion module is a
genuine cross-check.

A 2D integral is its plus half at |x|, signed per half, on one geometric
mesh toward the two corners where the integrand nears its singularities:
the hp mesh of Schwab (p- and hp-Finite Element Methods, 1998), with a
Duffy map at the vertex (SIAM J. Numer. Anal. 19, 1982); see _mesh.  Every
piece folds the factors that vanish on its own edges, so the rules converge
exponentially in the panel order at every shear; one stacked Golub-Welsch
eigensolve gives every rule of a rung's mesh.  The mesh is summed in
blocks of rows of panel-order width, at most _CHUNK entries, each computed
in place: a block holds at most four temporaries of _CHUNK entries at once,
as when the points s and the recurrence's three buffers are all live.
That is at most 252 KB, under glibc malloc's default trim threshold plus
top pad (128 KB + 128 KB), each under the 128 KB mmap threshold, so
consecutive blocks reuse the same heap pages instead of trimming them away
and faulting them back in.

Every backend is a rung function, rung k sized from _ladder(k) (panel order
8 + 3k, 6 + 5k dyadic grading levels) giving (value, evaluations, noise
floor), and _refine alone certifies: it stops at the first rung that agrees
with the one before to the target, at an estimate of at least the floor.
2D and 3D share one rung, whose 2D mesh reads the panel order alone;
_interval_rule's graded rules, built on each call from the cached one-pair
Gauss-Jacobi rules, serve the 3D outer axis and the Hermite and finite-part
backends.  The finite part evaluates its convolution profile, which is even,
at |u|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .orthopoly import (
    gauss_hermite_rule, gauss_jacobi_rule, gauss_jacobi_rules, gegenbauer, hermite)
from .specfun import ConvergenceError, DomainError, check_above, check_degree, check_points

#: Each kernel's weights on its halves (plus, minus): the plus half lies
#: above the split line s = x t, the minus half below it.
_HALVES = {"plus": (1.0, 0.0), "minus": (0.0, 1.0), "abs": (1.0, 1.0), "abssgn": (1.0, -1.0)}
KERNELS = tuple(_HALVES)


class OracleConvergenceError(ConvergenceError):
    """Refinement that did not meet the requested target; value is the
    last rung's, est_error its estimate."""

    def __init__(self, message: str, value: float, est_error: float):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


@dataclass(frozen=True)
class QuadratureSpec:
    """Description of a weighted kernel integral over [-1,1]^2.

    The integrand is K(s - x t) (1-s^2)^(lam-1/2) (1-t^2)^(mu-1/2)
    C_ell^lam(s) C_m^mu(t) where K is selected by `kernel` with exponent
    `kernel_exponent`, x is x_shear in [-1, 1], (lam, mu) = gegenbauer and
    (ell, m) = degrees; "plus" and "minus" keep s > x t and s < x t.  At a
    parameter 0 the factor is the Chebyshev T_n under the Chebyshev weight.
    Setting extra_axis = (alpha, beta) makes the integral 3D: a third
    variable y weighted by y^alpha (1-y)^beta on [0, 1] sets the shear to
    sqrt(y), so x_shear must stay 0.
    """

    kernel: str
    kernel_exponent: float = 0.0
    x_shear: float = 0.0
    gegenbauer: tuple = (0.5, 0.5)
    degrees: tuple = (0, 0)
    extra_axis: tuple | None = None

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise DomainError(f"unknown kernel {self.kernel!r}")
        check_above("kernel exponent", self.kernel_exponent, -1.0)
        for name in ("gegenbauer", "degrees", "extra_axis"):
            pair = getattr(self, name)
            if pair is not None and len(pair) != 2:
                raise DomainError(f"{name} takes two entries, got {pair!r}")
        for lam, n in zip(self.gegenbauer, self.degrees):
            check_above("Gegenbauer parameter", lam, -0.5)
            check_degree("degree", n)
        if self.extra_axis is not None:
            for a in self.extra_axis:
                check_above("extra_axis exponent", a, -1.0)
        check_points("x_shear", self.x_shear, 1.0)
        if self.extra_axis is not None and self.x_shear != 0.0:
            raise DomainError("extra_axis sets the shear: it takes no x_shear")


@dataclass(frozen=True)
class QuadResult:
    """The value of the rung where refinement stopped (level), its error
    estimated from the rung before and at least the rung's noise floor, and
    the evaluations of every rung."""

    value: float
    est_error: float
    evaluations: int
    level: int


def _interval_rule(a: float, b: float, exp_a: float, exp_b: float, levels: int, order: int):
    """Composite rule: int_a^b (u-a)^exp_a (b-u)^exp_b g(u) du ~= sum w_j g(u_j).

    Graded dyadic panels toward both endpoints, built on [0, 1] and moved to
    [a, b]; at (a, b) = (0, 1) the move is exact.  The panel touching an
    endpoint folds that endpoint's exponent into a Gauss-Jacobi rule; all
    other algebraic factors are absorbed into the weights numerically, which
    is accurate because panel width never exceeds its distance to the other
    singular endpoint.
    """
    cuts = np.array([0.5 * 2.0**-k for k in range(levels, -1, -1)])
    x, w = gauss_jacobi_rule(0.0, 0.0, order)
    # Every interior panel [lo, hi] takes the same Legendre rule, so both
    # sides share one (panel x node) grid of its nodes and weights.
    lo = cuts[:-1, None]
    half = 0.5 * (cuts[1:, None] - lo)
    u_in = lo + half * (1.0 + x)
    w_in = w * half
    h = cuts[0]  # the endpoint panel [0, h]
    pieces = []
    for a_here, a_far, flip in ((exp_a, exp_b, False), (exp_b, exp_a, True)):
        z, wz = gauss_jacobi_rule(0.0, a_here, order)
        u = np.concatenate((h * 0.5 * (1.0 + z), u_in.ravel()))
        w = np.concatenate((wz * (0.5 * h) ** (1.0 + a_here), (w_in * u_in**a_here).ravel()))
        w *= (1.0 - u) ** a_far
        pieces.append((1.0 - u, w) if flip else (u, w))
    u, w = (np.concatenate(a) for a in zip(*pieces))
    return a + (b - a) * u, w * (b - a) ** (1.0 + exp_a + exp_b)


_MAX_LEVEL = 5
_MAX_LEVEL_3D = 3  # each 3D rung is 16 (k + 2) 2D integrals at rung k


def _ladder(level: int):
    """(panel order, grading levels) of ladder rung `level`; see the module
    docstring."""
    return 8 + 3 * level, 6 + 5 * level


def _refine(rung, target: float, max_level: int) -> QuadResult:
    """The stopping rule over rung(k) -> (value, evaluations, floor), k = 0,
    1, ...: return the first rung within target of the one before it, the
    estimate at least its floor and 4e-16 |value|, as rungs that agree closer
    certify no more; raise OracleConvergenceError when rung max_level is not,
    or when the floor is not within target."""
    check_above("target", target, 0.0)
    value, evals, _ = rung(0)
    for level in range(1, max_level + 1):
        prev = value
        value, e, floor = rung(level)
        evals += e
        diff = abs(value - prev)
        if diff < target:
            floor = max(floor, 4e-16 * abs(value))
            est = max(diff, floor)
            if not est < target:
                raise OracleConvergenceError(
                    f"noise floor {floor:.3g} exceeds {target}", value, est)
            return QuadResult(value, est, evals, level)
    raise OracleConvergenceError(
        f"no convergence to {target} within {max_level} refinements", value, diff)


# float64 entries per row block temporary: 63 KB, four of them 252 KB, which
# leaves 4 KB of the 256 KB for the block's row-sized arrays; see the module
# docstring
_CHUNK = 8064


def _chunked_rows(n: int, width: int, block):
    """Fill n row values from block(rows slice), each block spanning at most
    _CHUNK entries of an (n, width) array."""
    out = np.empty(n)
    step = max(1, _CHUNK // width)
    for i in range(0, n, step):
        out[i : i + step] = block(slice(i, i + step))
    return out


def _eval_2d(spec: QuadratureSpec, xs, order: int):
    """(value at each shear in xs, evaluations) of the 2D kernel integral on
    _mesh at panel order `order`: the plus half at |x|, signed per half, as
    the reflections (s, t) -> (-s, -t) and t -> -t take C_n(y) to C_n(-y) =
    (-1)^n C_n(y)."""
    xs = np.asarray(xs, dtype=float).tolist()
    lam, (ell, m) = spec.gegenbauer[0], spec.degrees
    ws = lam - 0.5
    power = 1.0 + spec.kernel_exponent + ws
    plus, minus = _HALVES[spec.kernel]
    # (L, unit) per shear: the fewest L with 2^-L <= 1 - |x|, 0 at |x| = 1
    keys = [(0, True) if abs(x) == 1.0 else (max(1 - math.frexp(1.0 - abs(x))[1], 0), False)
            for x in xs]
    mesh, tips = _mesh(spec, order, max(keys)[0], set(keys))
    values, evals = np.zeros(len(xs)), 0
    for i, (x, (k, unit)) in enumerate(zip(xs, keys)):
        sign = (plus + minus * (-1) ** (ell + m)) * (-1) ** (m * (x < 0.0))
        x, d = abs(x), 1.0 - abs(x)
        main, tip = order * (1 + 3 * k), tips[k, unit]
        spans = [(0, main), (tip, tip + 3 * order)] if tip > main else [(0, tip + 3 * order)]
        for lo, hi in spans:
            tau, sigma, u, w = (a[lo:hi] for a in mesh)

            def block(r):
                if ell:
                    s = (sigma[r] * x + d) * u[r] + tau[r] * x + (d - 1.0)  # x t + (1 - x t) u
                    poly = gegenbauer(lam, ell, s)
                q = np.multiply(sigma[r], x, out=s if ell else None)  # s's buffer, if any
                q += d  # 1 - x t
                f = tau[r] * x + d
                f += q * u[r]  # 1 + s
                q **= power
                f **= ws
                q *= f
                q *= w[r] * poly if ell else w[r]
                return q.sum(axis=1)

            values[i] += sign * _chunked_rows(hi - lo, order, block).sum()
            evals += (hi - lo) * order
    return values, evals


def _grid(rows, inner):
    """The tensor rule rows x inner as (row, inner node) arrays of nodes y,
    z and weights."""
    (y, wy), (z, wz) = rows, inner
    return y[:, None].repeat(z.size, 1), z[None, :].repeat(y.size, 0), wy[:, None] * wz


def _scaled(scales, band, box):
    """Nodes (tau, sigma, u) and weights of a band, sigma = 2 - tau scaled by
    c and u not, then a box, tau and u scaled by c, at each scale c in
    scales, as rows of one array each."""
    c, (y, z, w), (y2, z2, w2) = np.asarray(scales)[:, None, None], band, box
    sigma, tau = c * y, c * y2
    parts = ((2.0 - sigma, tau), (sigma, 2.0 - tau),
             (z[None].repeat(c.size, 0), c * z2), (c * w, c * c * w2))
    return [np.concatenate(a, axis=1).reshape(-1, y.shape[1]) for a in parts]


def _mesh(spec: QuadratureSpec, order: int, layers: int, tips):
    """The plus half's mesh at panel order `order`: nodes (tau, sigma, u) and
    weights, times the shear-free factors and C_m(t), as rows of `order`
    entries, and the first row of the tip of each (L, unit) in tips.

    With tau = 1 + t, sigma = 1 - t and s = x t + (1 - x t) u the plus half
    is an integral over [0, 2] x [0, 1] whose factors tau^wt, sigma^wt, u^p
    and (1-u)^ws vanish on its edges, and whose (x sigma + delta)^(1+p+ws)
    and (1 + s)^ws vanish about delta = 1 - x beyond its corners tau = 2 and
    (tau, u) = (0, 0).  The upper piece is tau in [0, 1] by u in [1/2, 1].
    Layer k at c = 2^-k is a band, sigma in [c/2, c] by u in [0, 1], and an
    L-shape, tau in [c/2, c] by u in [0, c/2] and tau in [0, c/2] by u in
    [c/4, c/2]; a shear with L layers takes the first order (1 + 3 L) rows.
    Its tip's 3 order rows at h = 2^-L <= delta are the band sigma in [0, h]
    and the box [0, h] x [0, h/2], cut along u = tau / 2 and mapped by u =
    tau v / 2 and tau = 2 u v.  At delta = 0, L = 0 and the tip folds the
    near-singular factors, exact powers there, into its exponents.  All the
    pieces' Gauss-Jacobi rules come from one gauss_jacobi_rules call, one
    stacked eigensolve, built anew on each call.
    """
    p, (lam, mu) = spec.kernel_exponent, spec.gegenbauer
    ws, wt = lam - 0.5, mu - 0.5
    units = sorted({unit for _, unit in tips})
    radials = [1.0 + p + wt + (ws if unit else 0.0) for unit in units]
    for radial in radials:
        check_above("corner exponent", radial, -1.0)
    # (lo, e_lo, e_hi) of each rule for int_lo^1 g(y) dy with g = (y - lo)^e_lo
    # (1 - y)^e_hi times a smooth function: the Gauss-Jacobi rule that folds
    # both factors, its weights divided by them at the nodes
    folds = [(0.0, wt, 0.0), (0.0, p, 0.0), (0.0, p, ws), (0.5, 0.0, ws)]
    if layers:
        folds.append((0.5, 0.0, 0.0))  # the layers' Legendre rule
    folds += [(0.0, r, 0.0) for r in radials]
    lo, e_los, e_his = (list(a) for a in zip(*folds))
    x, w = gauss_jacobi_rules(e_his, e_los, order)
    lo = np.array(lo)[:, None]
    h, above, below = 0.5 * (1.0 - lo), 1.0 + x, 1.0 - x
    folded = np.ones_like(x)
    for row, a, b, e_lo, e_hi in zip(folded, above, below, e_los, e_his):
        # a float exponent per row: numpy takes x ** 2 and x ** 0.5 as square
        # and sqrt, and an array of exponents by pow, which rounds otherwise;
        # a zero exponent's factor is 1
        if e_lo:
            row *= a**e_lo
        if e_hi:
            row *= b**e_hi
    fold_t, fold_p, fold_pws, upper, *rest = zip(lo + h * above, h * w / folded)
    half = partial(np.multiply, 0.5)  # a rule on [lo, hi] moved to [lo / 2, hi / 2]
    y, u, w = _grid(fold_t, upper)
    parts = [(y, 2.0 - y, u, w)]  # the upper piece
    if layers:
        legendre = rest.pop(0)
        corner = [np.concatenate(a) for a in zip(_grid(legendre, half(fold_p)),
                                                 _grid(half(fold_t), half(legendre)))]
        band = _grid(legendre, fold_pws)
        parts.append(_scaled(2.0 ** -np.arange(layers), band, corner))
    first, start = {}, order * (1 + 3 * layers)
    for unit, fold_r in zip(units, rest):
        ks = sorted((k for k, u in tips if u == unit), reverse=True)
        (y, v, w), (y2, v2, w2) = _grid(fold_r, fold_p), _grid(half(fold_r), fold_t)
        duffy = [  # tau, u and weights times the Jacobians, below and above the cut
            np.concatenate(a)
            for a in ((y, 2.0 * y2 * v2), (0.5 * y * v, y2), (0.5 * y * w, 2.0 * y2 * w2))]
        band = _grid(fold_r if unit else fold_t, fold_pws)
        parts.append(_scaled(2.0 ** -np.array(ks), band, duffy))
        for k in ks:
            first[k, unit], start = start, start + 3 * order
    tau, sigma, u, w = (np.concatenate(a) for a in zip(*parts))
    w *= (sigma * tau) ** wt * u**p * (1.0 - u) ** ws
    if spec.degrees[1]:
        w *= gegenbauer(mu, spec.degrees[1], tau - 1.0)
    return (tau, sigma, u, w), first


def _rung(spec: QuadratureSpec, level: int):
    """Rung `level` of the spec's integral, floor 0: 2D values at panel order
    _ladder(level)[0], weighted; in 2D the one value at x_shear.

    In 3D, the outer integral over the extra axis at shear sqrt(y): y = x^2
    turns y^alpha (1-y)^beta dy into 2 x^(2 alpha + 1) (1-x)^beta (1+x)^beta
    dx on [0, 1], where the 2D value is smooth in x, so a short composite
    rule suffices: 1 + k grading levels at panel order 8 at rung k (16 (k +
    2) shears: 32, 48, 64, ...).
    """
    if spec.extra_axis is None:
        xs, w = [spec.x_shear], np.ones(1)
    else:
        alpha, beta_ = spec.extra_axis
        xs, w = _interval_rule(0.0, 1.0, 2.0 * alpha + 1.0, beta_, 1 + level, 8)
        w = 2.0 * w * (1.0 + xs) ** beta_
    values, evals = _eval_2d(spec, xs, _ladder(level)[0])
    return float(w @ values), evals, 0.0


def refine_until(spec: QuadratureSpec, target: float) -> QuadResult:
    """The spec's integral, refined until two consecutive rungs agree to
    target, within _MAX_LEVEL rungs in 2D and _MAX_LEVEL_3D in 3D; see
    _refine."""
    cap = _MAX_LEVEL if spec.extra_axis is None else _MAX_LEVEL_3D
    return _refine(partial(_rung, spec), target, cap)


def integrate_hermite_2d(nu: float, x: float, ell: int, m: int, target: float) -> QuadResult:
    """int over R^2 of |s - x t|^(2 nu) e^(-s^2-t^2) H_ell(s) H_m(t) ds dt,
    refined until two consecutive rungs agree to target.

    Outer axis by Gauss-Hermite of four times the rung's panel order; the
    inner axis is split at s = x t with the kernel exponent folded into
    graded Jacobi panels, truncated where the Gaussian factor falls below
    ~1e-35.
    """
    check_above("nu", nu, 0.0)
    check_above("x", x, -np.inf)

    def rung(level: int):
        order, levels = _ladder(level)
        t, tw = gauss_hermite_rule(4 * order)
        u, uw = _interval_rule(0.0, 1.0, 2.0 * nu, 0.0, levels, order)
        s0 = x * t
        reach = np.abs(s0) + 9.0
        outer = tw * hermite(m, t)
        total = 0.0
        for sgn in (+1.0, -1.0):

            def block(r):
                s = (sgn * reach[r, None]) * u
                s += s0[r, None]
                poly = hermite(ell, s)
                s *= s  # s's buffer becomes exp(-s^2)
                np.negative(s, out=s)
                np.exp(s, out=s)
                s *= poly
                return s @ uw

            part = _chunked_rows(s0.size, u.size, block) * reach ** (1.0 + 2.0 * nu)
            total += float(outer @ part)
        return total, 2 * s0.size * u.size, 0.0

    return _refine(rung, target, _MAX_LEVEL)


def convolution_profile(exp_s: float, exp_t: float, u, size: tuple):
    """(G(u), evaluations) for an array u, where G(u) = int (1-s^2)^exp_s
    (1-(s-u)^2)^exp_t ds over the overlap, with (panel order, grading levels)
    = size.  G is even, so it is evaluated at |u|: the overlap [|u|-1, 1]
    folds one algebraic endpoint of each factor into the rule, and the other
    two lie outside it."""
    order, levels = size
    v, wv = _interval_rule(0.0, 1.0, exp_t, exp_s, levels, order)
    a = np.minimum(np.abs(np.asarray(u, dtype=float)), 2.0)

    def block(r):
        hv = (2.0 - a[r, None]) * v  # overlap length 2 - a; s = a - 1 + h v
        f = a[r, None] + hv
        f **= exp_s
        np.subtract(2.0, hv, out=hv)
        hv **= exp_t
        f *= hv
        return f @ wv

    out = _chunked_rows(a.size, v.size, block) * (2.0 - a) ** (1.0 + exp_s + exp_t)
    return out, a.size * v.size


def regularized_inverse_square(lam: float, mu: float, target: float) -> QuadResult:
    """Finite-part value of the inverse-square diagonal-kernel integral.

    Analytic continuation to kernel exponent -2 of
    int int |s-t|^p (1-s^2)^(lam-1/2) (1-t^2)^(mu-1/2) ds dt, which diverges for
    every parameter choice, computed through the (even) convolution profile
    G, zero from u = 2 on, with Taylor subtraction at u = 0; since
    FP int_0^2 u^-2 du = -1/2,

        FP = 2 int_0^2 (G(u) - G(0)) / u^2 du  -  G(0).

    Requires lam, mu > -1/2 and lam + mu > 1 so the subtracted
    remainder is integrable.  Refined until two consecutive rungs agree to
    target.  Those rungs share the rounding noise of G(u) - G(0), which u^-2
    amplifies, so each rung reports the noise floor 4 * 2 eps sum w (|G(u)| +
    |G(0)|) / u^2 over its rule, which _refine takes into est_error and
    requires within target: eps per value under the sum's front factor 2,
    with a safety factor 4.  That estimate is tested for lam, mu in [0.9, 2];
    below lam or mu = 1/2 it can miss the error.
    """
    check_above("lam", lam, -0.5)
    check_above("mu", mu, -0.5)
    if not lam + mu > 1.0:
        raise DomainError("requires lam + mu > 1")
    exp_s, exp_t = lam - 0.5, mu - 0.5

    def rung(level: int):
        size = _ladder(level + 2)
        # Grading depth near u = 0 trades the |u|^(lam+mu-2) remainder, whose
        # error falls only like 2^(1-lam-mu) per level, against u^-2
        # amplification of cancellation noise in G(u) - G(0); toward u = 2 the
        # same grading resolves G's (2-u)^(lam+mu) end.
        u, w = _interval_rule(0.0, 2.0, 0.0, 0.0, 13 + 2 * level, size[0])
        g, evals = convolution_profile(exp_s, exp_t, np.concatenate(([0.0], u)), size)
        g0, g = g[0], g[1:]
        sq = u * u
        total = 2.0 * float(w @ ((g - g0) / sq)) - g0
        noise = float(w @ ((np.abs(g) + abs(g0)) / sq))
        return total, evals, 4.0 * 2.0 * np.finfo(float).eps * noise

    return _refine(rung, target, _MAX_LEVEL)
