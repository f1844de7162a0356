"""Independent numerical ground truth for the weighted singular integrals.

The kernels |s - x t|^p (and their one-sided parts) are integrated against
(1-s^2)^(lam-1/2) (1-t^2)^(mu-1/2) C_ell^lam(s) C_m^mu(t), the paper's
integrand (see QuadratureSpec), by iterated Gaussian quadrature: the
inner axis is split at the kernel line s = x t into pieces whose two
algebraic endpoints (the split point and the interval end) are folded
exactly into composite Jacobi rules on graded dyadic panels; the outer axis
uses the same graded composite rules.  Nothing here evaluates a closed form,
so agreement with the expansion module is a genuine cross-check.

The 2D kernel takes a vector of shears and sums one row per (shear, t-node):
an inner piece of length h is (smooth @ uw) times the row factor
h^(1+p+ws), so the 3D backend is one 2D call on all its outer shear nodes.
Rows are summed in blocks of at most _CHUNK entries, each computed in
place.  A block builds its points s, takes the polynomial of s, then turns
s's own buffer into the weight factor and multiplies.  So it holds four
temporaries of _CHUNK entries at once, s and the three buffers the
polynomial recurrence rotates through: at most 252 KB (248 KB measured by
tracemalloc), under glibc malloc's default trim threshold plus top pad
(128 KB + 128 KB), and each under the 128 KB mmap threshold.  So
consecutive blocks reuse the same heap pages instead of trimming them away
and faulting them back in.

At |x| = 1 the split line runs into two corners of the square, where the
split point meets the far weight end.  There each half takes _corner_rule's
four tensor Gauss-Jacobi pieces instead, the corner cut in two by a Duffy
map, so every algebraic factor is folded and the rules converge
exponentially in the panel order.

Every backend is a rung function, rung k sized from _ladder(k) (panel order
8 + 3k, 6 + 5k dyadic grading levels), and _refine applies one stopping rule
to all: stop at the first rung that agrees with the one before to the target.
A 2D integral takes ~13k nodes at rung 0 and ~2.2M at rung 5 on the graded
rules, and 4 (8 + 3k)^2 per half on the corner pieces.  The deeper grading
of later rungs is for endpoint factors the graded rules do not fold, such as
(1 - x t)^(1+p+ws) on the outer axis when |x| is near 1 but not 1.  The
finite-part backend evaluates its convolution profile, which is even, at |u|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .orthopoly import chebyshev, gauss_hermite_rule, gauss_jacobi_rule, gegenbauer, hermite
from .specfun import ConvergenceError, DomainError, check_above, check_degree, check_points

#: Each kernel's halves as (sign, weight): the plus half lies above the split
#: line s = x t (sign 1), the minus half below it (sign -1).
_HALVES = {
    "plus": ((1.0, 1.0),),
    "minus": ((-1.0, 1.0),),
    "abs": ((1.0, 1.0), (-1.0, 1.0)),
    "abssgn": ((1.0, 1.0), (-1.0, -1.0)),
}
KERNELS = tuple(_HALVES)


class OracleConvergenceError(ConvergenceError):
    """Refinement exhausted without meeting the requested target; value is
    the last rung's, est_error its distance from the rung before."""

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
    estimated from the rung before (the finite part adds a noise floor),
    and the evaluations of every rung."""

    value: float
    est_error: float
    evaluations: int
    level: int


@lru_cache(maxsize=512)
def _unit_rule(a0: float, a1: float, levels: int, order: int):
    """Composite rule: int_0^1 u^a0 (1-u)^a1 g(u) du ~= sum w_j g(u_j).

    Graded dyadic panels toward both endpoints.  The panel touching an
    endpoint folds that endpoint's exponent into a Gauss-Jacobi rule; all
    other algebraic factors are absorbed into the weights numerically, which
    is accurate because panel width never exceeds its distance to the other
    singular endpoint.
    """
    cuts = np.array([0.5 * 2.0**-k for k in range(levels, -1, -1)])
    legendre = gauss_jacobi_rule(0.0, 0.0, order)
    # Every interior panel [lo, hi] takes the same Legendre rule, so both
    # sides share one (panel x node) grid of its nodes and weights.
    lo = cuts[:-1, None]
    half = 0.5 * (cuts[1:, None] - lo)
    u_in = lo + half * (1.0 + legendre.nodes)
    w_in = legendre.weights * half
    h = cuts[0]  # the endpoint panel [0, h]
    pieces = []
    for a_here, a_far, flip in ((a0, a1, False), (a1, a0, True)):
        base = gauss_jacobi_rule(0.0, a_here, order)
        u = np.concatenate((h * 0.5 * (1.0 + base.nodes), u_in.ravel()))
        w = np.concatenate(
            (base.weights * (0.5 * h) ** (1.0 + a_here), (w_in * u_in**a_here).ravel())
        )
        w *= (1.0 - u) ** a_far
        pieces.append((1.0 - u, w) if flip else (u, w))
    nodes = np.concatenate([p[0] for p in pieces])
    weights = np.concatenate([p[1] for p in pieces])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _interval_rule(a: float, b: float, exp_a: float, exp_b: float, levels: int, order: int):
    """Rule for int_a^b (u-a)^exp_a (b-u)^exp_b g(u) du = sum w g(u)."""
    u, w = _unit_rule(exp_a, exp_b, levels, order)
    h = b - a
    return a + h * u, w * h ** (1.0 + exp_a + exp_b)


_MAX_LEVEL = 5
_MAX_LEVEL_3D = 3  # each 3D rung is 16 (k + 2) 2D integrals at rung k


def _ladder(level: int):
    """(panel order, grading levels) of ladder rung `level`; see the module
    docstring."""
    return 8 + 3 * level, 6 + 5 * level


def _refine(rung, target: float, max_level: int) -> QuadResult:
    """The stopping rule over rung(k) -> (value, evaluations), k = 0, 1, ...:
    return the first rung within target of the one before it, or raise
    OracleConvergenceError when rung max_level is not."""
    check_above("target", target, 0.0)
    value, evals = rung(0)
    for level in range(1, max_level + 1):
        prev = value
        value, e = rung(level)
        evals += e
        diff = abs(value - prev)
        if diff < target:
            return QuadResult(value, max(diff, 4e-16 * abs(value)), evals, level)
    raise OracleConvergenceError(
        f"no convergence to {target} within {max_level} refinements",
        value=value,
        est_error=diff,
    )


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


def _poly(lam: float, n: int, x):
    """C_n^lam(x), or T_n(x) at lam = 0: the factor QuadratureSpec takes."""
    return gegenbauer(lam, n, x) if lam else chebyshev(n, x)


def _eval_2d(spec: QuadratureSpec, xs, size: tuple):
    """(value at each shear in xs, evaluations) of the 2D kernel integral
    with (panel order, grading levels) = size: _unit_shear's corner pieces
    at the panel order for a shear of +-1, _graded's split rules otherwise."""
    xs = np.asarray(xs, dtype=float)
    unit = np.abs(xs) == 1.0
    values, evals = np.empty(xs.size), 0
    for i in np.flatnonzero(unit):
        values[i], e = _unit_shear(spec, xs[i], size[0])
        evals += e
    if not unit.all():
        values[~unit], e = _graded(spec, xs[~unit], size)
        evals += e
    return values, evals


def _graded(spec: QuadratureSpec, xs, size: tuple):
    """_eval_2d at shears inside (-1, 1) on the graded split rules."""
    order, levels = size
    lam, mu = spec.gegenbauer
    ell, m = spec.degrees
    ws, wt = lam - 0.5, mu - 0.5

    tn, tw = _interval_rule(-1.0, 1.0, wt, wt, levels, order)
    if m:
        tw = tw * _poly(mu, m, tn)
    evals = xs.size * tn.size

    p = spec.kernel_exponent
    u, uw = _unit_rule(p, ws, levels, order)
    s0 = np.outer(xs, tn).ravel()  # one row per (shear, t-node)
    rows = np.zeros(s0.size)
    for sign, weight in _HALVES[spec.kernel]:
        h = 1.0 - sign * s0  # s = s0 + sign h u sweeps from the split to sign 1

        def block(r):
            s = (sign * h[r, None]) * u
            s += s0[r, None]
            poly = _poly(lam, ell, s) if ell else None
            s *= sign  # s's buffer becomes (1 + sign s)^ws
            s += 1.0
            s **= ws
            if ell:
                s *= poly
            return s @ uw

        part = _chunked_rows(s0.size, u.size, block) * h ** (1.0 + p + ws)
        rows += weight * part
        evals += s0.size * u.size
    return rows.reshape(xs.size, tn.size) @ tw, evals


def _folded_rule(lo: float, hi: float, e_lo: float, e_hi: float, order: int):
    """Nodes y and weights w with int_lo^hi g(y) dy ~= sum w g(y) for g =
    (y - lo)^e_lo (hi - y)^e_hi times a smooth function: the Gauss-Jacobi
    rule that folds both factors, its weights divided by them at the nodes."""
    rule = gauss_jacobi_rule(e_hi, e_lo, order)
    h = 0.5 * (hi - lo)
    y = lo + h * (1.0 + rule.nodes)
    return y, rule.weights * h ** (1.0 + e_lo + e_hi) / ((y - lo) ** e_lo * (hi - y) ** e_hi)


def _corner_rule(p: float, ws: float, wt: float, order: int):
    """Nodes (t, s) and weights w with sum w g(s, t) ~= int_{-1}^1
    int_t^1 (s - t)^p (1-s^2)^ws (1-t^2)^wt g(s, t) ds dt, the plus half of
    the unit-shear integral, for polynomial g.

    With tau = 1 + t and s = t + (1 - t) u the integrand is
    (2-tau)^a tau^wt u^p (1-u)^ws (tau + (2-tau) u)^ws, a = 1 + p + ws + wt,
    and only its last factor is not separable, at (tau, u) = (0, 0).  Four
    tensor pieces cover [0, 2] x [0, 1]: tau in [1, 2] by u in [0, 1]; tau
    in [0, 1] by u in [1/2, 1]; and the corner [0, 1] x [0, 1/2], cut along
    u = tau / 2 and mapped by u = tau v / 2 below the cut and tau = 2 u v
    above it (Duffy, SIAM J. Numer. Anal. 19, 1982), where a is the radial
    exponent.  Each rule folds the piece's endpoint factors, so what is
    left is smooth and the rules converge exponentially in the order.
    """
    a = 1.0 + p + ws + wt
    check_above("corner exponent 1 + p + ws + wt", a, -1.0)
    rule = partial(_folded_rule, order=order)

    def tensor(x_rule, y_rule):
        (x, wx), (y, wy) = x_rule, y_rule
        return np.repeat(x, order), np.tile(y, order), np.outer(wx, wy).ravel()

    tau1, u1, w1 = tensor(rule(1.0, 2.0, 0.0, a), rule(0.0, 1.0, p, ws))
    tau2, u2, w2 = tensor(rule(0.0, 1.0, wt, 0.0), rule(0.5, 1.0, 0.0, ws))
    tau3, v3, w3 = tensor(rule(0.0, 1.0, a, 0.0), rule(0.0, 1.0, p, 0.0))
    u4, v4, w4 = tensor(rule(0.0, 0.5, a, 0.0), rule(0.0, 1.0, wt, 0.0))
    tau = np.concatenate((tau1, tau2, tau3, 2.0 * u4 * v4))
    u = np.concatenate((u1, u2, 0.5 * tau3 * v3, u4))
    w = np.concatenate((w1, w2, 0.5 * tau3 * w3, 2.0 * u4 * w4))  # times the Jacobians
    w *= (2.0 - tau) ** a * tau**wt * u**p * (1.0 - u) ** ws * (tau + (2.0 - tau) * u) ** ws
    t = tau - 1.0
    return t, t + (2.0 - tau) * u, w


def _unit_shear(spec: QuadratureSpec, x: float, order: int):
    """(value, evaluations) of the 2D integral at shear x = +-1 on
    _corner_rule's nodes in (s, x t).  The minus half is the plus half of
    the reflection (s, x t) -> (-s, -x t), so it takes the same weights and
    evaluates its polynomials at the reflected nodes."""
    lam, mu = spec.gegenbauer
    ell, m = spec.degrees
    t, s, w = _corner_rule(spec.kernel_exponent, lam - 0.5, mu - 0.5, order)
    value, evals = 0.0, 0
    for sign, weight in _HALVES[spec.kernel]:
        f = w
        if ell:
            f = f * _poly(lam, ell, sign * s)
        if m:
            f = f * _poly(mu, m, (sign * x) * t)
        value += weight * float(f.sum())
        evals += w.size
    return value, evals


def _eval_3d(spec: QuadratureSpec, level: int):
    """Outer integral over the extra axis of 2D values at shear sqrt(y).

    Substituting y = x^2 turns the weight y^alpha (1-y)^beta dy into
    2 x^(2 alpha + 1) (1-x)^beta (1+x)^beta dx on [0, 1]; the 2D value as a
    function of the shear x is smooth there, so a short composite rule in x
    suffices.  Both axes grow with the rung: at rung k the outer rule has
    1 + k grading levels at panel order 8 (16 (k + 2) shears: 32, 48, 64,
    ...), and the inner 2D stage takes the 2D path's rung _ladder(k).
    """
    alpha, beta_ = spec.extra_axis
    xn, xw = _interval_rule(0.0, 1.0, 2.0 * alpha + 1.0, beta_, 1 + level, 8)
    values, evals = _eval_2d(spec, xn, _ladder(level))
    return 2.0 * float((xw * (1.0 + xn) ** beta_) @ values), evals


def refine_until(spec: QuadratureSpec, target: float) -> QuadResult:
    """The spec's integral, refined until two consecutive rungs agree to
    target, within _MAX_LEVEL rungs in 2D and _MAX_LEVEL_3D in 3D; see
    _refine."""
    if spec.extra_axis is not None:
        return _refine(partial(_eval_3d, spec), target, _MAX_LEVEL_3D)

    def rung(level: int):
        values, evals = _eval_2d(spec, [spec.x_shear], _ladder(level))
        return float(values[0]), evals

    return _refine(rung, target, _MAX_LEVEL)


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
        gh = gauss_hermite_rule(4 * order)
        u, uw = _unit_rule(2.0 * nu, 0.0, levels, order)
        s0 = x * gh.nodes
        reach = np.abs(s0) + 9.0
        outer = gh.weights * hermite(m, gh.nodes)
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
        return total, 2 * s0.size * u.size

    return _refine(rung, target, _MAX_LEVEL)


def convolution_profile(exp_s: float, exp_t: float, u, size: tuple):
    """(G(u), evaluations) for an array u, where G(u) = int (1-s^2)^exp_s
    (1-(s-u)^2)^exp_t ds over the overlap, with (panel order, grading levels)
    = size.  G is even, so it is evaluated at |u|: the overlap [|u|-1, 1]
    folds one algebraic endpoint of each factor into the rule, and the other
    two lie outside it."""
    order, levels = size
    v, wv = _unit_rule(exp_t, exp_s, levels, order)
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
    amplifies, so est_error is the larger of their difference and the
    stopping rung's noise floor 4 * 2 eps sum w (|G(u)| + |G(0)|) / u^2 over
    the rule: eps per value under the sum's front factor 2, with a safety
    factor 4.  That estimate is tested for lam, mu in [0.9, 2]; below lam
    or mu = 1/2 it can miss the error.
    """
    check_above("lam", lam, -0.5)
    check_above("mu", mu, -0.5)
    if not lam + mu > 1.0:
        raise DomainError("requires lam + mu > 1")
    exp_s, exp_t = lam - 0.5, mu - 0.5
    floors = []  # noise floor of each rung, by level

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
        floors.append(4.0 * 2.0 * np.finfo(float).eps * noise)
        return total, evals

    result = _refine(rung, target, _MAX_LEVEL)
    return replace(result, est_error=max(result.est_error, floors[result.level]))
