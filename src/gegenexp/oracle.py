"""Independent numerical ground truth for the weighted singular integrals.

The kernels |s - x t|^p (and their one-sided parts) are integrated against
endpoint-weighted polynomial factors by iterated Gaussian quadrature: the
inner axis is split at the kernel line s = x t into pieces whose two
algebraic endpoints (the split point and the interval end) are folded
exactly into composite Jacobi rules on graded dyadic panels; the outer axis
uses the same graded composite rules.  Nothing here evaluates a closed form,
so agreement with the expansion module is a genuine cross-check.

The 2D kernel takes a vector of shears and sums one row per (shear, t-node):
an inner piece of length h is (smooth @ uw) times the row factor
h^(1+p+ws), so the 3D backend is one 2D call on all its outer shear nodes.
Rows are summed in blocks of at most _CHUNK entries.  A block holds about
seven temporaries of that size at once, most of them from the polynomial
recurrence: ~220 KB in all, under glibc malloc's default trim threshold
plus top pad (128 KB + 128 KB), and each under the 128 KB mmap threshold.
So consecutive blocks reuse the same heap pages instead of trimming them
away and faulting them back in.

Every backend is a rung function, rung k sized from _ladder(k) (panel order
8 + 3k, 6 + 5k dyadic grading levels), and _refine applies one stopping rule
to all: stop at the first rung that agrees with the one before to the target.
A 2D integral takes ~13k nodes at rung 0 and ~2.2M at rung 5; the deeper
grading of later rungs is for endpoint factors the rules do not fold, such as
(1 - x t)^(1+p+ws) on the outer axis when |x| is near 1.  The finite-part
backend evaluates its convolution profile, which is even, at |u|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .orthopoly import gauss_hermite_rule, gauss_jacobi_rule, gegenbauer, hermite
from .specfun import DomainError

KERNELS = ("none", "plus", "minus", "abs", "abssgn")


class OracleConvergenceError(RuntimeError):
    """Refinement exhausted without meeting the requested target; value is
    the last rung's, est_error its distance from the rung before."""

    def __init__(self, message: str, value: float, est_error: float):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


@dataclass(frozen=True)
class QuadratureSpec:
    """Description of a weighted kernel integral over [-1,1]^2.

    The integrand is K(s - x t) * (1-s^2)^ws * (1-t^2)^wt * P(s) * Q(t)
    where K is selected by `kernel` with exponent `kernel_exponent`, x is
    x_shear in [-1, 1] and (ws, wt) = weight_exponents; "plus" and "minus"
    keep s > x t and s < x t.  Setting extra_axis = (alpha, beta) makes the
    integral 3D: a third variable y weighted by y^alpha (1-y)^beta on [0, 1]
    sets the shear to sqrt(y), so x_shear must stay 0.
    """

    kernel: str = "none"
    kernel_exponent: float = 0.0
    x_shear: float = 0.0
    weight_exponents: tuple = (0.0, 0.0)
    polynomial_factors: tuple = (None, None)
    extra_axis: tuple | None = None

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise DomainError(f"unknown kernel {self.kernel!r}")
        if self.kernel != "none" and not -1.0 < self.kernel_exponent < np.inf:
            raise DomainError(
                f"kernel exponent must be finite and exceed -1, "
                f"got {self.kernel_exponent!r}"
            )
        for w in self.weight_exponents:
            if not -1.0 < w < np.inf:
                raise DomainError(
                    f"endpoint exponent must be finite and exceed -1, got {w!r}"
                )
        if not -1.0 <= self.x_shear <= 1.0:
            raise DomainError(f"x_shear must lie in [-1, 1], got {self.x_shear!r}")
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


def _poly(factor, arr):
    if factor is None:
        return np.ones_like(arr)
    kind = factor[0]
    if kind == "gegenbauer":
        _, lam, n = factor
        return gegenbauer(lam, n, arr)
    if kind == "monomial":
        _, n = factor
        return np.asarray(arr, dtype=float) ** n
    raise DomainError(f"unknown polynomial factor {factor!r}")


@lru_cache(maxsize=512)
def _unit_rule(a0: float, a1: float, levels: int, order: int):
    """Composite rule: int_0^1 u^a0 (1-u)^a1 g(u) du ~= sum w_j g(u_j).

    Graded dyadic panels toward both endpoints.  The panel touching an
    endpoint folds that endpoint's exponent into a Gauss-Jacobi rule; all
    other algebraic factors are absorbed into the weights numerically, which
    is accurate because panel width never exceeds its distance to the other
    singular endpoint.
    """
    cuts = [0.5 * 2.0**-k for k in range(levels, -1, -1)]
    legendre = gauss_jacobi_rule(0.0, 0.0, order)
    pieces = []
    for a_here, a_far, flip in ((a0, a1, False), (a1, a0, True)):
        lo = 0.0
        for hi in cuts:
            h = hi - lo
            if lo == 0.0:
                base = gauss_jacobi_rule(0.0, a_here, order)
                u = lo + h * 0.5 * (1.0 + base.nodes)
                w = base.weights * (0.5 * h) ** (1.0 + a_here) * (1.0 - u) ** a_far
            else:
                u = lo + h * 0.5 * (1.0 + legendre.nodes)
                w = legendre.weights * (0.5 * h) * u**a_here * (1.0 - u) ** a_far
            pieces.append((1.0 - u, w) if flip else (u, w))
            lo = hi
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


def _ladder(level: int):
    """(panel order, grading levels) of ladder rung `level`; see the module
    docstring."""
    return 8 + 3 * level, 6 + 5 * level


def _refine(rung, target: float, max_level: int) -> QuadResult:
    """The stopping rule over rung(k) -> (value, evaluations), k = 0, 1, ...:
    return the first rung within target of the one before it, or raise
    OracleConvergenceError when rung max_level is not."""
    if not target > 0.0:
        raise DomainError(f"target must be positive, got {target!r}")
    if not max_level >= 1:
        raise DomainError(f"max_level must be at least 1, got {max_level!r}")
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


_CHUNK = 1 << 12  # float64 entries per row block temporary: 32 KB; see the module docstring


def _chunked_rows(n: int, width: int, block):
    """Fill n row values from block(rows slice), each block spanning at most
    _CHUNK entries of an (n, width) array."""
    out = np.empty(n)
    step = max(1, _CHUNK // width)
    for i in range(0, n, step):
        out[i : i + step] = block(slice(i, i + step))
    return out


def _eval_2d(spec: QuadratureSpec, xs, size: tuple):
    """(value at each shear in xs, evaluations) of the 2D kernel integral
    with (panel order, grading levels) = size."""
    order, levels = size
    xs = np.asarray(xs, dtype=float)
    ws, wt = spec.weight_exponents
    ps, pt = spec.polynomial_factors

    tn, tw = _interval_rule(-1.0, 1.0, wt, wt, levels, order)
    tw = tw * _poly(pt, tn)
    evals = xs.size * tn.size

    if spec.kernel == "none":
        sn, sw = _interval_rule(-1.0, 1.0, ws, ws, levels, order)
        value = float(tw.sum() * (sw @ _poly(ps, sn)))
        return np.full(xs.size, value), evals + xs.size * sn.size

    p = spec.kernel_exponent
    u, uw = _unit_rule(p, ws, levels, order)
    s0 = np.outer(xs, tn).ravel()  # one row per (shear, t-node)
    rows = np.zeros(s0.size)
    # The plus half lies above the split, the minus half below it.
    for sign, other in ((1.0, "minus"), (-1.0, "plus")):
        if spec.kernel == other:
            continue
        h = 1.0 - sign * s0  # s = s0 + sign h u sweeps from the split to sign 1

        def block(r):
            s = s0[r, None] + (sign * h[r, None]) * u
            return ((1.0 + sign * s) ** ws * _poly(ps, s)) @ uw

        part = _chunked_rows(s0.size, u.size, block) * h ** (1.0 + p + ws)
        rows += -part if sign < 0.0 and spec.kernel == "abssgn" else part
        evals += s0.size * u.size
    return rows.reshape(xs.size, tn.size) @ tw, evals


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


def refine_until(
    spec: QuadratureSpec, target: float, max_level: int = _MAX_LEVEL
) -> QuadResult:
    """The spec's integral, refined until two consecutive rungs agree to
    target; see _refine."""

    def rung(level: int):
        if spec.extra_axis is not None:
            return _eval_3d(spec, level)
        values, evals = _eval_2d(spec, [spec.x_shear], _ladder(level))
        return float(values[0]), evals

    return _refine(rung, target, max_level)


def integrate_hermite_2d(nu: float, x: float, ell: int, m: int, target: float) -> QuadResult:
    """int over R^2 of |s - x t|^(2 nu) e^(-s^2-t^2) H_ell(s) H_m(t) ds dt,
    refined until two consecutive rungs agree to target.

    Outer axis by Gauss-Hermite of four times the rung's panel order; the
    inner axis is split at s = x t with the kernel exponent folded into
    graded Jacobi panels, truncated where the Gaussian factor falls below
    ~1e-35.
    """
    if not (nu > 0.0 and np.isfinite(x)):
        raise DomainError(f"requires nu > 0 and finite x, got nu={nu!r}, x={x!r}")

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
                s = s0[r, None] + (sgn * reach[r, None]) * u
                return (np.exp(-s * s) * hermite(ell, s)) @ uw

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
        return ((a[r, None] + hv) ** exp_s * (2.0 - hv) ** exp_t) @ wv

    out = _chunked_rows(a.size, v.size, block) * (2.0 - a) ** (1.0 + exp_s + exp_t)
    return out, a.size * v.size


def regularized_inverse_square(exp_s: float, exp_t: float, target: float) -> QuadResult:
    """Finite-part value of the inverse-square diagonal-kernel integral.

    Analytic continuation to kernel exponent -2 of
    int int |s-t|^p (1-s^2)^exp_s (1-t^2)^exp_t ds dt, computed through the
    (even) convolution profile G with Taylor subtraction at u = 0:

        FP = 2 int_0^1 (G(u) - G(0)) / u^2 du
             + 2 int_1^2 G(u) / u^2 du  -  2 G(0).

    Requires exp_s + exp_t > 0 so the subtracted remainder is integrable.
    The raw integral itself diverges for every parameter choice; this value
    is the one reached by meromorphic continuation in the kernel exponent.
    Refined until two consecutive rungs agree to target.  Those rungs share
    the rounding noise of G(u) - G(0), which u^-2 amplifies, so est_error is
    the larger of their difference and the stopping rung's noise floor
    4 * 2 eps sum w (|G(u)| + |G(0)|) / u^2 over the inner rule: eps per
    value under the sum's front factor 2, with a safety factor 4.
    """
    sigma = exp_s + exp_t
    if not sigma > 0.0:
        raise DomainError(f"finite part needs exp_s + exp_t > 0, got {sigma!r}")
    floors = []  # noise floor of each rung, by level

    def rung(level: int):
        size = _ladder(level + 2)
        # Grading depth near u = 0 trades the |u|^(sigma-1) remainder, whose
        # error falls only like 2^-sigma per level, against u^-2
        # amplification of cancellation noise in G(u) - G(0).
        u_in, w_in = _interval_rule(0.0, 1.0, 0.0, 0.0, 12 + 2 * level, size[0])
        u_out, w_out = _interval_rule(1.0, 2.0, 0.0, 0.0, 20, size[0])
        g, evals = convolution_profile(
            exp_s, exp_t, np.concatenate(([0.0], u_in, u_out)), size
        )
        g0, g_in, g_out = g[0], g[1 : 1 + u_in.size], g[1 + u_in.size :]
        sq_in = u_in * u_in
        total = -2.0 * g0
        total += 2.0 * float(w_in @ ((g_in - g0) / sq_in))
        total += 2.0 * float(w_out @ (g_out / (u_out * u_out)))
        noise = float(w_in @ ((np.abs(g_in) + abs(g0)) / sq_in))
        floors.append(4.0 * 2.0 * np.finfo(float).eps * noise)
        return total, evals

    result = _refine(rung, target, _MAX_LEVEL)
    return replace(result, est_error=max(result.est_error, floors[result.level]))
