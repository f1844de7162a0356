"""Scalar special-function kernels.

The rule that a degree or order is a nonnegative integer, check_above
(the one rule that a real argument is finite and exceeds its floor) and
check_points (the one rule for arrays of evaluation points), the gamma pole
test, log|Gamma| and its sign at a lattice point c + j/2 (_lgamma_at, the
one function that calls math.lgamma: every gamma the package takes, each
factor (c, j) or x of a gamma ratio included, goes through it), an in-house
digamma (reflection, recurrence and the asymptotic series), and a real
Gauss 2F1: one loop sums its series, cut at n+1 terms or run to convergence,
beside a z -> 1-z connection (with the logarithmic case for integer c-a-b)
and the Gauss sum at z = 1, a gamma ratio whose denominator pole is its
exact zero.  Everything runs on math and numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

#: Reals this close to an integer are treated as that integer.  Parameter
#: arithmetic in the closed forms produces exact integers for half-integer
#: inputs, and silent near-pole blowup is worse than snapping.
INTEGER_TOL = 1e-10

#: Stop a power series once two consecutive terms fall below this times the
#: partial sum.
SERIES_RTOL = 1e-17

#: Hard cap on series length; hitting it is an error, never a silent result.
MAX_TERMS = 10_000

#: |z| above which evaluation routes through a connection formula.
Z_SWITCH = 0.75

LN2 = math.log(2.0)
LNPI = math.log(math.pi)


class DomainError(ValueError):
    """Arguments outside the supported evaluation domain."""


class PoleError(DomainError):
    """Evaluation at (or within snapping distance of) a gamma pole."""


class ConvergenceError(RuntimeError):
    """A series, or the oracle's refinement, failed to meet its stopping rule."""


def nonpositive_int(x: float) -> int | None:
    """Return n >= 0 such that x is within INTEGER_TOL of -n, else None.

    Raises DomainError for NaN and +-inf, which no gamma or series argument
    may be.
    """
    if 0.5 < x < math.inf:
        return None
    check_above("argument", x, -math.inf)
    n = round(x)
    if n <= 0 and abs(x - n) <= INTEGER_TOL:
        return -int(n)
    return None


def check_degree(name: str, n) -> None:
    """Raise DomainError unless n, a degree or order called name, is a
    nonnegative integer (a Python or numpy integer)."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise DomainError(f"{name} must be a nonnegative integer, got {n!r}")


def check_above(name: str, value, floor: float) -> None:
    """Raise DomainError unless value, a real argument called name, is
    finite and exceeds floor; floor -inf asks for a finite value only."""
    if not floor < value < math.inf:
        raise DomainError(f"{name} must be finite and exceed {floor}, got {value!r}")


def check_at_least(name: str, value, floor: float) -> None:
    """check_above with floor itself allowed."""
    if not floor <= value < math.inf:
        raise DomainError(f"{name} must be finite and at least {floor}, got {value!r}")


def check_points(name: str, x, bound: float = math.inf) -> None:
    """Raise DomainError unless every point of x, an array-like called name,
    is finite and lies in [-bound, bound]; one float that passes builds no array."""
    if isinstance(x, float) and abs(x) <= bound and math.isfinite(x):
        return
    x = np.asarray(x, dtype=float)
    bad = x[~(np.isfinite(x) & (np.abs(x) <= bound))]
    if bad.size:
        rule = f"lie in [-{bound:g}, {bound:g}]" if bound < math.inf else "be finite"
        raise DomainError(f"{name} must {rule}, got {float(bad[0])!r}")


def _lgamma_at(c: float, j: int) -> tuple:
    """(log|Gamma(x)|, sign of Gamma(x)) at the lattice point x = c + j/2,
    with log +inf and sign 1 at a pole.

    Below x = 1/2 the reflection Gamma(x) Gamma(1-x) = pi / sin(pi x)
    (DLMF 5.5.3) is used, with sin(pi x) taken from c's exact offset from
    the nearest integer (even j) or half-integer (odd j) rather than from
    the rounded x: near a pole that rounding would cost |psi(x)| ulp(x) of
    relative accuracy.  The sine's log is numpy's, not math's: the two
    differ in the last bit on ~1% of arguments, and numpy's keeps
    coeff_table bit-identical to the tables of earlier versions.  Past
    x ~ 2.6e305, where log|Gamma| overflows, it raises DomainError, as it
    does for NaN and +-inf.  This is the one reader of math.lgamma.
    """
    x = c + 0.5 * j
    if x >= 0.5:
        try:
            lg = math.lgamma(x)
        except OverflowError:
            message = f"gamma argument {x!r} is past the double range of log-gamma"
            raise DomainError(message) from None
        if lg < math.inf:
            return lg, 1.0
        check_above("argument", x, -math.inf)  # x = +inf
    if nonpositive_int(x) is not None:
        return math.inf, 1.0
    sign = -1.0 if math.floor(-x) % 2 == 0 else 1.0  # alternates on (-k-1, -k)
    return _log_pi_over_sin(c, j % 2) - math.lgamma(1.0 - x), sign


@lru_cache(maxsize=128)
def _log_pi_over_sin(c: float, odd: int) -> float:
    """log(pi / |sin(pi x)|) for every x = c + j/2 with j % 2 == odd, from
    c's offset from the nearest integer (even j) or half-integer (odd j).
    It depends on c and the parity alone: a lattice computes it at most twice."""
    offset = c - (math.floor(c) + 0.5) if odd else c - round(c)
    return LNPI - float(np.log(abs(math.sin(math.pi * offset))))


#: Coefficients B_2k / (2k) of the digamma asymptotic series, k = 1..7.
_DIGAMMA_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _digamma(x: float) -> float:
    """psi(x) = Gamma'(x) / Gamma(x) for real x, raising PoleError at the
    nonpositive integers.

    Negative x is reflected, psi(x) = psi(1-x) - pi cot(pi x) (DLMF 5.5.4);
    then psi(x) = psi(x+1) - 1/x (DLMF 5.5.2) lifts x to 10 or more, where
    psi(x) ~ ln x - 1/(2x) - sum B_2k / (2k x^2k) (DLMF 5.11.2) is summed
    to k = 7.
    """
    if nonpositive_int(x) is not None:
        raise PoleError(f"digamma at pole x={x!r}")
    acc = 0.0
    if x < 0.0:
        # cot has period 1; reducing to |r| <= 1/2 keeps pi r accurate.
        r = x - round(x)
        acc = -math.pi / math.tan(math.pi * r)
        x = 1.0 - x
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA_ASYMPTOTIC):
        series = (series + c) * inv2
    return acc + math.log(x) - 0.5 / x - series


def _log_gamma_ratio(num=(), den=(), scale_log: float = 0.0, sign: float = 1.0):
    """(log|prod Gamma(num_i) / prod Gamma(den_j)| + scale_log, its sign
    times sign).

    Each factor is a lattice point, a tuple (c, j) read as _lgamma_at(c, j)
    or a real x read as _lgamma_at(x, 0), the denominators taken first.  A
    pole in a numerator factor raises PoleError, also when a denominator
    has one too; otherwise a pole in a denominator factor gives (-inf, 1).
    """
    total, s = scale_log, sign
    for x in den:
        lg, sg = _lgamma_at(*x) if type(x) is tuple else _lgamma_at(x, 0)
        total, s = total - lg, s * sg
    for x in num:
        lg, sg = _lgamma_at(*x) if type(x) is tuple else _lgamma_at(x, 0)
        if lg == math.inf:
            raise PoleError(f"gamma pole at x={x!r}")
        total, s = total + lg, s * sg
    return (-math.inf, 1.0) if total == -math.inf else (total, s)


def gamma_ratio(num=(), den=(), scale_log: float = 0.0, sign: float = 1.0) -> float:
    """prod Gamma(num_i) / prod Gamma(den_j) * sign * exp(scale_log), each
    factor a real x or a lattice point (c, j) as _log_gamma_ratio reads it.

    Computed in log space.  A pole in a numerator factor raises PoleError,
    whatever the denominators; otherwise a pole in a denominator factor
    yields an exact 0.0.
    """
    total, s = _log_gamma_ratio(num, den, scale_log, sign)
    if total > 709.782712893384:  # log of the largest double
        return s * math.inf
    return s * math.exp(total)


class HypStatus(Enum):
    SERIES_CONVERGED = "series-converged"
    TERMINATED = "terminated"
    GAUSS_SUMMED = "gauss-summed"


@dataclass(frozen=True)
class HypResult:
    value: float
    status: HypStatus
    terms_used: int


def _series(a: float, b: float, c: float, z: float, nterms: int | None = None):
    """Sum the Gauss series at z.  Returns (value, terms_used).

    With nterms given, sums exactly that many terms (terminating case);
    otherwise stops at a zero term or two consecutive terms below SERIES_RTOL
    times the partial sum.  SERIES_RTOL is below half an ulp, so a term it
    calls small leaves a finite sum unchanged: the test is taken only when
    the sum stood still or is not finite.  The term index k is a float,
    which gives the same sums and products as an integer index without
    converting it.
    """
    total = term = 1.0
    k = 0.0
    small, inf = 0, math.inf
    for _ in range(MAX_TERMS if nterms is None else nterms):
        try:
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        except ZeroDivisionError:
            raise PoleError(f"2F1 series denominator vanished at k={int(k)}") from None
        last = total
        total += term
        k += 1.0
        if nterms is None:
            if total != last and -inf < total < inf:
                small = 0
            else:
                small = small + 1 if abs(term) <= SERIES_RTOL * abs(total) else 0
                if small >= 2 or term == 0.0:
                    return total, int(k) + 1
    if nterms is None:
        raise ConvergenceError(f"2F1 series did not converge in {MAX_TERMS} terms")
    return total, nterms + 1


def _gauss_sum(a: float, b: float, c: float) -> HypResult:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    s = c - a - b
    if s <= INTEGER_TOL:
        raise DomainError(f"2F1 diverges at z=1 for c-a-b={s!r} <= 0")
    value = gamma_ratio((c, s), (c - a, c - b))
    return HypResult(value, HypStatus.GAUSS_SUMMED, 0)


def _log_case(a: float, b: float, m: int, w: float):
    """Connection value of 2F1(a, b; a+b+m; 1-w) for integer m >= 0, 0 < w < 1.

    Returns (value, terms_used).  Classical logarithmic branch of the
    z -> 1-z connection formula; requires a, b away from nonpositive
    integers (terminating series are dispatched before reaching here).
    """
    c = a + b + m
    logw = math.log(w)
    # Finite part: Gamma(m) Gamma(c) / (Gamma(a+m) Gamma(b+m)) times
    # sum_{n<m} (a)_n (b)_n w^n / (n! (1-m)_n), the Gauss series at 1-m cut
    # after its m terms.
    p1 = 0.0
    if m >= 1:
        pref1 = gamma_ratio((float(m), c), (a + m, b + m))
        if pref1 != 0.0:
            p1 = pref1 * _series(a, b, 1.0 - m, w, nterms=m - 1)[0]
    # Logarithmic part.
    sgn = -1.0 if m % 2 else 1.0
    pref2 = sgn * gamma_ratio((c,), (a, b), scale_log=m * logw)
    if pref2 == 0.0:
        return p1, m
    if not math.isfinite(pref2) or not math.isfinite(p1):
        raise ConvergenceError(
            "z -> 1-z connection out of double-precision range "
            f"(a={a!r}, b={b!r}, c-a-b={m})"
        )
    total = 0.0
    coeff = 1.0
    for j in range(1, m + 1):
        coeff /= j
    # The four psi values at n = 0, then psi(x+1) = psi(x) + 1/x (DLMF 5.5.2).
    psi_1 = _digamma(1.0)
    psi_m = _digamma(m + 1.0)
    psi_a = _digamma(a + m)
    psi_b = _digamma(b + m)
    n = 0
    small = 0
    while n < MAX_TERMS:
        bracket = logw - psi_1 - psi_m + psi_a + psi_b
        term = coeff * bracket
        total += term
        if abs(term) <= SERIES_RTOL * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        coeff *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
        psi_1 += 1.0 / (n + 1.0)
        psi_m += 1.0 / (n + m + 1.0)
        psi_a += 1.0 / (a + m + n)
        psi_b += 1.0 / (b + m + n)
        n += 1
    else:
        raise ConvergenceError("logarithmic 2F1 branch did not converge")
    return p1 - pref2 * total, n + m + 1


def _transform_near_one(a: float, b: float, c: float, z: float):
    """Evaluate via the z -> 1-z connection for Z_SWITCH < z < 1."""
    w = 1.0 - z
    s = c - a - b
    m = round(s)
    if abs(s - m) <= INTEGER_TOL:
        if m >= 0:
            return _log_case(a, b, int(m), w)
        # Negative integer: Euler transformation flips the sign of c-a-b;
        # re-dispatch so terminating flipped parameters are handled.
        inner = hyp2f1(c - a, c - b, c, z)
        return w**s * inner.value, inner.terms_used
    terms_total = 0
    coef1 = gamma_ratio((c, s), (c - a, c - b))
    coef2 = gamma_ratio((c, -s), (a, b), scale_log=s * math.log(w))
    if not (math.isfinite(coef1) and math.isfinite(coef2)):
        raise ConvergenceError(
            "z -> 1-z connection out of double-precision range "
            f"(a={a!r}, b={b!r}, c={c!r})"
        )
    part1 = 0.0
    if coef1 != 0.0:
        v1, t1 = _series(a, b, 1.0 - s, w)
        part1 = coef1 * v1
        terms_total += t1
    part2 = 0.0
    if coef2 != 0.0:
        v2, t2 = _series(c - a, c - b, 1.0 + s, w)
        part2 = coef2 * v2
        terms_total += t2
    return part1 + part2, terms_total


def hyp2f1(a: float, b: float, c: float, z: float) -> HypResult:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real arguments.

    Strategy: terminating series are detected first and summed exactly;
    z = 1 uses the Gauss summation (requires c - a - b > 0); |z| <= Z_SWITCH
    sums the defining series; Z_SWITCH < z < 1 applies the z -> 1-z
    connection formula with the logarithmic branch when c - a - b is an
    integer; z < -Z_SWITCH is mapped into (0, 1/2) by the Pfaff
    transformation.
    """
    if not -1.0 < z <= 1.0:
        raise DomainError(f"2F1 supported for -1 < z <= 1, got z={z!r}")
    if not -math.inf < a + b + c < math.inf:
        check_above("a", a, -math.inf)
        check_above("b", b, -math.inf)
        check_above("c", c, -math.inf)

    # the smallest n with a or b snapping to -n: the series has n+1 terms
    na, nb = nonpositive_int(a), nonpositive_int(b)
    nterm = na if nb is None or (na is not None and na <= nb) else nb
    nc = nonpositive_int(c)
    if nterm is not None:
        if nc is not None and nc < nterm:
            raise PoleError(
                f"2F1 parameter c={c!r} hits a pole before the series terminates"
            )
        # Snap the terminating parameter so the polynomial is summed exactly.
        if na == nterm:
            a = -float(nterm)
        else:
            b = -float(nterm)
        value, terms = _series(a, b, c, z, nterms=nterm)
        return HypResult(value, HypStatus.TERMINATED, terms)
    if nc is not None:
        raise PoleError(f"2F1 pole: c={c!r} is a nonpositive integer")

    if z == 0.0:
        return HypResult(1.0, HypStatus.SERIES_CONVERGED, 1)
    if z == 1.0:
        return _gauss_sum(a, b, c)
    if z > Z_SWITCH:
        value, terms = _transform_near_one(a, b, c, z)
        return HypResult(value, HypStatus.SERIES_CONVERGED, terms)
    if z < -Z_SWITCH:
        # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)).
        zp = z / (z - 1.0)
        value, terms = _series(a, c - b, c, zp)
        return HypResult((1.0 - z) ** (-a) * value, HypStatus.SERIES_CONVERGED, terms)
    value, terms = _series(a, b, c, z)
    return HypResult(value, HypStatus.SERIES_CONVERGED, terms)

