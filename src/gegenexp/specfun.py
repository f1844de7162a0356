"""Scalar special-function kernels.

Log-gamma with explicit sign tracking (the pole test and the gamma sign also
come as array versions, and _lgamma_1d gives log|Gamma|, sign and pole mask
on a short 1-D lattice c + j/2, which is all the gamma work the closed-form
grids need), a reciprocal gamma that is exactly zero at the poles, rising
factorials, the beta function, an in-house digamma (reflection, recurrence
and the asymptotic series), and a real-argument Gauss hypergeometric
function with termination detection, a z -> 1-z connection formula
(including the logarithmic case for integer c-a-b) and exact Gauss
summation at z = 1.  Everything runs on math and numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


class PoleError(ValueError):
    """Evaluation at (or within snapping distance of) a gamma pole."""


class DomainError(ValueError):
    """Arguments outside the supported evaluation domain."""


class ConvergenceError(RuntimeError):
    """A series failed to meet its stopping rule within MAX_TERMS."""


def nonpositive_int(x: float) -> int | None:
    """Return n >= 0 such that x is within INTEGER_TOL of -n, else None.

    Raises DomainError for NaN and -inf, which no gamma or series argument
    may be.
    """
    if x > 0.5:
        return None
    if not x > -math.inf:
        raise DomainError(f"argument must be a number above -inf, got {x!r}")
    n = round(x)
    if n <= 0 and abs(x - n) <= INTEGER_TOL:
        return -int(n)
    return None


def nonpositive_int_mask(x: np.ndarray) -> np.ndarray:
    """Array version of nonpositive_int: True where x is within INTEGER_TOL
    of a nonpositive integer."""
    r = np.round(x)
    return (x <= 0.5) & (r <= 0.0) & (np.abs(x - r) <= INTEGER_TOL)


def log_gamma(x: float) -> float:
    """Natural log of |Gamma(x)|; the sign is given by gamma_sign(x).

    Raises PoleError when x is within INTEGER_TOL of a nonpositive integer.
    """
    if nonpositive_int(x) is not None:
        raise PoleError(f"log_gamma at pole x={x!r}")
    return math.lgamma(x)


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for x away from the poles."""
    if x > 0:
        return 1.0
    # Gamma alternates sign on the intervals (-k-1, -k).
    return -1.0 if math.floor(-x) % 2 == 0 else 1.0


def gamma_sign_array(x: np.ndarray) -> np.ndarray:
    """Array version of gamma_sign."""
    return np.where(x > 0.0, 1.0, np.where(np.floor(-x) % 2 == 0, -1.0, 1.0))


def _lgamma_1d(c: float, j: np.ndarray):
    """log|Gamma(x)|, the sign of Gamma(x) and the pole mask at the points
    x = c + j/2 of a 1-D integer vector j.

    Below x = 1/2 the reflection Gamma(x) Gamma(1-x) = pi / sin(pi x)
    (DLMF 5.5.3) is used, with sin(pi x) taken from c's exact offset from
    the nearest integer (even j) or half-integer (odd j) rather than from
    the rounded x: near a pole that rounding would cost |psi(x)| ulp(x) of
    relative accuracy.  Pole entries get log|Gamma| = 0 and sign 1; callers
    use the mask.  Meant for the short index vectors of the coefficient
    grids (a few thousand entries): math.lgamma runs per entry.
    """
    j = np.asarray(j)
    x = c + 0.5 * j
    pole = nonpositive_int_mask(x)
    safe = np.where(pole, 1.0, x)
    low = safe < 0.5
    logabs = np.fromiter(
        map(math.lgamma, np.where(low, 1.0 - safe, safe).tolist()), float, count=x.size
    )
    offset = np.where(j[low] % 2 == 0, c - round(c), c - (math.floor(c) + 0.5))
    sin_pi_x = np.abs(np.sin(math.pi * offset))
    logabs[low] = math.log(math.pi) - np.log(sin_pi_x) - logabs[low]
    return logabs, gamma_sign_array(safe), pole


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


def gamma(x: float) -> float:
    """Gamma(x): PoleError at the poles, +-inf past the double range."""
    return gamma_ratio((x,))


def rgamma(x: float) -> float:
    """1/Gamma(x): exactly 0 at the poles, +-inf past the double range."""
    return gamma_ratio((), (x,))


def pochhammer(y: float, n: int) -> float:
    """Rising factorial (y)_n = y (y+1) ... (y+n-1), with (y)_0 = 1."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    out = 1.0
    for k in range(n):
        out *= y + k
    return out


def beta(a: float, b: float) -> float:
    """Euler beta function B(a, b)."""
    return gamma_ratio((a, b), (a + b,))


def gamma_ratio(num=(), den=(), scale_log: float = 0.0, sign: float = 1.0) -> float:
    """prod Gamma(num_i) / prod Gamma(den_j) * sign * exp(scale_log).

    Computed in log space.  A pole in a denominator factor yields an exact
    0.0; a pole in a numerator factor raises PoleError.
    """
    total = scale_log
    s = sign
    for x in den:
        if nonpositive_int(x) is not None:
            return 0.0
        total -= math.lgamma(x)
        s *= gamma_sign(x)
    for x in num:
        total += log_gamma(x)
        s *= gamma_sign(x)
    if total > 709.782712893384:  # log of the largest double
        return s * math.inf
    return s * math.exp(total)


class HypStatus(Enum):
    SERIES_CONVERGED = "series-converged"
    TERMINATED = "terminated"
    GAUSS_SUMMED = "gauss-summed"
    POLE_CANCELLED_ZERO = "pole-cancelled-zero"


@dataclass(frozen=True)
class HypResult:
    value: float
    status: HypStatus
    terms_used: int


def _series(a: float, b: float, c: float, z: float, nterms: int | None = None):
    """Sum the Gauss series at z.  Returns (value, terms_used).

    With nterms given, sums exactly that many terms (terminating case);
    otherwise runs until two consecutive terms drop below SERIES_RTOL times
    the partial sum.
    """
    total = 1.0
    term = 1.0
    small = 0
    k = 0
    cap = nterms if nterms is not None else MAX_TERMS
    while k < cap:
        denom = (c + k) * (k + 1)
        if denom == 0.0:
            raise PoleError(f"2F1 series denominator vanished at k={k}")
        term *= (a + k) * (b + k) / denom * z
        total += term
        k += 1
        if nterms is None:
            if abs(term) <= SERIES_RTOL * abs(total):
                small += 1
                if small >= 2:
                    return total, k + 1
            else:
                small = 0
            if term == 0.0:
                return total, k + 1
    if nterms is None:
        raise ConvergenceError(f"2F1 series did not converge in {MAX_TERMS} terms")
    return total, k + 1


def _termination_index(a: float, b: float) -> int | None:
    """Smallest n with a or b snapping to -n, i.e. series length n+1."""
    na = nonpositive_int(a)
    nb = nonpositive_int(b)
    if na is None:
        return nb
    if nb is None:
        return na
    return min(na, nb)


def _gauss_sum(a: float, b: float, c: float) -> HypResult:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    s = c - a - b
    if s <= INTEGER_TOL:
        raise DomainError(f"2F1 diverges at z=1 for c-a-b={s!r} <= 0")
    if nonpositive_int(c - a) is not None or nonpositive_int(c - b) is not None:
        return HypResult(0.0, HypStatus.POLE_CANCELLED_ZERO, 0)
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
    # Finite part: Gamma(m) Gamma(c) / (Gamma(a+m) Gamma(b+m)) * sum_{n<m}.
    p1 = 0.0
    if m >= 1:
        pref1 = gamma_ratio((float(m), c), (a + m, b + m))
        if pref1 != 0.0:
            acc = 0.0
            term = 1.0
            for n in range(m):
                acc += term
                if n + 1 < m:
                    term *= (a + n) * (b + n) * w / ((n + 1.0) * (1.0 - m + n))
            p1 = pref1 * acc
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
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"2F1 needs finite parameters, got {(a, b, c)!r}")

    nterm = _termination_index(a, b)
    nc = nonpositive_int(c)
    if nterm is not None:
        if nc is not None and nc < nterm:
            raise PoleError(
                f"2F1 parameter c={c!r} hits a pole before the series terminates"
            )
        # Snap the terminating parameter so the polynomial is summed exactly.
        if nonpositive_int(a) == nterm:
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


def hyp2f1_half(a: float, c: float) -> float:
    """Closed form of 2F1(a, 1-a; c; 1/2).

    Equals 2^(1-c) sqrt(pi) Gamma(c) / (Gamma((a+c)/2) Gamma((c-a+1)/2));
    pole factors in the denominator give an exact zero.
    """
    if nonpositive_int(c) is not None:
        raise PoleError(f"hyp2f1_half pole: c={c!r}")
    return gamma_ratio(
        (c,),
        ((a + c) / 2.0, (c - a + 1.0) / 2.0),
        scale_log=(1.0 - c) * math.log(2.0) + 0.5 * math.log(math.pi),
    )
