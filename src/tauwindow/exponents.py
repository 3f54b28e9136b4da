"""Window-exponent optimization for square and cube divisor scans.

A scan with r window divisors forces k^(c^2+r^2+c-r) >= const * N^(num(c))
for every integer 1 <= c <= r-1, where num depends on the power.  The best
lower bound on the admissible window exponent gamma(r) = log k / log N is
therefore the maximum over c of num(c) / (c^2 + r^2 + c - r), computed here
in exact rationals:

    squares:  num(c) = 2rc - c^2 - c          -> limit (sqrt(5)-1)/2
    cubes:    num(c) = 4rc - 2c^2 - r^2 - 2c + r  -> limit (sqrt(17)-3)/2

The limits are the maxima of the continuous relaxations (2a - a^2)/(1 + a^2)
and (4a - 2a^2 - 1)/(1 + a^2) over 0 < a < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import InputError

SQUARE_EXPONENT_LIMIT = (math.sqrt(5) - 1) / 2
CUBE_EXPONENT_LIMIT = (math.sqrt(17) - 3) / 2
CUBE_OBJECTIVE_ARGMAX = (math.sqrt(17) - 1) / 4

_POWERS = ("square", "cube")


@dataclass(frozen=True)
class ExponentResult:
    r: int
    power: str
    best_c: int
    gamma: Fraction

    @property
    def gamma_float(self) -> float:
        return float(self.gamma)


@dataclass(frozen=True)
class KThresholdReport:
    exponent: float
    k_star: int


def _numerator(power: str, r: int, c: int) -> int:
    if power == "square":
        return 2 * r * c - c * c - c
    return 4 * r * c - 2 * c * c - r * r - 2 * c + r


def _denominator(r: int, c: int) -> int:
    return c * c + r * r + c - r


def _optimize(power: str, r: int) -> ExponentResult:
    if r < 3:
        raise InputError(f"need r >= 3 so that an interior c exists, got {r}")
    best_c = 1
    best_num = _numerator(power, r, 1)
    best_den = _denominator(r, 1)
    for c in range(2, r):
        num = _numerator(power, r, c)
        den = _denominator(r, c)
        # exact comparison num/den > best_num/best_den; denominators positive
        if num * best_den > best_num * den:
            best_c, best_num, best_den = c, num, den
    return ExponentResult(r=r, power=power, best_c=best_c, gamma=Fraction(best_num, best_den))


def square_exponent(r: int) -> ExponentResult:
    """Best window exponent for squares with r divisors, exact rational."""
    return _optimize("square", r)


def cube_exponent(r: int) -> ExponentResult:
    """Best window exponent for cubes with r divisors, exact rational."""
    return _optimize("cube", r)


def continuous_objective(power: str, alpha: float) -> float:
    """Continuous relaxation of the window-exponent objective at alpha in (0,1)."""
    if power not in _POWERS:
        raise InputError(f"power must be one of {_POWERS}, got {power!r}")
    if not 0 < alpha < 1:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    if power == "square":
        return (2 * alpha - alpha * alpha) / (1 + alpha * alpha)
    return (4 * alpha - 2 * alpha * alpha - 1) / (1 + alpha * alpha)


def k_threshold_report(n: int, r: int, power: str) -> KThresholdReport:
    """Advisory window size floor(N^gamma(r)) for scan experiments.

    Purely a sizing suggestion: the asymptotic statement carries unspecified
    constants, so nothing is asserted about scans at this k.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if power not in _POWERS:
        raise InputError(f"power must be one of {_POWERS}, got {power!r}")
    result = _optimize(power, r)
    exponent = result.gamma_float
    return KThresholdReport(exponent=exponent, k_star=math.floor(n**exponent))
