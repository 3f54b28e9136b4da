"""Exact integer arithmetic: factorization, divisors in a range (listed or
counted), gcd/lcm in factored form.

Everything here is pure, deterministic, and exact; inputs below 2**96 are
supported.  Every n factors by one route: trial division by the primes up to
4096, then a primality test, a perfect-power check and a deterministic
Pollard-Brent splitter on whatever cofactor is left.  Divisors in [lo, hi]
are found on the narrower of [lo, hi] and its co-divisor range
[ceil(n/hi), floor(n/lo)] by one of two exact routes, picked by operation
count: a walk that tests each candidate with n % e when the side holds no
more candidates than the pi(min(4096, sqrt(n))) trial divisions factorize
would start with, else a meet-in-the-middle core on the factorization.
divisors_in_range lists them and _count_divisors_in_range only counts them.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_VALUE = 1 << 96

_TRIAL_BOUND = 4096

# Deterministic Miller-Rabin: for each (limit, count) the first count bases
# decide primality for all n below limit, which is the least strong
# pseudoprime to those bases (psi_7 by Jaeschke, psi_9 by Jiang-Deng, psi_12 by
# Sorenson-Webster).  From psi_12 up a strong Lucas test is added (Baillie-PSW
# style); no counterexample to that combination is known anywhere, let alone
# below 2**96.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PREFIXES = ((341550071728321, 7), (3825123056546413051, 9), (318665857834031151167461, 12))


def _primes_upto(n: int) -> tuple[int, ...]:
    """Primes p <= n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(p for p in range(n + 1) if sieve[p])


_SMALL_PRIMES = _primes_upto(_TRIAL_BOUND)


class InputError(ValueError):
    """An argument to a public function violates its stated precondition."""


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its ordered prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"factorization value must be positive, got {self.value}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("factor exponents must be >= 1")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors do not multiply back to {self.value}")

    def tau(self) -> int:
        """Total number of divisors."""
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    def exponent_of(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def _integer(x, what: str) -> int:
    """x as a Python int; Python and numpy integers only, so 1.5 is refused, not truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise InputError(f"{what} {x!r} is not an integer") from None


def _check_range(lo: int, hi: int) -> None:
    """The precondition of a divisor range [lo, hi], for DivisorRange and plain tuples alike."""
    lo, hi = _integer(lo, "range bound"), _integer(hi, "range bound")
    if lo < 1:
        raise InputError(f"range lower bound must be positive, got {lo}")
    if lo > hi:
        raise InputError(f"empty range: lo={lo} > hi={hi}")


def _check_value(n: int) -> None:
    """The precondition of factorize, which the divisor walk shares without factorizing."""
    n = _integer(n, "value")
    if n < 1 or n >= MAX_VALUE:
        raise InputError(f"factorize expects 1 <= n < 2**96, got {n}")


@dataclass(frozen=True)
class DivisorRange:
    """Closed interval [lo, hi] of candidate divisors."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        _check_range(self.lo, self.hi)


def _miller_rabin(n: int, bases: Sequence[int]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:  # 2 <= a < n - 1: is_prime sends only n >= 41^2 with no prime factor <= 37
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # n odd, not a perfect square, no tiny prime factors
    if math.isqrt(n) ** 2 == n:
        return False
    d_disc = 5
    while True:
        j = _jacobi(d_disc % n, n)
        if j == -1:
            break
        if j == 0:
            return False
        d_disc = -(d_disc + 2) if d_disc > 0 else -(d_disc - 2)
    p_par, q_par = 1, (1 - d_disc) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    inv2 = (n + 1) // 2
    u, v, qk = 1, p_par, q_par % n
    for bit in bin(d)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p_par * u + v) * inv2 % n, (d_disc * u + p_par * v) * inv2 % n
            qk = qk * q_par % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic for n below psi_12 ~ 3.2e23; strong-Lucas-reinforced beyond."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    for limit, count in _MR_PREFIXES:
        if n < limit:
            return _miller_rabin(n, _MR_BASES[:count])
    return _miller_rabin(n, _MR_BASES) and _strong_lucas(n)


def _iroot(x: int, e: int) -> int:
    """Floor of the e-th root for e >= 2, exactly, with no float on any x.

    The start 2^ceil(bits/e) is above the root.  By the AM-GM inequality an
    integer Newton step ((e - 1) r + x // r^(e - 1)) // e never goes below the
    floor root, and from any r above it the step decreases strictly; so the
    steps stop exactly on the floor root, and no correction is needed.
    """
    if e == 2:
        return math.isqrt(x)
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // e)
    while True:
        s = ((e - 1) * r + x // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _perfect_power(x: int) -> tuple[int, int]:
    """Return (e, root) with root**e == x and e maximal, or (1, x).

    x has no prime factor below 4099 > 2^12, so a root**e == x has
    x > 2^(12e), which bounds e by (bit_length - 1) // 12.
    """
    for e in range((x.bit_length() - 1) // 12, 1, -1):
        r = _iroot(x, e)
        if r >= 2 and r**e == x:
            return e, r
    return 1, x


def _pollard_brent(n: int) -> int:
    """Nontrivial divisor of odd composite n; deterministic parameter schedule."""
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def _split_composite(m: int, out: dict[int, int]) -> None:
    stack: list[tuple[int, int]] = [(m, 1)]
    while stack:
        x, mult = stack.pop()
        if is_prime(x):
            out[x] = out.get(x, 0) + mult
            continue
        e, root = _perfect_power(x)
        if e > 1:
            stack.append((root, mult * e))
            continue
        d = _pollard_brent(x)
        stack.append((d, mult))
        stack.append((x // d, mult))


def factorize(n: int) -> Factorization:
    """Prime factorization of n, 1 <= n < 2**96.

    One route for every n: trial division by the primes up to 4096, then the
    cofactor is 1, a prime, or split by _split_composite.
    """
    _check_value(n)
    factors: list[tuple[int, int]] = []
    m = n
    root = math.isqrt(m)
    for p in _SMALL_PRIMES:
        if p > root:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
            root = math.isqrt(m)
    if m > 1:
        if m <= _TRIAL_BOUND * _TRIAL_BOUND:
            # every prime factor of m is at least the first prime not tried,
            # whose square exceeds m (or is 4099^2 once the primes run out)
            factors.append((m, 1))
        else:
            found: dict[int, int] = {}
            _split_composite(m, found)
            factors += sorted(found.items())
    return Factorization(n, tuple(factors))


def _narrower_side(n: int, rng: DivisorRange | tuple[int, int]) -> tuple[int, int, bool, bool]:
    """Check n and rng, then (lo, hi, mirrored, walk) for the narrower of rng
    and its co-divisor range [ceil(n/hi), floor(n/lo)], mirrored when that is
    the co-divisor range.  walk is windows.ruzsa_route's cost rule: the side
    holds no more candidates than the pi(min(4096, sqrt(n))) trial divisions
    factorize would start with.  An empty side always walks, with no work.
    """
    if isinstance(rng, DivisorRange):
        lo, hi = rng.lo, rng.hi
    else:
        # a tuple is checked as DivisorRange checks itself, with no DivisorRange built
        lo, hi = rng
        _check_range(lo, hi)
    # the walk never calls factorize, so its precondition is checked here
    _check_value(n)
    co_lo, co_hi = -(-n // hi), n // lo
    mirrored = co_hi - co_lo < hi - lo
    if mirrored:
        lo, hi = co_lo, co_hi
    return lo, hi, mirrored, hi - lo < _trial_divisions(n)


def _trial_divisions(n: int) -> int:
    """pi(min(4096, sqrt(n))), the trial divisions factorize starts with on n:
    the cost both the divisor walk and windows.ruzsa_route weigh against."""
    return bisect_right(_SMALL_PRIMES, math.isqrt(n))


def _divisor_spans(n: int, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Meet in the middle on the divisors of n in [lo, hi]: (long, spans).

    Each prime power of n joins the half with fewer divisors so far, each half
    keeps its divisors up to hi, and the primes above it are skipped, so the
    callers run it on the narrower side, whose top is the lower one up to
    rounding.  The longer half is sorted, and every a in the shorter half
    gives one span (a, i, j): the divisors of the range divisible by a are
    a * long[i:j], found by bisection on [lo/a, hi/a].  Spans with i = j are
    left out.
    """
    short, long = [1], [1]
    for p, e in factorize(n).factors:
        if p > hi:
            break
        if len(short) > len(long):
            short, long = long, short
        grown = short
        limit = hi // p
        for _ in range(e):
            grown = [d * p for d in grown if d <= limit]
            short += grown
    if len(short) > len(long):
        short, long = long, short
    long.sort()
    spans = []
    for a in short:
        i = bisect_left(long, -(-lo // a))
        j = bisect_right(long, hi // a, i)
        if i < j:
            spans.append((a, i, j))
    return long, spans


def divisors_in_range(n: int, rng: DivisorRange | tuple[int, int]) -> list[int]:
    """Sorted list of divisors d of n with lo <= d <= hi.

    On the narrower side the walk keeps the candidates that divide n, in
    order, or the spans of _divisor_spans are expanded and sorted once; on the
    mirrored co-divisor range each e maps back to n // e, in reverse order.
    """
    lo, hi, mirrored, walk = _narrower_side(n, rng)
    if walk:
        out = [e for e in range(lo, hi + 1) if n % e == 0]
    else:
        long, spans = _divisor_spans(n, lo, hi)
        out = []
        for a, i, j in spans:
            out += [a * b for b in long[i:j]]
        out.sort()
    if mirrored:
        out = [n // e for e in reversed(out)]
    return out


def _count_divisors_in_range(n: int, rng: DivisorRange | tuple[int, int]) -> int:
    """len(divisors_in_range(n, rng)), walked or summed from the spans with no list of divisors."""
    lo, hi, _, walk = _narrower_side(n, rng)
    if walk:
        return sum(1 for e in range(lo, hi + 1) if n % e == 0)
    return sum(j - i for _, i, j in _divisor_spans(n, lo, hi)[1])


# entries per numpy block of the blocked kernels (the pair-lcm scan and its run
# summary, the Ruzsa sieve, the Sidon-window difference rows, the quadrature's
# cosets; spectral's pair kernel, and so is_sidon's energy and witness, takes
# 8 * _BLOCK pairs): their working memory beside their output and, for the
# Sidon rows, beside the per-run coefficient rows.  The scan's output is its
# mark array, one _key_dtype offset per mark
_BLOCK = 1 << 13


def _exact_dtype(largest: int) -> type:
    """Dtype of an exact integer array with no entry above largest in absolute
    value: int64 below 2^63, exact Python ints (object) from 2^63 on."""
    return np.int64 if largest < 1 << 63 else object


def _key_dtype(span: int) -> type:
    """Dtype of the sorted or counted keys of one range: offsets 0..span from its
    start, uint32 below 2^32 and _exact_dtype(span) from 2^32 on.

    A key is a value minus its range's start, so it is narrower than the value
    whenever the range is shorter, and narrower keys sort faster.
    """
    return np.uint32 if span < 1 << 32 else _exact_dtype(span)


def _split_range(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """[lo, hi] as at most `workers` nonempty closed ranges of near-equal width, in order.

    Only hi - lo + 1 of them can be nonempty, so no more edges are made.
    """
    workers = _integer(workers, "workers")
    if workers < 1:
        raise InputError(f"workers must be a positive integer, got {workers}")
    width = hi - lo + 1
    parts = min(workers, width)
    edges = [lo + width * i // parts for i in range(parts + 1)]
    return [(a, b - 1) for a, b in zip(edges, edges[1:])]


def _run_bounds(sorted_values: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array, then its size.

    np.unique would copy and re-sort the whole array, which costs more time
    and memory on the large mark and difference tables this serves.
    """
    first = np.empty(sorted_values.size + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:-1])
    return np.flatnonzero(first)
