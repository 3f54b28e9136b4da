"""Exact integer arithmetic: factorization, divisor enumeration in ranges, gcd/lcm
in factored form.

Everything here is pure, deterministic, and exact; inputs below 2**96 are
supported.  Every n factors by one route: trial division by the primes up to
4096, then a primality test, a perfect-power check and a deterministic
Pollard-Brent splitter on whatever cofactor is left.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class DivisorRange:
    """Closed interval [lo, hi] of candidate divisors."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise InputError(f"range lower bound must be positive, got {self.lo}")
        if self.lo > self.hi:
            raise InputError(f"empty range: lo={self.lo} > hi={self.hi}")


def _miller_rabin(n: int, bases: Sequence[int]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
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
    """Floor of the e-th root for e >= 2, exactly."""
    if e == 2:
        return math.isqrt(x)
    r = int(round(x ** (1.0 / e)))
    while r > 1 and r**e > x:
        r -= 1
    while (r + 1) ** e <= x:
        r += 1
    return r


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
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
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
    if n < 1 or n >= MAX_VALUE:
        raise InputError(f"factorize expects 1 <= n < 2**96, got {n}")
    found: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            found[p] = e
    if m > 1:
        if m <= _TRIAL_BOUND * _TRIAL_BOUND:
            # every prime factor of m is at least the first prime not tried,
            # whose square exceeds m (or is 4099^2 once the primes run out)
            found[m] = 1
        else:
            _split_composite(m, found)
    return Factorization(n, tuple(sorted(found.items())))


def divisors_in_range(n: int, rng: DivisorRange | tuple[int, int]) -> list[int]:
    """Sorted list of divisors d of n with lo <= d <= hi.

    Meet in the middle: each prime power of n joins the half with fewer
    divisors so far, and each half lists its divisors up to hi.  Every a in
    the shorter half is matched against the sorted longer half by bisection
    on [lo/a, hi/a].
    """
    if not isinstance(rng, DivisorRange):
        rng = DivisorRange(*rng)
    lo, hi = rng.lo, rng.hi
    short, long = [1], [1]
    for p, e in factorize(n).factors:
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
    out: list[int] = []
    for a in short:
        i = bisect_left(long, -(-lo // a))
        j = bisect_right(long, hi // a, i)
        if i < j:
            out += [a * b for b in long[i:j]]
    out.sort()
    return out


# entries per numpy block of the blocked kernels (the pair-lcm scan, the Ruzsa
# sieve, the Sidon-window table): their working memory beside their output
_BLOCK = 1 << 13


def _split_range(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """[lo, hi] as at most one nonempty closed range per worker, of near-equal width."""
    if workers < 1:
        raise InputError(f"workers must be a positive integer, got {workers}")
    width = hi - lo + 1
    edges = [lo + width * i // workers for i in range(workers + 1)]
    return [(a, b - 1) for a, b in zip(edges, edges[1:]) if a < b]


def _run_bounds(sorted_values: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array, then its size.

    np.unique would copy and re-sort the whole array, which costs more time
    and memory on the large mark and difference tables this serves.
    """
    first = np.empty(sorted_values.size + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:-1])
    return np.flatnonzero(first)
