"""Tests for exact integer arithmetic."""

import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauwindow import arith, windows
from tauwindow.arith import (
    MAX_VALUE,
    DivisorRange,
    Factorization,
    _SMALL_PRIMES,
    _count_divisors_in_range,
    _divisor_spans,
    _exact_dtype,
    _iroot,
    _key_dtype,
    _narrower_side,
    _split_range,
    divisors_in_range,
    factorize,
    is_prime,
)


def gcd_pair(a: int, b: int) -> int:
    """Greatest common divisor of two positive integers."""
    if a < 1 or b < 1:
        raise ValueError("gcd_pair expects positive integers")
    return math.gcd(a, b)


def lcm_factored(values: list[Factorization]) -> Factorization:
    """Least common multiple, computed prime-by-prime so it never overflows."""
    if not values:
        raise ValueError("lcm_factored expects a nonempty list")
    merged: dict[int, int] = {}
    for fact in values:
        for p, e in fact.factors:
            if e > merged.get(p, 0):
                merged[p] = e
    factors = tuple(sorted(merged.items()))
    value = 1
    for p, e in factors:
        value *= p**e
    return Factorization(value, factors)


def trial_division_oracle(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_divisors_in_range(n: int, lo: int, hi: int) -> list[int]:
    """Divisors of n in [lo, hi], by trial over the shorter of [lo, hi] and its
    co-divisor range [ceil(n/hi), floor(n/lo)]."""
    co_lo, co_hi = -(-n // hi), n // lo
    if co_hi - co_lo < hi - lo:
        return sorted(n // e for e in range(co_lo, co_hi + 1) if n % e == 0)
    return [d for d in range(lo, hi + 1) if n % d == 0]


# primes past the 4096 trial-division bound, so factorize reaches Pollard-Brent
LARGE_PRIMES = (4099, 65537, 1000003, 2**31 - 1, 10**9 + 7, 2**61 - 1)


@st.composite
def smooth_times_large(draw) -> int:
    """n < 2^96: a smooth part times some large primes."""
    n = 1
    for p in draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 4093)), max_size=12)):
        if n * p < MAX_VALUE:
            n *= p
    for p in draw(st.lists(st.sampled_from(LARGE_PRIMES), max_size=3)):
        if n * p < MAX_VALUE:
            n *= p
    return n


@st.composite
def number_and_range(draw) -> tuple[int, int, int]:
    """(n, lo, hi) where [lo, hi] or its co-divisor range is at most a few hundred wide."""
    n = draw(smooth_times_large())
    c = draw(st.integers(1, 2 * n + 2))
    w = draw(st.integers(0, 300))
    side = draw(st.sampled_from(("direct", "co", "hi_past_n", "lo_past_n", "point")))
    if side == "direct":
        return n, c, c + w
    if side == "co":
        # the co-divisor range lies in [c, c + w]
        lo = -(-n // (c + w))
        return n, lo, max(lo, n // c)
    if side == "hi_past_n":
        return n, max(1, n // (w + 1)), n + w + 1
    if side == "lo_past_n":
        # the co-divisor range is empty
        return n, n + 1 + w, n + 1 + w + c
    return n, c, c


@st.composite
def number_and_route_width(draw) -> tuple[int, int, int]:
    """(n, lo, hi) whose narrower side is about as wide as the walk's bound.

    n is smooth times large primes or, past 2^64, 2^61 - 1 times a cofactor.
    [lo, lo + w - 1] lies below sqrt(n)/2 where n allows it, so its
    co-divisor range is wider once w >= 2, and w is the bound
    pi(min(4096, sqrt(n))) moved by -2..2.  Half the draws pass that
    co-divisor range instead, whose own co-divisor range lies in
    [lo, lo + w - 1].
    """
    n = draw(st.one_of(smooth_times_large(), st.integers(9, 2**34).map(lambda c: c * (2**61 - 1))))
    root = math.isqrt(n)
    w = max(1, bisect_right(_SMALL_PRIMES, root) + draw(st.integers(-2, 2)))
    lo = draw(st.integers(1, max(1, root // 2 - w + 1)))
    hi = lo + w - 1
    if draw(st.booleans()) and -(-n // hi) <= n // lo:
        lo, hi = -(-n // hi), n // lo
    return n, lo, hi


class TestFactorize:
    def test_unit(self):
        assert factorize(1) == Factorization(1, ())

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_semismooth_large(self):
        n = 600851475143
        expected = ((71, 1), (839, 1), (1471, 1), (6857, 1))
        assert tuple(trial_division_oracle(n)) == expected
        assert factorize(n).factors == expected

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(MAX_VALUE)

    def test_deterministic(self):
        n = (10**9 + 7) * (10**9 + 9)
        assert factorize(n).factors == factorize(n).factors == ((10**9 + 7, 1), (10**9 + 9, 1))

    def test_prime_powers(self):
        assert factorize(2**40).factors == ((2, 40),)
        assert factorize((10**6 + 3) ** 2).factors == ((10**6 + 3, 2),)

    def test_single_route_against_trial_division(self):
        # every n < 2^16; the 4096^2 prime shortcut and the old 2^20 table edge
        # from both sides; cofactors whose prime factors all exceed the trial
        # primes (the largest is 4093, the next prime 4099)
        edges = [c + i for c in (4096**2, 2**20) for i in range(-50, 51)]
        cofactors = [4093**2, 4099**2, 4099 * 4111, 4099**5, (10**6 + 3) ** 3, 4099 * 4111 * 4127]
        for n in [*range(1, 1 << 16), *edges, *cofactors]:
            assert factorize(n).factors == tuple(trial_division_oracle(n)), n

    def test_perfect_power_cofactors_at_the_exponent_bound(self):
        # roots are at least 4099 > 2^12, so exponents stop at (bit_length - 1) // 12;
        # 4099^7 has 85 bits and 4111^6 has 73, each right at that bound
        for n in (4099**7, 4111**6, 4099**3 * 4111**3):
            assert factorize(n).factors == tuple(trial_division_oracle(n)), n

    def test_perfect_powers_are_split_by_their_root(self, monkeypatch):
        # both cofactors pass the trial primes whole; their root is found
        # by _perfect_power, never by Pollard-Brent
        def no_pollard_brent(n):
            raise AssertionError(f"Pollard-Brent called on {n}")

        monkeypatch.setattr(arith, "_pollard_brent", no_pollard_brent)
        assert factorize(4099**3).factors == ((4099, 3),)
        assert factorize(65537**2).factors == ((65537, 2),)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10**12))
    def test_round_trip_hypothesis(self, n):
        fact = factorize(n)
        prod = 1
        for p, e in fact.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    def test_round_trip_bulk(self):
        rng = random.Random(11)
        for _ in range(10_000):
            n = rng.randrange(1, 10**12)
            fact = factorize(n)
            prod = 1
            for p, e in fact.factors:
                prod *= p**e
            assert prod == n

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Factorization(12, ((3, 1), (2, 2)))
        with pytest.raises(ValueError):
            Factorization(12, ((2, 2),))
        with pytest.raises(ValueError):
            Factorization(12, ((2, 0), (3, 1)))


class TestIsPrime:
    def test_small_against_sieve(self):
        limit = 2000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for n in range(limit):
            assert is_prime(n) == sieve[n]

    def test_known_large(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**89 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))
        # strong pseudoprimes to base 2 must be rejected
        assert not is_prime(2047)
        assert not is_prime(3215031751)

    def test_strong_lucas_stage(self):
        from tauwindow.arith import _strong_lucas

        # the classic base-2 strong pseudoprime falls to the Lucas stage
        assert _strong_lucas(2047) is False
        assert _strong_lucas(2**89 - 1) is True
        assert _strong_lucas((2**61 - 1) ** 2) is False
        # composite above the proven Miller-Rabin range
        assert not is_prime((2**61 - 1) * (2**89 - 1))

    def test_psi_12_is_composite(self):
        # the least strong pseudoprime to all twelve bases: Miller-Rabin alone
        # calls it prime, so the strong Lucas stage must start at psi_12
        from tauwindow.arith import _MR_BASES, _miller_rabin

        psi_12, p, q = 318665857834031151167461, 399165290221, 798330580441
        assert p * q == psi_12
        assert trial_division_oracle(p) == [(p, 1)] and trial_division_oracle(q) == [(q, 1)]
        assert _miller_rabin(psi_12, _MR_BASES)
        assert not is_prime(psi_12)
        assert factorize(psi_12).factors == ((p, 1), (q, 1))

    @pytest.mark.parametrize(
        "n, bases", [(3215031751, 4), (341550071728321, 7), (3825123056546413051, 9)]
    )
    def test_strong_pseudoprimes_at_the_base_prefix_limits(self, n, bases):
        # n is a strong pseudoprime to the first `bases` primes and the least
        # one where that prefix stops deciding, so is_prime needs more bases
        from tauwindow.arith import _MR_BASES, _miller_rabin

        assert _miller_rabin(n, _MR_BASES[:bases])
        assert not is_prime(n)

    def test_below_2_16_against_sieve(self):
        limit = 1 << 16
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]

    def test_base_prefixes_agree_with_all_twelve_bases(self):
        # every n < 2**64 < psi_12 is decided by the twelve bases
        from tauwindow.arith import _MR_BASES, _miller_rabin

        def twelve_bases(n):
            for p in _MR_BASES:
                if n % p == 0:
                    return n == p
            return n > 1 and _miller_rabin(n, _MR_BASES)

        rng = random.Random(20240607)
        for _ in range(10**4):
            n = rng.getrandbits(rng.randint(2, 64)) | 1
            assert is_prime(n) == twelve_bases(n), n

    def test_wide_smooth_value(self):
        p, q = 10**9 + 7, 10**6 + 3
        n = p * p * q
        assert factorize(n).factors == ((q, 1), (p, 2))


class TestDivisorsInRange:
    def test_examples(self):
        assert divisors_in_range(12, DivisorRange(2, 6)) == [2, 3, 4, 6]
        assert divisors_in_range(7, DivisorRange(2, 6)) == []
        assert divisors_in_range(36, DivisorRange(6, 6)) == [6]

    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 5000)
            lo = rng.randrange(1, n + 2)
            hi = lo + rng.randrange(0, n)
            expected = [d for d in brute_divisors(n) if lo <= d <= hi]
            assert divisors_in_range(n, DivisorRange(lo, hi)) == expected

    def test_full_range_has_tau_elements(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randrange(1, 10**9)
            fact = factorize(n)
            assert len(divisors_in_range(n, DivisorRange(1, n))) == fact.tau()

    def test_meet_in_the_middle_agrees(self):
        # primorial of the first 17 primes has 2^17 > 1e5 divisors
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        n = math.prod(primes)
        assert factorize(n).tau() == 2**17
        # independent route: filter the full divisor list built right here
        divs = [1]
        for p in primes:
            divs += [d * p for d in divs]
        expected = sorted(d for d in divs if 10**4 <= d <= 10**6)
        assert divisors_in_range(n, DivisorRange(10**4, 10**6)) == expected

    @pytest.mark.parametrize("p, e", [(2, 1), (2, 40), (3, 25), (10**6 + 3, 2), (65521, 5)])
    def test_prime_powers(self, p, e):
        n = p**e
        powers = [p**i for i in range(e + 1)]
        for lo, hi in [(1, n), (2, n - 1), (p, p), (p + 1, p * p - 1), (math.isqrt(n), 2 * math.isqrt(n))]:
            if 1 <= lo <= hi:
                expected = [d for d in powers if lo <= d <= hi]
                assert divisors_in_range(n, DivisorRange(lo, hi)) == expected

    @pytest.mark.parametrize(
        "exponents",
        [
            # 2^6 3^4 5^3 7^2 11^2 13 17 ... 41: tau = 7*5*4*3*3*2^8 = 322560
            {2: 6, 3: 4, 5: 3, 7: 2, 11: 2, 13: 1, 17: 1, 19: 1, 23: 1, 29: 1, 31: 1, 37: 1, 41: 1},
            # one high prime power beside many small primes: tau = 31*3*2^11 = 190464
            {2: 30, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1, 29: 1, 31: 1, 37: 1, 41: 1},
        ],
    )
    def test_many_divisors_around_sqrt(self, exponents):
        n = math.prod(p**e for p, e in exponents.items())
        divs = [1]
        for p, e in exponents.items():
            divs = [d * p**i for d in divs for i in range(e + 1)]
        assert len(divs) > 10**5
        root = math.isqrt(n)
        for lo, hi in [(root // 2, 2 * root), (root, root + root // 1000), (root - 10**6, root + 10**6), (root + 1, root + 1)]:
            expected = sorted(d for d in divs if lo <= d <= hi)
            assert divisors_in_range(n, DivisorRange(lo, hi)) == expected

    def test_range_validation(self):
        with pytest.raises(ValueError):
            DivisorRange(5, 4)
        with pytest.raises(ValueError):
            DivisorRange(0, 4)

    @settings(max_examples=400, deadline=None)
    @given(number_and_range())
    def test_count_and_list_against_the_shorter_side(self, case):
        n, lo, hi = case
        expected = brute_divisors_in_range(n, lo, hi)
        listed = divisors_in_range(n, (lo, hi))
        assert listed == expected
        assert _count_divisors_in_range(n, (lo, hi)) == len(listed) == len(expected)
        assert _count_divisors_in_range(n, DivisorRange(lo, hi)) == len(expected)

    @settings(max_examples=400, deadline=None)
    @given(number_and_route_width())
    def test_walk_and_spans_agree_around_the_bound(self, case):
        n, lo, hi = case
        expected = brute_divisors_in_range(n, lo, hi)
        # the walk is taken exactly when the narrower side holds at most the bound
        narrower = min(hi - lo + 1, max(0, n // lo - -(-n // hi) + 1))
        assert _narrower_side(n, (lo, hi))[3] == (narrower <= bisect_right(_SMALL_PRIMES, math.isqrt(n)))
        # the meet-in-the-middle core, on [lo, hi] itself, whatever the route
        assert sum(j - i for _, i, j in _divisor_spans(n, lo, hi)[1]) == len(expected)
        for rng in ((lo, hi), DivisorRange(lo, hi)):
            assert divisors_in_range(n, rng) == expected
            assert _count_divisors_in_range(n, rng) == len(expected)

    def test_window_walk_never_factorizes(self, monkeypatch):
        class Factorized(Exception):
            pass

        def refuse(n):
            raise Factorized(n)

        monkeypatch.setattr(arith, "factorize", refuse)
        # the co-divisor range [28, 33] holds 6 candidates, against pi(109) = 29
        # trial divisions: 12,000 = 400 * 30 = 375 * 32
        assert windows.tau_interval(12000, (360, 434)) == 2
        assert divisors_in_range(12000, (360, 434)) == [375, 400]
        n = 78029614350786269655749865600
        root = math.isqrt(n)
        with pytest.raises(Factorized):
            _count_divisors_in_range(n, (root // 2, 2 * root))

    def test_count_with_8847360_divisors(self):
        # tau(n) = 8,847,360; 659,574 of them lie in [sqrt(n)/2, 2 sqrt(n)]
        n = 78029614350786269655749865600
        assert factorize(n).tau() == 8847360
        root = math.isqrt(n)
        rng = DivisorRange(root // 2, 2 * root)
        assert _count_divisors_in_range(n, rng) == 659574
        assert len(divisors_in_range(n, rng)) == 659574


class TestGcdLcm:
    def test_gcd_examples(self):
        assert gcd_pair(12, 18) == 6
        assert gcd_pair(7, 13) == 1
        for d in (1, 9, 100, 2**64):
            assert gcd_pair(d, d) == d

    def test_lcm_examples(self):
        assert lcm_factored([factorize(4), factorize(6)]).value == 12
        assert lcm_factored([factorize(10)]) == factorize(10)
        assert lcm_factored([factorize(10), factorize(15), factorize(6)]).value == 30

    def test_lcm_empty(self):
        with pytest.raises(ValueError):
            lcm_factored([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 10**9), min_size=1, max_size=6))
    def test_lcm_is_least(self, values):
        facts = [factorize(v) for v in values]
        ell = lcm_factored(facts)
        for v in values:
            assert ell.value % v == 0
        # no proper divisor works: dropping any prime once breaks divisibility
        for p, _ in ell.factors:
            smaller = ell.value // p
            assert any(smaller % v != 0 for v in values)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_gcd_lcm_product(self, a, b):
        ell = lcm_factored([factorize(a), factorize(b)])
        assert gcd_pair(a, b) * ell.value == a * b


def split_by_every_worker(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """The split with one edge per worker, empty ranges dropped afterwards."""
    width = hi - lo + 1
    edges = [lo + width * i // workers for i in range(workers + 1)]
    return [(a, b - 1) for a, b in zip(edges, edges[1:]) if a < b]


class TestSplitRange:
    def test_more_workers_than_integers(self):
        # a billion workers cost ten ranges, not a billion edges
        assert _split_range(1, 10, 10**9) == [(i, i) for i in range(1, 11)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-50, 50), st.integers(1, 60), st.integers(1, 80))
    def test_matches_one_edge_per_worker(self, lo, width, workers):
        hi = lo + width - 1
        assert _split_range(lo, hi, workers) == split_by_every_worker(lo, hi, workers)


class TestIroot:
    @pytest.mark.parametrize("e", [2, 3, 5])
    def test_around_exact_powers_past_the_float_range(self, e):
        t = 2**400
        assert _iroot(t**e - 1, e) == t - 1
        assert _iroot(t**e, e) == t
        assert _iroot(t**e + 1, e) == t

    def test_half_of_2_1100(self):
        r = _iroot(2**1100 // 2, 3)
        assert r**3 <= 2**1099 < (r + 1) ** 3

    def test_small_against_brute_force(self):
        for e in range(2, 8):
            for x in range(0, 3000):
                r = _iroot(x, e)
                assert r**e <= x < (r + 1) ** e, (x, e)


class TestExactDtype:
    def test_int64_up_to_2_63_minus_1(self):
        assert _exact_dtype(2**63 - 1) is np.int64
        assert _exact_dtype(2**63) is object

    def test_keys_take_uint32_below_2_32_then_the_exact_rule(self):
        assert _key_dtype(0) is _key_dtype(2**32 - 1) is np.uint32
        assert _key_dtype(2**32) is _key_dtype(2**63 - 1) is np.int64
        assert _key_dtype(2**63) is object
