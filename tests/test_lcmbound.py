"""Tests for the per-prime lcm lower-bound certificates."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauwindow.arith import factorize
from tauwindow.lcmbound import counterexample_s1, verify_lcm_bound


@dataclass(frozen=True)
class WeightPrefixResult:
    lhs: int
    rhs: int
    holds: bool


def weight_prefix_inequality(r: int, s: int, l: int) -> WeightPrefixResult:
    """Check that triangular weights prefix-dominate the binomial weights.

    The prefix sums satisfy sum_{i=s..l} delta_i >= sum_{i=s..l} gamma_i iff
    r! * (l-s+2)! >= l! * (r-s+2)!, which is checked here in exact integers
    and is true whenever 2 <= s <= l <= r.
    """
    if not 2 <= s <= l <= r:
        raise ValueError(f"need 2 <= s <= l <= r, got r={r}, s={s}, l={l}")
    lhs = factorial(r) * factorial(l - s + 2)
    rhs = factorial(l) * factorial(r - s + 2)
    return WeightPrefixResult(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def binomial_colsum_check(r: int, s: int) -> bool:
    """Hockey-stick identity: sum_{i=s..r} C(i-1, s-1) == C(r, s)."""
    if not 1 <= s <= r:
        raise ValueError(f"need 1 <= s <= r, got r={r}, s={s}")
    return sum(comb(i - 1, s - 1) for i in range(s, r + 1)) == comb(r, s)


def gamma_weights(r: int, s: int) -> dict[int, Fraction]:
    """Binomial weights gamma_i = C(i-1, s-1) / C(r, s) for i = s..r; sum to 1."""
    b = comb(r, s)
    return {i: Fraction(comb(i - 1, s - 1), b) for i in range(s, r + 1)}


def delta_weights(r: int, s: int) -> dict[int, Fraction]:
    """Triangular weights delta_i = 2(i-s+1) / (c(c+1)) for i = s..r; sum to 1."""
    c = r - s + 1
    return {i: Fraction(2 * (i - s + 1), c * (c + 1)) for i in range(s, r + 1)}


def global_cross_check(d, s: int) -> bool:
    """Whole-number form of the bound, cleared of roots:

        (prod subset lcms)^(c(c+1)) * (prod pair gcds)^(2B) >= (prod d_i)^(2Bc)

    Exact big-integer products over all C(r, s) subsets; practical for small r
    only, and deliberately independent of the per-prime route.
    """
    tup = tuple(int(x) for x in d)
    r = len(tup)
    if not 2 <= s <= r:
        raise ValueError(f"need 2 <= s <= r, got {s}")
    c = r - s + 1
    b = comb(r, s)
    prod_lcm = 1
    for subset in combinations(tup, s):
        prod_lcm *= lcm(*subset)
    prod_gcd = 1
    for x, y in combinations(tup, 2):
        prod_gcd *= gcd(x, y)
    prod_all = 1
    for x in tup:
        prod_all *= x
    return prod_lcm ** (c * (c + 1)) * prod_gcd ** (2 * b) >= prod_all ** (2 * b * c)


def subset_lcm_exponent_oracle(d, s, p):
    """Exponent of p in the product of lcms over all s-subsets, by enumeration."""
    exps = [factorize(x).exponent_of(p) for x in d]
    return sum(max(exps[i] for i in idx) for idx in combinations(range(len(d)), s))


class TestVerify:
    def test_sharp_block_shape(self):
        # s-1 ones followed by r-s+1 equal values: both sides coincide
        for r in range(2, 9):
            for s in range(2, r + 1):
                for d in (2, 6, 360):
                    tup = [1] * (s - 1) + [d] * (r - s + 1)
                    cert = verify_lcm_bound(tup, s)
                    assert cert.holds and cert.equality

    def test_sharp_triple_products(self):
        primes = [2, 3, 5, 7, 11]
        d = [a * b * c for a, b, c in combinations(primes, 3)]
        cert = verify_lcm_bound(d, 5)
        assert cert.instance.r == 10
        assert cert.holds and cert.equality

    def test_random_instances_hold(self):
        rng = random.Random(41)
        for _ in range(300):
            r = rng.randint(2, 7)
            d = [rng.randint(1, 10**6) for _ in range(r)]
            for s in range(2, r + 1):
                assert verify_lcm_bound(d, s).holds

    def test_s2_is_an_identity(self):
        # pairwise case: [a,b](a,b) = ab makes both sides agree exactly,
        # so every s=2 certificate reports equality
        rng = random.Random(59)
        for _ in range(100):
            r = rng.randint(2, 6)
            d = [rng.randint(1, 10**5) for _ in range(r)]
            assert verify_lcm_bound(d, 2).equality

    def test_global_cross_check_agrees(self):
        rng = random.Random(43)
        for _ in range(150):
            r = rng.randint(2, 4)
            d = [rng.randint(1, 10**4) for _ in range(r)]
            for s in range(2, r + 1):
                assert verify_lcm_bound(d, s).holds == global_cross_check(d, s) == True

    def test_exponent_closed_form_vs_enumeration(self):
        rng = random.Random(47)
        for _ in range(100):
            r = rng.randint(2, 6)
            d = [rng.randint(1, 3000) for _ in range(r)]
            s = rng.randint(2, r)
            cert = verify_lcm_bound(d, s)
            b = comb(r, s)
            c = r - s + 1
            for row in cert.per_prime:
                e_lcm = subset_lcm_exponent_oracle(d, s, row.p)
                e_all = sum(factorize(x).exponent_of(row.p) for x in d)
                assert row.lhs - 2 * b * sum(
                    (r - i) * row.exponents[i - 1] for i in range(1, r)
                ) == c * (c + 1) * e_lcm
                assert row.rhs == 2 * b * c * e_all

    def test_sorted_exponents_are_the_multiset(self):
        d = [12, 18, 50, 27]
        cert = verify_lcm_bound(d, 2)
        for row in cert.per_prime:
            alphas = sorted(factorize(x).exponent_of(row.p) for x in d)
            assert list(row.exponents) == alphas
            assert list(row.exponents) == sorted(row.exponents)

    def test_scaling_behaviour(self):
        # scaling every d_i by p^t adds t to each beta_i(p), which moves
        # lhs - rhs for that prime by exactly t * B * (s-1) * (s-2): equality
        # is preserved for s == 2 and strictly broken for s >= 3
        rng = random.Random(53)
        for _ in range(50):
            r = rng.randint(2, 5)
            d = [rng.randint(1, 1000) for _ in range(r)]
            s = rng.randint(2, r)
            base = verify_lcm_bound(d, s)
            p = rng.choice([2, 3, 5, 7])
            t = rng.randint(1, 3)
            scaled = verify_lcm_bound([x * p**t for x in d], s)
            assert scaled.holds and base.holds
            b = comb(r, s)
            shift = t * b * (s - 1) * (s - 2)
            base_rows = {row.p: row for row in base.per_prime}
            for row in scaled.per_prime:
                before = base_rows.get(row.p)
                old_margin = before.lhs - before.rhs if before else 0
                assert row.lhs - row.rhs == old_margin + (shift if row.p == p else 0)
            if s == 2:
                assert scaled.equality == base.equality

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_lcm_bound([4], 2)
        with pytest.raises(ValueError):
            verify_lcm_bound([4, 6], 3)
        with pytest.raises(ValueError):
            verify_lcm_bound([4, 6], 1)
        with pytest.raises(ValueError):
            verify_lcm_bound([4, 0], 2)


class TestCounterexample:
    def test_fails_for_d_at_least_two(self):
        for r in range(2, 7):
            for d in range(2, 11):
                cert = counterexample_s1(r, d)
                assert not cert.holds
                assert not cert.vacuous

    def test_numeric_gap_matches(self):
        # r=2, d=4: claimed bound 4^(1/2) >= 4^(2/3) is false
        cert = counterexample_s1(2, 4)
        assert not cert.holds
        assert 4 ** (1 / 2) < 4 ** (2 / 3)

    def test_d_one_vacuous(self):
        cert = counterexample_s1(2, 1)
        assert cert.vacuous
        assert cert.holds and cert.equality

    def test_validation(self):
        with pytest.raises(ValueError):
            counterexample_s1(1, 4)


class TestWeightMachinery:
    def test_prefix_inequality_examples(self):
        res = weight_prefix_inequality(4, 2, 4)
        assert res.lhs == res.rhs and res.holds
        res = weight_prefix_inequality(4, 2, 2)
        assert res.lhs == 48 and res.rhs == 48 and res.holds
        res = weight_prefix_inequality(6, 3, 4)
        assert res.lhs == 4320 and res.rhs == 2880 and res.holds

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.data())
    def test_prefix_inequality_always_holds(self, r, data):
        s = data.draw(st.integers(2, r))
        l = data.draw(st.integers(s, r))
        res = weight_prefix_inequality(r, s, l)
        assert res.holds
        # same statement in exact rationals, straight from the weight sums
        c = r - s + 1
        lhs = Fraction((l - s + 1) * (l - s + 2), c * (c + 1))
        rhs = Fraction(comb(l, s), comb(r, s))
        assert lhs >= rhs

    def test_prefix_inequality_validation(self):
        with pytest.raises(ValueError):
            weight_prefix_inequality(4, 1, 3)
        with pytest.raises(ValueError):
            weight_prefix_inequality(4, 3, 2)

    def test_binomial_colsum(self):
        assert binomial_colsum_check(5, 2)
        assert comb(5, 2) == 10
        assert binomial_colsum_check(7, 7)
        assert binomial_colsum_check(10, 5)
        assert comb(10, 5) == 252

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.data())
    def test_weight_sums_are_one(self, r, data):
        s = data.draw(st.integers(2, r))
        assert sum(gamma_weights(r, s).values()) == 1
        assert sum(delta_weights(r, s).values()) == 1


class TestGlobalForm:
    def test_direct_product_inequality(self):
        # spelled out once, without the package's own helpers
        d = [4, 6, 10]
        s = 2
        c, b = 2, 3
        prod_lcm = lcm(4, 6) * lcm(4, 10) * lcm(6, 10)
        prod_gcd = 2 * 2 * 2
        prod_all = 240
        assert prod_lcm ** (c * (c + 1)) * prod_gcd ** (2 * b) >= prod_all ** (2 * b * c)
        assert global_cross_check(d, s)
        assert verify_lcm_bound(d, s).holds
