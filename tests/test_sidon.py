"""Tests for Sidon verification and the square/cube Sidon windows."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauwindow.sidon import (
    cubes_window,
    is_sidon,
    squares_window,
    verify_window_range,
)
from tauwindow.spectral import additive_energy, trivial_energy


def quadruple_sidon_oracle(a):
    """Sidon iff all quadruple sums a1+b1 = a2+b2 are trivial; brute force."""
    elems = sorted(a)
    for a1 in elems:
        for b1 in elems:
            for a2 in elems:
                for b2 in elems:
                    if a1 + b1 == a2 + b2 and {a1, b1} != {a2, b2}:
                        return False
    return True


def sum_side_energy_oracle(a):
    """Energy via sum representations: independent of the difference route."""
    counts = {}
    for x in a:
        for y in a:
            counts[x + y] = counts.get(x + y, 0) + 1
    return sum(c * c for c in counts.values())


class TestIsSidon:
    def test_examples(self):
        verdict = is_sidon([1, 2, 3])
        assert not verdict.is_sidon
        assert verdict.witness == (1, 3, 2, 2)
        assert is_sidon([1, 2, 5, 11]).is_sidon
        assert is_sidon([99]).is_sidon

    def test_verdict_fields(self):
        verdict = is_sidon([1, 2, 5, 11])
        assert verdict.set_size == 4
        assert verdict.energy == trivial_energy(4) == verdict.trivial_energy

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=12, unique=True))
    def test_matches_quadruple_oracle(self, a):
        verdict = is_sidon(a)
        assert verdict.is_sidon == quadruple_sidon_oracle(a)
        assert verdict.energy == additive_energy(a)
        assert verdict.is_sidon == (verdict.energy == verdict.trivial_energy)

    def test_verdict_consistency_up_to_size_sixty(self):
        rng = random.Random(61)
        for size in (10, 25, 40, 60):
            a = rng.sample(range(8000), size)
            verdict = is_sidon(a)
            assert verdict.energy == sum_side_energy_oracle(a) == additive_energy(a)
            assert verdict.is_sidon == (verdict.energy == verdict.trivial_energy)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=2, max_size=15, unique=True))
    def test_witness_is_valid(self, a):
        verdict = is_sidon(a)
        if verdict.witness is not None:
            a1, b1, a2, b2 = verdict.witness
            assert a1 + b1 == a2 + b2
            assert {a1, b1} != {a2, b2}
            assert {a1, b1, a2, b2} <= set(a)

    def test_witness_determinism(self):
        a = [0, 1, 2, 4, 5, 100]
        assert is_sidon(a).witness == is_sidon(list(reversed(a))).witness == (0, 2, 1, 1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 10**4), min_size=1, max_size=12, unique=True),
        st.integers(-(10**6), 10**6),
        st.integers(1, 100),
    )
    def test_translation_dilation_invariance(self, a, t, u):
        assert is_sidon([t + u * x for x in a]).is_sidon == is_sidon(a).is_sidon


class TestWindows:
    def test_square_window_examples(self):
        assert squares_window(1) == (1, 4, 9)
        w = squares_window(100)
        assert len(w) == 29
        assert w[0] == 100**2 and w[-1] == 128**2

    def test_square_window_length_formula(self):
        for n in (1, 2, 17, 50, 1234, 10**6):
            assert len(squares_window(n)) == math.isqrt(8 * n) + 1

    def test_cube_window_examples(self):
        assert cubes_window(2) == (8, 27)
        assert cubes_window(16) == (16**3, 17**3, 18**3)

    def test_cube_width_exact_at_boundaries(self):
        # 2*t^3 <= n < 2*(t+1)^3 must give width exactly t
        for t in (1, 2, 3, 7, 40):
            n = 2 * t**3
            assert len(cubes_window(n)) == t + 1
            assert len(cubes_window(n - 1)) == t

    def test_windows_strictly_increasing(self):
        for n in (1, 9, 100, 4321):
            for w in (squares_window(n), cubes_window(n)):
                assert all(x < y for x, y in zip(w, w[1:]))


class TestVerifyRange:
    def test_square_small_range(self):
        report = verify_window_range("square", 1, 300)
        assert report.checked == 300
        assert report.failures == ()

    def test_cube_small_range(self):
        report = verify_window_range("cube", 1, 3000)
        assert report.checked == 3000
        assert report.failures == ()

    def test_single(self):
        assert verify_window_range("square", 7, 7).checked == 1

    def test_workers_agree(self):
        assert verify_window_range("cube", 1, 400, workers=2) == verify_window_range(
            "cube", 1, 400
        )

    def test_more_workers_than_values_agree(self):
        # 3 values of N over 4 workers: one range is empty and is dropped
        assert verify_window_range("cube", 5, 7, workers=4) == verify_window_range("cube", 5, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_window_range("fifth", 1, 10)
        with pytest.raises(ValueError):
            verify_window_range("square", 5, 4)
        for workers in (0, -1):
            with pytest.raises(ValueError):
                verify_window_range("square", 1, 10, workers=workers)


class TestShiftedSquareSumSolutions:
    def test_all_solutions_balance_shift_sums(self):
        # every solution of (N+s1)^2 + (N+s2)^2 = (N+s3)^2 + (N+s4)^2 inside
        # the window must have s1+s2 == s3+s4 (and is in fact trivial)
        for n in range(1, 501):
            width = math.isqrt(8 * n)
            buckets = {}
            for s1 in range(width + 1):
                for s2 in range(s1, width + 1):
                    key = (n + s1) ** 2 + (n + s2) ** 2
                    buckets.setdefault(key, []).append((s1, s2))
            for pairs in buckets.values():
                first_sum = pairs[0][0] + pairs[0][1]
                for s1, s2 in pairs[1:]:
                    assert s1 + s2 == first_sum
                # trivial: a colliding unordered pair is the same pair
                assert len(pairs) == 1
