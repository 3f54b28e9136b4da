"""Tests for Sidon verification and the square/cube Sidon windows."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauwindow import sidon
from tauwindow.sidon import (
    _check_span,
    _difference_rows,
    _width_run_end,
    _window_width,
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


def witness_oracle(a):
    """Every pair sum in a dict; the smallest sum with two pairs, and its two
    lexicographically smallest pairs.  None for a Sidon set."""
    elems = sorted(a)
    buckets = {}
    for i, x in enumerate(elems):
        for y in elems[i:]:
            buckets.setdefault(x + y, []).append((x, y))
    for total in sorted(buckets):
        pairs = sorted(buckets[total])
        if len(pairs) > 1:
            (a1, b1), (a2, b2) = pairs[0], pairs[1]
            return (a1, b1, a2, b2)
    return None


@st.composite
def _witness_sets(draw):
    # small sets, optionally with a forced x + x = y + z, dilated so that the
    # kernel's set B = (-c - a') u a' can pass 2^63, and shifted past 2^63 or below 0
    a = set(draw(st.lists(st.integers(0, 60), min_size=1, max_size=14)))
    if draw(st.booleans()):
        x, d = draw(st.integers(1, 60)), draw(st.integers(1, 30))
        a |= {x - d, x, x + d}
    scale = draw(st.sampled_from([1, 7, 2**61]))
    shift = draw(st.sampled_from([0, -(10**6), 2**63 - 30, 2**70, -(2**70)]))
    return [shift + scale * v for v in a]


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

    def test_witness_of_a_sidon_set_is_refused(self):
        # the sums 2, 3, 4, 5, 6, 8 of (1, 2, 4) are distinct
        with pytest.raises(RuntimeError, match="witness requested for a Sidon set"):
            sidon._find_witness((1, 2, 4))

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

    @settings(max_examples=300, deadline=None)
    @given(_witness_sets())
    @example([1, 2, 3])
    @example([-5, -3, -1, 0, 2])
    @example([2**63 + v for v in (0, 1, 3, 4, 6)])
    @example([2**62 * v for v in (0, 1, 2, 5)])
    def test_witness_matches_the_dict_oracle(self, a):
        assert is_sidon(a).witness == witness_oracle(a)

    @pytest.mark.parametrize(
        "a, witness", [(range(1, 2001), (1, 3, 2, 2)), ([i * i for i in range(1, 2001)], (1, 49, 25, 25))]
    )
    def test_witness_memory_is_a_few_blocks(self, a, witness):
        # no table of all |A|(|A|+1)/2 pair sums: a dict of those of range(1, 2001) traces 124 MiB
        tracemalloc.start()
        try:
            verdict = is_sidon(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.witness == witness
        assert peak <= 16 * 2**20

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


def window_for(kind, n):
    return squares_window(n) if kind == "square" else cubes_window(n)


def failures_by_n(kind, lo, hi):
    """The per-N reference: is_sidon on the window of every N."""
    return [n for n in range(lo, hi + 1) if not is_sidon(window_for(kind, n)).is_sidon]


def first_cube_past_int64():
    """Least N whose cube window has its largest difference at or above 2^63."""
    lo, hi = 1, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid + _window_width("cube", mid)) ** 3 - mid**3 >= 1 << 63:
            hi = mid
        else:
            lo = mid + 1
    return lo


def first_of_width(kind, w):
    """Least N whose window has width at least w; the width changes there."""
    return -(-(w * w) // 8) if kind == "square" else 2 * w**3


@st.composite
def _boundary_ranges(draw):
    # ranges that start at, end at, end just before or cross a width change
    kind = draw(st.sampled_from(["square", "cube"]))
    edge = first_of_width(kind, draw(st.integers(1, 120 if kind == "square" else 40)))
    size = draw(st.integers(0, 40))
    lo = max(1, edge - draw(st.sampled_from([0, size, size // 2, size + 1])))
    return kind, lo, lo + size


def widened(mp, extra):
    """Widen every window by extra elements, through the one width helper."""
    mp.setattr(sidon, "_window_width", lambda kind, n, real=_window_width: real(kind, n) + extra)


class TestBatchedKernel:
    @settings(max_examples=80, deadline=None)
    @given(_boundary_ranges(), st.sampled_from([1, 7, sidon._BLOCK]), st.sampled_from([0, 3, 20]))
    @example(("square", 1, 300), 7, 3)
    @example(("cube", 1, 60), 1, 20)
    @example(("cube", 2 * 3**3 - 5, 2 * 3**3 + 5), 7, 0)
    def test_matches_is_sidon_per_n(self, case, block, extra):
        # widened windows are not Sidon, so the failure path is compared too;
        # blocks of 1 and 7 entries put a block edge inside every run
        with pytest.MonkeyPatch.context() as mp:
            widened(mp, extra)
            expected = failures_by_n(*case)
            mp.setattr(sidon, "_BLOCK", block)
            assert _check_span(*case) == expected

    @settings(max_examples=20, deadline=None)
    @given(_boundary_ranges(), st.sampled_from([1, 2, 3]))
    def test_split_range_matches_is_sidon_per_n(self, case, workers):
        kind, lo, hi = case
        report = verify_window_range(kind, lo, hi, workers=workers)
        assert report.failures == tuple(failures_by_n(*case))
        assert report.checked == hi - lo + 1

    @pytest.mark.parametrize("kind, hi, extra, count", [("square", 300, 3, 114), ("cube", 60, 20, 8)])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_widened_windows_fail_alike(self, monkeypatch, kind, hi, extra, count, workers):
        # every part runs in this process, so each sees the widened helper
        widened(monkeypatch, extra)
        expected = failures_by_n(kind, 1, hi)
        assert len(expected) == count
        assert verify_window_range(kind, 1, hi, workers=workers).failures == tuple(expected)

    def test_cubes_at_2_27_take_the_object_table(self):
        lo, hi = 2**27, 2**27 + 2
        assert all(rows.dtype == object for _, rows in _difference_rows("cube", lo, hi))
        assert _check_span("cube", lo, hi) == failures_by_n("cube", lo, hi) == []

    def test_memory_is_a_few_blocks(self):
        # the diff table, its sorted copy and the pair indices are each at most
        # one block of 8-byte entries; no table of a whole run is ever built
        block_bytes = 8 * sidon._BLOCK
        tracemalloc.start()
        try:
            report = verify_window_range("square", 1, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.failures == ()
        assert peak <= 16 * block_bytes

    @pytest.mark.parametrize("lo, hi", [(1, 100000), (2**21, 2**21 + 999)])
    def test_cube_memory_is_a_few_blocks(self, lo, hi):
        # a cube run holds three coefficient rows of at most one block each
        # (w = 101 at 2^21: 5151 pairs), beside one block of differences
        tracemalloc.start()
        try:
            report = verify_window_range("cube", lo, hi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.failures == ()
        assert peak <= 16 * 8 * sidon._BLOCK

    # squares at N = 100003 fail from extra = 7 on; the cube windows there stay
    # Sidon even 800 wider, so their object table is compared on passes only
    @pytest.mark.parametrize("extra", [0, 3, 7])
    @pytest.mark.parametrize(
        "kind, lo",
        [
            # the object table: the run's largest difference passes 2^63
            ("cube", first_cube_past_int64() - 2),
            # w = 894, so C(w + 1, 2) pairs make one row per block
            ("square", 100000),
        ],
    )
    def test_widened_wide_windows_fail_alike(self, monkeypatch, kind, lo, extra):
        widened(monkeypatch, extra)
        assert _check_span(kind, lo, lo + 3) == failures_by_n(kind, lo, lo + 3)


class TestWidthRuns:
    @pytest.mark.parametrize("kind, limit", [("square", 3000), ("cube", 2 * 12**3 + 5)])
    def test_runs_match_window_lengths(self, kind, limit):
        n = 1
        while n <= limit:
            end = _width_run_end(kind, n)
            assert end >= n
            w = _window_width(kind, n)
            assert {len(window_for(kind, m)) - 1 for m in range(n, end + 1)} == {w}
            assert len(window_for(kind, end + 1)) - 1 > w
            n = end + 1

    @pytest.mark.parametrize("kind", ["square", "cube"])
    @pytest.mark.parametrize("w", [2, 3, 126, 10**6, 2**40 + 1])
    def test_run_ends_at_large_widths(self, kind, w):
        start = first_of_width(kind, w)
        end = _width_run_end(kind, start)
        assert _window_width(kind, start) == _window_width(kind, end) >= w
        assert _window_width(kind, end + 1) > _window_width(kind, end)
        assert _window_width(kind, start - 1) < _window_width(kind, start)

    @pytest.mark.parametrize("t", [1, 2, 12, 2**10, 2**20, 2**31 - 1])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_cube_widths_around_2t3(self, t, offset):
        # the cube width and run end switch exactly at n = 2t^3
        n = 2 * t**3 + offset
        width = t if 2 * t**3 <= n else t - 1
        assert 2 * width**3 <= n < 2 * (width + 1) ** 3
        assert _window_width("cube", n) == width
        assert _width_run_end("cube", n) == 2 * (width + 1) ** 3 - 1


def gap_ordered_differences(window):
    """The positive differences window[i + g] - window[i], ordered by gap g, then by i."""
    w = len(window) - 1
    return tuple(window[i + g] - window[i] for g in range(1, w + 1) for i in range(w + 1 - g))


def rows_by_n(kind, first, last):
    """(n, row) for each N the blocks of _difference_rows hold, and the set of their dtypes."""
    blocks = list(_difference_rows(kind, first, last))
    pairs = [(start + r, tuple(int(x) for x in row)) for start, rows in blocks for r, row in enumerate(rows)]
    return pairs, {rows.dtype for _, rows in blocks}


class TestDifferenceRows:
    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_cube_rows_around_the_int64_switch(self, offset):
        # cube blocks ending just below, at and above the switch from int64 to
        # Python ints (squares reach it only at widths of millions)
        last = first_cube_past_int64() + offset
        first = last - 2
        assert _width_run_end("cube", first) >= last
        pairs, dtypes = rows_by_n("cube", first, last)
        assert dtypes == {np.dtype(object) if offset >= 0 else np.dtype(np.int64)}
        assert pairs == [(n, gap_ordered_differences(cubes_window(n))) for n in range(first, last + 1)]

    # squares stop at w = 894: a row holds C(w + 1, 2) differences, 8.4e6 at
    # N = 2^21 and 5.4e8 at 2^27
    @pytest.mark.parametrize(
        "first, kind",
        [(n, "cube") for n in (1, 2, 17, 2000, 2**21, 2**27)] + [(n, "square") for n in (1, 2, 17, 2000, 100000)],
    )
    def test_rows_at_small_and_large_n(self, first, kind):
        last = min(first + 4, _width_run_end(kind, first))
        pairs, dtypes = rows_by_n(kind, first, last)
        assert dtypes == {np.dtype(object) if (kind, first) == ("cube", 2**27) else np.dtype(np.int64)}
        assert pairs == [(n, gap_ordered_differences(window_for(kind, n))) for n in range(first, last + 1)]
