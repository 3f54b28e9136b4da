"""Tests for tau in intervals, pair-lcm window scans, the reverse sieve oracle, the Ruzsa probe's two routes, and representation recovery."""

import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauwindow import windows
from tauwindow.arith import DivisorRange
from tauwindow.spectral import l2_norm_sq, l4_norm_4, representation_counts, TrigPolynomial
from tauwindow.windows import (
    RuzsaEntry,
    cube_window_scan,
    ruzsa_route,
    ruzsa_scan,
    square_representations,
    square_window_scan,
    tau_interval,
    window_multiple_counts,
    _pair_lcm_marks,
    _range_summary,
    _ruzsa_sieve,
)


def brute_window_counts(lo, hi, m_limit):
    counts = {}
    for m in range(1, m_limit + 1):
        t = sum(1 for d in range(lo, hi + 1) if m % d == 0)
        if t:
            counts[m] = t
    return counts


def mark_count(lo, hi, m_limit):
    """sum over d in [lo, hi] of floor(m_limit / d), by blocks of equal quotient."""
    total, d = 0, lo
    while d <= min(hi, m_limit):
        q = m_limit // d
        end = min(hi, m_limit // q)
        total += q * (end - d + 1)
        d = end + 1
    return total


def multiples_by_quotient(lo, hi, m_limit):
    """{m: tau(m; [lo, hi])} for m <= m_limit, from every d * q; for small m_limit / lo."""
    counts = {}
    for d in range(lo, min(hi, m_limit) + 1):
        for q in range(1, m_limit // d + 1):
            counts[d * q] = counts.get(d * q, 0) + 1
    return dict(sorted(counts.items()))


def expand(first, step, count):
    """first[i] + step[i] * r for r < count[i], for every i in order."""
    starts = np.repeat(np.cumsum(count) - count, count)
    offsets = np.arange(starts.size) - starts
    return np.repeat(first, count) + np.repeat(step, count) * offsets


def pair_lcm_marks_by_b(window, m0, m1):
    """The pair-lcm marks of [m0, m1], sorted, from one numpy pass per b."""
    dtype = np.int64 if m1 < 1 << 63 else object
    lo, hi = window.lo, window.hi
    parts = [np.empty(0, dtype=dtype)]
    for b in range(-(-hi // (hi - lo)), m1 // lo + 1):
        a = np.arange(-(-b * lo // hi), b)
        a = a[np.gcd(a, b) == 1].astype(dtype)
        ab = a * b
        g_lo = -(-lo // a)
        g_count = np.minimum(hi // b, m1 // ab) - g_lo + 1
        keep = g_count > 0
        g_lo, g_count = g_lo[keep], g_count[keep].astype(np.int64)
        lcm = np.repeat(ab[keep], g_count) * expand(g_lo, np.ones_like(g_lo), g_count)
        j_lo = -(-m0 // lcm)
        j_count = m1 // lcm - j_lo + 1
        keep = j_count > 0
        lcm = lcm[keep]
        parts.append(expand(lcm * j_lo[keep], lcm, j_count[keep].astype(np.int64)))
    marks = np.concatenate(parts)
    marks.sort()
    return marks


def tau_by_cofactor(m, lo, hi):
    """tau(m; [lo, hi]) as the number of cofactors q | m with lo <= m / q <= hi."""
    return sum(1 for q in range(-(-m // hi), m // lo + 1) if m % q == 0)


class TestTauInterval:
    def test_examples(self):
        assert tau_interval(12, DivisorRange(2, 6)) == 4
        assert tau_interval(97, DivisorRange(2, 96)) == 0
        assert tau_interval(36, (1, 36)) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            tau_interval(0, (1, 10))


class TestSquareScan:
    def test_small_example(self):
        rep = square_window_scan(10, 3)
        assert rep.window == DivisorRange(20, 26)
        assert rep.m_limit == 90
        assert rep.max_tau == 1
        assert rep.argmax_m == 20
        assert rep.histogram == {1: 24}
        assert brute_window_counts(20, 26, 90) == window_multiple_counts((20, 26), 90)

    def test_n50_k7(self):
        rep = square_window_scan(50, 7)
        brute = brute_window_counts(100, 114, 1050)
        assert rep.max_tau == max(brute.values()) == 1
        assert tau_interval(rep.argmax_m, rep.window) == rep.max_tau

    def test_histogram_consistency(self):
        for n, k in [(10, 3), (60, 9), (200, 40), (999, 30)]:
            rep = square_window_scan(n, k)
            counts = window_multiple_counts(rep.window, rep.m_limit)
            assert sum(rep.histogram.values()) == len(counts)
            assert rep.max_tau == max(rep.histogram)
            assert min(m for m, t in counts.items() if t == rep.max_tau) == rep.argmax_m

    def test_validation(self):
        with pytest.raises(ValueError):
            square_window_scan(5, 6)
        with pytest.raises(ValueError):
            square_window_scan(5, 0)
        for workers in (0, -1):
            with pytest.raises(ValueError):
                square_window_scan(5, 2, workers=workers)
            with pytest.raises(ValueError):
                cube_window_scan(5, 2, workers=workers)

    def test_monotone_in_k(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(10, 400)
            k = rng.randint(1, n - 1)
            assert square_window_scan(n, k + 1).max_tau >= square_window_scan(n, k).max_tau

    def test_worker_count_independence(self):
        base = square_window_scan(500, 70, workers=1)
        for workers in (2, 3):
            other = square_window_scan(500, 70, workers=workers)
            assert other == base

    def test_counts_empty_when_limit_below_window(self):
        assert window_multiple_counts((100, 200), 50) == {}
        assert window_multiple_counts((100, 200), 99) == {}
        partial = window_multiple_counts((100, 200), 450)
        assert partial == multiples_by_quotient(100, 200, 450)
        assert partial == brute_window_counts(100, 200, 450)

    def test_last_multiple_counted_past_2_53(self):
        # m_limit = 3 * 10^16 = 15 * (2N): np.arange(d, m_limit + 1, d) computes
        # its length in floating point and drops this last multiple
        rep = square_window_scan(10**15, 10)
        assert rep.histogram == {1: 295} == {1: mark_count(2 * 10**15, 2 * 10**15 + 20, 3 * 10**16)}
        counts = window_multiple_counts(rep.window, rep.m_limit)
        assert counts[3 * 10**16] == 1
        assert counts == multiples_by_quotient(rep.window.lo, rep.window.hi, rep.m_limit)

    def test_workers_split_exactly_past_2_53(self):
        # range edges must be exact ints: rounded through floats they miss marks
        base = square_window_scan(10**17 + 1, 10, workers=1)
        assert square_window_scan(10**17 + 1, 10, workers=2) == base
        assert base.histogram == {1: mark_count(base.window.lo, base.window.hi, base.m_limit)}

    @pytest.mark.parametrize("m_limit", [2**63 - 1, 2**63])
    def test_counts_on_each_side_of_the_int64_limit(self, m_limit):
        # the largest multiple of the window's middle element is m_limit itself
        q = 7 if m_limit % 2 else 8
        d = m_limit // q
        counts = window_multiple_counts((d - 3, d + 3), m_limit)
        assert counts == multiples_by_quotient(d - 3, d + 3, m_limit)
        assert counts[m_limit] == 1


def _scan_bands():
    # the sieve oracle makes about 21 * n * k^2 marks for a cube scan, so only
    # squares (about 3k^2 marks) reach the large bands
    small = st.one_of(
        st.tuples(st.just("square"), st.integers(1, 300), st.integers(1, 20)),
        st.tuples(st.just("cube"), st.integers(1, 40), st.integers(1, 4)),
    )
    # window ends and marks above 2^53, m_limit below 2^63 (int64 marks)
    past_2_53 = st.tuples(st.just("square"), st.integers(2**52, 2**56), st.integers(1, 30))
    # m_limit >= 2^63 (exact Python-int marks)
    past_2_63 = st.tuples(st.just("square"), st.integers(2**62, 2**70), st.integers(1, 4))
    return st.one_of(small, past_2_53, past_2_63)


class TestScanDifferential:
    @settings(max_examples=40, deadline=None)
    @given(_scan_bands(), st.randoms(use_true_random=False))
    def test_workers_mass_and_direct_counts(self, case, rnd):
        kind, n, k = case
        k = min(k, n)
        scan = square_window_scan if kind == "square" else cube_window_scan
        rep = scan(n, k, workers=1)
        for workers in (2, 3):
            assert scan(n, k, workers=workers) == rep
        w = rep.window
        assert sum(t * c for t, c in rep.histogram.items()) == mark_count(w.lo, w.hi, rep.m_limit)
        assert rep.max_tau == max(rep.histogram) == tau_interval(rep.argmax_m, w)
        assert tau_by_cofactor(rep.argmax_m, w.lo, w.hi) == rep.max_tau
        for _ in range(5):
            d = rnd.randint(w.lo, min(w.hi, rep.m_limit))
            m = d * rnd.randint(1, rep.m_limit // d)
            assert 1 <= tau_interval(m, w) == tau_by_cofactor(m, w.lo, w.hi) <= rep.max_tau

    @settings(max_examples=40, deadline=None)
    @given(_scan_bands())
    @example(("square", 300, 20))
    @example(("cube", 40, 4))
    def test_pair_lcm_report_matches_the_sieve(self, case):
        kind, n, k = case
        k = min(k, n)
        scan = square_window_scan if kind == "square" else cube_window_scan
        rep = scan(n, k, workers=1)
        counts = window_multiple_counts(rep.window, rep.m_limit)
        histogram = dict(Counter(counts.values()))
        max_tau = max(histogram)
        argmax_m = min(m for m, t in counts.items() if t == max_tau)
        for workers in (1, 2, 3):
            rep = scan(n, k, workers=workers)
            assert (rep.histogram, rep.max_tau, rep.argmax_m) == (histogram, max_tau, argmax_m)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 60),
        st.integers(2**62, 2**66),
        st.integers(0, 200),
        st.integers(0, 200),
        st.integers(0, 10**4),
        st.integers(0, 10**4),
    )
    @example(40, 2**63 + 2**40, 7, 9, 5000, 5000)
    def test_pair_lcm_kernel_past_2_63(self, b, target, x, y, below, above):
        # d1 = g*(b - 1) and d2 = g*b share the lcm g*b*(b - 1) near target, so
        # m in [m0, m1] has pairs, and its window divisors have cofactors
        # within one of b; no scan window has pairs this far out at a cost an
        # oracle can match
        g = target // (b * (b - 1))
        lo, hi = g * (b - 1) - x, g * b + y
        m0, m1 = g * b * (b - 1) - below, g * b * (b - 1) + above
        taus = [tau_by_cofactor(m, lo, hi) for m in range(m0, m1 + 1)]
        hist, first_max = _range_summary((DivisorRange(lo, hi), m0, m1))
        expected = Counter(t for t in taus if t)
        assert {t: c for t, c in enumerate(hist.tolist()) if c} == dict(expected)
        assert hist.size - 1 == max(taus) >= 2
        assert first_max == m0 + taus.index(max(taus))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 2**70), st.integers(0, 40), st.integers(1, 40), st.integers(0, 2**70)
    )
    def test_window_counts_either_loop_order(self, lo, width, q_max, offset):
        # the kernel loops over d when the window is shorter than the cofactor range
        m_limit = lo * q_max + offset % lo
        counts = window_multiple_counts((lo, lo + width), m_limit)
        assert counts == multiples_by_quotient(lo, lo + width, m_limit)


@st.composite
def _kernel_ranges(draw):
    """(window, m0, m1) for _pair_lcm_marks: a scan window with its full m-range
    or a sub-range as the pool makes, or a window with pairs past 2^63."""
    if draw(st.booleans()):
        # the scan bands, and squares with k near sqrt(n), which have many pairs
        dense = st.tuples(st.just("square"), st.integers(30, 300), st.integers(5, 30))
        kind, n, k = draw(st.one_of(_scan_bands(), dense))
        k = min(k, n)
        if kind == "square":
            window, m_limit = DivisorRange(2 * n, 2 * n + 2 * k), 3 * n * k
        else:
            window, m_limit = DivisorRange(3 * n * n, 3 * n * n + 9 * n * k), 7 * n * n * k
        if draw(st.booleans()):
            return window, window.lo, m_limit
        m0 = draw(st.integers(window.lo, max(window.lo, m_limit)))
        return window, m0, draw(st.integers(m0, max(m0, m_limit)))
    b, target = draw(st.integers(3, 60)), draw(st.integers(2**62, 2**66))
    return _pairs_near(b, target, *(draw(st.integers(0, bound)) for bound in (200, 200, 10**4, 10**4)))


def _pairs_near(b, target, x, y, below, above):
    """A window holding g*(b - 1) and g*b, and an m-range around their lcm near target."""
    g = target // (b * (b - 1))
    window = DivisorRange(g * (b - 1) - x, g * b + y)
    return window, g * b * (b - 1) - below, g * b * (b - 1) + above


class TestPairLcmKernel:
    @settings(max_examples=60, deadline=None)
    @given(_kernel_ranges(), st.sampled_from([1, 2, 7]))
    @example((DivisorRange(200, 260), 200, 9000), 1)
    @example((DivisorRange(4800, 6240), 4800, 44800), 7)
    @example((DivisorRange(4800, 6240), 20000, 30000), 2)
    @example(_pairs_near(40, 2**63 + 2**40, 7, 9, 5000, 5000), 2)
    def test_blocks_match_the_per_b_loop(self, case, block):
        # blocks of 1, 2 and 7 entries put a block edge inside every level
        window, m0, m1 = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(windows, "_BLOCK", block)
            marks = _pair_lcm_marks(window, m0, m1)
        expected = pair_lcm_marks_by_b(window, m0, m1)
        assert marks.dtype == expected.dtype
        assert marks.tolist() == expected.tolist()

    def test_memory_is_the_marks_plus_one_block(self):
        # the window and m-range of square_window_scan(10**5, 3000)
        window = DivisorRange(2 * 10**5, 2 * 10**5 + 6000)
        tracemalloc.start()
        try:
            marks = _pair_lcm_marks(window, window.lo, 9 * 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert marks.size == 982014
        assert peak <= marks.nbytes + 2 * 2**20


class TestPairFreeWindows:
    """Two divisors d1 < d2 of [2N, 2N+2k] have gcd <= d2 - d1 <= 2k, so
    lcm(d1, d2) >= (2N)^2 / 2k = 2N^2 / k, which exceeds m_limit = 3Nk once
    3k^2 < 2N: then every touched m has exactly one window divisor."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.one_of(st.integers(0, 2**40), st.integers(2**62, 2**70)))
    def test_square_scans_below_the_r2_bound(self, k, extra):
        n = 3 * k * k // 2 + 1 + extra
        rep = square_window_scan(n, k)
        assert rep.max_tau == 1
        assert rep.argmax_m == 2 * n
        assert rep.histogram == {1: mark_count(2 * n, 2 * n + 2 * k, 3 * n * k)}

    def test_fixed_square_case(self):
        rep = square_window_scan(10**9, 2000)
        assert (rep.max_tau, rep.argmax_m) == (1, 2 * 10**9)
        assert rep.histogram == {1: 11999000} == {1: mark_count(2 * 10**9, 2 * 10**9 + 4000, 6 * 10**12)}

    def test_b_range_starting_past_int64(self):
        # hi / (hi - lo) = 2**70 + 1, so the kernel's b range is empty
        n = 2**70
        rep = square_window_scan(n, 1)
        assert (rep.max_tau, rep.argmax_m) == (1, 2 * n)
        assert rep.histogram == {1: mark_count(2 * n, 2 * n + 2, 3 * n)}

    def test_histogram_past_int64_stays_exact(self):
        # cube windows are pair-free once n > 7k^2 (lcm >= n^3 / k > 7n^2 k);
        # here the one-divisor count itself passes 2^63
        n, k = 2**42, 400
        rep = cube_window_scan(n, k)
        count = mark_count(3 * n * n, 3 * n * n + 9 * n * k, 7 * n * n * k)
        assert count > 2**63
        assert (rep.max_tau, rep.argmax_m, rep.histogram) == (1, 3 * n * n, {1: count})


class TestCubeScan:
    def test_small_example(self):
        rep = cube_window_scan(10, 2)
        assert rep.window == DivisorRange(300, 480)
        assert rep.m_limit == 1400
        brute = brute_window_counts(300, 480, 1400)
        assert rep.max_tau == max(brute.values()) == 2
        assert rep.argmax_m == 900
        assert window_multiple_counts(rep.window, rep.m_limit) == brute

    def test_k1_small_n(self):
        for n in (2, 3, 5, 9):
            rep = cube_window_scan(n, 1)
            brute = brute_window_counts(rep.window.lo, rep.window.hi, rep.m_limit)
            assert rep.max_tau == max(brute.values())

    def test_window_lo_always_touched(self):
        for n, k in [(2, 1), (10, 2), (40, 5)]:
            rep = cube_window_scan(n, k)
            assert rep.m_limit >= rep.window.lo
            assert rep.max_tau >= 1


class TestRuzsaScan:
    def test_perfect_square(self):
        entry = ruzsa_scan(36, 36, 0.49)[0]
        assert entry.count >= 1  # 6 divides 36 and sits at the interval's left end

    def test_primes_have_no_divisors_there(self):
        for eps in (0.05, 0.2, 0.45):
            for p in (97, 211, 499):
                assert ruzsa_scan(p, p, eps)[0].count == 0

    def test_360_interval_counts(self):
        # sqrt(360) = 18.97..., so the interval starts at 19
        # width 360^0.2 = 3.24..: [19, 22] catches divisor 20 only
        assert ruzsa_scan(360, 360, 0.3)[0] == RuzsaEntry(360, 1, 1)
        # width 360^0.3 = 5.84..: [19, 24] catches 20 and 24
        assert ruzsa_scan(360, 360, 0.2)[0] == RuzsaEntry(360, 2, 2)

    def test_running_max_and_order(self):
        entries = ruzsa_scan(2, 600, 0.25)
        assert [e.n for e in entries] == list(range(2, 601))
        best = 0
        for e in entries:
            best = max(best, e.count)
            assert e.running_max == best

    def test_validation(self):
        with pytest.raises(ValueError):
            ruzsa_scan(10, 5, 0.2)
        with pytest.raises(ValueError):
            ruzsa_scan(1, 10, 0.7)


def ruzsa_counts_by_n(n_lo, n_hi, eps):
    """hi(N) as ruzsa_scan evaluates it, and tau(N; [ceil(sqrt(N)), hi(N)]) by tau_interval, for each N."""
    tops = [math.floor(math.sqrt(n) + n ** (0.5 - eps)) for n in range(n_lo, n_hi + 1)]
    counts = []
    for n, hi in zip(range(n_lo, n_hi + 1), tops):
        lo = math.isqrt(n - 1) + 1
        counts.append(tau_interval(n, (lo, hi)) if lo <= hi else 0)
    return tops, counts


@st.composite
def _ruzsa_ranges(draw):
    """(n_lo, n_hi, eps): N from 1, or a short range that starts at, ends at or
    holds a base 10^12, 2^63 or 2^90, a perfect square s*s or a product
    s*(s + j) near it; eps keeps the sieve's d-axis to about 10^4 steps and
    the ranges keep the per-N oracle to a fraction of a second."""
    region = draw(st.sampled_from(["small", "1e12", "2^63", "2^90"]))
    if region == "small":
        n_lo = draw(st.integers(1, 50))
        return n_lo, n_lo + draw(st.integers(0, 300)), draw(st.floats(0.01, 0.49))
    base, width, eps_min = {"1e12": (10**12, 300, 0.15), "2^63": (2**63, 100, 0.3), "2^90": (2**90, 6, 0.38)}[region]
    s = math.isqrt(base) + draw(st.integers(-1000, 1000))
    anchor = draw(st.sampled_from([base, s * s, s * (s + draw(st.integers(1, 3)))]))
    size = draw(st.integers(0, width))
    n_lo = anchor - draw(st.sampled_from([0, size, size // 2]))
    return n_lo, n_lo + size, draw(st.floats(eps_min, 0.49))


class TestRuzsaSieve:
    @settings(max_examples=80, deadline=None)
    @given(_ruzsa_ranges(), st.sampled_from([1, 7, windows._BLOCK]))
    @example((1, 1, 0.25), 1)
    @example((1, 400, 0.01), 7)
    @example((10**12, 10**12 + 300, 0.25), 1)
    @example((2**63 - 50, 2**63 + 50, 0.3), 7)
    @example((math.isqrt(2**90) ** 2, math.isqrt(2**90) ** 2 + 6, 0.45), 1)
    def test_sieve_matches_tau_interval(self, case, block):
        # blocks of 1 and 7 put a block edge inside both the d and the cofactor level
        n_lo, n_hi, eps = case
        tops, counts = ruzsa_counts_by_n(n_lo, n_hi, eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(windows, "_BLOCK", block)
            assert _ruzsa_sieve(n_lo, tops) == counts
        assert [e.count for e in ruzsa_scan(n_lo, n_hi, eps)] == counts

    @staticmethod
    def routes_taken(monkeypatch):
        taken = []
        for name in ("_ruzsa_sieve", "_ruzsa_per_n"):
            def spy(*args, real=getattr(windows, name), name=name):
                taken.append(name)
                return real(*args)

            monkeypatch.setattr(windows, name, spy)
        return taken

    def test_readme_and_benchmark_ranges_take_the_sieve(self, monkeypatch):
        taken = self.routes_taken(monkeypatch)
        ruzsa_scan(2, 10**4, 0.25)
        ruzsa_scan(10**12, 10**12 + 5000, 0.25)
        assert taken == ["_ruzsa_sieve", "_ruzsa_sieve"]
        assert ruzsa_route(2, 10**4, 0.25) == ruzsa_route(10**12, 10**12 + 5000, 0.25) == "sieve"

    def test_tiny_eps_near_2_90_takes_the_per_n_route(self, monkeypatch):
        # the d-axis is about 2^44 steps long, the per-N route 11 * 564 divisions
        taken = self.routes_taken(monkeypatch)
        start = time.perf_counter()
        entries = ruzsa_scan(2**90, 2**90 + 10, 0.01)
        assert time.perf_counter() - start < 30
        assert taken == ["_ruzsa_per_n"]
        assert ruzsa_route(2**90, 2**90 + 10, 0.01) == "per-N"
        assert [e.count for e in entries] == [1, 16, 0, 1, 1, 0, 3, 0, 0, 0, 0]


class TestSquareRepresentations:
    def test_adjacent_squares(self):
        for n in (5, 50, 1234):
            m = 2 * n + 1
            assert square_representations(m, n, 3) == [((n + 1) ** 2, n**2)]

    def test_out_of_reach(self):
        n, k = 50, 7
        assert square_representations(2 * n * k + k * k + 1, n, k) == []

    def test_counts_match_pair_enumeration(self):
        n, k = 50, 7
        freqs = [(n + s) ** 2 for s in range(k + 1)]
        r = representation_counts(freqs)
        window = DivisorRange(2 * n, 2 * n + 2 * k)
        for m in range(1, 2 * n * k + k * k + 1):
            reps = square_representations(m, n, k)
            assert len(reps) == r.get(m, 0)
            assert len(reps) <= tau_interval(m, window)
            for n1, n2 in reps:
                assert n1 - n2 == m and n1 in freqs and n2 in freqs

    def test_parity_rejection_is_exact(self):
        # m = 2 has divisor 2 in the window of n=1, k=1 ([2,4]) but d-2n+e odd
        assert square_representations(2, 1, 1) == []


class TestCombinedCertificate:
    def test_scan_bounds_polynomial_norm(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(20, 500)
            k = rng.randint(1, max(1, int(n**0.6)))
            rep = square_window_scan(n, k)
            freqs = [(n + s) ** 2 for s in range(k + 1)]
            f = TrigPolynomial(
                {q: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for q in freqs}
            )
            l2sq = l2_norm_sq(f)
            assert l4_norm_4(f) <= (1 + rep.max_tau) * l2sq * l2sq * (1 + 1e-9)
