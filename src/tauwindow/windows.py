"""Divisor counts in short intervals and the pair-lcm window scan.

tau_interval(m, [a, b]) counts divisors of a single m.  The scans count
tau(m; window) for every m <= m_limit at once, from pairs of window divisors:
d1 = g*a < d2 = g*b with gcd(a, b) = 1 both divide m iff their lcm g*a*b
does, and g*a >= lo forces b <= m_limit / lo.  An m with t window divisors is
hit by exactly C(t, 2) pair-lcm multiples, so the hit counts give every
tau >= 2; the m with tau = 1 are what is left of sum_d floor(m_limit / d),
which is summed over blocks of equal quotient.  The cost is
sum_m C(tau(m), 2) multiples plus the pairs that produce them, enumerated in
numpy blocks of _BLOCK entries however large the window endpoints are.  The
pairs are walked once: that walk counts the marks and records the coprime
pairs that can make them, each a and each b with its number of pairs in
4 bytes apiece while b < 2^32, and a second pass fills the marks from that
record.  So the memory is one mark array of exact size, the record and one
block while the marks are made, and the marks and one block while their
runs are summed.  Square scans use the window [2N, 2N+2k] with m <= 3Nk,
cube scans [3N^2, 3N^2+9Nk] with m <= 7N^2*k: these are exactly the
window/limit pairs produced by factoring differences of adjacent squares
and cubes, so per-m counts bound the representation functions of those
sets.  Two divisors of a square window have gcd <= 2k, so their lcm is at
least 2N^2/k and a scan with 3k^2 < 2N has no pairs at all.  A mark m in
[m0, m1] is stored as its offset m - m0, in the one rule of
arith._key_dtype: uint32 when m1 - m0 < 2^32, int64 when m1 - m0 < 2^63
however large m1 is, and exact Python ints beyond; the levels above the
marks take arith._exact_dtype(m1).  With workers > 1 a scan splits
[window.lo, m_limit] into that many equal m-ranges, run one after another in
this process, each with its own m0, so more parts take narrower keys; each
returns only its histogram and first argmax, so merging adds histograms.
window_multiple_counts keeps the reverse sieve, one mark for every multiple
of every window element, as the per-m oracle.  The scan, this sieve and the
Ruzsa sieve build their marks by one stage, _multiples: the multiples in
[m0, m1] of each step with cofactor in a range, as progressions, which
_offsets turns into progressions of _key_dtype(m1 - m0) keys.

ruzsa_scan counts, for every N in [A, B], the divisors d of N in
[sqrt(N), hi(N)], hi(N) = floor(sqrt(N) + N^(1/2 - eps)).  It has two routes.
The sieve walks d instead of N: a divisor d has d >= sqrt(N) exactly when
its cofactor q = N/d has q <= d, so d runs over [ceil(sqrt(A)), max hi(N)],
q over [ceil(A/d), min(d, B/d)], and N = d*q counts d when d <= hi(N): the
_multiples of d in [A, B] with cofactor in [1, d].  The counts are indexed by
N - A <= B - A, in the same arith._key_dtype(B - A) as the scan's marks; past
2^63 only the d block and its first multiples are exact Python ints.  The per-N
route calls tau_interval, which walks the narrower of N's window and its
co-divisor range when it holds no more candidates than the trial divisions
factorizing N would start with, and factorizes N otherwise.  Both read hi(N)
from one Python float expression (numpy's power can differ by one ulp), so
their counts are equal.  ruzsa_route picks by operation count, with no tuned
constant: the sieve makes one step per d, about sqrt(B) - sqrt(A) +
B^(1/2-eps) of them, and the per-N route at most pi(min(4096, sqrt(B)))
trial divisions or walk steps per N; the sieve runs when its steps are no
more.  With a tiny eps near 2^96 the d-axis is far longer than the N-axis,
and the per-N route runs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .arith import MAX_VALUE, DivisorRange, InputError, divisors_in_range, _BLOCK, _count_divisors_in_range, _exact_dtype, _integer, _key_dtype, _run_bounds, _split_range, _trial_divisions

# perfbench/tracer.py saves and restores this name; it goes when the tracer stops patching it
ProcessPoolExecutor = None


@dataclass(frozen=True)
class WindowScanReport:
    """Result of one window scan.

    histogram maps each attained tau value (>= 1) to the number of m <= m_limit
    attaining it; untouched m have tau 0 and are not recorded.
    """

    n: int
    k: int
    m_limit: int
    window: DivisorRange
    max_tau: int
    argmax_m: int | None
    histogram: dict[int, int]


class RuzsaEntry(NamedTuple):
    n: int
    count: int
    running_max: int


def tau_interval(m: int, rng: DivisorRange | tuple[int, int]) -> int:
    """Number of divisors of m in the closed interval, counted without listing them."""
    return _count_divisors_in_range(m, rng)


def _progressions(first: np.ndarray, step: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i] + step[i] * arange(count[i]) for every i, concatenated; every count >= 1.

    One cumsum over the repeated steps builds every run at once: each run's
    first entry is reset to its start minus the previous run's last value.
    Everything stays in the dtype of first and step, so on uint32 keys those
    resets wrap and the sums come back exact.
    """
    out = np.repeat(step, count)
    starts = np.cumsum(count) - count
    out[starts] = first
    out[starts[1:]] -= (first + step * (count - 1).astype(step.dtype, copy=False))[:-1]
    return np.cumsum(out, out=out)


def _blocks(
    first: np.ndarray, step: np.ndarray, count: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """_progressions(first, step, count) in consecutive blocks of at most _BLOCK entries.

    Yields (rows, sizes, values): values is the next block, rows the slice of
    progressions it draws from and sizes how many entries each gives.  A
    progression that crosses a block edge is split there.  Every count >= 1.
    """
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        i0 = int(np.searchsorted(ends, start, side="right"))
        i1 = int(np.searchsorted(ends, stop, side="left")) + 1
        rows = slice(i0, i1)
        # the first progression may have begun, and the last may go on, past this block
        skipped = start - int(ends[i0] - count[i0])
        sizes = count[rows].copy()
        sizes[0] -= skipped
        sizes[-1] -= int(ends[i1 - 1]) - stop
        head = first[rows].copy()
        head[0] += step[i0] * skipped
        yield rows, sizes, _progressions(head, step[rows], sizes)


def _multiples(step: np.ndarray, y_lo, y_hi, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """step*y in [m0, m1] with y in [y_lo, y_hi] (scalars or arrays aligned with
    step), as progressions (first, step, count); steps with none are dropped."""
    y_first = np.maximum(y_lo, -(-m0 // step))
    y_count = np.minimum(y_hi, m1 // step) - y_first + 1
    keep = y_count > 0
    step = step[keep]
    return step * y_first[keep], step, y_count[keep].astype(np.int64, copy=False)


def _offsets(first: np.ndarray, step: np.ndarray, count: np.ndarray, m0: int, key: type) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Progressions of values in [m0, m1] as progressions of their offsets from m0, in key.

    Every offset, and every step of a progression with two or more values, is
    at most m1 - m0, so key = _key_dtype(m1 - m0) holds them; a progression
    with one value never adds its step, which may be larger, so it is stored as 0.
    """
    return (first - m0).astype(key, copy=False), np.where(count > 1, step, 0).astype(key, copy=False), count


def _pair_lcm_marks(window: DivisorRange, m0: int, m1: int) -> np.ndarray:
    """Every multiple in [m0, m1] of lcm(d1, d2), once per pair d1 < d2 in the window; sorted.

    Write d1 = g*a and d2 = g*b with gcd(a, b) = 1, so lcm(d1, d2) = g*a*b.
    g*a >= lo and g*a*b <= m1 give b <= m1 / lo; g*a >= lo and g*b <= hi give
    a >= b*lo/hi, which leaves some a < b only once b >= hi / (hi - lo).  The
    window must have hi > lo.  The marks of (a, b) are a*b*g*j in [m0, m1]
    with g in [ceil(lo/a), min(hi/b, m1/ab)] and j in
    [ceil(m0/(ab*g_hi)), m1/(ab*g_lo)]; every j gives one progression over g.
    Every level (b, a per b, j per (a, b), the marks) is expanded in blocks
    of _BLOCK entries.  The (a, b) level is walked once: that pass counts the
    marks and records, per block, the coprime a whose j range is not empty,
    in _key_dtype(b_hi), with their b as runs (b and run length).  A second
    pass pops the record block by block, recomputes each pair's g and j
    ranges from (a, b) and fills one array of exact size, so the memory is
    the marks, the record and one block.  The marks are returned as offsets
    m - m0 in _key_dtype(m1 - m0): uint32 for a range shorter than 2^32 and
    int64 for one shorter than 2^63, however large m1 is.  The levels above
    them take _exact_dtype(m1).
    """
    dtype, key = _exact_dtype(m1), _key_dtype(m1 - m0)
    lo, hi = window.lo, window.hi
    b_lo, b_hi = -(-hi // (hi - lo)), m1 // lo
    pair = _key_dtype(b_hi)

    def g_ranges(a, b):
        """a*b and the g range [g_lo, g_hi] of each pair (a, b)."""
        ab = a * b
        return ab, -(-lo // a), np.minimum(hi // b, m1 // ab)

    def j_ranges(ab, g_lo, g_hi):
        """The first j and the number of j of each pair with g_hi >= g_lo."""
        j_lo = -(-m0 // (ab * g_hi))
        return j_lo, (m1 // (ab * g_lo) - j_lo + 1).astype(np.int64)

    def mark_progressions(ab, g_lo, g_hi, j_lo, j_count):
        """_multiples() over g for one block of (a, b, j) at a time; every j_count >= 1."""
        for rows, sizes, j in _blocks(j_lo, np.ones_like(j_lo), j_count):
            g_lo_j, g_hi_j = np.repeat(g_lo[rows], sizes), np.repeat(g_hi[rows], sizes)
            yield _multiples(np.repeat(ab[rows], sizes) * j, g_lo_j, g_hi_j, m0, m1)

    record, size = deque(), 0
    for start in range(b_lo, b_hi + 1, _BLOCK):
        b = np.arange(start, min(start + _BLOCK, b_hi + 1), dtype=dtype)
        # every b >= b_lo has some a in [a_lo, b - 1]
        a_lo = -(-b * lo // hi)
        for rows, sizes, a in _blocks(a_lo, np.ones_like(a_lo), (b - a_lo).astype(np.int64)):
            b_a = np.repeat(b[rows], sizes)
            ab, g_lo, g_hi = g_ranges(a, b_a)
            # the cheap g test first: it leaves fewer gcds to take
            keep = g_hi >= g_lo
            a, b_a, ab, g_lo, g_hi = a[keep], b_a[keep], ab[keep], g_lo[keep], g_hi[keep]
            keep = np.gcd(a, b_a) == 1
            a, b_a, ab, g_lo, g_hi = a[keep], b_a[keep], ab[keep], g_lo[keep], g_hi[keep]
            j_lo, j_count = j_ranges(ab, g_lo, g_hi)
            keep = j_count > 0
            ranges = ab[keep], g_lo[keep], g_hi[keep], j_lo[keep], j_count[keep]
            size += sum(int(count.sum()) for _, _, count in mark_progressions(*ranges))
            # b_a is nondecreasing, so its runs hold it in far fewer entries
            a, b_a = a[keep].astype(pair), b_a[keep].astype(pair)
            if a.size:
                bounds = _run_bounds(b_a)
                record.append((a, b_a[bounds[:-1]], np.diff(bounds).astype(pair)))

    marks = np.empty(size, dtype=key)
    pos = 0
    while record:
        a, b, runs = record.popleft()
        a, b = a.astype(dtype), np.repeat(b, runs).astype(dtype)
        ab, g_lo, g_hi = g_ranges(a, b)
        for progressions in mark_progressions(ab, g_lo, g_hi, *j_ranges(ab, g_lo, g_hi)):
            for _, _, values in _blocks(*_offsets(*progressions, m0, key)):
                marks[pos : pos + values.size] = values
                pos += values.size
    marks.sort()
    return marks


def _multiple_count(window: DivisorRange, x: int) -> int:
    """sum over d in the window of floor(x / d), by blocks of equal quotient."""
    total, d, top = 0, window.lo, min(window.hi, x)
    while d <= top:
        q = x // d
        end = min(top, x // q)
        total += q * (end - d + 1)
        d = end + 1
    return total


def _range_summary(window: DivisorRange, m0: int, m1: int) -> tuple[dict[int, int], int | None]:
    """Histogram {tau: count} of tau(m; window) over one m-range and the first m of greatest tau.

    An m with t window divisors is hit by exactly C(t, 2) pair lcms, so the
    hit counts give every tau >= 2, and the m with tau = 1 are what is left
    of the range's divisor incidences sum_d #{m in [m0, m1] : d | m}.  With
    no pairs the first maximum is reported as window.lo: only the first
    range contains it, and the merge takes the first range of greatest tau.
    The sorted mark offsets are read in blocks of about _BLOCK entries, each
    ended where the run of its last entry ends, so no run is split and the
    memory beside the marks is one block.
    """
    marks = _pair_lcm_marks(window, m0, m1)
    # tally[c]: the m hit by c pairs
    tally, most, first_max = np.zeros(1, dtype=np.int64), 0, None
    start = 0
    while start < marks.size:
        stop = int(np.searchsorted(marks, marks[min(start + _BLOCK, marks.size) - 1], side="right"))
        bounds = _run_bounds(marks[start:stop])
        hits = np.diff(bounds)
        counts = np.bincount(hits, minlength=tally.size)
        counts[: tally.size] += tally
        tally = counts
        i = int(hits.argmax())
        if hits[i] > most:
            most, first_max = int(hits[i]), m0 + int(marks[start + bounds[i]])
        start = stop
    tau_counts = {}
    for c, number in enumerate(tally.tolist()):
        if c and number:
            t = (1 + math.isqrt(1 + 8 * c)) // 2
            if t * (t - 1) != 2 * c:
                raise RuntimeError(
                    f"{number} m in [{m0}, {m1}] are hit by {c} window-divisor pairs, not C(t, 2) for any t"
                )
            tau_counts[t] = number
    incidences = _multiple_count(window, m1) - _multiple_count(window, m0 - 1)
    singles = incidences - sum(t * number for t, number in tau_counts.items())
    if singles:
        tau_counts[1] = singles
    if first_max is not None:
        return tau_counts, first_max
    return tau_counts, window.lo if singles else None


def window_multiple_counts(window: DivisorRange | tuple[int, int], m_limit: int) -> dict[int, int]:
    """Per-m divisor counts: {m: tau(m; window)} for every touched m <= m_limit.

    The marks are the products d * q <= m_limit with d in the window and
    q >= 1: every d gives one progression of _multiples over q, as in the
    Ruzsa sieve, and one _progressions call expands them all, as offsets
    m - 1 in _key_dtype(m_limit - 1).  That holds 3 x 8 bytes per d beside
    the marks, which matters only on windows far wider than m_limit / lo;
    the widest the acceptance criteria use, the square scan (10^5, 562),
    has 1,125 d against 843 values of q.
    """
    if not isinstance(window, DivisorRange):
        window = DivisorRange(*window)
    dtype = _exact_dtype(m_limit)
    d = np.arange(window.lo, min(window.hi, m_limit) + 1, dtype=dtype)
    marks = _progressions(*_offsets(*_multiples(d, 1, m_limit, 1, m_limit), 1, _key_dtype(m_limit - 1)))
    marks.sort()
    bounds = _run_bounds(marks)
    # rebinding frees the full mark array before the counts are taken
    marks = marks[bounds[:-1]].astype(dtype) + 1
    return dict(zip(marks.tolist(), np.diff(bounds).tolist()))


def _assemble_report(n: int, k: int, m_limit: int, window: DivisorRange, workers: int) -> WindowScanReport:
    if m_limit >= MAX_VALUE:
        raise InputError(f"scans need m_limit < 2**96 to cross-check the argmax, got {m_limit}")
    summaries = [_range_summary(window, a, b) for a, b in _split_range(window.lo, m_limit, workers)]
    total = Counter()
    for tau_counts, _ in summaries:
        total.update(tau_counts)
    max_tau = max(total)
    argmax_m = next(m for tau_counts, m in summaries if max_tau in tau_counts)
    histogram = dict(sorted(total.items()))
    # cross-check the reported maximum against the direct divisor count
    direct = tau_interval(argmax_m, window)
    if direct != max_tau:
        raise RuntimeError(
            f"scan reported tau={max_tau} at m={argmax_m} but direct count is {direct}"
        )
    return WindowScanReport(n, k, m_limit, window, max_tau, argmax_m, histogram)


def square_window_scan(n: int, k: int, workers: int = 1) -> WindowScanReport:
    """Scan m <= 3*n*k for divisors in [2n, 2n+2k].

    Every difference of two squares from {s^2 : n <= s <= n+k} factors with one
    factor in this window, so max_tau bounds the representation counts there.
    """
    n, k = _integer(n, "n"), _integer(k, "k")
    if n < 1 or k < 1:
        raise InputError("square_window_scan expects n >= 1 and k >= 1")
    if k > n:
        raise InputError(f"square_window_scan requires k <= n, got k={k} > n={n}")
    return _assemble_report(n, k, 3 * n * k, DivisorRange(2 * n, 2 * n + 2 * k), workers)


def cube_window_scan(n: int, k: int, workers: int = 1) -> WindowScanReport:
    """Scan m <= 7*n^2*k for divisors in [3n^2, 3n^2+9nk] (cube analogue)."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if n < 1 or k < 1:
        raise InputError("cube_window_scan expects n >= 1 and k >= 1")
    if k > n:
        raise InputError(f"cube_window_scan requires k <= n, got k={k} > n={n}")
    nn = n * n
    return _assemble_report(n, k, 7 * nn * k, DivisorRange(3 * nn, 3 * nn + 9 * n * k), workers)


def ruzsa_route(n_lo: int, n_hi: int, eps: float) -> str:
    """The route ruzsa_scan takes on [n_lo, n_hi]: "sieve" or "per-N".

    The routes are compared by operation count.  The sieve makes one step per
    d in [ceil(sqrt(n_lo)), hi(n_hi)], hi(N) = floor(sqrt(N) + N^(1/2 - eps));
    the per-N route counts through tau_interval, which factorizes N, starting
    with trial division by the primes up to min(4096, sqrt(N)),
    arith._trial_divisions(n_hi) of them at the top, or walks N's divisor
    candidates when they are no more than those divisions.  So that count per
    N is an upper bound on the per-N route's trial work, and the sieve is
    taken when its steps are no more than it.
    """
    # math.isqrt(n - 1) + 1 is ceil(sqrt(n)) for n >= 1
    d_steps = _ruzsa_tops(n_hi, n_hi, eps)[0] - math.isqrt(n_lo - 1)
    divisions = (n_hi - n_lo + 1) * _trial_divisions(n_hi)
    return "sieve" if d_steps <= divisions else "per-N"


def _ruzsa_tops(n_lo: int, n_hi: int, eps: float) -> list[int]:
    """hi(N) = floor(sqrt(N) + N^(1/2 - eps)) for every N in [n_lo, n_hi].

    Both routes take hi(N) from this one Python float expression; numpy's
    power can differ from it by one ulp, which could move hi(N) by one.
    """
    return [math.floor(math.sqrt(n) + n ** (0.5 - eps)) for n in range(n_lo, n_hi + 1)]


def _ruzsa_per_n(n_lo: int, tops: list[int]) -> list[int]:
    """tau(N; [ceil(sqrt(N)), tops[N - n_lo]]) for each N, by one tau_interval call each."""
    counts = []
    for n, hi in enumerate(tops, n_lo):
        lo = math.isqrt(n - 1) + 1
        counts.append(tau_interval(n, DivisorRange(lo, hi)) if lo <= hi else 0)
    return counts


def _ruzsa_sieve(n_lo: int, tops: list[int]) -> list[int]:
    """The counts of _ruzsa_per_n, from the products N = d*q of each d instead.

    d is a divisor of N with d >= ceil(sqrt(N)) exactly when its cofactor q
    has q <= d, so d runs over [ceil(sqrt(n_lo)), max(tops)], the products
    are _multiples(d, 1, d, n_lo, n_hi), and N counts d when
    d <= tops[N - n_lo].  The index N - n_lo is an _offsets key in
    _key_dtype(n_hi - n_lo), uint32 for ranges shorter than 2^32 however
    large n_lo is; past 2^63 the d block is exact Python ints until the first
    multiples are translated by n_lo.  Each block of _BLOCK values of d gives
    one progression of indices per d, expanded in blocks of _BLOCK entries.
    """
    n_hi = n_lo + len(tops) - 1
    top = np.array(tops, dtype=np.int64)
    dtype, key = _exact_dtype(n_hi), _key_dtype(n_hi - n_lo)
    d_lo, d_hi = math.isqrt(n_lo - 1) + 1, int(top.max())
    hits = [np.empty(0, dtype=key)]
    for start in range(d_lo, d_hi + 1, _BLOCK):
        d = np.arange(start, min(start + _BLOCK, d_hi + 1), dtype=dtype)
        progressions = _multiples(d, 1, d, n_lo, n_hi)
        # d <= max(tops) fits int64 whatever dtype N has
        d = progressions[1].astype(np.int64, copy=False)
        for rows, sizes, index in _blocks(*_offsets(*progressions, n_lo, key)):
            hits.append(index[top[index] >= np.repeat(d[rows], sizes)])
    return np.bincount(np.concatenate(hits), minlength=len(tops)).tolist()


def ruzsa_scan(n_lo: int, n_hi: int, eps: float) -> list[RuzsaEntry]:
    """Count divisors of each N in [sqrt(N), sqrt(N) + N^(1/2 - eps)].

    Emits one entry per N with a running maximum.  The interval's lower end is
    the exact ceiling of sqrt(N); its upper end hi(N) = floor(sqrt(N) +
    N^(1/2-eps)) is one Python float expression per N, which is fine for an
    empirical probe.  ruzsa_route chooses the route by operation count:
    _ruzsa_sieve walks d in [ceil(sqrt(n_lo)), max hi(N)] and the cofactors
    q <= d, indexing each product by N - n_lo in int64 however large N is;
    _ruzsa_per_n counts each N through tau_interval.  Both read the same
    hi(N), so their counts are equal.
    """
    if not 0 < eps < 0.5:
        raise InputError(f"eps must lie in (0, 1/2), got {eps}")
    if n_lo < 1 or n_lo > n_hi:
        raise InputError("ruzsa_scan expects 1 <= n_lo <= n_hi")
    if n_hi >= MAX_VALUE:
        raise InputError(f"ruzsa_scan supports integers below 2**96, got n_hi={n_hi}")
    route = _ruzsa_sieve if ruzsa_route(n_lo, n_hi, eps) == "sieve" else _ruzsa_per_n
    counts = route(n_lo, _ruzsa_tops(n_lo, n_hi, eps))
    return list(map(RuzsaEntry, range(n_lo, n_hi + 1), counts, accumulate(counts, max)))


def square_representations(m: int, n: int, k: int) -> list[tuple[int, int]]:
    """All pairs (n1, n2) of squares of integers in [n, n+k] with n1 - n2 = m.

    Recovered from the divisors of m in [2n, 2n+2k]: writing m = e * d with
    d = 2n + s1 + s2 and e = s1 - s2 forces s1 = (d - 2n + e) / 2 and
    s2 = (d - 2n - e) / 2, accepted only when both are integers in [0, k].
    Parity rejection is exact integer arithmetic.
    """
    if n < 1 or k < 1 or k > n:
        raise InputError("square_representations expects 1 <= k <= n")
    pairs: list[tuple[int, int]] = []
    for d in divisors_in_range(m, DivisorRange(2 * n, 2 * n + 2 * k)):
        e = m // d
        t = d - 2 * n  # s1 + s2
        if e > t or (t + e) % 2 != 0:
            continue
        s1 = (t + e) // 2
        s2 = (t - e) // 2
        if s1 <= k:  # and s2 >= 0, as e <= t
            pairs.append(((n + s1) ** 2, (n + s2) ** 2))
    return pairs
