"""Divisor counts in short intervals and the pair-lcm window scan.

tau_interval(m, [a, b]) counts divisors of a single m.  The scans count
tau(m; window) for every m <= m_limit at once, from pairs of window divisors:
d1 = g*a < d2 = g*b with gcd(a, b) = 1 both divide m iff their lcm g*a*b
does, and g*a >= lo forces b <= m_limit / lo.  An m with t window divisors is
hit by exactly C(t, 2) pair-lcm multiples, so the hit counts give every
tau >= 2; the m with tau = 1 are what is left of sum_d floor(m_limit / d),
which is summed over blocks of equal quotient.  The cost is
sum_m C(tau(m), 2) multiples plus the pairs that produce them, enumerated in
numpy blocks of _BLOCK entries however large the window endpoints are; the
memory is one mark array of exact size plus one block.  Square scans use the
window [2N, 2N+2k] with m <= 3Nk, cube scans [3N^2, 3N^2+9Nk] with
m <= 7N^2*k: these are exactly the window/limit pairs produced by factoring
differences of adjacent squares and cubes, so per-m counts bound the
representation functions of those sets.  Two divisors of a square window have
gcd <= 2k, so their lcm is at least 2N^2/k and a scan with 3k^2 < 2N has no
pairs at all.  Marks are int64 below 2^63 and exact Python ints beyond.  With
workers > 1 a scan splits [window.lo, m_limit] into equal m-ranges, one per
worker; each returns only its histogram and first argmax, so merging adds
histograms.  window_multiple_counts keeps the reverse sieve, one mark for
every multiple of every window element, as the per-m oracle.

ruzsa_scan counts, for every N in [A, B], the divisors d of N in
[sqrt(N), hi(N)], hi(N) = floor(sqrt(N) + N^(1/2 - eps)).  It has two routes.
The sieve walks d instead of N: a divisor d has d >= sqrt(N) exactly when
its cofactor q = N/d has q <= d, so d runs over [ceil(sqrt(A)), max hi(N)],
q over [ceil(A/d), min(d, B/d)], and N = d*q counts d when d <= hi(N).  The
counts are indexed by N - A = d*(q - ceil(A/d)) + (-A mod d), which is int64
whenever B - A is, so ranges past 2^63 need no object route.  The per-N
route calls tau_interval, which factorizes N.  Both read hi(N) from one
Python float expression (numpy's power can differ by one ulp), so their
counts are equal.  ruzsa_route picks by operation count, with no tuned
constant: the sieve makes one step per d, about sqrt(B) - sqrt(A) +
B^(1/2-eps) of them, and the per-N route makes pi(min(4096, sqrt(B)))
trial divisions per N; the sieve runs when its steps are no more.  With a
tiny eps near 2^96 the d-axis is far longer than the N-axis, and the per-N
route runs.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arith import MAX_VALUE, DivisorRange, InputError, divisors_in_range, _BLOCK, _SMALL_PRIMES, _run_bounds, _split_range


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


@dataclass(frozen=True)
class RuzsaEntry:
    n: int
    count: int
    running_max: int


def tau_interval(m: int, rng: DivisorRange | tuple[int, int]) -> int:
    """Number of divisors of m in the closed interval."""
    return len(divisors_in_range(m, rng))


def _range_counts(window: DivisorRange, m0: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
    """Every m in [m0, m1] with a divisor in the window, increasing, and that count.

    The marks are the products d * q in [m0, m1] with d in the window.  The loop
    runs over whichever factor has the shorter range and builds each slice as
    x * arange(lo, hi + 1): np.arange(start, stop, step) computes its length in
    floating point and drops the last multiple once the values pass 2^53.
    """
    # exact Python ints only when a mark can overflow int64
    dtype = np.int64 if m1 < 1 << 63 else object
    d_axis = (window.lo, min(window.hi, m1))
    q_axis = (-(-m0 // window.hi), m1 // window.lo)
    (x_lo, x_hi), (y_lo, y_hi) = sorted((d_axis, q_axis), key=lambda r: r[1] - r[0])
    # every inner range [lo, hi] below has hi >= lo - 1, so its length is the
    # slice size and the mark array is allocated once
    slices = [(x, max(y_lo, -(-m0 // x)), min(y_hi, m1 // x)) for x in range(x_lo, x_hi + 1)]
    marks = np.empty(sum(hi - lo + 1 for _, lo, hi in slices), dtype=dtype)
    pos = 0
    for x, lo, hi in slices:
        np.multiply(np.arange(lo, hi + 1, dtype=dtype), x, out=marks[pos : pos + hi - lo + 1])
        pos += hi - lo + 1
    marks.sort()
    bounds = _run_bounds(marks)
    # rebinding frees the full mark array before the counts are taken
    marks = marks[bounds[:-1]]
    return marks, np.diff(bounds)


def _progressions(first: np.ndarray, step: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i] + step[i] * arange(count[i]) for every i, concatenated; every count >= 1.

    One cumsum over the repeated steps builds every run at once: each run's
    first entry is reset to its start minus the previous run's last value.
    """
    out = np.repeat(step, count)
    starts = np.cumsum(count) - count
    out[starts] = first
    out[starts[1:]] -= (first + step * (count - 1))[:-1]
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


def _pair_lcm_marks(window: DivisorRange, m0: int, m1: int) -> np.ndarray:
    """Every multiple in [m0, m1] of lcm(d1, d2), once per pair d1 < d2 in the window; sorted.

    Write d1 = g*a and d2 = g*b with gcd(a, b) = 1, so lcm(d1, d2) = g*a*b.
    g*a >= lo and g*a*b <= m1 give b <= m1 / lo; g*a >= lo and g*b <= hi give
    a >= b*lo/hi, which leaves some a < b only once b >= hi / (hi - lo).  The
    window must have hi > lo.  The marks of (a, b) are a*b*g*j in [m0, m1]
    with g in [ceil(lo/a), hi/b]; whichever of g and j has the shorter range
    is expanded, and each of its values gives one progression in the other.
    Every level (b, a per b, that factor per (a, b), the marks) is expanded
    in blocks of _BLOCK entries; a first pass counts the marks, so a second
    fills one array of exact size.
    """
    # exact Python ints only when a mark can overflow int64
    dtype = np.int64 if m1 < 1 << 63 else object
    lo, hi = window.lo, window.hi
    b_lo, b_hi = -(-hi // (hi - lo)), m1 // lo
    if b_lo > b_hi:
        return np.empty(0, dtype=dtype)

    def factor_ranges(a, b):
        """a*b for each coprime a < b with marks, the shorter of its g and j
        ranges as (first, count) and the longer as (lo, hi)."""
        ab = a * b
        g_lo = -(-lo // a)
        g_hi = np.minimum(hi // b, m1 // ab)
        # the cheap g test first: it leaves fewer gcds to take
        keep = g_hi >= g_lo
        a, b, ab, g_lo, g_hi = a[keep], b[keep], ab[keep], g_lo[keep], g_hi[keep]
        keep = np.gcd(a, b) == 1
        ab, g_lo, g_hi = ab[keep], g_lo[keep], g_hi[keep]
        j_lo = -(-m0 // (ab * g_hi))
        j_hi = m1 // (ab * g_lo)
        keep = j_hi >= j_lo
        ab, g_lo, g_hi, j_lo, j_hi = ab[keep], g_lo[keep], g_hi[keep], j_lo[keep], j_hi[keep]
        swap = j_hi - j_lo < g_hi - g_lo
        x_lo, x_hi = np.where(swap, j_lo, g_lo), np.where(swap, j_hi, g_hi)
        y_lo, y_hi = np.where(swap, g_lo, j_lo), np.where(swap, g_hi, j_hi)
        return ab, x_lo, (x_hi - x_lo + 1).astype(np.int64), y_lo, y_hi

    def multiples(step, y_lo, y_hi):
        """step*y in [m0, m1] with y in [y_lo, y_hi], as progressions (first, step, count)."""
        y_first = np.maximum(y_lo, -(-m0 // step))
        y_count = np.minimum(y_hi, m1 // step) - y_first + 1
        keep = y_count > 0
        step = step[keep]
        return step * y_first[keep], step, y_count[keep].astype(np.int64, copy=False)

    def mark_progressions():
        """multiples() for one block of (a, b, x) at a time, x the expanded factor."""
        one = np.ones(1, dtype=dtype)
        for _, _, b in _blocks(np.array([b_lo], dtype=dtype), one, np.array([b_hi - b_lo + 1])):
            # every b >= b_lo has some a in [a_lo, b - 1]
            a_lo = -(-b * lo // hi)
            for rows, sizes, a in _blocks(a_lo, np.ones_like(a_lo), (b - a_lo).astype(np.int64)):
                ab, x_lo, x_count, y_lo, y_hi = factor_ranges(a, np.repeat(b[rows], sizes))
                for rows, sizes, x in _blocks(x_lo, np.ones_like(x_lo), x_count):
                    y_lo_x, y_hi_x = np.repeat(y_lo[rows], sizes), np.repeat(y_hi[rows], sizes)
                    yield multiples(np.repeat(ab[rows], sizes) * x, y_lo_x, y_hi_x)

    marks = np.empty(sum(int(count.sum()) for _, _, count in mark_progressions()), dtype=dtype)
    pos = 0
    for first, step, count in mark_progressions():
        for _, _, values in _blocks(first, step, count):
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


def _range_summary(args: tuple[DivisorRange, int, int]) -> tuple[np.ndarray, int | None]:
    """Histogram of tau(m; window) over one m-range and the first m attaining its maximum.

    An m with t window divisors is hit by exactly C(t, 2) pair lcms, so the
    hit counts give every tau >= 2, and the m with tau = 1 are what is left
    of the range's divisor incidences sum_d #{m in [m0, m1] : d | m}.  With
    no pairs the first maximum is reported as window.lo: only the first
    range contains it, and the merge takes the first range of greatest tau.
    """
    window, m0, m1 = args
    marks = _pair_lcm_marks(window, m0, m1)
    # the hit counts overwrite the run bounds, so no third mark-sized array is made
    hits = _run_bounds(marks)
    np.subtract(hits[1:], hits[:-1], out=hits[:-1])
    hits = hits[:-1]
    tau_counts = {}
    for c, number in enumerate(np.bincount(hits).tolist()):
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
    # Python-int counts: the tau = 1 count is never materialized and can pass 2^63
    hist = np.zeros(max(tau_counts, default=0) + 1, dtype=object)
    hist[list(tau_counts)] = list(tau_counts.values())
    if hits.size:
        # the first run of greatest count starts after all the hits before it
        return hist, int(marks[hits[: hits.argmax()].sum()])
    return hist, window.lo if singles else None


def window_multiple_counts(window: DivisorRange | tuple[int, int], m_limit: int) -> dict[int, int]:
    """Per-m divisor counts: {m: tau(m; window)} for every touched m <= m_limit."""
    if not isinstance(window, DivisorRange):
        window = DivisorRange(*window)
    values, counts = _range_counts(window, window.lo, m_limit)
    return dict(zip(values.tolist(), counts.tolist()))


def _assemble_report(n: int, k: int, m_limit: int, window: DivisorRange, workers: int) -> WindowScanReport:
    if m_limit >= MAX_VALUE:
        raise InputError(f"scans need m_limit < 2**96 to cross-check the argmax, got {m_limit}")
    # equal m-ranges carry about equal marks; each returns only its summary
    ranges = [(window, a, b) for a, b in _split_range(window.lo, m_limit, workers)]
    if len(ranges) == 1:
        summaries = list(map(_range_summary, ranges))
    else:
        # a pool forks all its processes at once; more than one per CPU only adds forks
        with ProcessPoolExecutor(max_workers=min(len(ranges), os.cpu_count() or 1)) as pool:
            summaries = list(pool.map(_range_summary, ranges))
    size = max(hist.size for hist, _ in summaries)
    total = np.zeros(size, dtype=object)
    for hist, _ in summaries:
        total[: hist.size] += hist
    max_tau = size - 1
    argmax_m = next(m for hist, m in summaries if hist.size == size)
    histogram = {t: c for t, c in enumerate(total.tolist()) if c}
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
    if n < 1 or k < 1:
        raise InputError("square_window_scan expects n >= 1 and k >= 1")
    if k > n:
        raise InputError(f"square_window_scan requires k <= n, got k={k} > n={n}")
    return _assemble_report(n, k, 3 * n * k, DivisorRange(2 * n, 2 * n + 2 * k), workers)


def cube_window_scan(n: int, k: int, workers: int = 1) -> WindowScanReport:
    """Scan m <= 7*n^2*k for divisors in [3n^2, 3n^2+9nk] (cube analogue)."""
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
    the per-N route factorizes every N, which starts with trial division by
    the primes up to min(4096, sqrt(N)), pi(min(4096, sqrt(n_hi))) of them at
    the top.  The sieve is taken when its steps are no more than those
    divisions.
    """
    # math.isqrt(n - 1) + 1 is ceil(sqrt(n)) for n >= 1
    d_steps = _ruzsa_tops(n_hi, n_hi, eps)[0] - math.isqrt(n_lo - 1)
    divisions = (n_hi - n_lo + 1) * bisect_right(_SMALL_PRIMES, math.isqrt(n_hi))
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
    has q <= d, so d runs over [ceil(sqrt(n_lo)), max(tops)] and q over
    [ceil(n_lo/d), min(d, n_hi // d)], and N counts d when d <= tops[N - n_lo].
    N - n_lo = d*(q - q_lo) + (-n_lo mod d) is at most n_hi - n_lo, so the
    index is int64 however large n_lo is; only the quotients of the
    endpoints past 2^63 are taken in Python ints.  Each block of _BLOCK
    values of d gives one progression of indices per d, expanded in blocks
    of _BLOCK entries.
    """
    n_hi = n_lo + len(tops) - 1
    top = np.array(tops, dtype=np.int64)
    dtype = np.int64 if n_hi < 1 << 63 else object
    d_lo, d_hi = math.isqrt(n_lo - 1) + 1, int(top.max())
    hits = [np.empty(0, dtype=np.int64)]
    for start in range(d_lo, d_hi + 1, _BLOCK):
        d = np.arange(start, min(start + _BLOCK, d_hi + 1), dtype=np.int64)
        dx = d.astype(dtype, copy=False)
        # the index of d*q_lo, the least multiple of d from n_lo
        offset = ((-n_lo) % dx).astype(np.int64, copy=False)
        q_lo = (n_lo // dx).astype(np.int64, copy=False) + (offset > 0)
        q_count = np.minimum(d, (n_hi // dx).astype(np.int64, copy=False)) - q_lo + 1
        keep = q_count > 0
        d, offset, q_count = d[keep], offset[keep], q_count[keep]
        for rows, sizes, index in _blocks(offset, d, q_count):
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
    _ruzsa_per_n factorizes each N through tau_interval.  Both read the same
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
        if 0 <= s2 and s1 <= k:
            pairs.append(((n + s1) ** 2, (n + s2) ** 2))
    return pairs
