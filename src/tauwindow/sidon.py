"""Sidon-set verification and the square/cube Sidon windows.

A set is Sidon when all pairwise sums are distinct up to order, equivalently
when its additive energy equals the trivial value 2|A|^2 - |A|.  The two
window constructions below are provably Sidon for every N:

    squares: {n^2 : N <= n <= N + floor(sqrt(8N))}
    cubes:   {n^3 : N <= n <= N + t},  t = max integer with 2*t^3 <= N

Window endpoints are computed with integer square/cube roots so perfect
powers at the boundary cannot misround.

verify_window_range checks a range of N without one is_sidon call per N.  A
set is Sidon exactly when its positive differences are distinct, which is
the same as its energy being trivial.  The N of one window width w form runs
with closed-form ends: squares of width w run to ceil((w+1)^2 / 8) - 1, cubes
of width t to 2(t+1)^3 - 1.  Within a run, each row of a numpy table is one
N, translated by its first element: s*(2N + s) for squares and
s*(3N^2 + 3Ns + s^2) for cubes, s = 0..w.  The table is int64 while the
block's largest entry (N + w)^p - N^p is below 2^63 (cubes pass that near
N = 2^27) and holds exact Python ints beyond.  The C(w+1, 2) differences of
a row are taken ordered by gap, so a row is w increasing runs; one stable
sort along the rows merges them, and a row with two equal neighbours is a
failure.  The cost is sum_N C(w+1, 2) differences, sorted in blocks of at
most _BLOCK entries (or one row, when a row is longer).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arith import InputError, _BLOCK, _split_range
from .spectral import additive_energy, frequency_set, trivial_energy

_KINDS = ("square", "cube")


@dataclass(frozen=True)
class SidonVerdict:
    set_size: int
    energy: int
    trivial_energy: int
    is_sidon: bool
    witness: tuple[int, int, int, int] | None


@dataclass(frozen=True)
class WindowRangeReport:
    kind: str
    n_lo: int
    n_hi: int
    checked: int
    failures: tuple[int, ...]


def _find_witness(a: tuple[int, ...]) -> tuple[int, int, int, int]:
    # smallest colliding sum, then the two lexicographically smallest pairs
    buckets: dict[int, list[tuple[int, int]]] = {}
    for i, x in enumerate(a):
        for y in a[i:]:
            buckets.setdefault(x + y, []).append((x, y))
    for total in sorted(buckets):
        pairs = buckets[total]
        if len(pairs) > 1:
            pairs.sort()
            (a1, b1), (a2, b2) = pairs[0], pairs[1]
            return (a1, b1, a2, b2)
    raise RuntimeError("witness requested for a Sidon set")


def is_sidon(freqs: Iterable[int]) -> SidonVerdict:
    """Exact energy comparison; non-Sidon sets get a deterministic witness."""
    a = frequency_set(freqs)
    energy = additive_energy(a)
    trivial = trivial_energy(len(a))
    if energy == trivial:
        return SidonVerdict(len(a), energy, trivial, True, None)
    return SidonVerdict(len(a), energy, trivial, False, _find_witness(a))


def squares_window(n: int) -> tuple[int, ...]:
    """{m^2 : n <= m <= n + floor(sqrt(8n))}; Sidon for every n >= 1."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return tuple((n + s) ** 2 for s in range(_window_width("square", n) + 1))


def _half_cbrt_floor(n: int) -> int:
    # largest t with 2*t^3 <= n, exactly
    t = round((n / 2) ** (1 / 3))
    while t > 0 and 2 * t * t * t > n:
        t -= 1
    while 2 * (t + 1) ** 3 <= n:
        t += 1
    return t


def _window_width(kind: str, n: int) -> int:
    """Width w of the kind's window at n: it holds (n + s)^p for s = 0..w."""
    return math.isqrt(8 * n) if kind == "square" else _half_cbrt_floor(n)


def _width_run_end(kind: str, n: int) -> int:
    """Largest n' >= n with the width of n: 8n' < (w+1)^2 for squares, n' < 2(w+1)^3 for cubes."""
    if kind == "square":
        return -(-((math.isqrt(8 * n) + 1) ** 2) // 8) - 1
    return 2 * (_half_cbrt_floor(n) + 1) ** 3 - 1


def cubes_window(n: int) -> tuple[int, ...]:
    """{m^3 : n <= m <= n + floor((n/2)^(1/3))}; Sidon for every n >= 1."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return tuple((n + s) ** 3 for s in range(_window_width("cube", n) + 1))


def _translated_rows(kind: str, first: int, last: int, w: int) -> np.ndarray:
    """Row n - first holds (n + s)^p - n^p for s = 0..w, for n in [first, last].

    int64 while the largest entry, (last + w)^p - last^p, is below 2^63;
    every intermediate is at most that entry.  Past it, exact Python ints.
    """
    p = 2 if kind == "square" else 3
    dtype = np.int64 if (last + w) ** p - last**p < 1 << 63 else object
    n = np.arange(first, last + 1, dtype=dtype)[:, None]
    s = np.arange(w + 1, dtype=dtype)
    return s * (2 * n + s) if p == 2 else s * (3 * n * n + 3 * n * s + s * s)


def _check_span(args: tuple[str, int, int]) -> list[int]:
    """The N in [lo, hi], in order, whose window has two equal positive differences."""
    kind, lo, hi = args
    failures: list[int] = []
    first = lo
    while first <= hi:
        w = _window_width(kind, first)
        last = min(hi, _width_run_end(kind, first))
        i, j = np.triu_indices(w + 1, 1)
        order = np.argsort(j - i, kind="stable")
        i, j = i[order], j[order]
        rows = max(1, _BLOCK // max(1, i.size))
        for start in range(first, last + 1, rows):
            vals = _translated_rows(kind, start, min(start + rows - 1, last), w)
            diffs = np.sort(vals[:, j] - vals[:, i], axis=1, kind="stable")
            clash = diffs[:, 1:] == diffs[:, :-1]
            if clash.any():
                failures += [start + int(r) for r in np.flatnonzero(clash.any(axis=1))]
        first = last + 1
    return failures


def verify_window_range(
    kind: str, n_lo: int, n_hi: int, workers: int = 1
) -> WindowRangeReport:
    """Check the kind's window for every N in [n_lo, n_hi]; failures are the non-Sidon N.

    A failure is an N whose window has two equal positive differences, which
    is exactly is_sidon's verdict.  The N are checked a block of rows at a
    time: runs of one window width w, each row translated to start at 0, in
    int64 while the entries fit and in Python ints past 2^63, with the
    C(w+1, 2) differences of every row sorted together.  The cost is
    sum_N C(w+1, 2) differences, in blocks of at most _BLOCK entries.  With
    workers > 1 the range of N is split into equal parts, one per worker.

    The constructions are theorems, so any reported failure means the window
    endpoint arithmetic (not the mathematics) is wrong.
    """
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    if n_lo < 1 or n_lo > n_hi:
        raise InputError("need 1 <= n_lo <= n_hi")
    spans = [(kind, a, b) for a, b in _split_range(n_lo, n_hi, workers)]
    if len(spans) == 1:
        parts = list(map(_check_span, spans))
    else:
        # a pool forks all its processes at once; more than one per CPU only adds forks
        with ProcessPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_check_span, spans))
    failures = [n for part in parts for n in part]
    return WindowRangeReport(
        kind=kind, n_lo=n_lo, n_hi=n_hi, checked=n_hi - n_lo + 1, failures=tuple(failures)
    )
