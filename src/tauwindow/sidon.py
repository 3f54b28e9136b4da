"""Sidon-set verification and the square/cube Sidon windows.

A set is Sidon when all pairwise sums are distinct up to order, equivalently
when its additive energy equals the trivial value 2|A|^2 - |A|.  The two
window constructions below are provably Sidon for every N:

    squares: {n^2 : N <= n <= N + floor(sqrt(8N))}
    cubes:   {n^3 : N <= n <= N + t},  t = max integer with 2*t^3 <= N

Window endpoints are computed with integer square/cube roots so perfect
powers at the boundary cannot misround.

is_sidon takes the energy, and a non-Sidon set's witness, from spectral's pair
kernel, so its memory is O(_PAIR_BLOCK + |A|).  verify_window_range checks a
range of N without one is_sidon call per N, through its positive differences
being distinct.  The N of one window width w form runs with closed-form ends:
squares of width w run to ceil((w+1)^2 / 8) - 1, cubes of width t to
2(t+1)^3 - 1.  Within a run, each row of a numpy table is one N, translated by
its first element: s*(2N + s) for squares and s*(3N^2 + 3Ns + s^2) for cubes,
s = 0..w, in the dtype arith._exact_dtype gives the block's largest entry
(int64 below 2^63, which cubes pass near N = 2^27).  The C(w+1, 2) index
pairs come from windows._progressions ordered by gap, so a row's differences
are w increasing runs; one stable sort along the rows merges them, and a row
with two equal neighbours is a failure.  The cost is sum_N C(w+1, 2)
differences, in blocks of at most _BLOCK entries (or one row, when longer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arith import InputError, _BLOCK, _exact_dtype, _iroot, _split_range
from .spectral import _difference_blocks, additive_energy, frequency_set, trivial_energy
from .windows import _progressions

# perfbench/tracer.py saves and restores this name; it goes when the tracer stops patching it
ProcessPoolExecutor = None

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
    """Smallest colliding sum, then its two lexicographically smallest pairs.

    With a' = a - a[0] and c = spread + 1, the differences across the halves of
    B = (-c - a') u a' are the sums c + x + y, above every difference inside a
    half.  x + x counts once and x + y (x < y) twice, so the first count of 3 or
    more at a difference >= c is c plus the smallest sum with two pairs.
    """
    c = a[-1] - a[0] + 1
    shifted = [x - a[0] for x in a]
    b = tuple(-c - x for x in reversed(shifted)) + tuple(shifted)
    for diffs, counts, _ in _difference_blocks(b):
        hit = np.flatnonzero((diffs >= c) & (counts >= 3))
        if hit.size:
            total = int(diffs[hit[0]]) - c + 2 * a[0]
            members = set(a)
            (a1, b1), (a2, b2) = [(x, total - x) for x in a if 2 * x <= total and total - x in members][:2]
            return (a1, b1, a2, b2)
    raise RuntimeError("witness requested for a Sidon set")


def is_sidon(freqs: Iterable[int]) -> SidonVerdict:
    """Exact energy comparison; a non-Sidon set gets the witness (a1, b1, a2, b2):
    the two lexicographically smallest pairs a1 <= b1, a2 <= b2 of the smallest
    colliding sum a1 + b1 = a2 + b2, in O(_PAIR_BLOCK + |A|) memory."""
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


def _window_width(kind: str, n: int) -> int:
    """Width w of the kind's window at n: it holds (n + s)^p for s = 0..w.

    For cubes w is the largest t with 2t^3 <= n, that is with t^3 <= n // 2.
    """
    return math.isqrt(8 * n) if kind == "square" else _iroot(n // 2, 3)


def _width_run_end(kind: str, n: int) -> int:
    """Largest n' >= n with the width of n: 8n' < (w+1)^2 for squares, n' < 2(w+1)^3 for cubes."""
    if kind == "square":
        return -(-((math.isqrt(8 * n) + 1) ** 2) // 8) - 1
    return 2 * (_iroot(n // 2, 3) + 1) ** 3 - 1


def cubes_window(n: int) -> tuple[int, ...]:
    """{m^3 : n <= m <= n + floor((n/2)^(1/3))}; Sidon for every n >= 1."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return tuple((n + s) ** 3 for s in range(_window_width("cube", n) + 1))


def _translated_rows(kind: str, first: int, last: int, w: int) -> np.ndarray:
    """Row n - first holds (n + s)^p - n^p for s = 0..w, for n in [first, last].

    The dtype is _exact_dtype of the largest entry, (last + w)^p - last^p;
    every intermediate is at most that entry.
    """
    p = 2 if kind == "square" else 3
    dtype = _exact_dtype((last + w) ** p - last**p)
    n = np.arange(first, last + 1, dtype=dtype)[:, None]
    s = np.arange(w + 1, dtype=dtype)
    return s * (2 * n + s) if p == 2 else s * (3 * n * n + 3 * n * s + s * s)


def _check_span(kind: str, lo: int, hi: int) -> list[int]:
    """The N in [lo, hi], in order, whose window has two equal positive differences."""
    failures: list[int] = []
    first = lo
    while first <= hi:
        w = _window_width(kind, first)
        last = min(hi, _width_run_end(kind, first))
        # the pairs (i, i + g) for g = 1..w, i = 0..w - g: ordered by gap, then by i
        g = np.arange(1, w + 1)
        i = _progressions(np.zeros_like(g), np.ones_like(g), w + 1 - g)
        j = i + np.repeat(g, w + 1 - g)
        rows = max(1, _BLOCK // max(1, i.size))
        for start in range(first, last + 1, rows):
            vals = _translated_rows(kind, start, min(start + rows - 1, last), w)
            diffs = np.sort(vals[:, j] - vals[:, i], axis=1, kind="stable")
            clash = diffs[:, 1:] == diffs[:, :-1]
            if clash.any():
                failures += [start + int(r) for r in np.flatnonzero(clash.any(axis=1))]
        first = last + 1
    return failures


def verify_window_range(kind: str, n_lo: int, n_hi: int, workers: int = 1) -> WindowRangeReport:
    """Check the kind's window for every N in [n_lo, n_hi]; failures are the non-Sidon N.

    A failure is an N whose window has two equal positive differences, exactly
    is_sidon's verdict, found by the batched row table of the module docstring.
    With workers > 1 the range of N is split into that many equal parts,
    checked one after another in this process.  The constructions are
    theorems, so any failure means the window endpoint arithmetic is wrong.
    """
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    if n_lo < 1 or n_lo > n_hi:
        raise InputError("need 1 <= n_lo <= n_hi")
    failures = [n for a, b in _split_range(n_lo, n_hi, workers) for n in _check_span(kind, a, b)]
    return WindowRangeReport(kind, n_lo, n_hi, n_hi - n_lo + 1, tuple(failures))
