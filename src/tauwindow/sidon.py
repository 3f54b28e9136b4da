"""Sidon-set verification and the square/cube Sidon windows.

A set is Sidon when all pairwise sums are distinct up to order, equivalently
when its additive energy equals the trivial value 2|A|^2 - |A|.  The two
window constructions below are provably Sidon for every N:

    squares: {n^2 : N <= n <= N + floor(sqrt(8N))}
    cubes:   {n^3 : N <= n <= N + t},  t = max integer with 2*t^3 <= N

Window endpoints are computed with integer square/cube roots so perfect
powers at the boundary cannot misround.

is_sidon takes the energy, and a non-Sidon set's witness, from spectral's pair
kernel, so its memory is O(_PAIR_BLOCK + |A|).  verify_window_range checks
that the positive differences of each window in a range of N are distinct.
The N of one width w run to ceil((w+1)^2 / 8) - 1 for squares, to 2(w+1)^3 - 1
for cubes.  Over the pairs (i, i + g), ordered by gap g and then by i, each
difference is a polynomial in N, g(2N + 2i + g) or g(3(N+i)^2 + 3(N+i)g + g^2):
a run builds its coefficient rows once, and a block evaluates one row per N
by Horner steps.  A row is then w increasing runs; one stable sort merges
them, and two equal neighbours are a failure.  The cost is sum_N C(w+1, 2)
differences, in blocks of at most _BLOCK entries (or one row, when longer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .arith import MAX_VALUE, InputError, _BLOCK, _exact_dtype, _iroot, _split_range
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
    """Width w of the kind's window at n, which holds (n + s)^p for s = 0..w;
    for cubes w is the largest t with 2t^3 <= n, that is with t^3 <= n // 2."""
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


def _difference_rows(kind: str, first: int, last: int) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks (start, diffs) for the N in [first, last], all of one width w: row
    N - start of diffs holds (N + i + g)^p - (N + i)^p over the pairs ordered
    by gap g = 1..w, then by i = 0..w - g.  The coefficient rows of these
    polynomials in N are built once, in _exact_dtype of the largest difference,
    which bounds every coefficient and every intermediate of the Horner steps."""
    w = _window_width(kind, first)
    p = 2 if kind == "square" else 3
    dtype = _exact_dtype((last + w) ** p - last**p)
    g = np.arange(1, w + 1)
    i = _progressions(np.zeros_like(g), np.ones_like(g), w + 1 - g).astype(dtype)
    g = np.repeat(g, w + 1 - g).astype(dtype)
    h = g * (2 * i + g)
    coeffs = [2 * g, h] if p == 2 else [3 * g, 3 * h, g * (3 * i * (i + g) + g * g)]
    rows = max(1, _BLOCK // max(1, g.size))
    for start in range(first, last + 1, rows):
        n = np.arange(start, min(start + rows, last + 1), dtype=dtype)[:, None]
        diffs = coeffs[0] * n
        for c in coeffs[1:-1]:
            diffs += c
            diffs *= n
        diffs += coeffs[-1]
        yield start, diffs


def _check_span(kind: str, lo: int, hi: int) -> list[int]:
    """The N in [lo, hi], in order, whose _difference_rows row holds two equal differences."""
    failures: list[int] = []
    first = lo
    while first <= hi:
        last = min(hi, _width_run_end(kind, first))
        for start, diffs in _difference_rows(kind, first, last):
            diffs.sort(axis=1, kind="stable")
            clash = (diffs[:, 1:] == diffs[:, :-1]).any(axis=1)
            failures += [start + int(r) for r in clash.nonzero()[0]]
        first = last + 1
    return failures


def verify_window_range(kind: str, n_lo: int, n_hi: int, workers: int = 1) -> WindowRangeReport:
    """Check the kind's window for every N in [n_lo, n_hi]; failures are the non-Sidon N.

    A failure is an N whose window has two equal positive differences (exactly
    is_sidon's verdict), found by the difference polynomials of the module
    docstring.  With workers > 1 the range of N is split into that many equal
    parts, checked one after another in this process.  The constructions are
    theorems, so any failure means the window endpoint arithmetic is wrong.
    """
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    if n_lo < 1 or n_lo > n_hi:
        raise InputError("need 1 <= n_lo <= n_hi")
    if n_hi >= MAX_VALUE:
        raise InputError(f"Sidon ranges support integers below 2**96, got n_hi={n_hi}")
    failures = [n for a, b in _split_range(n_lo, n_hi, workers) for n in _check_span(kind, a, b)]
    return WindowRangeReport(kind, n_lo, n_hi, n_hi - n_lo + 1, tuple(failures))
