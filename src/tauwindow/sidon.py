"""Sidon-set verification and the square/cube Sidon windows.

A set is Sidon when all pairwise sums are distinct up to order, equivalently
when its additive energy equals the trivial value 2|A|^2 - |A|.  The two
window constructions below are provably Sidon for every N:

    squares: {n^2 : N <= n <= N + floor(sqrt(8N))}
    cubes:   {n^3 : N <= n <= N + t},  t = max integer with 2*t^3 <= N

Window endpoints are computed with integer square/cube roots so perfect
powers at the boundary cannot misround.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from .arith import InputError, _split_range
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
    width = math.isqrt(8 * n)
    return tuple((n + s) ** 2 for s in range(width + 1))


def _half_cbrt_floor(n: int) -> int:
    # largest t with 2*t^3 <= n, exactly
    t = round((n / 2) ** (1 / 3))
    while t > 0 and 2 * t * t * t > n:
        t -= 1
    while 2 * (t + 1) ** 3 <= n:
        t += 1
    return t


def cubes_window(n: int) -> tuple[int, ...]:
    """{m^3 : n <= m <= n + floor((n/2)^(1/3))}; Sidon for every n >= 1."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    width = _half_cbrt_floor(n)
    return tuple((n + s) ** 3 for s in range(width + 1))


def _window_for(kind: str, n: int) -> tuple[int, ...]:
    return squares_window(n) if kind == "square" else cubes_window(n)


def _check_span(args: tuple[str, int, int]) -> list[int]:
    kind, lo, hi = args
    return [n for n in range(lo, hi + 1) if not is_sidon(_window_for(kind, n)).is_sidon]


def verify_window_range(
    kind: str, n_lo: int, n_hi: int, workers: int = 1
) -> WindowRangeReport:
    """Run is_sidon on the kind's window for every N in [n_lo, n_hi].

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
