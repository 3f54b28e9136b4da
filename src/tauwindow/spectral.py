"""Representation counts, additive energy, and exact L2/L4 norms of
trigonometric polynomials f(x) = sum a_n e(n x) with e(x) = exp(2*pi*i*x).

r(m), the energy, max_{m>0} r(m), the autocorrelation c_m and the L4 norm all
come from one kernel that yields the distinct positive differences with their
pair counts or coefficient sums, in disjoint increasing difference ranges of
at most B = _PAIR_BLOCK pairs each (or |A| - 1, the most one difference holds).
The energy, the L4 norm and max r(m) fold each block into a number, so their
working memory is O(B + |A|) however large A is; r(m) and c_m add their dict.
Differences do not change under translation, so the blocks are built in int64
on the support minus its minimum; the same numpy code runs on exact Python
ints (object arrays) only when the spread max - min reaches 2^63.

Counting is exact integer work; norms are floating point.  The L4 norm has two
independent routes: the autocorrelation identity ||f||_4^4 = sum |c_m|^2 and an
equally-spaced quadrature rule that is exact for the bandwidth of |f|^4, which
makes each one an oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .arith import InputError, _BLOCK, _run_bounds

_QUADRATURE_POINT_LIMIT = 1 << 26

RUDIN_REL_TOL = 1e-9

# pairs per block of the difference kernel: its working memory beside O(|A|)
_PAIR_BLOCK = 8 * _BLOCK


def frequency_set(values: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple; rejects duplicates."""
    elems = tuple(sorted(int(v) for v in values))
    if not elems:
        raise InputError("frequency set must be nonempty")
    for x, y in zip(elems, elems[1:]):
        if x == y:
            raise InputError(f"duplicate frequency {x}")
    return elems


class TrigPolynomial:
    """Finite frequency-to-coefficient map; zero coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, complex]):
        self.terms: dict[int, complex] = {}
        for n, a in terms.items():
            a = complex(a)
            if a != 0:
                self.terms[int(n)] = a

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def __len__(self) -> int:
        return len(self.terms)


def unit_polynomial(freqs: Iterable[int]) -> TrigPolynomial:
    """Polynomial with coefficient 1 on every given frequency."""
    return TrigPolynomial({n: 1.0 for n in frequency_set(freqs)})


@dataclass(frozen=True)
class Autocorrelation:
    """Fourier coefficients c_m of |f|^2, keyed by frequency difference m."""

    coeffs: dict[int, complex]


@dataclass(frozen=True)
class RudinCertificate:
    """Explicit fourth-moment bound ||f||_4^4 <= (1 + max_{m>0} r(m)) * ||f||_2^4."""

    lhs: float
    rhs: float
    max_r: int
    holds: bool


def _difference_blocks(a: tuple[int, ...], weights=None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Distinct positive differences y - x (x < y in the sorted set a), increasing,
    in blocks of at most max(_PAIR_BLOCK, len(a) - 1) pairs.

    Yields (diffs, counts, sums) for disjoint, increasing difference ranges
    (d0, d1]: counts[k] counts the pairs with y - x == diffs[k]; with weights
    aligned to a, sums[k] adds w_y * conj(w_x) over those pairs, and without
    weights sums is None.  Concatenating the blocks gives the whole table.
    """
    n = len(a)
    spread = a[-1] - a[0]
    # exact Python ints only when the translated values overflow int64
    arr = np.array([x - a[0] for x in a], dtype=np.int64 if spread < 1 << 63 else object)
    if weights is not None:
        w = np.asarray(weights, dtype=np.complex128)
        w_conj = w.conj()
    # for row y, the columns x with d0 < y - x <= d1 are [lo[y], hi[y]); with
    # d0 = 0 the upper ends are the diagonal
    hi = np.arange(n)
    d0 = 0
    # the first upper edge assumes the pairs spread evenly over (0, spread]
    width = max(1, spread * _PAIR_BLOCK // max(1, n * (n - 1) // 2))
    while d0 < spread:
        d1 = min(d0 + width, spread)
        lo = np.searchsorted(arr, arr - d1)
        per_row = hi - lo
        pairs = int(per_row.sum())
        if pairs > _PAIR_BLOCK and d1 > d0 + 1:
            # too dense: shrink the edge in proportion and probe again
            width = max(1, (d1 - d0) * _PAIR_BLOCK // pairs)
            continue
        if not pairs:
            # an empty range: skip to just below the least difference above d1
            # (rows with lo = 0 have no difference above d1)
            left = lo > 0
            d0, hi = int((arr[left] - arr[lo[left] - 1]).min()) - 1, lo
            continue
        # next edge from this block's pair density
        width = max(1, (d1 - d0) * _PAIR_BLOCK // pairs)
        # row y's columns lo[y] .. hi[y] - 1, laid out row after row
        cols = np.arange(pairs) + np.repeat(lo - (np.cumsum(per_row) - per_row), per_row)
        diffs = np.repeat(arr, per_row) - arr[cols]
        if weights is None:
            diffs.sort()
        else:
            prods = np.repeat(w, per_row) * w_conj[cols]
            order = diffs.argsort(kind="stable")
            diffs, prods = diffs[order], prods[order]
        bounds = _run_bounds(diffs)
        starts = bounds[:-1]
        yield diffs[starts], np.diff(bounds), None if weights is None else np.add.reduceat(prods, starts)
        d0, hi = d1, lo


def representation_counts(freqs: Iterable[int]) -> dict[int, int]:
    """r(m) = number of ordered pairs (n1, n2) with n1 - n2 = m, all m."""
    a = frequency_set(freqs)
    r = {0: len(a)}
    for diffs, counts, _ in _difference_blocks(a):
        for m, c in zip(diffs.tolist(), counts.tolist()):
            r[m] = r[-m] = c
    return r


def additive_energy(freqs: Iterable[int]) -> int:
    """Number of quadruples (a1, b1, a2, b2) in A^4 with a1 + b1 = a2 + b2.

    Equals sum over m of r(m)^2; always at least 2|A|^2 - |A|, with equality
    exactly on Sidon sets.
    """
    a = frequency_set(freqs)
    return len(a) ** 2 + 2 * sum(int(np.dot(counts, counts)) for _, counts, _ in _difference_blocks(a))


def trivial_energy(size: int) -> int:
    """Energy contributed by the trivial quadruples {a1,b1} == {a2,b2}."""
    return 2 * size * size - size


def autocorrelation(f: TrigPolynomial) -> Autocorrelation:
    """c_m = sum over n1 - n2 = m of a_{n1} * conj(a_{n2})."""
    if not f.terms:
        raise InputError("autocorrelation of the empty polynomial")
    support = f.support()
    coeffs: dict[int, complex] = {0: complex(l2_norm_sq(f))}
    for diffs, _, sums in _difference_blocks(support, [f.terms[n] for n in support]):
        for m, c in zip(diffs.tolist(), sums.tolist()):
            coeffs[m] = c
            coeffs[-m] = c.conjugate()
    return Autocorrelation(coeffs)


def l2_norm_sq(f: TrigPolynomial) -> float:
    """Squared L2 norm: sum |a_n|^2, as re^2 + im^2 (exact on Gaussian integers)."""
    return sum(f.terms[n].real ** 2 + f.terms[n].imag ** 2 for n in sorted(f.terms))


def _fourth_moment(f: TrigPolynomial) -> tuple[float, int]:
    """||f||_4^4 = sum_m |c_m|^2 and max_{m>0} r(m) on supp(f), from one pass of the kernel."""
    support = f.support()
    off_diagonal, max_r = 0.0, 0
    for _, counts, sums in _difference_blocks(support, [f.terms[n] for n in support]):
        off_diagonal += float(np.sum(sums.real**2 + sums.imag**2))
        max_r = max(max_r, int(counts.max()))
    return l2_norm_sq(f) ** 2 + 2 * off_diagonal, max_r


def l4_norm_4(f: TrigPolynomial) -> float:
    """Fourth power of the L4 norm, via ||f||_4^4 = sum_m |c_m|^2."""
    return _fourth_moment(f)[0] if f.terms else 0.0


def _smooth_length(n: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= n; FFTs of these lengths are fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def l4_quadrature_oracle(f: TrigPolynomial) -> float:
    """Mean of |f|^4 over Q equally spaced points, Q the smallest 5-smooth
    integer >= 2*(2*D) + 3, D the frequency spread of f.

    |f|^4 is a trigonometric polynomial of bandwidth 2D, so the rule is exact
    up to floating error for any Q > 2D.  Independent of the autocorrelation
    route: the values come from pointwise samples of f.  Frequencies are
    translated by the minimum (which leaves |f| unchanged) and reduced mod Q
    exactly, so huge frequencies lose no precision.
    """
    if not f.terms:
        raise InputError("quadrature oracle of the empty polynomial")
    support = f.support()
    base = support[0]
    spread = support[-1] - base
    points = 2 * (2 * spread) + 3
    if points > _QUADRATURE_POINT_LIMIT:
        raise InputError(f"frequency spread {spread} needs {points} quadrature points; too wide")
    q = _smooth_length(points)
    buf = np.zeros(q, dtype=np.complex128)
    for n in support:
        buf[(n - base) % q] += f.terms[n]
    # the samples overwrite buf, and |f|^2 then |f|^4 are taken in place: the
    # same float operations as re^2 + im^2 and mag2 * mag2, without three
    # more Q-length temporaries
    samples = np.fft.ifft(buf, out=buf)
    samples *= q
    mag2 = np.multiply(samples.real, samples.real)
    mag2 += np.multiply(samples.imag, samples.imag, out=samples.imag)
    del buf, samples
    return float(np.mean(np.multiply(mag2, mag2, out=mag2)))


def max_positive_representation(freqs: Iterable[int]) -> int:
    """max over m > 0 of r(m); zero for a singleton set."""
    return max((int(counts.max()) for _, counts, _ in _difference_blocks(frequency_set(freqs))), default=0)


def rudin_certificate(f: TrigPolynomial) -> RudinCertificate:
    """Certify ||f||_4^4 <= (1 + max_{m>0} r(m)) * ||f||_2^4 on supp(f).

    This is a theorem for every polynomial, so holds=False signals a bug, not
    a discovery.
    """
    if not f.terms:
        raise InputError("certificate of the empty polynomial")
    lhs, max_r = _fourth_moment(f)
    l2sq = l2_norm_sq(f)
    rhs = (1 + max_r) * l2sq * l2sq
    return RudinCertificate(lhs=lhs, rhs=rhs, max_r=max_r, holds=lhs <= rhs * (1 + RUDIN_REL_TOL))
