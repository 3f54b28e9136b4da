"""Representation counts, additive energy, and exact L2/L4 norms of
trigonometric polynomials f(x) = sum a_n e(n x) with e(x) = exp(2*pi*i*x).

r(m), the energy, max_{m>0} r(m), the autocorrelation c_m and the L4 norm all
come from one kernel that yields the distinct positive differences with their
pair counts or coefficient sums, in disjoint increasing difference ranges of
at most B = _PAIR_BLOCK pairs each (or |A| - 1, the most one difference holds).
The energy, the L4 norm and max r(m) fold each block into a number, so their
working memory is O(B + |A|) however large A is; r(m) and c_m add their dict.
Coefficients that all equal 1 take the unweighted sort of the differences, with
the pair counts as the coefficient sums, so ||f||_4^4 of a 0/1 polynomial costs
what E(A) does.
Differences do not change under translation, so the blocks are built in int64
on the support minus its minimum; the same numpy code runs on exact Python
ints (object arrays) only when the spread max - min reaches 2^63, the rule of
arith._exact_dtype.  Each block's differences lie in one range (d0, d1], so
they are sorted as keys diff - d0 - 1 in arith._key_dtype(d1 - d0 - 1):
uint32 for blocks narrower than 2^32 and int64 ones below 2^63, on any spread.

Counting is exact integer work; norms are floating point.  The L4 norm has two
independent routes: the autocorrelation identity ||f||_4^4 = sum |c_m|^2 and an
equally-spaced quadrature rule that is exact for the bandwidth of |f|^4, which
makes each one an oracle for the other.  |f|^4 has bandwidth 2D for D the
frequency spread, so Q >= 2D + 1 points suffice; the quadrature takes them in
cosets of about max(_BLOCK, |supp f|) points (rounded up to a power of two),
one FFT each, and its working memory is O(_BLOCK + |supp f|) however large D is.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .arith import InputError, _BLOCK, _exact_dtype, _integer, _key_dtype, _run_bounds

_QUADRATURE_POINT_LIMIT = 1 << 26

RUDIN_REL_TOL = 1e-9

# pairs per block of the difference kernel: its working memory beside O(|A|)
_PAIR_BLOCK = 8 * _BLOCK


def frequency_set(values: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple; rejects duplicates and non-integers."""
    elems = tuple(sorted(_integer(v, "frequency") for v in values))
    if not elems:
        raise InputError("frequency set must be nonempty")
    for x, y in zip(elems, elems[1:]):
        if x == y:
            raise InputError(f"duplicate frequency {x}")
    return elems


class TrigPolynomial:
    """Finite map from integer frequencies to finite coefficients; zero
    coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, complex]):
        self.terms: dict[int, complex] = {}
        for n, a in terms.items():
            n, a = _integer(n, "frequency"), complex(a)
            if not cmath.isfinite(a):
                raise InputError(f"coefficient {a!r} at frequency {n} is not finite")
            if a != 0:
                self.terms[n] = a

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
    Weights that all equal 1 take the unweighted sort: every product is 1, so
    the sums are the pair counts, exact in complex128 below 2^53.  A block
    sorts its differences as keys diff - d0 - 1 in _key_dtype(d1 - d0 - 1),
    never wider than the support's dtype, and yields the differences in the
    support's dtype.
    """
    n = len(a)
    spread = a[-1] - a[0]
    arr = np.array([x - a[0] for x in a], dtype=_exact_dtype(spread))
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.complex128)
        if (w == 1).all():
            w = None
        else:
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
        keys = np.repeat(arr, per_row)
        keys -= arr[cols]
        # every difference lies in (d0, d1]: key it by its offset from d0 + 1
        keys -= d0 + 1
        keys = keys.astype(_key_dtype(d1 - d0 - 1), copy=False)
        if w is None:
            keys.sort()
        else:
            prods = np.repeat(w, per_row) * w_conj[cols]
            order = keys.argsort(kind="stable")
            keys, prods = keys[order], prods[order]
        bounds = _run_bounds(keys)
        starts = bounds[:-1]
        counts = np.diff(bounds)
        if w is not None:
            sums = np.add.reduceat(prods, starts)
        else:
            sums = None if weights is None else counts.astype(np.complex128)
        yield keys[starts].astype(arr.dtype) + (d0 + 1), counts, sums
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


def l4_quadrature_oracle(f: TrigPolynomial) -> float:
    """Mean of |f|^4 over Q >= 2D + 1 equally spaced points, D the frequency
    spread of f, taken one coset of the points at a time.

    |f|^4 is a trigonometric polynomial of bandwidth 2D, so the rule is exact
    up to floating error for any Q > 2D.  Independent of the autocorrelation
    route: the values come from pointwise samples of f.  The block length L is
    the least power of two >= min(2D + 1, max(_BLOCK, |supp f|)), there
    are S = ceil((2D + 1) / L) cosets and Q = S * L.  Coset r holds the points
    (r + S j) / Q, j < L; its samples are one length-L inverse FFT of the
    coefficients a_n e((n - base) r / Q) bucketed at (n - base) mod L.  Working
    memory is O(_BLOCK + |supp f|) for any spread; when 2D + 1 <= _BLOCK the
    one coset is a plain FFT of length Q.  Frequencies are translated by the
    minimum (which leaves |f| unchanged) and the phases (n - base) r are kept
    reduced mod Q in exact integers, so huge frequencies lose no precision.
    """
    if not f.terms:
        raise InputError("quadrature oracle of the empty polynomial")
    support = f.support()
    base = support[0]
    spread = support[-1] - base
    points = 2 * spread + 1
    if points > _QUADRATURE_POINT_LIMIT:
        raise InputError(f"frequency spread {spread} needs {points} quadrature points; too wide")
    # the least power of two at or above the block: FFTs of these lengths are fast
    length = 1 << (min(points, max(_BLOCK, len(support))) - 1).bit_length()
    cosets = -(-points // length)
    q = cosets * length
    offsets = np.array([n - base for n in support], dtype=np.int64)
    coeffs = np.array([f.terms[n] for n in support], dtype=np.complex128)
    buckets = offsets % length
    # (n - base) * r mod q for the current coset r, advanced exactly
    phase = np.zeros_like(offsets)
    total = 0.0
    for _ in range(cosets):
        buf = np.zeros(length, dtype=np.complex128)
        np.add.at(buf, buckets, coeffs * np.exp(phase * (2j * np.pi / q)))
        samples = np.fft.ifft(buf) * length
        mag2 = samples.real**2 + samples.imag**2
        total += float(np.sum(mag2 * mag2))
        phase += offsets
        phase %= q
    return total / q


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
