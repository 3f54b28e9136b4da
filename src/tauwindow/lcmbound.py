"""Per-prime integer certificates for the s-wise LCM lower bound.

For positive integers d_1..d_r and a subset size 2 <= s <= r, with c = r-s+1
and B = C(r, s):

    (prod over s-subsets of lcm)^(1/B) >= (prod d_i)^(2/(c+1)) / (prod over
    pairs of gcd)^(2/(c(c+1)))

The proof goes prime by prime, so the verifier does too.  Writing beta_1 <=
... <= beta_r for the sorted exponents of a prime p across the d_i, the
exponents of p on each side are

    E_lcm = sum_{j=s..r} C(j-1, s-1) * beta_j        (product of subset lcms)
    E_gcd = sum_{i=1..r-1} (r-i) * beta_i            (product of pairwise gcds)
    E_all = sum_i beta_i                             (product of all d_i)

and after clearing denominators by B*c*(c+1) the claim for p becomes the pure
integer inequality

    c*(c+1)*E_lcm + 2*B*E_gcd >= 2*B*c*E_all.

The certificate records lhs/rhs per prime, which also detects the exact
equality cases.  With s = 1 the inequality is false (see counterexample_s1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .arith import MAX_VALUE, InputError, _integer, factorize


@dataclass(frozen=True)
class LcmBoundInstance:
    d: tuple[int, ...]
    s: int

    @property
    def r(self) -> int:
        return len(self.d)

    @property
    def c(self) -> int:
        return self.r - self.s + 1

    @property
    def binom(self) -> int:
        return comb(self.r, self.s)


@dataclass(frozen=True)
class PrimeRow:
    p: int
    exponents: tuple[int, ...]  # nondecreasing
    lhs: int
    rhs: int

    @property
    def tight(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class LcmBoundCertificate:
    instance: LcmBoundInstance
    per_prime: tuple[PrimeRow, ...]
    holds: bool
    equality: bool

    @property
    def vacuous(self) -> bool:
        """True when every d_i is 1, so no prime constrains anything."""
        return not self.per_prime


def _certificate(d: tuple[int, ...], s: int) -> LcmBoundCertificate:
    instance = LcmBoundInstance(d=d, s=s)
    r, c, b = instance.r, instance.c, instance.binom
    exponents: defaultdict[int, list[int]] = defaultdict(lambda: [0] * r)
    for i, di in enumerate(d):
        for p, e in factorize(di).factors:
            exponents[p][i] = e
    rows = []
    for p in sorted(exponents):
        beta = sorted(exponents[p])
        e_lcm = sum(comb(j - 1, s - 1) * beta[j - 1] for j in range(s, r + 1))
        e_gcd = sum((r - i) * beta[i - 1] for i in range(1, r))
        e_all = sum(beta)
        lhs = c * (c + 1) * e_lcm + 2 * b * e_gcd
        rhs = 2 * b * c * e_all
        rows.append(PrimeRow(p=p, exponents=tuple(beta), lhs=lhs, rhs=rhs))
    holds = all(row.lhs >= row.rhs for row in rows)
    equality = all(row.tight for row in rows)
    return LcmBoundCertificate(
        instance=instance, per_prime=tuple(rows), holds=holds, equality=equality
    )


def verify_lcm_bound(d: Sequence[int], s: int) -> LcmBoundCertificate:
    """Certify the lcm lower bound for the tuple d at subset size s.

    This is a theorem for 2 <= s <= r, so holds=False signals an
    implementation bug, never a mathematical discovery.
    """
    tup = tuple(_integer(x, "value") for x in d)
    if len(tup) < 2:
        raise InputError("need at least two values")
    # all of them up front, before any factorization runs
    if any(not 1 <= x < MAX_VALUE for x in tup):
        raise InputError("values must be positive integers below 2**96")
    s = _integer(s, "subset size s")
    if not 2 <= s <= len(tup):
        raise InputError(f"subset size s must satisfy 2 <= s <= {len(tup)}, got {s}")
    return _certificate(tup, s)


def counterexample_s1(r: int, d: int) -> LcmBoundCertificate:
    """Evaluate the s=1 form on (1, ..., 1, d); it fails for d >= 2.

    With s = 1 the bound would claim (prod d_i)^(1/r) >= (prod d_i)^(2/(r+1))
    for gcd-free tuples, i.e. d^(1/r) >= d^(2/(r+1)), false whenever r >= 2.
    For d = 1 the certificate is vacuous (no primes, both sides 1).
    """
    r = _integer(r, "r")
    if r < 2:
        raise InputError(f"need r >= 2, got {r}")
    return _certificate((1,) * (r - 1) + (d,), 1)
