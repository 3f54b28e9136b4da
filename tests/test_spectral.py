"""Tests for representation counts, additive energy, and L2/L4 norms."""

import cmath
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tauwindow
from tauwindow import spectral
from tauwindow.arith import _run_bounds
from tauwindow.spectral import (
    _difference_blocks,
    TrigPolynomial,
    additive_energy,
    autocorrelation,
    frequency_set,
    l2_norm_sq,
    l4_norm_4,
    l4_quadrature_oracle,
    max_positive_representation,
    representation_counts,
    rudin_certificate,
    trivial_energy,
    unit_polynomial,
)

freq_sets = st.lists(st.integers(0, 10**6), min_size=1, max_size=30, unique=True)


def pair_count_oracle(a):
    counts = {}
    for x in a:
        for y in a:
            counts[x - y] = counts.get(x - y, 0) + 1
    return counts


def autocorrelation_oracle(terms):
    coeffs = {}
    for n1, a1 in terms.items():
        for n2, a2 in terms.items():
            coeffs[n1 - n2] = coeffs.get(n1 - n2, 0) + a1 * a2.conjugate()
    return coeffs


def whole_table_differences(a, weights=None):
    """The blocked kernel's output from the whole |A| x |A| difference table at once.

    Returns (diffs, counts, sums) for the distinct positive differences of the
    sorted set a, as one block: about 13 |A|^2 bytes unweighted and 29 |A|^2
    bytes weighted.
    """
    dtype = np.int64 if a[-1] - a[0] < 1 << 63 else object
    arr = np.array([x - a[0] for x in a], dtype=dtype)
    # row y, column x: a is strictly increasing, so x < y below the diagonal
    lower = arr[:, None] > arr
    diffs = (arr[:, None] - arr)[lower]
    if weights is None:
        diffs.sort()
    else:
        w = np.asarray(weights, dtype=np.complex128)
        prods = (w[:, None] * w.conj())[lower]
        order = diffs.argsort()
        diffs, prods = diffs[order], prods[order]
    bounds = _run_bounds(diffs)
    starts = bounds[:-1]
    sums = None if weights is None else np.add.reduceat(prods, starts)
    return diffs[starts], np.diff(bounds), sums


def quadruple_energy_oracle(a):
    return sum(
        1
        for a1 in a
        for b1 in a
        for a2 in a
        for b2 in a
        if a1 + b1 == a2 + b2
    )


class TestRepresentationCounts:
    def test_examples(self):
        r = representation_counts([1, 2, 4])
        assert r == {0: 3, 1: 1, -1: 1, 2: 1, -2: 1, 3: 1, -3: 1}
        assert representation_counts([42]) == {0: 1}
        r = representation_counts([1, 2, 3])
        assert r[0] == 3 and r[1] == r[-1] == 2 and r[2] == r[-2] == 1

    @settings(max_examples=100, deadline=None)
    @given(freq_sets)
    def test_against_pair_oracle(self, a):
        r = representation_counts(a)
        assert r == pair_count_oracle(sorted(a))
        assert r[0] == len(a)
        assert sum(r.values()) == len(a) ** 2
        assert all(r[-m] == c for m, c in r.items())

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            frequency_set([3, 3])
        with pytest.raises(ValueError):
            frequency_set([])


class TestAdditiveEnergy:
    def test_brute_force_examples(self):
        assert quadruple_energy_oracle([1, 2, 3]) == 19
        assert additive_energy([1, 2, 3]) == 19
        assert additive_energy([5]) == 1
        # {1,2,5,11} is Sidon: energy is exactly trivial
        assert additive_energy([1, 2, 5, 11]) == trivial_energy(4)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=10, unique=True))
    def test_against_quadruple_oracle(self, a):
        assert additive_energy(a) == quadruple_energy_oracle(a)

    @settings(max_examples=80, deadline=None)
    @given(freq_sets)
    def test_identities(self, a):
        e = additive_energy(a)
        r = representation_counts(a)
        assert e == sum(c * c for c in r.values())
        assert e >= trivial_energy(len(a))
        assert e == pytest.approx(l4_norm_4(unit_polynomial(a)), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(freq_sets, st.integers(-10**9, 10**9), st.integers(1, 50))
    def test_translation_dilation_invariance(self, a, t, u):
        e = additive_energy(a)
        assert additive_energy([t + u * x for x in a]) == e

    def test_fast_and_pure_paths_agree(self):
        # int64 kernel against the pure-Python pair oracle; then the Python-int
        # kernel on A u (A + s) with s >= 2^63, whose energy is 6 E(A) once s
        # exceeds twice the spread of A
        rng = random.Random(3)
        for _ in range(50):
            a = frequency_set(rng.sample(range(10**7), rng.randint(2, 60)))
            e = additive_energy(a)
            assert e == sum(c * c for c in pair_count_oracle(a).values())
            s = 2**63 + rng.randrange(2**20)
            assert additive_energy(a + tuple(x + s for x in a)) == 6 * e

    def test_huge_frequencies_use_exact_path(self):
        a = [2**95 - 5, 2**95 - 1, 2**95 + 3]  # arithmetic progression: collision
        assert additive_energy(a) == quadruple_energy_oracle(a)


class TestAutocorrelation:
    def test_single_term(self):
        acf = autocorrelation(TrigPolynomial({5: 1.0}))
        assert acf.coeffs == {0: 1 + 0j}

    def test_two_terms(self):
        acf = autocorrelation(unit_polynomial([1, 2]))
        assert acf.coeffs[0] == 2
        assert acf.coeffs[1] == 1
        assert acf.coeffs[-1] == 1

    def test_conjugate_symmetry_and_zero_mode(self):
        rng = random.Random(9)
        freqs = rng.sample(range(500), 12)
        f = TrigPolynomial({n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs})
        acf = autocorrelation(f)
        for m, c in acf.coeffs.items():
            assert acf.coeffs[-m] == pytest.approx(c.conjugate(), abs=1e-12)
        c0 = acf.coeffs[0]
        assert c0.imag == 0.0
        assert c0.real == pytest.approx(sum(abs(a) ** 2 for a in f.terms.values()), rel=1e-12)

    def test_real_symmetric_coefficients_give_real_acf(self):
        f = TrigPolynomial({-2: 0.5, -1: 1.0, 1: 1.0, 2: 0.5})
        acf = autocorrelation(f)
        for c in acf.coeffs.values():
            assert abs(c.imag) < 1e-12


class TestNorms:
    def test_l2(self):
        assert l2_norm_sq(unit_polynomial([1, 2])) == 2
        assert l2_norm_sq(TrigPolynomial({7: 3.0})) == 9
        n = 40
        assert l2_norm_sq(unit_polynomial([i * i for i in range(1, n + 1)])) == n

    def test_l4_examples(self):
        assert l4_norm_4(unit_polynomial([1, 2, 3])) == pytest.approx(19, rel=1e-12)
        assert l4_norm_4(TrigPolynomial({5: 1.0})) == pytest.approx(1, rel=1e-12)

    def test_l4_homogeneity(self):
        rng = random.Random(21)
        freqs = rng.sample(range(1000), 8)
        g = TrigPolynomial({n: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for n in freqs})
        c = 1.7 - 0.3j
        scaled = TrigPolynomial({n: c * a for n, a in g.terms.items()})
        assert l4_norm_4(scaled) == pytest.approx(abs(c) ** 4 * l4_norm_4(g), rel=1e-9)

    def test_l4_matches_dict_path(self):
        rng = random.Random(4)
        freqs = rng.sample(range(3000), 20)
        f = TrigPolynomial({n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs})
        via_numpy = l4_norm_4(f)
        acf = autocorrelation(f)
        via_dict = sum(abs(c) ** 2 for c in acf.coeffs.values())
        assert via_numpy == pytest.approx(via_dict, rel=1e-12)


class TestQuadratureOracle:
    def test_constant(self):
        assert l4_quadrature_oracle(TrigPolynomial({0: 2 - 1j})) == pytest.approx(abs(2 - 1j) ** 4, rel=1e-12)

    def test_small_exact(self):
        f = unit_polynomial([1, 2])
        assert l4_quadrature_oracle(f) == pytest.approx(l4_norm_4(f), rel=1e-9)

    def test_random_polynomials(self):
        rng = random.Random(17)
        for _ in range(100):
            freqs = rng.sample(range(2000), 20)
            f = TrigPolynomial(
                {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs}
            )
            assert l4_quadrature_oracle(f) == pytest.approx(l4_norm_4(f), rel=1e-6)

    def test_huge_translated_frequencies(self):
        # same spread, frequencies near 10^12: modular phase reduction keeps it exact
        base = 10**12
        f = TrigPolynomial({base + n: cmath.exp(0.3j * n) for n in (0, 3, 17, 40)})
        g = TrigPolynomial({n: cmath.exp(0.3j * n) for n in (0, 3, 17, 40)})
        assert l4_quadrature_oracle(f) == pytest.approx(l4_quadrature_oracle(g), rel=1e-9)
        assert l4_quadrature_oracle(f) == pytest.approx(l4_norm_4(f), rel=1e-9)


class TestRudinCertificate:
    def test_sidon_support(self):
        cert = rudin_certificate(unit_polynomial([1, 2, 5, 11]))
        assert cert.max_r == 1
        assert cert.holds

    def test_singleton_degenerate(self):
        cert = rudin_certificate(TrigPolynomial({9: 2.0}))
        assert cert.max_r == 0
        assert cert.holds

    def test_square_prefix(self):
        f = unit_polynomial([n * n for n in range(1, 51)])
        cert = rudin_certificate(f)
        assert cert.holds
        assert cert.max_r >= 2  # 7^2-1^2 == 48 == 8^2-4^2

    def test_random_polynomials_hold(self):
        rng = random.Random(31)
        for _ in range(500):
            size = rng.randint(1, 25)
            freqs = rng.sample(range(10**5), size)
            f = TrigPolynomial(
                {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs}
            )
            cert = rudin_certificate(f)
            assert cert.holds
            assert cert.max_r == max_positive_representation(freqs)


class TestThreeWayIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=25, unique=True))
    def test_energy_three_routes(self, a):
        by_energy = additive_energy(a)
        by_counts = sum(c * c for c in representation_counts(a).values())
        by_l4 = l4_norm_4(unit_polynomial(a))
        by_quadrature = l4_quadrature_oracle(unit_polynomial(a))
        assert by_energy == by_counts
        assert by_l4 == pytest.approx(by_energy, rel=1e-9)
        assert by_quadrature == pytest.approx(by_energy, rel=1e-6)


# The pair-difference kernel works in int64 on the set minus its minimum while
# the spread is below 2^63, and in exact Python ints beyond.  Sets are built
# from small offsets so that differences repeat in all three kinds.
offsets = st.lists(st.integers(0, 250), min_size=1, max_size=14, unique=True)
kernel_sets = st.one_of(
    # small values, negative ones included
    st.lists(st.integers(-100, 250), min_size=1, max_size=14, unique=True),
    # values above 2^63, spread below 2^63: the translated int64 route
    st.builds(
        lambda xs, base, step: [base + step * x for x in xs],
        offsets,
        st.integers(2**63, 2**95),
        st.integers(1, 2**55),
    ),
    # spread of 2^63 or more: the Python-int route
    st.builds(
        lambda xs, shift: sorted(set(xs) | {x + shift for x in xs}),
        offsets,
        st.integers(2**63, 2**70),
    ),
)


class TestPairKernelRoutes:
    @settings(max_examples=150, deadline=None)
    @given(kernel_sets, st.data())
    def test_public_functions_against_pair_oracles(self, a, data):
        counts = pair_count_oracle(a)
        assert representation_counts(a) == counts
        assert additive_energy(a) == sum(c * c for c in counts.values())
        max_r = max((c for m, c in counts.items() if m > 0), default=0)
        assert max_positive_representation(a) == max_r
        # Gaussian-integer coefficients keep every pair sum exact in float64
        coefs = st.builds(complex, st.integers(1, 4), st.integers(-3, 3))
        f = TrigPolynomial({n: data.draw(coefs) for n in a})
        expected = autocorrelation_oracle(f.terms)
        acf = autocorrelation(f).coeffs
        assert acf.keys() == expected.keys()
        assert all(acf[m] == c for m, c in expected.items())
        assert l4_norm_4(f) == sum(c.real**2 + c.imag**2 for c in expected.values())
        # the certificate reads max_r and lhs off the weighted table alone
        cert = rudin_certificate(f)
        assert (cert.max_r, cert.lhs) == (max_r, l4_norm_4(f))
        assert cert.holds


class TestAboveFormerCutoffs:
    def test_3001_elements_against_quadrature(self):
        # the FFT route shares no code with the pair kernel
        a = random.Random(5).sample(range(10**6 + 1), 3001)
        f = unit_polynomial(a)
        energy = additive_energy(a)
        assert energy == round(l4_quadrature_oracle(f))
        assert l4_norm_4(f) == pytest.approx(energy, rel=1e-9)


# An arithmetic progression puts |A| - k pairs on the difference k * step, more
# than a block of 1 or 7 pairs holds; steps of 2^62 and more reach spreads
# past 2^63.
progressions = st.builds(
    lambda start, step, size: [start + step * i for i in range(size)],
    st.integers(-(10**6), 2**64),
    st.sampled_from([1, 3, 1000, 2**40, 2**62, 2**63 + 1]),
    st.integers(1, 40),
)
block_sets = st.one_of(
    kernel_sets,
    progressions,
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=2, unique=True),
)


def _concatenated(blocks):
    diffs, counts, sums = [], [], []
    for d, c, s in blocks:
        diffs += d.tolist()
        counts += c.tolist()
        sums += [] if s is None else s.tolist()
    return diffs, counts, sums


class TestDifferenceBlocks:
    @settings(max_examples=200, deadline=None)
    @given(block_sets, st.sampled_from([1, 7, spectral._PAIR_BLOCK]), st.integers(0, 2**32))
    @example([7], 1, 0)
    @example([0, 2**63], 7, 0)
    @example(list(range(30)), 7, 0)
    @example([3 * 2**62 * i for i in range(20)], 1, 0)
    def test_blocks_match_the_whole_table(self, a, block, seed):
        a = tuple(sorted(a))
        rng = random.Random(seed)
        w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in a]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_PAIR_BLOCK", block)
            weighted = list(_difference_blocks(a, w))
            unweighted = list(_difference_blocks(a))
            energy = additive_energy(a)
            max_r = max_positive_representation(a)
        # disjoint increasing ranges of at most max(block, |A| - 1) pairs each
        for _, counts, _ in weighted + unweighted:
            assert 0 < counts.sum() <= max(block, len(a) - 1)
        expected = whole_table_differences(a, w)
        diffs, counts, sums = _concatenated(weighted)
        assert (diffs, counts) == (expected[0].tolist(), expected[1].tolist())
        assert _concatenated(unweighted) == (diffs, counts, [])
        assert energy == len(a) ** 2 + 2 * sum(c * c for c in counts)
        assert max_r == max(counts, default=0)
        # the order of the sum within one difference may change: compare
        # against the sum of |w_y| |w_x| over its pairs
        scale = whole_table_differences(a, np.abs(w))[2]
        scale = [] if scale is None else scale.real.tolist()
        for got, want, bound in zip(sums, expected[2].tolist(), scale):
            assert abs(got - want) <= 1e-12 * bound


class TestKernelMemory:
    @staticmethod
    def traced_peak(fn, arg):
        tracemalloc.start()
        try:
            result = fn(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_energy_of_4096_squares(self):
        # the whole difference table peaked at 208 MiB
        energy, peak = self.traced_peak(additive_energy, [i * i for i in range(1, 4097)])
        assert energy == 91408384
        assert peak <= 32 << 20

    def test_rudin_certificate_of_3000_squares(self):
        # the whole weighted table peaked at 282 MiB
        rng = random.Random(12)
        f = TrigPolynomial(
            {(150000 + s) ** 2: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for s in range(3000)}
        )
        cert, peak = self.traced_peak(rudin_certificate, f)
        assert cert.holds and cert.max_r >= 1
        assert peak <= 32 << 20

    def test_energy_of_range_20000_in_1_gib(self):
        # the whole table would need about 5 GB; the closed form is (2n^3 + n)/3
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(tauwindow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "from tauwindow.spectral import additive_energy; print(additive_energy(range(20000)))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=limit_address_space,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        n = 20000
        assert int(proc.stdout) == (2 * n**3 + n) // 3


class TestQuadratureInPlace:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3000), min_size=1, max_size=30, unique=True), st.integers(0, 2**32))
    def test_bit_identical_to_the_temporaries_expression(self, freqs, seed):
        rng = random.Random(seed)
        f = TrigPolynomial({n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs})
        support = f.support()
        q = spectral._smooth_length(4 * (support[-1] - support[0]) + 3)
        buf = np.zeros(q, dtype=np.complex128)
        for n in support:
            buf[(n - support[0]) % q] += f.terms[n]
        samples = np.fft.ifft(buf)
        samples *= q
        mag2 = samples.real**2 + samples.imag**2
        assert l4_quadrature_oracle(f) == float(np.mean(mag2 * mag2))
