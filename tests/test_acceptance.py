"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`.  Every tolerance is pinned
here; the criteria are exact identities, certificates, and oracle-equivalence
checks, so a FAIL means a bug, not a borderline measurement.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

from tauwindow.exponents import (
    CUBE_EXPONENT_LIMIT,
    CUBE_OBJECTIVE_ARGMAX,
    SQUARE_EXPONENT_LIMIT,
    continuous_objective,
    cube_exponent,
    square_exponent,
)
from tauwindow.lcmbound import counterexample_s1, verify_lcm_bound
from tauwindow.sidon import verify_window_range
from tauwindow.spectral import (
    TrigPolynomial,
    additive_energy,
    l4_norm_4,
    l4_quadrature_oracle,
    representation_counts,
    rudin_certificate,
)
from tauwindow.windows import (
    cube_window_scan,
    square_representations,
    square_window_scan,
    tau_interval,
    window_multiple_counts,
)

RATIO_BAND = (0.3, 3.0)
DRIFT_BAND = (0.8, 1.25)
QUADRATURE_REL_TOL = 1e-6


def _report(capsys, name: str, problems: list[str], detail: str) -> None:
    ok = not problems
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"{name}: " + "; ".join(problems[:5])


def test_criterion_1_energy_growth_probe(capsys):
    """E({i^2 : i <= n}) scales like n^2 log n across doubling n."""
    problems = []
    ratios = []
    for n in (512, 1024, 2048, 4096):
        energy = additive_energy([i * i for i in range(1, n + 1)])
        ratios.append(energy / (n * n * math.log(n)))
    for n, ratio in zip((512, 1024, 2048, 4096), ratios):
        if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
            problems.append(f"n={n}: ratio {ratio:.4f} outside {RATIO_BAND}")
    for prev, cur in zip(ratios, ratios[1:]):
        drift = cur / prev
        if not DRIFT_BAND[0] <= drift <= DRIFT_BAND[1]:
            problems.append(f"drift {drift:.4f} outside {DRIFT_BAND}")
    detail = "ratios " + ", ".join(f"{r:.4f}" for r in ratios)
    _report(capsys, "criterion 1 (energy growth probe)", problems, detail)


def test_criterion_2_sidon_windows(capsys):
    """Square windows for N <= 2000 and cube windows for N <= 10^5 are Sidon."""
    problems = []
    square = verify_window_range("square", 1, 2000)
    if square.failures:
        problems.append(f"square failures at {square.failures[:5]}")
    cube = verify_window_range("cube", 1, 10**5)
    if cube.failures:
        problems.append(f"cube failures at {cube.failures[:5]}")
    detail = f"square checked={square.checked}, cube checked={cube.checked}, failures=0"
    _report(capsys, "criterion 2 (Sidon windows)", problems, detail)


def test_criterion_3_lcm_bound_suite(capsys):
    """Random certificates hold; the sharp shapes are tight; s=1 fails."""
    problems = []
    rng = random.Random(1003)
    checked = 0
    for _ in range(1000):
        r = rng.randint(2, 7)
        d = [rng.randint(1, 10**6) for _ in range(r)]
        for s in range(2, r + 1):
            cert = verify_lcm_bound(d, s)
            checked += 1
            if not cert.holds:
                problems.append(f"random instance d={d} s={s} did not hold")
    for r in range(2, 9):
        for s in range(2, r + 1):
            for d in (2, 6, 360):
                tup = [1] * (s - 1) + [d] * (r - s + 1)
                cert = verify_lcm_bound(tup, s)
                if not (cert.holds and cert.equality):
                    problems.append(f"block shape r={r} s={s} d={d} not tight")
    primes5 = [2, 3, 5, 7, 11]
    triple_products = [a * b * c for a, b, c in combinations(primes5, 3)]
    cert = verify_lcm_bound(triple_products, 5)
    if not (cert.holds and cert.equality):
        problems.append("triple-product instance (r=10, s=5) not tight")
    for r in range(2, 7):
        for d in range(2, 11):
            if counterexample_s1(r, d).holds:
                problems.append(f"s=1 counterexample r={r} d={d} unexpectedly held")
    detail = f"{checked} random certificates, 84 tight block shapes, 45 s=1 failures"
    _report(capsys, "criterion 3 (lcm bound suite)", problems, detail)


def _random_window_polynomial(rng: random.Random) -> TrigPolynomial:
    # n biased small so the (pinned) 4*spread+3-point quadrature stays fast;
    # upper bounds n <= 10^4 and k <= n^0.6 are exercised across the ensemble
    u = rng.random() ** 1.5
    n = max(2, min(10**4, int(10 ** (4 * u))))
    kmax = max(1, int(n**0.6))
    k = max(1, min(kmax, int(kmax ** rng.random())))
    freqs = [(n + s) ** 2 for s in range(k + 1)]
    return TrigPolynomial(
        {q: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for q in freqs}
    )


def test_criterion_4_fourth_moment_certificates(capsys):
    """500 random window polynomials: moment bound and quadrature agreement."""
    problems = []
    rng = random.Random(1004)
    worst_rel = 0.0
    for i in range(500):
        f = _random_window_polynomial(rng)
        cert = rudin_certificate(f)
        if not cert.holds:
            problems.append(f"poly {i}: ||f||_4^4={cert.lhs} exceeds bound {cert.rhs}")
        quad = l4_quadrature_oracle(f)
        l4 = l4_norm_4(f)
        rel = abs(l4 - quad) / max(abs(l4), abs(quad))
        worst_rel = max(worst_rel, rel)
        if rel > QUADRATURE_REL_TOL:
            problems.append(f"poly {i}: quadrature mismatch rel={rel:.2e}")
    detail = f"500 polynomials, worst quadrature rel err {worst_rel:.2e}"
    _report(capsys, "criterion 4 (fourth-moment certificates)", problems, detail)


def _scan_matches_sieve(report, counts: dict[int, int]) -> bool:
    """The scan's histogram and max_tau are those of the per-m sieve counts."""
    return report.histogram == Counter(counts.values()) and report.max_tau == max(counts.values(), default=0)


def _check_square_scale(n: int, k: int, problems: list[str]) -> int:
    report = square_window_scan(n, k)
    window = report.window
    counts = window_multiple_counts(window, report.m_limit)
    for m, t in counts.items():
        if tau_interval(m, window) != t:
            problems.append(f"square n={n} k={k}: sieve count wrong at m={m}")
            return 0
    if not _scan_matches_sieve(report, counts):
        problems.append(f"square n={n} k={k}: scan histogram or max_tau differs from the sieve")
        return 0
    freqs = [(n + s) ** 2 for s in range(k + 1)]
    rep_counts = representation_counts(freqs)
    positive = {m: c for m, c in rep_counts.items() if m > 0}
    if not set(positive) <= set(counts):
        problems.append(f"square n={n} k={k}: representation difference missed by sieve")
        return 0
    for m in counts:
        reps = square_representations(m, n, k)
        if len(reps) != positive.get(m, 0):
            problems.append(f"square n={n} k={k} m={m}: recovery != pair enumeration")
            return 0
        if len(reps) > counts[m]:
            problems.append(f"square n={n} k={k} m={m}: representation bound violated")
            return 0
    return len(counts)


def _check_cube_scale(n: int, k: int, problems: list[str]) -> int:
    report = cube_window_scan(n, k)
    window = report.window
    counts = window_multiple_counts(window, report.m_limit)
    for m, t in counts.items():
        if tau_interval(m, window) != t:
            problems.append(f"cube n={n} k={k}: sieve count wrong at m={m}")
            return 0
    if not _scan_matches_sieve(report, counts):
        problems.append(f"cube n={n} k={k}: scan histogram or max_tau differs from the sieve")
        return 0
    freqs = [(n + s) ** 3 for s in range(k + 1)]
    rep_counts = representation_counts(freqs)
    for m, c in rep_counts.items():
        if m <= 0:
            continue
        if c > counts.get(m, 0):
            problems.append(f"cube n={n} k={k} m={m}: r(m)={c} exceeds tau")
            return 0
    return len(counts)


def test_criterion_5_scan_oracle_equivalence(capsys):
    """Sieve counts match per-m divisor counts; recovery matches enumeration."""
    problems = []
    square_pairs = square_ms = 0
    for n in range(1, 201):
        for k in range(1, min(n, int(n**0.7)) + 1):
            square_ms += _check_square_scale(n, k, problems)
            square_pairs += 1
            if problems:
                break
        if problems:
            break
    cube_pairs = cube_ms = 0
    if not problems:
        for n in range(1, 61):
            for k in range(1, min(n, 5) + 1):
                cube_ms += _check_cube_scale(n, k, problems)
                cube_pairs += 1
                if problems:
                    break
            if problems:
                break
    detail = (
        f"square: {square_pairs} (n,k) pairs / {square_ms} touched m; "
        f"cube: {cube_pairs} pairs / {cube_ms} touched m"
    )
    _report(capsys, "criterion 5 (scan/oracle equivalence)", problems, detail)


def test_criterion_6_exponent_limits(capsys):
    """Exact small-r values and convergence to the two limit exponents."""
    checks = [
        (square_exponent(3).gamma == Fraction(1, 2), "square r=3 != 1/2"),
        (square_exponent(5).gamma == Fraction(9, 16), "square r=5 != 9/16"),
        (
            abs(square_exponent(1000).gamma_float - SQUARE_EXPONENT_LIMIT) < 0.01,
            "square r=1000 too far from limit",
        ),
        (cube_exponent(3).gamma == Fraction(1, 2), "cube r=3 != 1/2"),
        (
            abs(cube_exponent(1000).gamma_float - CUBE_EXPONENT_LIMIT) < 0.01,
            "cube r=1000 too far from limit",
        ),
        (
            abs(continuous_objective("square", SQUARE_EXPONENT_LIMIT) - SQUARE_EXPONENT_LIMIT)
            < 1e-12,
            "square fixed point drifted",
        ),
        (
            abs(continuous_objective("cube", CUBE_OBJECTIVE_ARGMAX) - CUBE_EXPONENT_LIMIT)
            < 1e-12,
            "cube fixed point drifted",
        ),
    ]
    problems = [msg for ok, msg in checks if not ok]
    detail = (
        f"gamma(1000): square {square_exponent(1000).gamma_float:.5f} "
        f"-> {SQUARE_EXPONENT_LIMIT:.5f}, cube {cube_exponent(1000).gamma_float:.5f} "
        f"-> {CUBE_EXPONENT_LIMIT:.5f}"
    )
    _report(capsys, "criterion 6 (exponent limits)", problems, detail)


def test_criterion_7_large_scan_probe(capsys):
    """N=10^5 scan: fast, worker-independent, and oracle-revalidated."""
    problems = []
    n = 10**5
    k = int(n**0.55)
    start = time.monotonic()
    with_workers = square_window_scan(n, k, workers=4)
    elapsed = time.monotonic() - start
    if elapsed > 60:
        problems.append(f"scan took {elapsed:.1f}s > 60s")
    serial = square_window_scan(n, k, workers=1)
    if with_workers != serial:
        problems.append("workers=4 and workers=1 reports differ")
    if not with_workers.histogram:
        problems.append("histogram missing")
    if tau_interval(with_workers.argmax_m, with_workers.window) != with_workers.max_tau:
        problems.append("argmax failed direct revalidation")
    counts = window_multiple_counts(with_workers.window, with_workers.m_limit)
    if sum(with_workers.histogram.values()) != len(counts):
        problems.append("histogram mass differs from touched-m count")
    rng = random.Random(1007)
    for m in rng.sample(sorted(counts), 100):
        if tau_interval(m, with_workers.window) != counts[m]:
            problems.append(f"sieve count wrong at random m={m}")
            break
    detail = (
        f"k={k}, {elapsed:.1f}s, max_tau={with_workers.max_tau} at m={with_workers.argmax_m}, "
        f"histogram {with_workers.histogram}"
    )
    _report(capsys, "criterion 7 (desk-scale scan probe)", problems, detail)
