"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

Each workload has three parts.  make_inputs(rng, tiny) draws every input from
the workload's seeded generator; the package receives only these inputs.
run(inputs, calls) makes the timed calls and returns their outputs.
check(inputs, outputs, ledger, seed) verifies the outputs with checks that
do not reuse the code under test where an independent route exists, so they
hold for any seed.  Sizes are fixed per workload; the seed picks values, so
the work stays comparable across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable

from tauwindow import cli, exponents, lcmbound, sidon, spectral, windows
from tauwindow.exponents import CUBE_EXPONENT_LIMIT, SQUARE_EXPONENT_LIMIT

from tracer import mark_count

QUADRATURE_REL_TOL = 1e-6
IDENTITY_REL_TOL = 1e-9

# README CLI examples; their reports do not depend on the seed, so the bytes
# are pinned.
CLI_SCAN = ("scan-squares", "--n", "100000", "--k", "562")
CLI_RUZSA = ("ruzsa", "--from", "2", "--to", "10000", "--eps", "0.25")
CLI_SHA256 = {
    CLI_SCAN: "e1a0ca6b6bfaa4427d800c37d8158d493c9d7fda805399428d57d0997a4f6188",
    CLI_RUZSA: "e4ac3ebdcb52a62927d384a229bc61ea0c2d5844507effb1e1178ba871df2c58",
}

# E({i^2 : 1 <= i <= n}); cross-checked once against the package's pure-dict
# energy route, which shares no code with the numpy route the workload takes.
SQUARE_PREFIX_ENERGY = {
    64: 12804,
    128: 57436,
    512: 1122248,
    1024: 4896976,
    2048: 21219820,
    4096: 91408384,
}


class Ledger:
    """Counts checks attempted and failed; keeps the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)

    def expect(self, what: str, predicate: Callable[..., bool], *args: Any) -> None:
        """One check: predicate(*args) must return true; raising counts as failing."""
        self.attempted += 1
        try:
            ok = bool(predicate(*args))
        except Exception as exc:  # a check that cannot be evaluated has failed
            ok = False
            what = f"{what} ({exc!r})"
        if not ok:
            self.fail(what)


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Calls:
    """Makes the timed calls of one pass and records each one's wall and CPU time.

    Every call has its own label, so a run can take each call's median over
    its passes.  A call that raises is recorded in errors and yields None, so
    the checks on its output fail too.
    """

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.errors: list[str] = []

    def __call__(self, label: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if label in self.wall:
            raise ValueError(f"duplicate call label {label!r}")
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # recorded as a failed call, never hidden
            self.errors.append(f"{label}: {exc!r}")
            return None
        finally:
            self.wall[label] = time.perf_counter() - start
            self.cpu[label] = cpu_seconds() - cpu


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[random.Random, bool], dict]
    run: Callable[[dict, Calls], dict]
    check: Callable[[dict, dict, Ledger, int], None]


def run_cli(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """cli.main with stdout captured; returns (exit status, report bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(list(argv))
    return status, out.getvalue().encode()


def brute_tau(m: int, lo: int, hi: int) -> int:
    """Divisors of m in [lo, hi] by trial division, walking the shorter of the
    divisor range and its co-divisor range [ceil(m/hi), floor(m/lo)]."""
    e_lo = max(1, -(-m // hi))
    e_hi = m // lo
    if e_hi - e_lo < hi - lo:
        return sum(1 for e in range(e_lo, e_hi + 1) if m % e == 0)
    return sum(1 for d in range(lo, hi + 1) if m % d == 0)


def _check_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"check:{seed}:{label}")


def _check_cli(ledger: Ledger, argv: tuple[str, ...], result: tuple[int, bytes] | None) -> None:
    ledger.expect(f"cli {' '.join(argv)}: exit 0", lambda: result[0] == 0)
    ledger.expect(
        f"cli {' '.join(argv)}: report sha256 pinned",
        lambda: hashlib.sha256(result[1]).hexdigest() == CLI_SHA256[argv],
    )


# ---------------------------------------------------------------- scan


def _scan_inputs(rng: random.Random, tiny: bool) -> dict:
    if tiny:
        inputs = {
            "squares": [(10**3, 10), (10**3, 30), (10**3, 31), (rng.randint(10**4, 10**6), 30)],
            "cubes": [(30, 3), (100, 2), (1000, 1)],
            "pooled": (10**3, 30),
            "samples": 10,
        }
    else:
        inputs = {
            "squares": [(10**5, 562), (10**5, 2000), (10**5, 3000), (rng.randint(10**6, 10**9), 2000)],
            "cubes": [(300, 30), (1000, 20), (10**4, 3)],
            "pooled": (10**5, 2000),
            "samples": 100,
        }
    n, k = inputs["pooled"]
    # (pool metric prefix, label with workers=1, label of the same call with workers=2)
    inputs["pool_pair"] = ("scan", f"square {n}x{k}", f"square {n}x{k} workers=2")
    return inputs


def _scan_run(inputs: dict, calls: Calls) -> dict:
    out: dict[str, Any] = {}
    for n, k in inputs["squares"]:
        out[f"square {n}x{k}"] = calls(f"square {n}x{k}", windows.square_window_scan, n, k)
    for n, k in inputs["cubes"]:
        out[f"cube {n}x{k}"] = calls(f"cube {n}x{k}", windows.cube_window_scan, n, k)
    n, k = inputs["pooled"]
    out["pooled"] = calls(f"square {n}x{k} workers=2", windows.square_window_scan, n, k, workers=2)
    out["cli"] = {CLI_SCAN: calls("cli scan-squares", run_cli, CLI_SCAN)}
    return out


def _check_scan_report(ledger: Ledger, label: str, report, samples: int, rng: random.Random) -> None:
    """Revalidate a scan report against direct and brute-force divisor counts."""
    if report is None:
        ledger.fail(f"{label}: no report")
        return
    w = report.window
    ledger.expect(
        f"{label}: max_tau at argmax_m",
        lambda: windows.tau_interval(report.argmax_m, w)
        == brute_tau(report.argmax_m, w.lo, w.hi)
        == report.max_tau
        == max(report.histogram),
    )
    ledger.expect(
        f"{label}: histogram mass equals the computed mark count",
        lambda: sum(t * c for t, c in report.histogram.items())
        == mark_count(w.lo, w.hi, report.m_limit),
    )
    top = min(w.hi, report.m_limit)
    for _ in range(samples):
        d = rng.randint(w.lo, top)
        m = d * rng.randint(1, report.m_limit // d)
        ledger.expect(
            f"{label}: tau at touched m={m}",
            lambda m: 1 <= windows.tau_interval(m, w) == brute_tau(m, w.lo, w.hi) <= report.max_tau,
            m,
        )


def _scan_check(inputs: dict, out: dict, ledger: Ledger, seed: int) -> None:
    for n, k in inputs["squares"]:
        label = f"square {n}x{k}"
        _check_scan_report(ledger, label, out[label], inputs["samples"], _check_rng(seed, label))
    for n, k in inputs["cubes"]:
        label = f"cube {n}x{k}"
        _check_scan_report(ledger, label, out[label], inputs["samples"], _check_rng(seed, label))
    n, k = inputs["pooled"]
    serial = out[f"square {n}x{k}"]
    ledger.expect("workers=2 report equals workers=1 report", lambda: serial is not None and out["pooled"] == serial)
    _check_cli(ledger, CLI_SCAN, out["cli"][CLI_SCAN])


# ---------------------------------------------------------------- spectral


def _polynomial_sizes(count: int) -> list[tuple[int, int]]:
    # Fixed (N, k) grid over criterion 4's range N <= 10^4: N log-spaced,
    # k = floor(N^0.3).  The quadrature length 4*spread+3 decides the FFT
    # cost and is rarely 5-smooth; seed-drawn N would make that cost vary by
    # seed, so the seed draws only the coefficients.
    sizes = []
    for i in range(count):
        n = round(10 ** (1 + 3 * i / max(1, count - 1)))
        sizes.append((n, max(1, int(n**0.3))))
    return sizes


def _spectral_inputs(rng: random.Random, tiny: bool) -> dict:
    probe = (64, 128) if tiny else (512, 1024, 2048, 4096)
    window = 100 if tiny else 3000
    big = 50 if tiny else 1000
    # Seeded bases.  The 3000-term window stays on the int64 numpy path; the
    # big-int window lies above 2^61, where the dict path runs, and is Sidon
    # because its width is at most sqrt(8N).
    base = rng.randint(10**5, 2 * 10**5)
    big_base = rng.randint(1 << 31, (1 << 32) - big)
    polys = []
    for n, k in _polynomial_sizes(4 if tiny else 40):
        polys.append({(n + s) ** 2: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for s in range(k + 1)})
    return {
        "probe": probe,
        "window": [(base + s) ** 2 for s in range(window)],
        "big": [(big_base + s) ** 2 for s in range(big)],
        "polys": polys,
    }


def _spectral_run(inputs: dict, calls: Calls) -> dict:
    out: dict[str, Any] = {}
    out["probe"] = {
        n: calls(f"energy {n}", spectral.additive_energy, [i * i for i in range(1, n + 1)])
        for n in inputs["probe"]
    }
    out["window"] = calls("rudin window", spectral.rudin_certificate, spectral.unit_polynomial(inputs["window"]))
    out["big"] = calls("rudin big-int", spectral.rudin_certificate, spectral.unit_polynomial(inputs["big"]))
    out["big_sidon"] = calls("is_sidon big-int", sidon.is_sidon, inputs["big"])
    polys = []
    for i, terms in enumerate(inputs["polys"]):
        f = spectral.TrigPolynomial(terms)
        polys.append(
            (
                calls(f"poly {i} rudin", spectral.rudin_certificate, f),
                calls(f"poly {i} l4", spectral.l4_norm_4, f),
                calls(f"poly {i} quadrature", spectral.l4_quadrature_oracle, f),
            )
        )
    out["polys"] = polys
    return out


def _spectral_check(inputs: dict, out: dict, ledger: Ledger, seed: int) -> None:
    for n, energy in out["probe"].items():
        ledger.expect(f"energy n={n} equals the pinned value", lambda: energy == SQUARE_PREFIX_ENERGY[n])
        ledger.expect(
            f"energy n={n} >= trivial energy",
            lambda: energy >= spectral.trivial_energy(n) and (energy - n * n) % 2 == 0,
        )
    window = out["window"]
    size = len(inputs["window"])
    ledger.expect("window certificate holds", lambda: window.holds)
    ledger.expect(
        "window ||f||_4^4 is at least the trivial energy",
        lambda: window.lhs >= spectral.trivial_energy(size) * (1 - IDENTITY_REL_TOL),
    )
    big, verdict = out["big"], out["big_sidon"]
    big_size = len(inputs["big"])
    trivial = spectral.trivial_energy(big_size)
    ledger.expect("big-int certificate holds", lambda: big.holds and big.max_r == 1)
    ledger.expect(
        "big-int Sidon window: ||f||_4^4 equals the trivial energy",
        lambda: abs(big.lhs - trivial) <= IDENTITY_REL_TOL * trivial,
    )
    ledger.expect(
        "big-int Sidon window: is_sidon with exactly the trivial energy",
        lambda: verdict.is_sidon and verdict.energy == trivial and verdict.witness is None,
    )
    for i, (cert, l4, quad) in enumerate(out["polys"]):
        ledger.expect(f"poly {i}: certificate holds", lambda: cert.holds)
        ledger.expect(
            f"poly {i}: quadrature agrees with l4_norm_4",
            lambda: abs(l4 - quad) <= QUADRATURE_REL_TOL * max(abs(l4), abs(quad)),
        )
        ledger.expect(f"poly {i}: certificate lhs is l4_norm_4", lambda: cert.lhs == l4)


# ---------------------------------------------------------------- oracle

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the first twelve prime bases: deterministic below 3.3e24
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if _is_prime(p):
            return p


def _big_d(rng: random.Random) -> int:
    # A smooth part times two primes past the 4096 trial-division bound, so
    # factorize takes trial division and then Pollard-Brent on p*q.  The prime
    # sizes are fixed (p has 18 bits) so the splitting work is comparable
    # across seeds; a uniform 64-bit draw sometimes needs 2^16 iterations.
    smooth = 1
    while smooth < 1 << 8:
        smooth *= rng.choice(_SMALL_PRIMES)
    # 2^8 <= smooth < 37 * 2^8, so d lies in [2^46, 2^60)
    return smooth * _random_prime(rng, 18) * _random_prime(rng, rng.randint(22, 28))


def _oracle_inputs(rng: random.Random, tiny: bool) -> dict:
    small_tuples = [[rng.randint(1, 10**6) for _ in range(2 + i % 6)] for i in range(20 if tiny else 300)]
    big_tuples = [[_big_d(rng) for _ in range(2 + i % 6)] for i in range(5 if tiny else 100)]
    band = 20 if tiny else 1000
    band_lo = rng.randint(1 << 21, (1 << 21) + 10**5)
    return {
        "square_ns": range(20, 25) if tiny else range(160, 200),
        "ruzsa": (10**12, 10**12 + (50 if tiny else 5000), 0.25),
        "ruzsa_samples": 5 if tiny else 50,
        "tuples": small_tuples + big_tuples,
        "cube_range": (1, 500 if tiny else 20000),
        "square_range": (1, 100 if tiny else 2000),
        "cube_band": (band_lo, band_lo + band - 1),
        "exponent_r": 50 if tiny else 1000,
        "pool_pair": ("sidon", "sidon cube", "sidon cube workers=2"),
    }


def _taus(counts: dict[int, int], window: tuple[int, int]) -> list[int]:
    return [windows.tau_interval(m, window) for m in counts]


def _certify_all(d: list[int]) -> list:
    return [lcmbound.verify_lcm_bound(d, s) for s in range(2, len(d) + 1)]


def _oracle_run(inputs: dict, calls: Calls) -> dict:
    out: dict[str, Any] = {}
    out["tau"] = []
    for n in inputs["square_ns"]:
        k = int(n**0.7)
        window, m_limit = (2 * n, 2 * n + 2 * k), 3 * n * k
        counts = calls(f"sieve {n}", windows.window_multiple_counts, window, m_limit)
        taus = calls(f"tau_interval {n}", _taus, counts, window)
        out["tau"].append(((window, m_limit), counts, taus))
    out["ruzsa"] = calls("ruzsa_scan", windows.ruzsa_scan, *inputs["ruzsa"])
    out["lcm"] = [(d, calls(f"lcm {i}", _certify_all, d)) for i, d in enumerate(inputs["tuples"])]
    lo, hi = inputs["cube_range"]
    out["cube"] = calls("sidon cube", sidon.verify_window_range, "cube", lo, hi, workers=1)
    out["cube_pooled"] = calls("sidon cube workers=2", sidon.verify_window_range, "cube", lo, hi, workers=2)
    out["square"] = calls("sidon square", sidon.verify_window_range, "square", *inputs["square_range"])
    out["band"] = calls("sidon cube band", sidon.verify_window_range, "cube", *inputs["cube_band"])
    r = inputs["exponent_r"]
    out["exponents"] = (
        calls("square_exponent", exponents.square_exponent, r),
        calls("cube_exponent", exponents.cube_exponent, r),
    )
    out["cli"] = {CLI_RUZSA: calls("cli ruzsa", run_cli, CLI_RUZSA)}
    return out


def _product_matches(d: list[int], cert) -> bool:
    prod = 1
    for row in cert.per_prime:
        prod *= row.p ** sum(row.exponents)
    return prod == math.prod(d)


def _ruzsa_brute(n: int, eps: float) -> int:
    s = math.isqrt(n)
    lo = s if s * s == n else s + 1
    hi = math.floor(math.sqrt(n) + n ** (0.5 - eps))
    return brute_tau(n, lo, hi) if lo <= hi else 0


def _oracle_check(inputs: dict, out: dict, ledger: Ledger, seed: int) -> None:
    for (window, m_limit), counts, taus in out["tau"]:
        ledger.expect(
            f"window {window}: tau_interval equals the sieve count at every m",
            lambda: taus == list(counts.values()),
        )
        ledger.expect(
            f"window {window}: sieve mass equals the computed mark count",
            lambda: sum(counts.values()) == mark_count(*window, m_limit),
        )
    n_lo, n_hi, eps = inputs["ruzsa"]
    entries = out["ruzsa"]
    ledger.expect(
        "ruzsa entries cover the range with a running max",
        lambda: [e.n for e in entries] == list(range(n_lo, n_hi + 1))
        and [e.running_max for e in entries] == list(itertools.accumulate((e.count for e in entries), max)),
    )
    rng = _check_rng(seed, "ruzsa")
    for n in rng.sample(range(n_lo, n_hi + 1), inputs["ruzsa_samples"]):
        ledger.expect(
            f"ruzsa count at n={n} matches brute force",
            lambda n: entries[n - n_lo].count == _ruzsa_brute(n, eps),
            n,
        )
    for d, certs in out["lcm"]:
        ledger.expect(
            f"lcm bound holds for d={d} at every s >= 2",
            lambda: len(certs) == len(d) - 1 and all(c.holds for c in certs),
        )
        ledger.expect(
            f"lcm factorization of d={d} multiplies back",
            lambda: all(_product_matches(d, c) for c in certs),
        )
    for key in ("cube", "cube_pooled", "square", "band"):
        report = out[key]
        ledger.expect(
            f"sidon {key}: every window checked, zero failures",
            lambda: report.failures == () and report.checked == report.n_hi - report.n_lo + 1,
        )
    ledger.expect(
        "sidon workers=2 report equals workers=1 report",
        lambda: out["cube"] is not None and out["cube_pooled"] == out["cube"],
    )
    square, cube = out["exponents"]
    ledger.expect(
        "exponents near their limits",
        lambda: 0 < SQUARE_EXPONENT_LIMIT - square.gamma_float < 0.01
        and 0 < CUBE_EXPONENT_LIMIT - cube.gamma_float < 0.01,
    )
    _check_cli(ledger, CLI_RUZSA, out["cli"][CLI_RUZSA])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan",
            "windows sieve (mark, sort, merge) dominates; equal k at different N shows cost is N-free; prices the scan pool",
            _scan_inputs,
            _scan_run,
            _scan_check,
        ),
        Workload(
            "spectral",
            "pair-difference kernels and the quadrature FFT dominate: energy probe, int64 and big-int windows, 40 polynomials",
            _spectral_inputs,
            _spectral_run,
            _spectral_check,
        ),
        Workload(
            "oracle",
            "thousands of small exact calls: factorize, divisor enumeration, tau_interval, lcm certificates, tiny Sidon energies",
            _oracle_inputs,
            _oracle_run,
            _oracle_check,
        ),
    )
}
