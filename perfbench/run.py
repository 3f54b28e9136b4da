#!/usr/bin/env python3
"""tauwindow benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

The package is imported from ./src, never from an installed copy.  One run
times set-up in fresh interpreters, then repeats the workload's calls
("passes") until another pass would end past --seconds, checking every pass
and timing one more fresh set-up after each.

--trace 0 reports the end-to-end metrics.  wall_s and cpu_s sum each call's
median over the untraced passes.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics, medians over the traced passes; the
tracing wraps the package's module attributes from outside (see tracer.py).

Lines before the last one are for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit status is 0
when every check passed, 1 when a check failed and 2 when the package source
is missing or an argument is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
# fresh interpreters timed before the first pass; one more follows every
# pass, so the set-up samples spread over the whole run like the passes do
SETUP_REPEATS = 5

# Set-up as a user pays it: import the package in a fresh interpreter and
# finish its lazy set-up (numpy, the smallest-prime-factor table).
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tauwindow
tauwindow.factorize(12)
print(time.perf_counter() - start)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

_FUNCTION_METRICS = {
    "windows.square_window_scan.s": "s",
    "windows.cube_window_scan.s": "s",
    "windows.window_multiple_counts.s": "s",
    "windows.tau_interval.calls": "count",
    "windows.tau_interval.self_s": "s",
    "windows.ruzsa_scan.s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.s": "s",
    "arith.factorize.small.calls": "count",
    "arith.factorize.large.calls": "count",
    "arith.factorize.large.s": "s",
    "arith.divisors_in_range.calls": "count",
    "arith.divisors_in_range.self_s": "s",
    "spectral.additive_energy.s": "s",
    "spectral.l4_norm_4.s": "s",
    "spectral.max_positive_representation.s": "s",
    "spectral.rudin_certificate.s": "s",
    "spectral.l4_quadrature_oracle.s": "s",
    "sidon.is_sidon.calls": "count",
    "sidon.is_sidon.self_s": "s",
    "sidon.verify_window_range.s": "s",
    "lcmbound.verify_lcm_bound.calls": "count",
    "lcmbound.verify_lcm_bound.self_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
}

PER_LAYER = {
    **_FUNCTION_METRICS,
    "windows.marks": "count",
    "windows.touched_m": "count",
    "windows.marks_per_s": "1/s",
    "spectral.pairs": "count",
    "spectral.pairs_per_s": "1/s",
    "spectral.fft_points": "count",
    "spectral.fft_points_per_s": "1/s",
    "exponents.exponent.s": "s",
    "cli.report_bytes": "B",
    "pool.s": "s",
    "pool.children_cpu_s": "s",
    "pool.scan_speedup": "ratio",
    "pool.scan_serial_s": "s",
    "pool.scan_pooled_s": "s",
    "pool.sidon_speedup": "ratio",
    "pool.sidon_serial_s": "s",
    "pool.sidon_pooled_s": "s",
    "arith.self_s": "s",
    "windows.self_s": "s",
    "spectral.self_s": "s",
    "sidon.self_s": "s",
    "lcmbound.self_s": "s",
    "exponents.self_s": "s",
    "cli.self_s": "s",
    "pool.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# layers whose self times add up to the traced wall time; "bench" is the
# benchmark's own code around the calls
SELF_LAYERS = ("arith", "windows", "spectral", "sidon", "lcmbound", "exponents", "cli", "pool", "bench")

# ratio -> (numerator, metrics summed for the denominator)
RATIO_BASES = {
    "windows.marks_per_s": (
        "windows.marks",
        ("windows.square_window_scan.s", "windows.cube_window_scan.s", "windows.window_multiple_counts.s"),
    ),
    "spectral.pairs_per_s": (
        "spectral.pairs",
        ("spectral.additive_energy.s", "spectral.l4_norm_4.s", "spectral.max_positive_representation.s"),
    ),
    "spectral.fft_points_per_s": ("spectral.fft_points", ("spectral.l4_quadrature_oracle.s",)),
    "pool.scan_speedup": ("pool.scan_serial_s", ("pool.scan_pooled_s",)),
    "pool.sidon_speedup": ("pool.sidon_serial_s", ("pool.sidon_pooled_s",)),
}


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


def _children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def highest_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it, if any."""
    if count < 11:
        return None
    return int(100 * (1 - 10 / count))


def _timing_line(name: str, values: list[float]) -> str:
    pct = highest_percentile(len(values))
    if pct is None:
        tail = f"no percentile has >=10 samples beyond it ({len(values)} samples)"
    else:
        tail = f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    listed = ", ".join(f"{v:.4g}" for v in values)
    return f"{name}: median {statistics.median(values):.6g} over {len(values)} samples; {tail}; values [{listed}]"


def measure_setup(repeats: int) -> list[float]:
    """Seconds to import tauwindow and finish its lazy set-up, per fresh interpreter."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "tauwindow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
    }


def _pass(workload, inputs, traced: bool):
    """One pass of the workload's calls; traced passes also return the tracer."""
    from tracer import Tracer
    from workloads import Calls

    calls = Calls()
    if not traced:
        return workload.run(inputs, calls), calls, None, 0.0
    tracer = Tracer()
    tracer.install()
    kids0 = _children_cpu_seconds()
    try:
        tracer.begin(f"bench.{workload.name}")
        try:
            outputs = workload.run(inputs, calls)
        finally:
            tracer.end()
    finally:
        tracer.restore()
    return outputs, calls, tracer, _children_cpu_seconds() - kids0


def per_call_median_total(passes, field: str) -> float:
    """Sum over the workload's calls of each call's median over the passes.

    Every call has its own label, so a burst of machine noise that slows one
    call in one pass moves this less than it moves the median whole pass.
    """
    labels = getattr(passes[0], field)
    return sum(statistics.median(getattr(p, field)[label] for p in passes) for label in labels)


def layer_metrics(tracer, calls, outputs, inputs, children_cpu: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats = dict(tracer.stats)
    for part in ("small", "large"):
        stat = stats.get(f"arith.factorize.{part}")
        if stat:
            total = stats.setdefault("arith.factorize", [0, 0, 0])
            for i in range(3):
                total[i] += stat[i]

    def calls_of(name):
        return stats.get(name, (0, 0, 0))[0]

    def incl_s(name):
        return stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(name):
        return stats.get(name, (0, 0, 0))[2] / 1e9

    out: dict[str, float] = {}
    for metric in _FUNCTION_METRICS:
        name, kind = metric.rsplit(".", 1)
        out[metric] = {"calls": calls_of, "s": incl_s, "self_s": self_s}[kind](name)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = sum(
            s[2] for n, s in tracer.stats.items() if n.split(".", 1)[0] == layer
        ) / 1e9
    for counter in ("windows.marks", "windows.touched_m", "spectral.pairs", "spectral.fft_points"):
        out[counter] = tracer.counters.get(counter, 0)
    out["exponents.exponent.s"] = incl_s("exponents.square_exponent") + incl_s("exponents.cube_exponent")
    out["cli.report_bytes"] = sum(len(r[1]) for r in outputs.get("cli", {}).values() if r)
    out["pool.s"] = incl_s("pool.windows") + incl_s("pool.sidon")
    out["pool.children_cpu_s"] = children_cpu
    for which in ("scan", "sidon"):
        out[f"pool.{which}_serial_s"] = out[f"pool.{which}_pooled_s"] = 0.0
    if "pool_pair" in inputs:
        which, serial, pooled = inputs["pool_pair"]
        out[f"pool.{which}_serial_s"] = calls.wall.get(serial, 0.0)
        out[f"pool.{which}_pooled_s"] = calls.wall.get(pooled, 0.0)
    for ratio, (num, dens) in RATIO_BASES.items():
        out[ratio] = _ratio(out[num], sum(out[d] for d in dens))
    out["trace.wall_s"] = sum(s[1] for n, s in tracer.stats.items() if n.startswith("bench.")) / 1e9
    return out


def _check_pass(workload, inputs, outputs, calls, ledger, seed: int) -> None:
    for error in calls.errors:
        ledger.attempted += 1
        ledger.fail(f"call raised: {error}")
    workload.check(inputs, outputs, ledger, seed)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="run passes until another would end past this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tauwindow" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC / 'tauwindow'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tauwindow

    if Path(tauwindow.__file__).resolve().parent != SRC / "tauwindow":
        print(f"perfbench: imported tauwindow from {tauwindow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"

    _say("env " + json.dumps(environment(workload.name, args.seed, args.seconds, args.trace, args.size)))
    _say(f"workload {workload.name}: {workload.why}")
    setup = measure_setup(SETUP_REPEATS)
    tauwindow.factorize(12)  # this process's own lazy set-up, before timing
    inputs = workload.make_inputs(random.Random(f"{workload.name}:{args.seed}"), tiny)

    ledger = Ledger()
    untraced: list = []
    traced: list = []
    layers: list[dict[str, float]] = []
    last_tracer = None
    start = time.perf_counter()
    longest = 0.0
    while True:
        want_traced = args.trace == 1 and len(untraced) > len(traced)
        began = time.perf_counter()
        outputs, calls, tracer, kids_cpu = _pass(workload, inputs, want_traced)
        if want_traced:
            traced.append(calls)
            layers.append(layer_metrics(tracer, calls, outputs, inputs, kids_cpu))
            last_tracer = tracer
        else:
            untraced.append(calls)
        _check_pass(workload, inputs, outputs, calls, ledger, args.seed)
        setup += measure_setup(1)
        longest = max(longest, time.perf_counter() - began)
        # stop when another pass and its check would end past --seconds
        if time.perf_counter() - start + longest > args.seconds and (args.trace == 0 or traced):
            break

    wall_s = per_call_median_total(untraced, "wall")
    _say(_timing_line("setup_s", setup))
    _say(_timing_line("untraced pass wall (whole passes)", [sum(c.wall.values()) for c in untraced]))
    _say(f"wall_s = {wall_s:.6g}: sum over {len(untraced[0].wall)} calls of each call's median over {len(untraced)} passes")
    _say(f"fail_frac: {ledger.failed}/{ledger.attempted} = {ledger.failed / ledger.attempted:.6g}")
    for message in ledger.messages:
        _say(f"FAILED: {message}")

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "cpu_s": per_call_median_total(untraced, "cpu"),
            "peak_rss_mib": _peak_rss_mib(),
        }
        units = END_TO_END
    else:
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["trace.overhead_s"] = per_call_median_total(traced, "wall") - wall_s
        units = PER_LAYER
        _say(_timing_line("traced pass wall (root span)", [layer["trace.wall_s"] for layer in layers]))
        last = layers[-1]
        accounted = sum(last[f"{layer}.self_s"] for layer in SELF_LAYERS)
        _say(
            f"accounting, last traced pass: layer self times + bench.self_s = {accounted:.6f} s; "
            f"traced wall (root span) = {last['trace.wall_s']:.6f} s"
        )
        for ratio, (num, dens) in RATIO_BASES.items():
            _say(
                f"{ratio} = {values[ratio]:.6g} (median over traced passes); base: {num} = {values[num]:.6g}"
                f" over {' + '.join(dens)} = {sum(values[d] for d in dens):.6g}"
            )
        _say("computed counters: windows.marks = sum over d in the window of floor(m_limit/d), "
             "spectral.pairs = sum of |A|^2, spectral.fft_points = sum of 4*spread+3")
        _say("pool children are not traced: their work shows only as the parent's pool span "
             "and pool.children_cpu_s (RUSAGE_CHILDREN CPU)")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}.npz"
        last_tracer.save(spans_path)
        _say(f"spans of the last traced pass written to {spans_path.relative_to(ROOT)}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
