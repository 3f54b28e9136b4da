"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tauwindow import spectral, windows  # noqa: E402


def _tiny_run(capsys, workload: str, trace: int) -> tuple[int, dict, list[str]]:
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(capsys, workload, trace):
    status, result, _ = _tiny_run(capsys, workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_planted_histogram_fault_fails_the_run(capsys, monkeypatch):
    honest = windows.square_window_scan

    def faulty(*args, **kwargs):
        report = honest(*args, **kwargs)
        histogram = dict(report.histogram)
        histogram[1] += 1
        return dataclasses.replace(report, histogram=histogram)

    monkeypatch.setattr(windows, "square_window_scan", faulty)
    status, result, lines = _tiny_run(capsys, "scan", 0)
    assert status == 1
    assert not result["correct"] and result["failed"] > 0
    assert any(line.startswith("# fail_frac: ") and not line.endswith(" = 0") for line in lines)


def test_planted_energy_fault_fails_the_run(capsys, monkeypatch):
    honest = spectral.additive_energy
    monkeypatch.setattr(spectral, "additive_energy", lambda freqs: honest(freqs) + 2)
    status, result, _ = _tiny_run(capsys, "spectral", 0)
    assert status == 1
    assert not result["correct"] and result["failed"] > 0


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert make(random.Random(f"{name}:7"), False) == make(random.Random(f"{name}:7"), False)
    assert make(random.Random(f"{name}:7"), False) != make(random.Random(f"{name}:8"), False)


def test_tracer_nests_cross_module_calls_and_restores():
    original = windows.tau_interval
    t = tracer.Tracer()
    t.install()
    try:
        t.begin("bench.test")
        windows.tau_interval(12, (2, 6))
        windows.tau_interval(10**7 + 19, (2, 6))
        t.end()
    finally:
        t.restore()
    assert windows.tau_interval is original
    cols = {name: list(col) for name, col in t.columns.items()}
    spans = {
        cols["span_id"][i]: (t.names[cols["name"][i]], cols["parent_id"][i], cols["trace_id"][i])
        for i in range(len(cols["span_id"]))
    }
    chains = set()
    for span_id, (name, parent, trace_id) in spans.items():
        if name.startswith("arith.factorize"):
            chain = [name]
            while parent != -1:
                chain.append(spans[parent][0])
                assert spans[parent][2] == trace_id or spans[parent][1] == -1
                parent = spans[parent][1]
            chains.add(tuple(chain))
    assert chains == {
        ("arith.factorize.small", "arith.divisors_in_range", "windows.tau_interval", "bench.test"),
        ("arith.factorize.large", "arith.divisors_in_range", "windows.tau_interval", "bench.test"),
    }
    root = t.stats["bench.test"]
    assert root[1] == sum(stat[2] for stat in t.stats.values())


def test_mark_count_and_brute_tau_match_direct_sums():
    rng = random.Random(0)
    for _ in range(200):
        lo = rng.randint(1, 300)
        hi = rng.randint(lo, 600)
        m_limit = rng.randint(1, 5000)
        assert tracer.mark_count(lo, hi, m_limit) == sum(m_limit // d for d in range(lo, min(hi, m_limit) + 1))
        m = rng.randint(1, 5000)
        assert workloads.brute_tau(m, lo, hi) == sum(1 for d in range(lo, hi + 1) if m % d == 0)


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert run.highest_percentile(10) is None
    assert run.highest_percentile(20) == 50
    assert run.highest_percentile(100) == 90
