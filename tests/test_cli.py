"""Tests for the command-line front end."""

import dataclasses
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tauwindow
from tauwindow import lcmbound, sidon, spectral, windows
from tauwindow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_address_space(argv, limit):
    """Run the CLI in a fresh interpreter whose address space is capped at limit bytes."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(tauwindow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "tauwindow", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit_address_space,
        timeout=120,
    )


# every command of the README's CLI block, with the sha256 of its stdout
README_EXAMPLES = [
    ("energy --n 512 --n 1024", "cace44f5d8a7ad3a30a9fe4e29de62911a4ae3f37a8a99b79268ab752db9ea28"),
    ("energy --n 100 --k 28", "3b5ab248b60515a5867c06e683be4d84389af0b7cb5a506edad57de1c61ac219"),
    ("scan-squares --n 100000 --k 562 --workers 4", "e1a0ca6b6bfaa4427d800c37d8158d493c9d7fda805399428d57d0997a4f6188"),
    ("scan-cubes --n 10 --k 2 --format json", "7b4a115eb3c0adeaf3692f34c973f6bd1f7dde5c61ba7b9568b3437805ae13c1"),
    ("ruzsa --from 2 --to 10000 --eps 0.25", "e4ac3ebdcb52a62927d384a229bc61ea0c2d5844507effb1e1178ba871df2c58"),
    ("lcm-bound --d 4,6,10 --s 2", "38f3f2f1440395ebffb0b4efb8b06993ad1ce6967d9e13ff345eb39973a6ce3c"),
    ("lcm-bound --s 1 --r 3 --d 8", "0227600fd331eb00508995a345cb98638626604540cb05c53bbfe070a5413f2c"),
    ("sidon --kind cube --from 1 --to 100000", "dd6bdbdbaaf959e66d88462ea3ed41a3c3d6ba2d21d09f28dff34beab20f07be"),
    ("exponent --power square --r 5 --r 1000", "df1c50c03c9a499594a5965eadd8197901e7b2892d2dca92b9b7f1a6d6f616ec"),
]


class TestReadmeExamples:
    def test_readme_lists_the_pinned_commands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", readme, re.S | re.M).group(1)
        lines = [line.split("#")[0].split() for line in block.splitlines()]
        assert [argv[0] for argv in lines] == ["tauwindow"] * len(README_EXAMPLES)
        assert [" ".join(argv[1:]) for argv in lines] == [command for command, _ in README_EXAMPLES]

    @pytest.mark.parametrize("command, sha256", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES])
    def test_report_bytes_are_pinned(self, capsys, command, sha256):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


# with README_EXAMPLES, the stdout sha256 of every README command and of the
# lcm-bound equality case in both formats.  lcm-bound JSON rows list their keys
# in column order, so those documents are pinned by the digest of
# json.dumps(doc, sort_keys=True), which their earlier key order gives too
OTHER_FORMAT_DIGESTS = [
    ("energy --n 512 --n 1024 --format json", "99217e8e8414fc0f2c2a0e921cff7716e6b6967bc9da5ca5a314a4eaf12a4c84"),
    ("energy --n 100 --k 28 --format json", "bd476e7c109c2144c8409b837b98503227e03d24e86ec34dc289315a986e130a"),
    ("scan-squares --n 100000 --k 562 --workers 4 --format json", "9594254ce96e4f8368b20bd53db72080eb8c77b462c1c6e60048afbc45d28baf"),
    ("ruzsa --from 2 --to 10000 --eps 0.25 --format json", "73e0469033fb5c8f614f69e7129858b1f43200cdb92951c60eecd9934a39ae29"),
    ("lcm-bound --d 4,6,10 --s 2 --format json", "756859dc3374d01566e71394aa7dc6a849c370eb1a51c910dd80fa5df1123996"),
    ("lcm-bound --s 1 --r 3 --d 8 --format json", "2a8dfbdc56a6dd53f8f128ea925a0d4337016ae3de334fd5e61daa255799544c"),
    ("sidon --kind cube --from 1 --to 100000 --format json", "c3c416c183b808e59f28c3ad7fa8f4adda8b99f41c8a4c30da728c4417fdf8f8"),
    ("exponent --power square --r 5 --r 1000 --format json", "7277c74e008592742549ed7a19a4e4fe2cebe8dc3cdf4d810f3116e0bc4645e7"),
    ("scan-cubes --n 10 --k 2", "27a61203d75c026c9cebbd76e9d404b6382e2b2f5dc98c27d7f834b331bf4953"),
    ("lcm-bound --d 1,6,6,6 --s 2", "3e7b817dcd4b88a7c28e3eb4e8ae695bcbed2a97b7592e537e6070d311235365"),
    ("lcm-bound --d 1,6,6,6 --s 2 --format json", "e1b3aa3d832b021b0f6e0b9e13980c6f3ff16598d521a2d890cbaf997eec8605"),
]

# one small command per subcommand and mode
ROW_COMMANDS = [
    "energy --n 16 --n 32",
    "energy --n 100 --k 28",
    "scan-squares --n 10 --k 3",
    "scan-cubes --n 10 --k 2",
    "ruzsa --from 360 --to 362 --eps 0.2",
    "lcm-bound --d 4,6,10 --s 2",
    "lcm-bound --s 1 --r 3 --d 8",
    "sidon --kind cube --from 1 --to 100",
    "exponent --power square --r 5 --r 1000",
]


class TestReportRows:
    @pytest.mark.parametrize("command, sha256", OTHER_FORMAT_DIGESTS, ids=[c for c, _ in OTHER_FORMAT_DIGESTS])
    def test_report_bytes_are_pinned(self, capsys, command, sha256):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        if command.startswith("lcm-bound") and command.endswith("json"):
            out = json.dumps(json.loads(out), sort_keys=True)
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("command", ROW_COMMANDS)
    def test_json_row_keys_are_the_csv_header(self, capsys, command):
        _, csv_out, _ = run_cli(capsys, *command.split())
        _, json_out, _ = run_cli(capsys, *command.split(), "--format", "json")
        header, *lines = csv_out.splitlines()
        rows = json.loads(json_out)["rows"]
        assert len(rows) == len(lines) >= 1
        assert all(list(row) == header.split(",") for row in rows)

    def test_ruzsa_report_costs_no_memory_beyond_the_scan(self, capsys, tmp_path):
        # rows are written one line at a time, so the peak is ruzsa_scan's
        tracemalloc.start()
        try:
            windows.ruzsa_scan(2, 200000, 0.25)
            scan_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            code = main(["ruzsa", "--from", "2", "--to", "200000", "--eps", "0.25", "--out", str(tmp_path / "r.csv")])
            cli_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert cli_peak <= 1.15 * scan_peak


class TestScanCommands:
    def test_scan_squares_example(self, capsys):
        code, out, err = run_cli(capsys, "scan-squares", "--n", "10", "--k", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,window_lo,window_hi,m_limit,max_tau,argmax_m,tau,count"
        assert lines[1] == "10,3,20,26,90,1,20,1,24"
        assert "max_tau=1" in err

    def test_scan_cubes_json(self, capsys):
        code, out, _ = run_cli(capsys, "scan-cubes", "--n", "10", "--k", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "scan-cubes"
        assert doc["parameters"] == {"n": 10, "k": 2, "workers": 1}
        rows = doc["rows"]
        assert rows[-1]["max_tau"] == 2
        assert rows[-1]["argmax_m"] == 900
        assert {row["tau"] for row in rows} == {1, 2}

    def test_worker_bytes_identical(self, capsys):
        outs = []
        for workers in ("1", "2", "3"):
            _, out, _ = run_cli(
                capsys, "scan-squares", "--n", "300", "--k", "40", "--workers", workers
            )
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_repeat_run_bytes_identical(self, capsys):
        _, first, _ = run_cli(capsys, "scan-squares", "--n", "77", "--k", "12")
        _, second, _ = run_cli(capsys, "scan-squares", "--n", "77", "--k", "12")
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-squares", "--n", "10", "--k", "3", "--workers", "0"],
            ["scan-cubes", "--n", "10", "--k", "2", "--workers", "-1"],
            ["sidon", "--kind", "square", "--from", "1", "--to", "10", "--workers", "0"],
        ],
    )
    def test_workers_below_one_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_k_greater_than_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan-squares", "--n", "5", "--k", "6"])
        assert exc.value.code == 2
        assert "k <= n" in capsys.readouterr().err

    def test_m_limit_beyond_2_96_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan-squares", "--n", str(10**30), "--k", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # refused for its m_limit before sieving, not when the argmax is factorized
        assert "m_limit" in err and "2**96" in err and "FAILURE" not in err

    def test_pair_free_cube_scan_past_2_63_in_4_gib(self):
        # the window [2.7e19, 2.7e19 + 2.7e10] holds no two divisors of any
        # m <= 6.3e19, so the scan is a quotient-block sum; one mark per
        # multiple would need hundreds of GiB
        proc = run_in_address_space(["scan-cubes", "--n", "3000000000", "--k", "1"], 4 << 30)
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.strip().splitlines()
        assert [dict(zip(header.split(","), row.split(",")))["max_tau"] for row in rows] == ["1"]

    def test_cross_check_mismatch_is_failure(self, capsys, monkeypatch):
        # an invariant failure, not a usage error: exit 1 with FAILURE
        monkeypatch.setattr(windows, "tau_interval", lambda m, rng: 0)
        code, out, err = run_cli(capsys, "scan-squares", "--n", "10", "--k", "3")
        assert code == 1
        assert out == ""
        assert "FAILURE" in err and "direct count is 0" in err

    def test_hit_counts_off_c_t_2_are_failure(self, capsys, monkeypatch):
        # one m hit by two window-divisor pairs breaks the C(t, 2) invariant
        monkeypatch.setattr(windows, "_pair_lcm_marks", lambda window, m0, m1: np.zeros(2, dtype=np.uint32))
        code, out, err = run_cli(capsys, "scan-squares", "--n", "10", "--k", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("FAILURE: ") and "not C(t, 2)" in err


class TestExponentCommand:
    def test_example_row(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--power", "square", "--r", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "power,r,best_c,gamma,gamma_float"
        assert lines[1] == "square,5,3,9/16,0.5625"

    def test_multiple_r_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "--power", "cube", "--r", "3", "--r", "4", "--format", "json"
        )
        doc = json.loads(out)
        assert [row["r"] for row in doc["rows"]] == [3, 4]
        assert doc["rows"][0]["gamma"] == "1/2"
        assert doc["rows"][0]["best_c"] == 2

    def test_r_below_three_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--power", "square", "--r", "2"])
        assert exc.value.code == 2
        assert "r >= 3" in capsys.readouterr().err


class TestSidonCommand:
    def test_square_range(self, capsys):
        code, out, err = run_cli(capsys, "sidon", "--kind", "square", "--from", "1", "--to", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n_lo,n_hi,checked,failure_count,failures"
        assert lines[1] == "square,1,100,100,0,"
        assert "checked=100 failures=0" in err

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "sidon", "--kind", "cube", "--from", "2", "--to", "50", "--format", "json"
        )
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["checked"] == 49
        assert row["failures"] == []

    def test_non_sidon_window_is_failure(self, capsys, monkeypatch):
        # a window reported non-Sidon is an invariant failure; the report lists it
        monkeypatch.setattr(sidon, "_check_span", lambda kind, lo, hi: [lo, hi])
        code, out, err = run_cli(capsys, "sidon", "--kind", "cube", "--from", "1", "--to", "10")
        assert code == 1
        assert out.splitlines()[1] == "cube,1,10,10,2,1|10"
        assert "FAILURE: window construction is provably Sidon" in err

    @pytest.mark.parametrize("kind, n, size", [("square", 10**8, "2.98 GiB"), ("cube", 2**60, "2.52 TiB")])
    def test_refused_allocation_exits_2(self, kind, n, size):
        # one window's C(w + 1, 2) difference pairs do not fit in 2 GiB
        proc = run_in_address_space(["sidon", "--kind", kind, "--from", str(n), "--to", str(n)], 2 << 30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("tauwindow: error: Unable to allocate " + size)
        assert proc.stderr.count("\n") == 1

    def test_range_beyond_2_96_is_usage_error(self, capsys):
        # numpy cannot size the cube window at N = 2^1100; the range is refused first
        n = str(2**1100)
        with pytest.raises(SystemExit) as exc:
            main(["sidon", "--kind", "cube", "--from", n, "--to", n])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tauwindow: error: ") and captured.err.count("\n") == 1
        assert "2**96" in captured.err and "FAILURE" not in captured.err


def energy_rows(capsys, fmt, *argv):
    """The rows of an energy report, with CSV cells read back as JSON numbers."""
    code, out, _ = run_cli(capsys, "energy", *argv, "--format", fmt)
    assert code == 0
    if fmt == "json":
        return json.loads(out)["rows"]
    header, *lines = out.splitlines()
    return [{col: json.loads(cell) for col, cell in zip(header.split(","), line.split(","))} for line in lines]


class TestEnergyCommand:
    def test_prefix_probe(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--n", "16", "--n", "32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,size,energy,trivial_energy,energy_over_n2_logn"
        first = lines[1].split(",")
        assert first[0] == "16" and int(first[2]) >= int(first[3])

    def test_prefix_probe_of_15000_squares_in_1_gib(self):
        # 1.1e8 pairs: the whole difference table needed about 2.9 GB and ended
        # in a MemoryError; the energy is sum_s R(s)^2 over sums of two squares
        proc = run_in_address_space(["energy", "--n", "15000"], 1 << 30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "n,size,energy,trivial_energy,energy_over_n2_logn",
            "15000,15000,1389987860,449985000,0.6424551572946371",
        ]

    def test_window_mode(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--n", "100", "--k", "28", "--format", "json")
        doc = json.loads(out)
        row = doc["rows"][0]
        # the width-28 window at n=100 is Sidon, so energy is trivial
        assert row["size"] == 29
        assert row["energy"] == row["trivial_energy"]

    @pytest.mark.parametrize(
        "argv",
        [["--n", "64", "--n", "1"], ["--n", "64", "--n", "65", "--k", "3"], ["--n", "64", "--k", "65"]],
        ids=["prefix_n_1", "window_two_n", "window_k_gt_n"],
    )
    def test_arguments_checked_before_any_energy(self, capsys, monkeypatch, argv):
        calls = []

        def recorded(freqs, real=spectral.additive_energy):
            calls.append(len(freqs))
            return real(freqs)

        monkeypatch.setattr(spectral, "additive_energy", recorded)
        with pytest.raises(SystemExit) as exc:
            main(["energy", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("tauwindow: error: energy ")
        assert calls == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_prefix_rows_are_single_runs(self, capsys, fmt):
        ns = [2, 17, 64, 150]
        rows = energy_rows(capsys, fmt, *[arg for n in ns for arg in ("--n", str(n))])
        assert [row["n"] for row in rows] == ns
        for n, row in zip(ns, rows):
            assert energy_rows(capsys, fmt, "--n", str(n)) == [row]
            assert list(row) == ["n", "size", "energy", "trivial_energy", "energy_over_n2_logn"]
            assert row["size"] == n
            assert row["energy"] == spectral.additive_energy([i * i for i in range(1, n + 1)])
            assert row["trivial_energy"] == spectral.trivial_energy(n)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n, k", [(1, 1), (10, 10), (50, 7), (100, 28)])
    def test_window_row_is_its_energy(self, capsys, fmt, n, k):
        [row] = energy_rows(capsys, fmt, "--n", str(n), "--k", str(k))
        assert row == {
            "n": n,
            "k": k,
            "size": k + 1,
            "energy": spectral.additive_energy([(n + s) ** 2 for s in range(k + 1)]),
            "trivial_energy": spectral.trivial_energy(k + 1),
        }
        assert list(row) == ["n", "k", "size", "energy", "trivial_energy"]


class TestRuzsaCommand:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "ruzsa", "--from", "360", "--to", "362", "--eps", "0.2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,count,running_max"
        assert lines[1] == "360,2,2"

    def test_eps_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ruzsa", "--from", "2", "--to", "10", "--eps", "0.9"])
        assert exc.value.code == 2
        assert "eps" in capsys.readouterr().err

    def test_value_beyond_2_96_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ruzsa", "--from", str(2**96), "--to", str(2**96), "--eps", "0.25"])
        assert exc.value.code == 2
        assert "2**96" in capsys.readouterr().err

    def test_range_to_2_96_refused_before_any_count(self, capsys, monkeypatch):
        def no_divisor_counts(*args):
            raise AssertionError("ruzsa counted divisors before refusing its range")

        for name in ("tau_interval", "_ruzsa_tops", "_ruzsa_sieve", "_ruzsa_per_n"):
            monkeypatch.setattr(windows, name, no_divisor_counts)
        with pytest.raises(SystemExit) as exc:
            main(["ruzsa", "--from", "2", "--to", str(2**96), "--eps", "0.25"])
        assert exc.value.code == 2
        assert "2**96" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n_lo, n_hi, eps, sha256",
        [
            # the README example
            (2, 10000, "0.25", "e4ac3ebdcb52a62927d384a229bc61ea0c2d5844507effb1e1178ba871df2c58"),
            # 10^12 + random.Random(8).randrange(10**6), then 2^63 - randrange(3000) from the same generator
            (1000000237718, 1000000240718, "0.25", "d0986dd4bc51e5b9fb72562049a733f807ccdeb4af0d0ecc210bb64338f8e182"),
            (9223372036854774291, 9223372036854777291, "0.2", "84616a386a8ee450a34374f41b7ed096b6ade5417fd372903cb328c6d0305172"),
        ],
    )
    def test_report_bytes_are_pinned(self, capsys, n_lo, n_hi, eps, sha256):
        # the digests of reports made by factorizing every N
        code, out, err = run_cli(capsys, "ruzsa", "--from", str(n_lo), "--to", str(n_hi), "--eps", eps)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
        assert err.rstrip().endswith("route=sieve")

    def test_route_named_in_diagnostics(self, capsys):
        _, _, err = run_cli(capsys, "ruzsa", "--from", str(2**90), "--to", str(2**90 + 2), "--eps", "0.01")
        assert err.rstrip().endswith("route=per-N")


class TestLcmBoundCommand:
    def test_certificate_rows(self, capsys):
        # s=2 instances are identically tight: [a,b](a,b) = ab prime by prime
        code, out, err = run_cli(capsys, "lcm-bound", "--d", "4,6,10", "--s", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,s,d,p,exponents,lhs,rhs,prime_tight,holds,equality"
        assert all(line.endswith("True,True") for line in lines[1:])
        assert "holds=True" in err

    def test_strict_inequality_rows(self, capsys):
        # s=3 on (2,4,6): the prime 2 divides all three values, so its row is
        # strict while the prime 3 row stays tight
        code, out, _ = run_cli(capsys, "lcm-bound", "--d", "2,4,6", "--s", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.endswith("True,False") for line in lines[1:])
        row_p2 = lines[1].split(",")
        assert row_p2[3] == "2" and row_p2[7] == "False"
        row_p3 = lines[2].split(",")
        assert row_p3[3] == "3" and row_p3[7] == "True"

    def test_counterexample_mode(self, capsys):
        code, out, err = run_cli(capsys, "lcm-bound", "--s", "1", "--r", "2", "--d", "4")
        assert code == 0  # expected failure of the bound, not a bug
        doc_lines = out.strip().splitlines()
        assert doc_lines[1].split(",")[8] == "False"
        assert "expected False" in err

    def test_s1_needs_r(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lcm-bound", "--s", "1", "--d", "4"])
        assert exc.value.code == 2

    def test_s1_with_r_below_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lcm-bound", "--s", "1", "--r", "1", "--d", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "r >= 2" in err and "FAILURE" not in err

    def test_s1_with_several_values_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lcm-bound", "--s", "1", "--r", "3", "--d", "2,3"])
        assert exc.value.code == 2
        assert "single --d value" in capsys.readouterr().err

    def test_non_integer_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lcm-bound", "--d", "4,x", "--s", "2"])
        assert exc.value.code == 2
        assert "expected comma-separated integers, got '4,x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fmt, sha256",
        [
            ("csv", "5e0bd877737939fb6e3aa99754760f321f50e4f86057639448e7103088f6728d"),
            ("json", "8792d1e3c2eb773a35ef26df9aee5a3ba7f3af917fe4ae9b808485e133a47082"),
        ],
    )
    def test_vacuous_report_bytes_are_pinned(self, capsys, fmt, sha256):
        # every value is 1, so no prime constrains anything: one row whose
        # per-prime cells are empty in CSV and null in JSON
        code, out, _ = run_cli(capsys, "lcm-bound", "--d", "1,1", "--s", "2", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_bound_that_fails_is_failure(self, capsys, monkeypatch):
        # holds=False contradicts the theorem for s >= 2: exit 1, report still written
        real = lcmbound.verify_lcm_bound
        monkeypatch.setattr(lcmbound, "verify_lcm_bound", lambda d, s: dataclasses.replace(real(d, s), holds=False))
        code, out, err = run_cli(capsys, "lcm-bound", "--d", "4,6,10", "--s", "2")
        assert code == 1
        assert out.splitlines()[1].endswith(",False,True")
        assert "FAILURE: the lcm lower bound is a theorem" in err

    def test_value_beyond_2_96_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lcm-bound", "--d", f"4,2,{2**96}", "--s", "2"])
        assert exc.value.code == 2
        assert "2**96" in capsys.readouterr().err

    def test_psi_12_is_factored(self, capsys):
        # psi_12 passes Miller-Rabin to all twelve bases; one row per prime
        code, out, _ = run_cli(capsys, "lcm-bound", "--d", "318665857834031151167461,2", "--s", "2")
        assert code == 0
        primes = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
        assert primes == ["2", "399165290221", "798330580441"]

    def test_equality_case_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "lcm-bound", "--d", "1,6,6,6", "--s", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert all(row["equality"] for row in doc["rows"])


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "exponent", "--power", "square", "--r", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[1] == "square,3,1,1/2,0.5"

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, missing_dir):
        # a path under a missing directory, or a directory itself
        target = tmp_path / "missing" / "x.csv" if missing_dir else tmp_path
        with pytest.raises(SystemExit) as exc:
            main(["sidon", "--kind", "cube", "--from", "1", "--to", "10", "--out", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error" in line.lower()]
        assert len(errors) == 1 and errors[0].startswith("tauwindow: error: ")
