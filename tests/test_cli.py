"""Tests for the command-line front end."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import tauwindow
from tauwindow import windows
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
