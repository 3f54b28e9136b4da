"""Command-line front end: one subcommand per experiment, CSV or JSON reports.

Reports go to stdout (or --out); progress and summaries go to stderr.  With a
fixed configuration the report bytes are identical run to run, and identical
for any --workers value.  Exit status is 0 on success, 1 when a
theorem-backed invariant fails (that signals a bug, not a discovery), and 2
for usage errors: an InputError, raised by the library's precondition checks
and by the few checks that only the command line makes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Any, Sequence

from . import exponents, lcmbound, sidon, spectral, windows
from .arith import InputError

_CSV_JOIN = "|"


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return _CSV_JOIN.join(str(v) for v in value)
    return str(value)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _emit(
    command: str,
    params: dict[str, Any],
    columns: list[str],
    rows: list[dict[str, Any]],
    fmt: str,
    out: str | None,
) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[col]) for col in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "command": command,
            "parameters": {k: _jsonable(v) for k, v in params.items()},
            "rows": [{k: _jsonable(v) for k, v in row.items()} for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_energy(args: argparse.Namespace) -> tuple[list[str], list[dict], dict, int]:
    params = {"n": args.n, "k": args.k}
    rows = []
    status = 0
    if args.k is not None:
        if len(args.n) != 1:
            raise InputError("energy with --k takes exactly one --n")
        n, k = args.n[0], args.k
        if not 1 <= k <= n:
            raise InputError("energy requires 1 <= k <= n when --k is given")
        freqs = [(n + s) ** 2 for s in range(k + 1)]
        e = spectral.additive_energy(freqs)
        triv = spectral.trivial_energy(len(freqs))
        rows.append(
            {"n": n, "k": k, "size": len(freqs), "energy": e, "trivial_energy": triv}
        )
        if e < triv:
            status = 1
        return ["n", "k", "size", "energy", "trivial_energy"], rows, params, status
    for n in args.n:
        if n < 2:
            raise InputError("energy requires --n >= 2 (the n^2 log n scale at n=1 is 0)")
        freqs = [i * i for i in range(1, n + 1)]
        e = spectral.additive_energy(freqs)
        triv = spectral.trivial_energy(n)
        rows.append(
            {
                "n": n,
                "size": n,
                "energy": e,
                "trivial_energy": triv,
                "energy_over_n2_logn": e / (n * n * math.log(n)),
            }
        )
        if e < triv:
            status = 1
    cols = ["n", "size", "energy", "trivial_energy", "energy_over_n2_logn"]
    return cols, rows, params, status


def _scan_rows(report: windows.WindowScanReport) -> list[dict]:
    base = {
        "n": report.n,
        "k": report.k,
        "window_lo": report.window.lo,
        "window_hi": report.window.hi,
        "m_limit": report.m_limit,
        "max_tau": report.max_tau,
        "argmax_m": report.argmax_m,
    }
    if not report.histogram:
        return [dict(base, tau=None, count=None)]
    return [dict(base, tau=t, count=report.histogram[t]) for t in sorted(report.histogram)]


_SCAN_COLUMNS = ["n", "k", "window_lo", "window_hi", "m_limit", "max_tau", "argmax_m", "tau", "count"]


def _cmd_scan(args: argparse.Namespace, kind: str) -> tuple[list[str], list[dict], dict, int]:
    scan = windows.square_window_scan if kind == "square" else windows.cube_window_scan
    report = scan(args.n, args.k, workers=args.workers)
    _diag(f"scan-{kind}s n={args.n} k={args.k}: max_tau={report.max_tau} argmax_m={report.argmax_m}")
    params = {"n": args.n, "k": args.k, "workers": args.workers}
    return _SCAN_COLUMNS, _scan_rows(report), params, 0


def _cmd_ruzsa(args: argparse.Namespace) -> tuple[list[str], list[dict], dict, int]:
    entries = windows.ruzsa_scan(args.n_lo, args.n_hi, args.eps)
    rows = [{"n": e.n, "count": e.count, "running_max": e.running_max} for e in entries]
    route = windows.ruzsa_route(args.n_lo, args.n_hi, args.eps)
    _diag(f"ruzsa [{args.n_lo},{args.n_hi}] eps={args.eps}: max count={entries[-1].running_max} route={route}")
    params = {"from": args.n_lo, "to": args.n_hi, "eps": args.eps}
    return ["n", "count", "running_max"], rows, params, 0


def _certificate_rows(cert: lcmbound.LcmBoundCertificate) -> list[dict]:
    inst = cert.instance
    base = {
        "r": inst.r,
        "s": inst.s,
        "d": inst.d,
        "holds": cert.holds,
        "equality": cert.equality,
    }
    if not cert.per_prime:
        return [dict(base, p=None, exponents=None, lhs=None, rhs=None, prime_tight=None)]
    return [
        dict(base, p=row.p, exponents=row.exponents, lhs=row.lhs, rhs=row.rhs, prime_tight=row.tight)
        for row in cert.per_prime
    ]


_LCM_COLUMNS = ["r", "s", "d", "p", "exponents", "lhs", "rhs", "prime_tight", "holds", "equality"]


def _cmd_lcm_bound(args: argparse.Namespace) -> tuple[list[str], list[dict], dict, int]:
    params = {"d": args.d, "s": args.s, "r": args.r}
    if args.s == 1:
        if args.r is None:
            raise InputError("lcm-bound with --s 1 needs --r (builds the tuple (1,...,1,d))")
        if len(args.d) != 1:
            raise InputError("lcm-bound with --s 1 takes a single --d value")
        cert = lcmbound.counterexample_s1(args.r, args.d[0])
        _diag(
            f"lcm-bound s=1 counterexample r={args.r} d={args.d[0]}: "
            f"holds={cert.holds} (expected False for d >= 2)"
        )
        return _LCM_COLUMNS, _certificate_rows(cert), params, 0
    cert = lcmbound.verify_lcm_bound(args.d, args.s)
    _diag(f"lcm-bound r={len(args.d)} s={args.s}: holds={cert.holds} equality={cert.equality}")
    status = 0 if cert.holds else 1
    if status:
        _diag("FAILURE: the lcm lower bound is a theorem for s >= 2; this is a bug")
    return _LCM_COLUMNS, _certificate_rows(cert), params, status


def _cmd_sidon(args: argparse.Namespace) -> tuple[list[str], list[dict], dict, int]:
    report = sidon.verify_window_range(args.kind, args.n_lo, args.n_hi, workers=args.workers)
    _diag(f"sidon kind={args.kind}: checked={report.checked} failures={len(report.failures)}")
    rows = [
        {
            "kind": report.kind,
            "n_lo": report.n_lo,
            "n_hi": report.n_hi,
            "checked": report.checked,
            "failure_count": len(report.failures),
            "failures": report.failures,
        }
    ]
    status = 0
    if report.failures:
        _diag("FAILURE: window construction is provably Sidon; endpoint arithmetic is wrong")
        status = 1
    cols = ["kind", "n_lo", "n_hi", "checked", "failure_count", "failures"]
    params = {"kind": args.kind, "from": args.n_lo, "to": args.n_hi, "workers": args.workers}
    return cols, rows, params, status


def _cmd_exponent(args: argparse.Namespace) -> tuple[list[str], list[dict], dict, int]:
    rows = []
    for r in args.r:
        res = exponents.square_exponent(r) if args.power == "square" else exponents.cube_exponent(r)
        rows.append(
            {
                "power": res.power,
                "r": res.r,
                "best_c": res.best_c,
                "gamma": res.gamma,
                "gamma_float": res.gamma_float,
            }
        )
    params = {"power": args.power, "r": args.r}
    return ["power", "r", "best_c", "gamma", "gamma_float"], rows, params, 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_common(sub: argparse.ArgumentParser, workers: bool = False) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    sub.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    if workers:
        sub.add_argument("--workers", type=int, default=1, help="parts to split the work into, run by at most one process per CPU; results are identical for any value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauwindow",
        description="Divisor-window scans, additive energy, and Sidon-window experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("energy", help="additive energy of {i^2 : i <= n}, or of a square window with --k")
    p.add_argument("--n", type=int, action="append", required=True, help="repeatable; prefix bound n (or window base with --k)")
    p.add_argument("--k", type=int, default=None, help="window width: use the set {(n+s)^2 : 0 <= s <= k}")
    _add_common(p)
    p.set_defaults(handler=_cmd_energy)

    p = subs.add_parser("scan-squares", help="max tau(m; [2n, 2n+2k]) over m <= 3nk, with histogram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, workers=True)
    p.set_defaults(handler=lambda a: _cmd_scan(a, "square"))

    p = subs.add_parser("scan-cubes", help="max tau(m; [3n^2, 3n^2+9nk]) over m <= 7n^2k, with histogram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, workers=True)
    p.set_defaults(handler=lambda a: _cmd_scan(a, "cube"))

    p = subs.add_parser("ruzsa", help="tau(N; [sqrt(N), sqrt(N)+N^(1/2-eps)]) for N in a range")
    p.add_argument("--from", dest="n_lo", type=int, required=True)
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_ruzsa)

    p = subs.add_parser(
        "lcm-bound",
        help="per-prime certificate of the s-wise lcm lower bound; --s 1 runs the counterexample form",
    )
    p.add_argument("--d", type=_int_list, required=True, help="comma-separated positive integers")
    p.add_argument("--s", type=int, required=True, help="subset size (>= 2, or 1 for the counterexample)")
    p.add_argument("--r", type=int, default=None, help="tuple length for --s 1 (builds (1,...,1,d))")
    _add_common(p)
    p.set_defaults(handler=_cmd_lcm_bound)

    p = subs.add_parser("sidon", help="verify the square/cube Sidon windows over a range of N")
    p.add_argument("--kind", choices=("square", "cube"), required=True)
    p.add_argument("--from", dest="n_lo", type=int, required=True)
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    _add_common(p, workers=True)
    p.set_defaults(handler=_cmd_sidon)

    p = subs.add_parser("exponent", help="exact rational window exponent gamma(r) with its maximizing c")
    p.add_argument("--power", choices=("square", "cube"), required=True)
    p.add_argument("--r", type=int, action="append", required=True, help="repeatable")
    _add_common(p)
    p.set_defaults(handler=_cmd_exponent)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        columns, rows, params, status = args.handler(args)
    except InputError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, RuntimeError) as exc:
        _diag(f"FAILURE: {exc}")
        return 1
    _emit(args.command, params, columns, rows, args.format, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
