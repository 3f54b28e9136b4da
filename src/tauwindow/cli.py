"""Command-line front end: one subcommand per experiment, CSV or JSON reports.

Every handler returns its rows as tuples in column order, of values that csv
and json print as they are: a list cell is a tuple whose str joins its items
with |, and an empty cell is None.  csv.writer writes CSV reports, the header
and then one line per row; a JSON report is one json.dumps document whose rows
carry the columns as keys, in the same order, built before the report is
opened.  Reports go to stdout (or --out, opened only once the handler has
returned, so a refused or failed run leaves no report file); progress and
summaries go to stderr.  With a fixed configuration the report bytes are
identical run to run.  CSV reports are also identical for any --workers value;
JSON reports differ only in the workers value that their parameters echo.
Exit status is 0 on success, 1 when a theorem-backed invariant fails (that
signals a bug, not a discovery), and 2 for usage errors: an InputError, raised
by the library's precondition checks and by the few checks that only the
command line makes, or an unwritable --out path.

Both energy modes compute the additive energy of a square window
{(b + s)^2 : 0 <= s <= k}: --n n --k k is the window b = n, and each prefix
probe {i^2 : i <= n} is the window b = 1, k = n - 1.  Every energy argument
is checked before the first energy is computed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import Any, Sequence

from . import exponents, lcmbound, sidon, spectral, windows
from .arith import InputError

# a handler's (columns, rows in column order, parameters, exit status)
_Report = tuple[list[str], Sequence[tuple], dict[str, Any], int]


class _Cells(tuple):
    """A list cell: an array in JSON, its items joined by | in CSV."""

    def __str__(self) -> str:
        return "|".join(map(str, self))


def _emit(
    command: str,
    params: dict[str, Any],
    columns: list[str],
    rows: Sequence[tuple],
    fmt: str,
    out: str | None,
) -> None:
    if fmt == "json":
        doc = {"command": command, "parameters": params, "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            fh.write(text)
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_energy(args: argparse.Namespace) -> _Report:
    prefix = args.k is None
    if prefix:
        if min(args.n) < 2:
            raise InputError("energy requires --n >= 2 (the n^2 log n scale at n=1 is 0)")
        spans = [(1, n - 1) for n in args.n]
        columns = ["n", "size", "energy", "trivial_energy", "energy_over_n2_logn"]
    elif len(args.n) != 1:
        raise InputError("energy with --k takes exactly one --n")
    elif not 1 <= args.k <= args.n[0]:
        raise InputError("energy requires 1 <= k <= n when --k is given")
    else:
        spans = [(args.n[0], args.k)]
        columns = ["n", "k", "size", "energy", "trivial_energy"]
    rows = []
    status = 0
    for base, k in spans:
        e = spectral.additive_energy([(base + s) ** 2 for s in range(k + 1)])
        triv = spectral.trivial_energy(k + 1)
        if e < triv:
            status = 1
        if prefix:
            n = k + 1
            rows.append((n, n, e, triv, e / (n * n * math.log(n))))
        else:
            rows.append((base, k, k + 1, e, triv))
    return columns, rows, {"n": args.n, "k": args.k}, status


def _cmd_scan(args: argparse.Namespace, kind: str) -> _Report:
    scan = windows.square_window_scan if kind == "square" else windows.cube_window_scan
    report = scan(args.n, args.k, workers=args.workers)
    _diag(f"scan-{kind}s n={args.n} k={args.k}: max_tau={report.max_tau} argmax_m={report.argmax_m}")
    columns = ["n", "k", "window_lo", "window_hi", "m_limit", "max_tau", "argmax_m", "tau", "count"]
    head = (report.n, report.k, report.window.lo, report.window.hi, report.m_limit, report.max_tau, report.argmax_m)
    rows = [(*head, t, report.histogram[t]) for t in sorted(report.histogram)]
    return columns, rows, {"n": args.n, "k": args.k, "workers": args.workers}, 0


def _cmd_ruzsa(args: argparse.Namespace) -> _Report:
    entries = windows.ruzsa_scan(args.n_lo, args.n_hi, args.eps)
    route = windows.ruzsa_route(args.n_lo, args.n_hi, args.eps)
    _diag(f"ruzsa [{args.n_lo},{args.n_hi}] eps={args.eps}: max count={entries[-1].running_max} route={route}")
    params = {"from": args.n_lo, "to": args.n_hi, "eps": args.eps}
    return ["n", "count", "running_max"], entries, params, 0


_LCM_COLUMNS = ["r", "s", "d", "p", "exponents", "lhs", "rhs", "prime_tight", "holds", "equality"]


def _certificate_rows(cert: lcmbound.LcmBoundCertificate) -> list[tuple]:
    inst = cert.instance
    primes = [(row.p, _Cells(row.exponents), row.lhs, row.rhs, row.tight) for row in cert.per_prime] or [(None,) * 5]
    return [(inst.r, inst.s, _Cells(inst.d), *prime, cert.holds, cert.equality) for prime in primes]


def _cmd_lcm_bound(args: argparse.Namespace) -> _Report:
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


def _cmd_sidon(args: argparse.Namespace) -> _Report:
    report = sidon.verify_window_range(args.kind, args.n_lo, args.n_hi, workers=args.workers)
    _diag(f"sidon kind={args.kind}: checked={report.checked} failures={len(report.failures)}")
    status = 0
    if report.failures:
        _diag("FAILURE: window construction is provably Sidon; endpoint arithmetic is wrong")
        status = 1
    columns = ["kind", "n_lo", "n_hi", "checked", "failure_count", "failures"]
    rows = [(report.kind, report.n_lo, report.n_hi, report.checked, len(report.failures), _Cells(report.failures))]
    params = {"kind": args.kind, "from": args.n_lo, "to": args.n_hi, "workers": args.workers}
    return columns, rows, params, status


def _cmd_exponent(args: argparse.Namespace) -> _Report:
    exponent = exponents.square_exponent if args.power == "square" else exponents.cube_exponent
    rows = [(res.power, res.r, res.best_c, str(res.gamma), res.gamma_float) for res in map(exponent, args.r)]
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
        sub.add_argument("--workers", type=int, default=1, help="parts to split the work into, run one after another in this process; results are identical for any value")


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
    except MemoryError as exc:
        # numpy's text names the size it could not allocate
        parser.exit(2, f"{parser.prog}: error: {str(exc) or 'out of memory'}\n")
    except (ValueError, RuntimeError) as exc:
        _diag(f"FAILURE: {exc}")
        return 1
    try:
        _emit(args.command, params, columns, rows, args.format, args.out)
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: cannot write the report: {exc}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
