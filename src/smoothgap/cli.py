"""Command-line surface, tuple file format, and report serialization.

Exit codes: 0 success, 1 verification-negative, 2 usage/parse error,
3 budget/capacity exhausted. Machine-readable output goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import constants, scan, tuples
from .errors import CapacityError, FactorBudgetError, TupleParseError
from .primes import largest_prime_leq, primorial

SCHEMA = "smoothgap/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_SCAN_Y = 47  # the paper's smoothness bound for prime gaps


def fmt_float(x: float | None) -> float | None:
    """Round to 12 significant digits (half-even) for byte-stable reports."""
    if x is None:
        return None
    return float(f"{x:.12g}")


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def parse_tuple_line(text: str, line_no: int = 1) -> tuples.IntegerTuple:
    """Parse one comma-separated ascending tuple literal."""
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    parts = stripped.split(",")
    values = []
    col = 1
    for part in parts:
        try:
            values.append(int(part.strip()))
        except ValueError:
            raise TupleParseError(f"bad integer {part.strip()!r}", line_no, col)
        col += len(part) + 1
    try:
        return tuples.IntegerTuple(tuple(values))
    except ValueError as e:
        raise TupleParseError(str(e), line_no, 1)


def parse_tuple_text(text: str) -> list[tuples.IntegerTuple]:
    """Tuple file: one tuple per line, '#' comment lines, UTF-8."""
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(parse_tuple_line(stripped, line_no))
    if not out:
        raise TupleParseError("no tuples found", 1, 1)
    return out


def load_tuples(arg: str) -> list[tuples.IntegerTuple]:
    """Accept a file path or an inline tuple literal."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return parse_tuple_text(fh.read())
    return [parse_tuple_line(arg)]


def render_tuple(H: tuples.IntegerTuple) -> str:
    return ",".join(str(h) for h in H)


def _tuple_json(H: tuples.IntegerTuple | None):
    return None if H is None else [int(h) for h in H]


# ---------------------------------------------------------------- construct

def cmd_construct(args) -> int:
    if args.kind == "primorial":
        H = tuples.construct_primorial_tuple(args.k)
        omega = primorial(args.k)
    else:
        H = tuples.construct_consecutive_prime_tuple(args.k)
        omega = None
    print(render_tuple(H))
    if args.sidecar:
        sidecar = {
            "schema": SCHEMA,
            "kind": args.kind,
            "k": args.k,
            "omega": omega,
            "diameter": tuples.diameter(H),
            "smooth_bound": largest_prime_leq(args.k) if args.k >= 2 else None,
        }
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            fh.write(dump_json(sidecar) + "\n")
    return EXIT_OK


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if not (args.admissible or args.diff_smooth is not None or args.witness):
        print("verify: select at least one predicate", file=sys.stderr)
        return EXIT_USAGE
    results = []
    all_ok = True
    for H in load_tuples(args.tuple):
        entry: dict = {"tuple": _tuple_json(H)}
        if args.admissible:
            report = tuples.is_admissible(H)
            entry["admissible"] = report.admissible
            entry["obstruction"] = report.obstruction
            all_ok &= report.admissible
        if args.diff_smooth is not None:
            check = tuples.is_difference_smooth(H, args.diff_smooth)
            entry["difference_smooth"] = check.smooth
            entry["smooth_bound"] = args.diff_smooth
            entry["witness_pair"] = list(check.witness) if check.witness else None
            entry["rough_cofactor"] = check.cofactor
            all_ok &= check.smooth
        if args.witness:
            if len(H) >= 2 and tuples.is_admissible(H):
                pair, z = tuples.find_smoothness_witness(H)
                entry["pigeonhole_pair"] = list(pair)
                entry["pigeonhole_prime"] = z
            else:
                # pigeonhole guarantee needs an admissible tuple, k >= 2
                entry["pigeonhole_pair"] = None
                entry["pigeonhole_prime"] = None
                all_ok = False
        results.append(entry)
    print(dump_json({"schema": SCHEMA, "results": results}))
    return EXIT_OK if all_ok else EXIT_NEGATIVE


# ------------------------------------------------------------------- search

def cmd_search(args) -> int:
    if args.smooth is not None:
        result = tuples.search_min_diameter_difference_smooth(
            args.k, args.smooth, args.budget
        )
    else:
        result = tuples.search_min_diameter_admissible(args.k, args.budget)
    certified_impossible = result.tuple is None and result.proven_minimal
    payload = {
        "schema": SCHEMA,
        "k": args.k,
        "smooth_bound": args.smooth,
        "tuple": _tuple_json(result.tuple),
        "diameter": result.diameter,
        "nodes_explored": result.nodes_explored,
        "proven_minimal": result.proven_minimal,
        "budget_exhausted": result.budget_exhausted,
        "certified_impossible": certified_impossible,
        "impossible_reason": (
            f"admissible {args.k}-tuples are never difference l-smooth for "
            f"l < {largest_prime_leq(args.k)}"
            if certified_impossible
            else None
        ),
    }
    print(dump_json(payload))
    if result.budget_exhausted and not result.proven_minimal:
        return EXIT_BUDGET
    return EXIT_OK


# --------------------------------------------------------------------- scan

def _scan_request(args) -> scan.ScanRequest:
    checkpoints = ()
    if args.checkpoints:
        checkpoints = tuple(int(c) for c in args.checkpoints.split(","))
    kwargs = dict(
        x_max=args.x,
        mode=args.mode,
        checkpoints=checkpoints,
        include_gap_one=not args.exclude_gap_one,
        min_prime_count=args.at_least,
    )
    if args.mode == scan.MODE_TRANSLATES:
        if args.tuple_file is None:
            raise ValueError("tuple-translates mode requires --tuple-file")
        kwargs["tuple"] = load_tuples(args.tuple_file)[0]
        kwargs["y"] = args.y  # ScanRequest rejects a y in this mode
    else:
        kwargs["y"] = DEFAULT_SCAN_Y if args.y is None else args.y
    return scan.ScanRequest(**kwargs)


def scan_report_json(report: scan.ScanReport) -> str:
    req = report.request
    payload = {
        "schema": SCHEMA,
        "request": {
            "x_max": req.x_max,
            "mode": req.mode,
            "y": req.y,
            "tuple": _tuple_json(req.tuple),
            "checkpoints": list(req.checkpoints),
            "include_gap_one": req.include_gap_one,
            "min_prime_count": req.min_prime_count,
        },
        "records": [
            {
                "checkpoint": r.checkpoint,
                "count": r.count,
                "hl_ratio_prediction": fmt_float(r.hl_ratio_prediction),
                "hl_integral_prediction": fmt_float(r.hl_integral_prediction),
                "ratio": fmt_float(r.ratio),
                "at_least_m_count": r.at_least_m_count,
            }
            for r in report.records
        ],
        "witnesses": [list(w) for w in report.witnesses],
    }
    return dump_json(payload)


def scan_report_csv(report: scan.ScanReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(
        ["checkpoint", "count", "hl_ratio_prediction", "hl_integral_prediction", "ratio"]
    )
    for r in report.records:
        writer.writerow(
            [
                r.checkpoint,
                r.count,
                "" if r.hl_ratio_prediction is None else f"{r.hl_ratio_prediction:.12g}",
                ""
                if r.hl_integral_prediction is None
                else f"{r.hl_integral_prediction:.12g}",
                "" if r.ratio is None else f"{r.ratio:.12g}",
            ]
        )
    return buf.getvalue()


def cmd_scan(args) -> int:
    try:
        req = _scan_request(args)
    except ValueError as e:
        print(f"scan: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = scan.run_scan(req, threads=args.threads)
    if args.format == "csv":
        sys.stdout.write(scan_report_csv(report))
    else:
        print(scan_report_json(report))
    return EXIT_OK


# ---------------------------------------------------------------- constants

def cmd_constants(args) -> int:
    if args.km_table:
        rows = [
            {"m": e.m, "k_m": e.k_m, "y_m": e.y_m, "conditional": e.conditional}
            for e in constants.km_table()
        ]
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["m", "k_m", "y_m", "conditional"])
            for r in rows:
                writer.writerow([r["m"], r["k_m"], r["y_m"], r["conditional"]])
            sys.stdout.write(buf.getvalue())
        else:
            print(dump_json({"schema": SCHEMA, "entries": rows}))
        return EXIT_OK
    if args.singular_series is not None:
        H = load_tuples(args.singular_series)[0]
        est = constants.singular_series(H, args.cutoff)
        payload = {
            "schema": SCHEMA,
            "tuple": _tuple_json(H),
            "value": fmt_float(est.value),
            "k": est.k,
            "prime_cutoff": est.prime_cutoff,
            "tail_magnitude": fmt_float(est.tail_magnitude),
            "admissible": est.admissible,
        }
        print(dump_json(payload))
        return EXIT_OK
    print("constants: use --km-table or --singular-series", file=sys.stderr)
    return EXIT_USAGE


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothgap",
        description="Admissible tuples, smooth prime gaps, and desk-scale scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a constructed tuple")
    p.add_argument("kind", choices=["primorial", "consecutive-prime"])
    p.add_argument("k", type=int)
    p.add_argument("--sidecar", metavar="PATH", help="write a JSON sidecar here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify predicates on a tuple file")
    p.add_argument("tuple", help="tuple file or inline literal")
    p.add_argument("--admissible", action="store_true")
    p.add_argument("--diff-smooth", type=int, metavar="Y")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="minimal-diameter tuple search")
    p.add_argument("k", type=int)
    p.add_argument("--smooth", type=int, metavar="Y")
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("scan", help="empirical prime-gap / translate scans")
    p.add_argument(
        "mode", choices=[scan.MODE_PAIRS, scan.MODE_CONSECUTIVE, scan.MODE_TRANSLATES]
    )
    p.add_argument("x", type=int)
    p.add_argument(
        "--y", type=int, help=f"smoothness bound, pair modes only (default {DEFAULT_SCAN_Y})"
    )
    p.add_argument("--tuple-file")
    p.add_argument("--checkpoints", help="comma-separated, last must equal x")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--exclude-gap-one", action="store_true")
    p.add_argument("--at-least", type=int, help="also count at-least-m-primes events")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("constants", help="k_m table and singular series")
    p.add_argument("--km-table", action="store_true")
    p.add_argument("--singular-series", metavar="TUPLE")
    p.add_argument("--cutoff", type=int, default=constants.DEFAULT_PRIME_CUTOFF)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_constants)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TupleParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, FactorBudgetError) as e:
        print(f"capacity: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
