"""Command-line surface, tuple file format, and report serialization.

Exit codes: 0 success, 1 verification-negative, 2 usage/parse error,
3 budget/capacity exhausted. Machine-readable output goes to stdout,
diagnostics to stderr.

Only scan and constants --singular-series import the numpy modules (scan,
constants, _sieve), inside their commands: the tuple commands start
without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import tuples
from .errors import CapacityError, TupleParseError
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
    """Parse one comma-separated ascending tuple literal. A bad integer is
    reported at its 1-based column in `text` as given."""
    body = text.strip()
    col = len(text) - len(text.lstrip()) + 1  # the column of body[0]
    if body.startswith("(") and body.endswith(")"):
        body, col = body[1:-1], col + 1
    values = []
    for part in body.split(","):
        try:
            values.append(int(part.strip()))
        except ValueError:
            bad_col = col + len(part) - len(part.lstrip())
            raise TupleParseError(f"bad integer {part.strip()!r}", line_no, bad_col)
        col += len(part) + 1
    try:
        return tuples.IntegerTuple(values)
    except ValueError as e:
        raise TupleParseError(str(e), line_no, 1)


def parse_tuple_text(text: str) -> list[tuples.IntegerTuple]:
    """Tuple file: one tuple per line, '#' comment lines, UTF-8."""
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(parse_tuple_line(line, line_no))
    if not out:
        raise TupleParseError("no tuples found", 1, 1)
    return out


def load_tuples(arg: str) -> list[tuples.IntegerTuple]:
    """Accept a file path or an inline tuple literal."""
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return parse_tuple_text(fh.read())
    return [parse_tuple_line(arg)]


def load_one_tuple(arg: str) -> tuples.IntegerTuple:
    """The one tuple of a file or inline literal, for commands that take one."""
    found = load_tuples(arg)
    if len(found) > 1:
        raise ValueError(f"{arg} holds {len(found)} tuples; give one")
    return found[0]


def render_tuple(H: tuples.IntegerTuple) -> str:
    return ",".join(str(h) for h in H)


def _plain(value):
    """A result as JSON-ready values: a NamedTuple record becomes its fields
    by name, an IntegerTuple, tuple or list a list, and a float is rounded
    by fmt_float."""
    if isinstance(value, tuples.IntegerTuple):
        return list(value)  # ints: no call per element
    if isinstance(value, (tuple, list)):
        if hasattr(value, "_asdict"):
            return {name: _plain(v) for name, v in value._asdict().items()}
        return [_plain(v) for v in value]
    return fmt_float(value) if isinstance(value, float) else value


def _write_csv(rows: list[dict]) -> None:
    """Rows under a header of the first row's keys: None as an empty cell,
    a float to 12 significant digits, anything else by str."""
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(
        ["" if v is None else f"{v:.12g}" if isinstance(v, float) else str(v) for v in row.values()]
        for row in rows
    )


# ---------------------------------------------------------------- construct

def cmd_construct(args) -> int:
    if args.kind == "primorial":
        H = tuples.construct_primorial_tuple(args.k)
        omega = primorial(args.k)
    else:
        H = tuples.construct_consecutive_prime_tuple(args.k)
        omega = None
    if args.sidecar:  # written first, so an unwritable path leaves stdout empty
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
    print(render_tuple(H))
    return EXIT_OK


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if not (args.admissible or args.diff_smooth is not None or args.witness):
        raise ValueError("verify needs --admissible, --diff-smooth or --witness")
    results = []
    all_ok = True
    for H in load_tuples(args.tuple):
        entry: dict = {"tuple": _plain(H)}
        report = tuples.is_admissible(H) if args.admissible or args.witness else None
        if args.admissible:
            entry["admissible"] = report.admissible
            entry["obstruction"] = report.obstruction
            all_ok &= report.admissible
        if args.diff_smooth is not None:
            check = tuples.is_difference_smooth(H, args.diff_smooth)
            entry["difference_smooth"] = check.smooth
            entry["smooth_bound"] = args.diff_smooth
            entry["witness_pair"] = _plain(check.witness)
            entry["rough_cofactor"] = check.cofactor
            all_ok &= check.smooth
        if args.witness:
            if report.admissible and len(H) >= 2:
                pair, z = tuples._collision(H)  # find_smoothness_witness, checked once
            else:
                # pigeonhole guarantee needs an admissible tuple, k >= 2
                pair, z, all_ok = None, None, False
            entry["pigeonhole_pair"] = _plain(pair)
            entry["pigeonhole_prime"] = z
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
        **_plain(result),
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

def scan_report_json(report) -> str:
    """A scan.ScanReport as the scan command prints it."""
    return dump_json({"schema": SCHEMA, **_plain(report)})


def cmd_scan(args) -> int:
    from . import scan

    checkpoints = ()
    if args.checkpoints:
        checkpoints = tuple(int(c) for c in args.checkpoints.split(","))
    y = args.y
    if y is None and args.mode != scan.MODE_TRANSLATES:
        y = DEFAULT_SCAN_Y
    # ScanRequest checks the mode, and which of these fields it takes.
    req = scan.ScanRequest(
        x_max=args.x,
        mode=args.mode,
        y=y,
        tuple=None if args.tuple_file is None else load_one_tuple(args.tuple_file),
        checkpoints=checkpoints,
        include_gap_one=not args.exclude_gap_one,
        min_prime_count=args.at_least,
    )
    report = scan.run_scan(req)
    if args.format == "csv":
        _write_csv(_plain(report.records))
    else:
        print(scan_report_json(report))
    return EXIT_OK


# ---------------------------------------------------------------- constants

def cmd_constants(args) -> int:
    if args.km_table == (args.singular_series is not None):
        raise ValueError("constants takes one of --km-table and --singular-series")
    if args.km_table and args.cutoff is not None:
        raise ValueError("--cutoff applies to --singular-series only")
    if args.singular_series is not None and args.format == "csv":
        raise ValueError("--format csv applies to --km-table only")
    if args.km_table:
        rows = _plain(tuples.km_table())
        if args.format == "csv":
            _write_csv(rows)
        else:
            print(dump_json({"schema": SCHEMA, "entries": rows}))
        return EXIT_OK
    from . import constants

    H = load_one_tuple(args.singular_series)
    est = constants.singular_series(H, args.cutoff)
    print(dump_json({"schema": SCHEMA, "tuple": _plain(H), **_plain(est)}))
    return EXIT_OK


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
    p.add_argument("mode", help="pairs, consecutive-pairs or tuple-translates")
    p.add_argument("x", type=int)
    p.add_argument(
        "--y", type=int, help=f"smoothness bound, pair modes only (default {DEFAULT_SCAN_Y})"
    )
    p.add_argument("--tuple-file")
    p.add_argument("--checkpoints", help="comma-separated, last must equal x")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--exclude-gap-one", action="store_true")
    p.add_argument("--at-least", type=int, help="also count at-least-m-primes events")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("constants", help="k_m table and singular series")
    p.add_argument("--km-table", action="store_true")
    p.add_argument("--singular-series", metavar="TUPLE")
    p.add_argument(
        "--cutoff", type=int, help="singular series only (default max(10^6, k, diameter + 1))"
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_constants)

    return parser


def run(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # CPython's default 4,300-digit cap on int <-> str conversion is below
        # the primorial steps the paper constructs
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TupleParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:  # OSError: a path that cannot be read or written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
