"""Command-line surface.

Subcommands: compute, family, a1-poly, find-s, cohomology, verify.  Every
command but verify takes --format json|csv|text and --output, and one
renderer, _render, writes all three formats to stdout or the file.  Every
numeric field in JSON/CSV output is an exact rational string 'num/den';
decimal renderings appear only alongside the exact values when --approx is
given, in compute's JSON and text and in family's JSON; CSV output, and
family's text, ignore --approx.  Output is deterministic: identical config
gives byte-identical output.  JSON output is the bytes of
json.dumps(d, indent=2), written by _json itself: the stdlib runs its C
encoder only without indent.

main sends a known command straight to that command's subparser; any other
argv (none, -h, --help, an unknown command) goes through the top-level
parser's parse_args.  Both give the namespace and messages parse_args gives.

Exit codes: 0 success, 1 invalid parameters, input past a work limit
(k <= 64, |c|, |s| and |t| < 2^63, at most 1000 family t values or find-s
candidates), usage, an unwritable --output path, a stdout closed before the
output or the help was written, or an --approx value outside float range,
2 internal consistency failure.  Every series is truncated at u^{2k}, past
which the ring is zero, so no truncation option is offered.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys

from .cohring import MAX_K
from .invariants import (
    AffinityViolation,
    FamilyParams,
    InvalidParams,
    a1_poly_in_s,
    family_scan,
    find_good_s,
    relative_eta,
)
from .verify import run_paper_suite
from .zcohomology import cohomology_Mbar, h4_M_order


class OutputError(Exception):
    """The --output path could not be written."""


CSV_COLUMNS = ["k", "c", "s", "t", "a_value", "eta_rel", "A0", "A1", "sign_convention"]
# family rows keep every requested t; an invalid row fills only t, error and
# distinct_count, which repeats the scan's count on every row
FAMILY_CSV_COLUMNS = CSV_COLUMNS + ["error", "distinct_count"]


class _Parser(argparse.ArgumentParser):
    """argparse exiting 1 on a usage error, since exit code 2 means an internal failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse drops an OSError from this write; main maps a closed stdout to exit 1
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call, not at import.

    parse_args keeps no state between calls: each starts a fresh namespace
    from the declared defaults, so main reuses this parser for every request.
    Its `commands` maps each command name to that command's subparser.
    """
    parser = _Parser(
        prog="etainv",
        description="Exact relative eta-invariants for circle-bundle quotient families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add_command(name, help):
        parser.commands[name] = sub.add_parser(name, help=help)
        return parser.commands[name]

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    def add_common(p, need_t=False):
        p.add_argument("-k", type=int, required=True, help=f"half-dimension parameter, 2 <= k <= {MAX_K}")
        p.add_argument("-c", type=int, required=True, help="twisting parameter, odd, |c| < 2^63")
        p.add_argument("-s", type=int, required=True, help="Euler class u-coefficient, even nonzero, |s| < 2^63")
        if need_t:
            p.add_argument("-t", type=int, required=True, help="Euler class v-coefficient, odd, coprime to s, |t| < 2^63")
        add_output(p)
        p.add_argument(
            "--approx", action="store_true",
            help="add decimal renderings alongside exact values in JSON and compute's text "
                 "(CSV and family's text ignore it); a value outside float range exits 1",
        )

    p = add_command("compute", help="one eta report for (k, c, s, t)")
    add_common(p, need_t=True)

    p = add_command("family", help="sweep t over a range, report distinct count")
    add_common(p)
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--t-step", type=int, default=2,
                   help="step from --t-min up to --t-max, >= 1; t runs upward only")

    p = add_command("a1-poly", help="the degree-one coefficient as a polynomial in s")
    p.add_argument("-k", type=int, required=True)
    add_output(p)

    p = add_command("find-s", help="filter candidate s values with A1(s) != 0")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--s-candidates", required=True, help="at most 1000 comma-separated even nonzero integers, each |s| < 2^63")
    add_output(p)

    p = add_command("cohomology", help="integer cohomology table of the bundle total space")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-s", type=int, required=True, help="even nonzero, |s| < 2^63")
    add_output(p)

    p = add_command("verify", help="run the built-in verification suite")
    p.add_argument("--suite", choices=("paper",), default="paper")

    return parser


_quote = json.encoder.encode_basestring_ascii


def _json(o, pad: str) -> str:
    """json.dumps(o, indent=2) byte for byte, for o nested at indent pad.

    CPython's C encoder runs only without indent, so the stdlib writes an
    indented document in pure Python; this writes the same bytes with less
    work.  Containers are dict with str keys, list and tuple, matched by exact
    type; str and int are written here, and every other value (bool, None,
    float) by json.dumps itself.
    """
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return int.__repr__(o)
    if t is dict or t is list or t is tuple:
        if not o:
            return "{}" if t is dict else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if t is dict:
            body = sep.join([f"{_quote(key)}: {_json(value, inner)}" for key, value in o.items()])
            return f"{{\n{inner}{body}\n{pad}}}"
        body = sep.join([_json(value, inner) for value in o])
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(o)


def _render(args, d: dict, header, rows, lines=None):
    """Write one result in the --format chosen, to stdout or to --output.

    JSON is d; CSV is the header, then rows; text is lines, or one
    `key = value` line per field of d.  rows and lines may be generators:
    only the chosen format's are consumed.
    """
    if args.format == "json":
        text = _json(d, "") + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        if lines is None:
            lines = (f"{key} = {value}" for key, value in d.items())
        text = "".join(f"{line}\n" for line in lines)
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def _cmd_compute(args) -> int:
    params = FamilyParams(k=args.k, c=args.c, s=args.s, t=args.t)
    # CSV has no approx columns, so it never asks for the decimals
    report = relative_eta(params).to_dict(approx=args.approx and args.format != "csv")
    _render(args, report, CSV_COLUMNS, ((report[key] for key in CSV_COLUMNS),))
    return 0


def _cmd_family(args) -> int:
    if args.t_step < 1:
        raise InvalidParams("--t-step must be >= 1")
    if args.t_max < args.t_min:
        raise InvalidParams("--t-min/--t-max/--t-step define an empty range")
    ts = range(args.t_min, args.t_max + 1, args.t_step)
    result = family_scan(args.k, args.c, args.s, ts)
    # only the JSON rows carry the decimals
    d = result.to_dict(approx=args.approx and args.format == "json")
    n = d["distinct_count"]
    rows = ([row.get(key, "") for key in FAMILY_CSV_COLUMNS[:-1]] + [n] for row in d["rows"])
    lines = (
        f"t={row['t']}: INVALID ({row['error']})" if "error" in row
        else f"t={row['t']}: eta_rel = {row['eta_rel']}"
        for row in d["rows"]
    )
    _render(args, d, FAMILY_CSV_COLUMNS, rows, itertools.chain(lines, [f"distinct_count = {n}"]))
    return 0


def _cmd_a1_poly(args) -> int:
    poly = a1_poly_in_s(args.k)
    d = {"k": args.k, "variable": poly.variable, "coeffs": poly.to_strings()}
    _render(args, d, ["degree", "coeff"], enumerate(d["coeffs"]))
    return 0


def _cmd_find_s(args) -> int:
    try:
        candidates = [int(x) for x in args.s_candidates.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InvalidParams(f"--s-candidates must be a comma list of integers: {exc}")
    good = find_good_s(args.k, candidates)
    d = {"k": args.k, "candidates": candidates, "good_s": good}
    kept = set(good)
    _render(args, d, ["s", "a1_nonzero"], ((s, str(s in kept).lower()) for s in candidates))
    return 0


def _cmd_cohomology(args) -> int:
    table = cohomology_Mbar(args.k, args.s)
    order = h4_M_order(args.s)
    d = {"k": args.k, "s": args.s, "h4_quotient_order": order,
         "table": [g.to_dict() for g in table]}
    rows = ((i, g.free_rank, ";".join(map(str, g.torsion))) for i, g in enumerate(table))
    lines = itertools.chain((f"H^{i} = {g}" for i, g in enumerate(table)),
                            [f"|H^4(quotient)| = {order}"])
    _render(args, d, ["degree", "free_rank", "torsion"], rows, lines)
    return 0


def _cmd_verify(args) -> int:
    ok = run_paper_suite()
    return 0 if ok else 2


_HANDLERS = {
    "compute": _cmd_compute,
    "family": _cmd_family,
    "a1-poly": _cmd_a1_poly,
    "find-s": _cmd_find_s,
    "cohomology": _cmd_cohomology,
    "verify": _cmd_verify,
}


def _parse(argv):
    """build_parser().parse_args(argv), with a known command sent straight to its subparser.

    The top-level parser would hand every argument after the command to the
    same subparser and then copy its namespace; leftovers are refused with the
    top-level parser's message, as parse_args refuses them.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        try:
            args = _parse(argv)
            code = _HANDLERS[args.command](args)
        finally:
            # a buffered stdout meets a closed pipe only here, not at exit;
            # --help and -h write to stdout too, then leave by SystemExit
            sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader of stdout exited early; the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 1
    except (ValueError, OutputError) as exc:  # InvalidParams is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AffinityViolation as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
