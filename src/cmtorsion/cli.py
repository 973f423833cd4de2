"""Command line entry points.

Exit codes: 0 success, 1 failed checks, 2 invalid input, 3 duplicate
characters in the datum.  All file output is UTF-8 with LF endings and
is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .alpha_engine import ORACLE_CAP, alpha_exact, alpha_oracle, build_report
from .cm_core import CMDatum, FiniteGroup, enumerate_types, is_primitive
from .documents import (
    dumps_document,
    load_datum,
    report_to_dict,
    sweep_rows_to_csv,
    sweep_rows_to_json,
)
from .finite_level import exponent_sweep
from .mt_torus import DuplicateCharactersError, build_character_system
from .verify import builtin_groups, run_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_DUPLICATE = 3

# `enumerate` lists at most 2^ENUMERATE_LOG2_CAP raw CM types per involution;
# a group of order n has 2^(n/2), so every order up to 24 passes.
ENUMERATE_LOG2_CAP = 12


class _Refused(Exception):
    """A refused request: `main` prints `error: {message}` and returns
    `code`."""

    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _write_text(path: str, text: str) -> None:
    """Writes `text` to `path` ('-' for stdout); refuses a path that
    cannot be written."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise _Refused(str(e))


def _load_system(path: str):
    """The character system of the datum file at `path`, or a refusal."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _Refused(str(e))
    except UnicodeDecodeError as e:
        raise _Refused(f"{path}: not UTF-8 text: {e}")
    try:
        return build_character_system(load_datum(text))
    except DuplicateCharactersError as e:
        i, j = e.indices
        raise _Refused(f"characters {i} and {j} coincide; the datum is degenerate",
                       EXIT_DUPLICATE)
    except ValueError as e:
        raise _Refused(str(e))


def cmd_analyze(args) -> int:
    cs = _load_system(args.file)
    report = build_report(cs)
    if args.json:
        _write_text(args.json, dumps_document(report_to_dict(report, cs)))
    datum = cs.datum
    kind = ("nondegenerate" if report.defect == 0
            else "defect one" if report.defect == 1 else "degenerate")
    passed = sum(1 for ok in report.bound_checks.values() if ok)
    lines = [
        f"group {datum.group.name}, order {datum.group.order}, conj {datum.conj}",
        f"factors {len(datum.factors)}, genus {report.genus}, "
        f"characters {2 * report.genus}",
        f"dim {report.dim}, defect {report.defect}, {kind}",
        f"alpha = gamma = {report.alpha}"
        + (f" (shortcut: {report.shortcut_used})" if report.shortcut_used else ""),
        f"witness: dim {report.witness.dim}, contains {report.witness.n} "
        f"characters {list(report.witness.generating_indices)}",
        f"bound checks: {passed}/{len(report.bound_checks)} passed",
        f"saturation index {cs.saturation_index}",
    ]
    print("\n".join(lines))
    if passed < len(report.bound_checks):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if (args.abelian is None) == (args.max_order is None):
        raise _Refused("pass exactly one of --abelian or --max-order")
    if args.abelian is not None:
        try:
            invariants = [int(x) for x in args.abelian.split(",")]
        except ValueError:
            raise _Refused("--abelian wants a comma-separated integer list")
        if any(x < 2 for x in invariants):
            raise _Refused("invariant factors must be at least 2")
        for small, big in zip(invariants, invariants[1:]):
            if big % small:
                raise _Refused("invariant factors must form a divisor chain")
        order = math.prod(invariants)
    else:
        if args.max_order < 2:
            raise _Refused("--max-order must be at least 2")
        order = args.max_order
    if order // 2 > ENUMERATE_LOG2_CAP:
        raise _Refused(f"a group of order {order} has 2^{order // 2} raw CM types per "
                       f"involution, over the cap of 2^{ENUMERATE_LOG2_CAP}")
    groups = ([FiniteGroup.abelian(invariants)] if args.abelian is not None
              else builtin_groups(order))

    entries = []
    for group in groups:
        for conj in group.central_involutions():
            for t in enumerate_types(group, conj,
                                     up_to_translation=args.up_to_translation):
                primitive = is_primitive(t, conj)
                if args.primitive_only and not primitive:
                    continue
                entry = {
                    "group": group.name,
                    "order": group.order,
                    "conj": conj,
                    "phi": list(t.phi_sorted()),
                    "primitive": primitive,
                }
                try:
                    cs = build_character_system(CMDatum(group, conj, (t,)))
                    entry["status"] = "ok"
                    entry["dim"] = cs.dim
                    entry["defect"] = cs.defect
                except DuplicateCharactersError:
                    entry["status"] = "duplicate"
                entries.append(entry)

    if args.json:
        _write_text(args.json, dumps_document({"types": entries}))
    built = sum(1 for e in entries if e["status"] == "ok")
    for e in entries:
        head = (f"{e['group']} conj {e['conj']} phi {e['phi']}: ")
        if e["status"] == "ok":
            tail = (f"genus {len(e['phi'])} dim {e['dim']} "
                    f"defect {e['defect']}")
            tail += " primitive" if e["primitive"] else " imprimitive"
        else:
            tail = "duplicate characters"
        print(head + tail)
    print(f"{len(entries)} types listed, {built} buildable, "
          f"{len(entries) - built} degenerate")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.csv is not None and args.json is not None:
        raise _Refused("pass at most one of --csv or --json")
    cs = _load_system(args.file)
    try:
        ells = [int(x) for x in args.ell.split(",")]
    except ValueError:
        raise _Refused("--ell wants a comma-separated integer list")
    if args.level < 1:
        raise _Refused("--level must be a positive integer")
    try:
        rows = exponent_sweep(cs, ells, args.level)
    except ValueError as e:
        raise _Refused(str(e))
    text = dumps_document(sweep_rows_to_json(rows)) if args.json else sweep_rows_to_csv(rows)
    _write_text(args.json or args.csv or "-", text)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        summary = run_verify(args.max_group_order)
    except ValueError as e:
        raise _Refused(str(e))
    print(f"groups with a central involution: {summary.groups_seen}")
    print(f"translation classes fully checked: {summary.class_reps_checked}")
    print(f"translates matched by row permutation: {summary.translates_checked}")
    print(f"degenerate types skipped: {summary.duplicates_skipped}")
    for name in sorted(summary.checks):
        print(f"  {name}: {summary.checks[name]}")
    if summary.failures:
        for f in summary.failures:
            print(f"FAIL {f}")
        print(f"{len(summary.failures)} failures")
        return EXIT_CHECK_FAILED
    print("all checks passed")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cs = _load_system(args.file)
    m = 2 * cs.genus
    if m > ORACLE_CAP:
        raise _Refused(f"oracle handles at most {ORACLE_CAP} characters, system has {m}")
    report = alpha_exact(cs)
    reference = alpha_oracle(cs)
    print(f"exact: {report.alpha}")
    print(f"oracle: {reference}")
    if report.alpha == reference:
        print("agreement: yes")
        return EXIT_OK
    print("agreement: NO")
    return EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmtorsion",
        description="exact torsion exponents for CM abelian varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a datum document")
    p.add_argument("file")
    p.add_argument("--json", metavar="OUT",
                   help="also write the JSON report ('-' for stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="list CM types of built-in groups")
    p.add_argument("--abelian", metavar="K1,K2,...",
                   help="one abelian group given by its invariant factors")
    p.add_argument("--max-order", type=int, metavar="N",
                   help="all built-in groups up to this order")
    p.add_argument("--primitive-only", action="store_true")
    p.add_argument("--up-to-translation", action="store_true")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("simulate", help="finite-level degree sweep")
    p.add_argument("file")
    p.add_argument("--ell", required=True, metavar="L1,L2,...",
                   help="odd primes to sweep")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--csv", metavar="OUT")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check all invariants over built-in data")
    p.add_argument("--max-group-order", type=int, default=12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="compare the exact exponent against enumeration")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refused as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
