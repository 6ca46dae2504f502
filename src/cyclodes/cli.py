"""Command-line front end.

Subcommands:
  classes   print the cyclotomic classes of order d for GF(q)
  cycnums   print the exact cyclotomic-number table plus identity checks
  verify    run a construction condition and report recipe-by-recipe results
  search    exhaustive pair search over primes, JSONL hits + family CSV
  sequence  binary sequence and autocorrelation profile of one recipe

Conventions: JSON on stdout is the machine format (one object, or one object
per line for search hits); logs go to stderr; no color, no locale dependence;
identical inputs give byte-identical outputs at any --workers count.

Exit codes: 0 all checks pass, 1 a check ran and failed, 2 usage or
precondition error.

`main` may be called repeatedly in one process: it builds its parser once
(argparse keeps no per-call state in it) and gives every call a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import adsets, cyclotomy, dhm, search, seqkit

# verify and sequence run the O(q^2) direct-count oracles (difference function,
# autocorrelation): near this q, at q = 8101, they take 1.6 s and 0.26 s (README
# "Cost"), and near 2**20 verify would take hours.
ORACLE_Q_LIMIT = 1 << 13


def _out(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------

def cmd_classes(args) -> int:
    sys_ = cyclotomy.build_classes(args.q, args.d)
    classes = sys_.members_by_class()
    if args.format == "json":
        _out(args, _json_dumps({"q": args.q, "d": args.d, "g": sys_.g,
                                "f": sys_.f, "classes": {str(i): members for i, members
                                                         in enumerate(classes)}}))
    elif args.format == "csv":
        lines = ["class,element"]
        for i in range(args.d):
            lines += [f"{i},{a}" for a in classes[i]]
        _out(args, "\n".join(lines) + "\n")
    else:
        lines = [f"q={args.q} d={args.d} g={sys_.g} f={sys_.f}"]
        for i in range(args.d):
            lines.append(f"D_{i} = {{{', '.join(map(str, classes[i]))}}}")
        _out(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# cycnums
# ---------------------------------------------------------------------------

def cmd_cycnums(args) -> int:
    sys_ = cyclotomy.build_classes(args.q, args.d)
    table = sys_.table
    minus_one = sys_.minus_one_class
    rows_ok = all(s == sys_.f - (1 if h == minus_one else 0)
                  for h, s in enumerate(table.sum(axis=1).tolist()))
    checks = {"total_is_q_minus_2": int(table.sum()) == args.q - 2,
              "row_sum_identity": rows_ok}
    if args.d == 12 and sys_.f % 2 == 1:
        # the mirror (h,k) = (k+6, h+6) holds by construction of the count,
        # so (h,k) = (-h, k-h) is what this can catch
        checks["equality_table"] = np.array_equal(
            table, table.ravel()[cyclotomy.orbit_representatives(12)])

    m1_status = None
    if args.check_m1:
        if args.d != 12 or sys_.f % 2 == 0:
            m1_status = "not an order-12 system with f odd, skipped"
        else:
            case = cyclotomy.classify_case(sys_)
            if case.case_number != 1:
                m1_status = f"case = {case.case_number} != 1, skipped"
            else:
                # resolve_signs raises unless M1_MATRIX, at the congruence
                # signs of y and B, reproduces the counted table
                cyclotomy.resolve_signs(sys_, cyclotomy.quadratic_partitions(args.q))
                checks["m1_matrix"] = True
                m1_status = "PASS"

    if args.format == "json":
        payload = {"q": args.q, "d": args.d, "g": sys_.g,
                   "counts": table.tolist(), "checks": checks}
        if m1_status is not None:
            payload["m1"] = m1_status
        _out(args, _json_dumps(payload))
    else:
        lines = [cyclotomy.table_to_csv(table).rstrip("\n")]
        for name, ok in checks.items():
            lines.append(f"# {name}: {'PASS' if ok else 'FAIL'}")
        if m1_status is not None:
            lines.append(f"# m1: {m1_status}")
        _out(args, "\n".join(lines) + "\n")
    return 0 if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_oracle_range(q: int) -> None:
    if q >= ORACLE_Q_LIMIT:
        raise ValueError(f"q={q} is too large for the direct-count oracles of "
                         f"verify and sequence: q must be below 2**13")


def _conditions_for(args):
    """The conditions to verify, with the calibrated system that auto
    resolved them on (None for a named condition)."""
    if args.condition != "auto":
        return [args.condition], None
    calibrated = dhm.calibrated_system(args.q, args.order)
    conds = dhm.matching_conditions(args.order, calibrated[1])
    if not conds:
        raise ValueError(f"no condition applies at q={args.q} (order {args.order})")
    return conds, calibrated


def cmd_verify(args) -> int:
    _check_oracle_range(args.q)
    if args.condition not in dhm.CONDITIONS[args.order] + ("auto",):
        raise ValueError(f"unknown order-{args.order} condition {args.condition!r}")
    include_zero = None
    if args.include_zero:
        include_zero = True
    elif args.no_zero:
        include_zero = False
    conds, calibrated = _conditions_for(args)
    reports = [dhm.verify_family(args.q, args.order, cond, include_zero, calibrated)
               for cond in conds]
    all_pass = all(r.all_pass for r in reports)
    if args.format == "json":
        _out(args, _json_dumps([r.to_dict() for r in reports]))
    else:
        lines = []
        for r in reports:
            lines.append(f"q={r.q} order={r.order} condition={r.condition} "
                         f"calibrated_sign={r.calibrated_sign}")
            for rec in r.recipes:
                what = (f"(i,j,l)=({rec['i']},{rec['j']},{rec['l']})"
                        if "i" in rec else f"I={rec['I']} J={rec['J']}")
                cls = rec["classification"]
                ptuple = (cls.get("n"), cls.get("k"), cls.get("lambda"), cls.get("t"))
                lines.append(f"  {what} zero={rec['include_zero']} "
                             f"-> {cls['kind']}{ptuple} "
                             f"{'PASS' if rec['pass'] else 'FAIL'}")
        _out(args, "\n".join(lines) + "\n")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args) -> int:
    if not Path(args.report_dir).is_dir():
        raise ValueError(f"--report-dir {args.report_dir} is not a directory")
    report = search.cross_prime_family_report(
        args.d, args.bound, args.include_zero, workers=args.workers)
    out_lines = [h.to_json() for h in report.hits]
    _out(args, "\n".join(out_lines) + ("\n" if out_lines else ""))
    csv_path = Path(args.report_dir) / f"family_report_d{args.d}.csv"
    csv_path.write_text(report.family_csv())
    summary = {"d": args.d, "include_zero": args.include_zero,
               "n_primes": len(report.primes), "first_prime": report.primes[0],
               "last_prime": report.primes[-1], "n_hits": len(report.hits),
               "n_families": len(report.families),
               "n_sporadic_shapes": len(report.sporadic)}
    print(f"family report written to {csv_path}", file=sys.stderr)
    print(_json_dumps(summary), end="", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------

def _parse_recipe(text: str, d: int, include_zero: bool) -> dhm.Recipe:
    """A search shape_id 'I<hex>-J<hex>' at any order, two named sets 'A,E'
    at order 12, or a triple 'i,j,l' at order 4."""
    shape = re.fullmatch(r"I([0-9a-f]*)-J([0-9a-f]*)", text)
    parts = text.split(",")
    if shape:
        if any(len(set(s)) < len(s) for s in shape.groups()):
            raise ValueError("an index repeats within I or J")
        I, J = ({int(c, 16) for c in s} for s in shape.groups())
        return dhm.Recipe(d, I, J, include_zero)
    if d == 12 and len(parts) == 2 and all(p in dhm.NAMED_SETS for p in parts):
        return dhm.Recipe(d, *(dhm.NAMED_SETS[p] for p in parts), include_zero)
    if d == 4 and len(parts) == 3 and all(p.isdigit() for p in parts):
        return dhm.triple_recipe(tuple(map(int, parts)), include_zero)
    other = {12: ", or two of A-F like 'A,E'", 4: ", or 'i,j,l'"}.get(d, "")
    raise ValueError(f"unknown order-{d} recipe; expected a shape_id like I0145-J0246{other}")


def _recipe_set(args) -> adsets.CharacteristicSet:
    sys_ = cyclotomy.build_classes(args.q, args.order)
    try:
        return dhm.build(sys_, _parse_recipe(args.recipe, args.order, args.include_zero))
    except ValueError as exc:
        raise ValueError(f"recipe {args.recipe!r}: {exc}") from None


def cmd_sequence(args) -> int:
    _check_oracle_range(args.q)
    cset = _recipe_set(args)
    seq = seqkit.set_sequence(cset)
    profile = seqkit.autocorrelation(seq)
    identity_ok = seqkit.verify_ac_identity(cset, profile)
    verdict = seqkit.classify_sequence(profile, seq.weight)
    if args.format == "csv":
        _out(args, profile.to_csv())
    elif args.format == "json":
        _out(args, _json_dumps({
            "q": args.q, "order": args.order, "recipe": args.recipe,
            "include_zero": args.include_zero,
            "sequence": seq.to_text(), "n": seq.n, "weight": seq.weight,
            "levels": {str(v): c for v, c in sorted(profile.levels.items())},
            "three_level": verdict.three_level, "balanced": verdict.balanced,
            "optimal_parameter_tuple": verdict.optimal_parameter_tuple,
            "ac_identity": identity_ok,
        }))
    else:
        lines = [seq.to_text(),
                 f"n={seq.n} weight={seq.weight}",
                 "levels: " + " ".join(f"{v}x{c}"
                                       for v, c in sorted(profile.levels.items())),
                 f"three_level={verdict.three_level} balanced={verdict.balanced} "
                 f"optimal_tuple={verdict.optimal_parameter_tuple} "
                 f"ac_identity={identity_ok}"]
        _out(args, "\n".join(lines) + "\n")
    return 0 if identity_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; callers share it, so none
    may change it."""
    p = argparse.ArgumentParser(prog="cyclodes",
                                description="cyclotomic ADS constructions: "
                                            "verify, search, and emit sequences")
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--output", help="write data to this file instead of stdout")

    def common(sp, formats=("json", "csv", "text")):
        sp.add_argument("--format", choices=formats, default="json")
        output(sp)

    sp = sub.add_parser("classes", help="cyclotomic classes of order d")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_classes)

    sp = sub.add_parser("cycnums", help="cyclotomic-number table and identities")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--check-m1", action="store_true", dest="check_m1")
    common(sp, ("json", "csv"))
    sp.set_defaults(func=cmd_cycnums)

    sp = sub.add_parser("verify", help="verify a construction condition")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--order", type=int, choices=(4, 12), required=True)
    sp.add_argument("--condition", default="auto")
    zero = sp.add_mutually_exclusive_group()
    zero.add_argument("--include-zero", action="store_true",
                      help="only the with-(0,0) variant")
    zero.add_argument("--no-zero", action="store_true",
                      help="only the plain variant")
    common(sp, ("json", "text"))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("search", help="exhaustive pair search over primes")
    sp.add_argument("--d", type=int, required=True, choices=(4, 6, 8, 10, 12))
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--include-zero", action="store_true")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes (at least 1; capped at the CPU count)")
    sp.add_argument("--report-dir", default=".",
                    help="directory for family_report_d{d}.csv")
    output(sp)  # hits are always JSONL
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("sequence", help="sequence + autocorrelation of a recipe")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--order", type=int, choices=(4, 6, 8, 10, 12), required=True)
    sp.add_argument("--recipe", required=True,
                    help="shape_id like I0145-J0246; 'A,E' at order 12; 'i,j,l' at order 4")
    sp.add_argument("--include-zero", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_sequence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every subcommand has --output; refuse a missing directory before any work
        if args.output and not Path(args.output).parent.is_dir():
            raise ValueError(f"--output {args.output}: its directory does not exist")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
