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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import adsets, cyclotomy, dhm, search, seqkit

# verify and sequence run the O(q^2) direct-count oracles (difference function,
# autocorrelation): just below this q they already take 11 s and 36 s (README
# "Cost"), and near 2**20 they would take days.
ORACLE_Q_LIMIT = 1 << 13


def _out(args, text: str) -> None:
    if getattr(args, "output", None):
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
    classes = {i: sys_.class_members(i) for i in range(args.d)}
    if args.format == "json":
        _out(args, _json_dumps({"q": args.q, "d": args.d, "g": sys_.g,
                                "f": sys_.f, "classes": {str(i): classes[i]
                                                         for i in classes}}))
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
    failures = []

    total_ok = table.total() == args.q - 2
    if not total_ok:
        failures.append("total")
    minus_one = sys_.minus_one_class
    rows_ok = all(s == sys_.f - (1 if h == minus_one else 0)
                  for h, s in enumerate(table.row_sums()))
    if not rows_ok:
        failures.append("row-sums")

    checks = {"total_is_q_minus_2": total_ok, "row_sum_identity": rows_ok}
    if args.d == 12 and sys_.f % 2 == 1:
        eq_ok = all(table.counts[h][k]
                    == table[cyclotomy.label_to_pair(cyclotomy.reduce_hk(h, k))]
                    for h in range(12) for k in range(12))
        checks["equality_table"] = eq_ok
        if not eq_ok:
            failures.append("equality-table")

    m1_status = None
    if args.check_m1:
        if args.d != 12 or sys_.f % 2 == 0:
            m1_status = "not an order-12 system with f odd, skipped"
        else:
            case = cyclotomy.classify_case(sys_)
            if case.case_number != 1:
                m1_status = f"case = {case.case_number} != 1, skipped"
            else:
                part = cyclotomy.resolve_signs(
                    sys_, cyclotomy.quadratic_partitions(args.q))
                predicted = cyclotomy.m1_predicted(args.q, part)
                actual = cyclotomy.brute_force_canonical(table)
                m1_ok = predicted == actual
                checks["m1_matrix"] = m1_ok
                m1_status = "PASS" if m1_ok else "FAIL"
                if not m1_ok:
                    failures.append("m1")

    if args.format == "json":
        payload = {"q": args.q, "d": args.d, "g": sys_.g,
                   "counts": [list(r) for r in table.counts], "checks": checks}
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
    return 1 if failures else 0


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
    _, cal = calibrated
    if args.order == 12:
        conds = dhm.matching_conditions(12, cal)
    else:
        conds = sorted(set(cal.matched_no_zero))
    if not conds:
        raise ValueError(f"no condition applies at q={args.q} (order {args.order})")
    return conds, calibrated


def cmd_verify(args) -> int:
    _check_oracle_range(args.q)
    if args.order == 4 and args.condition not in dhm.ORDER4_CONDITIONS + ("auto",):
        raise ValueError(f"unknown order-4 condition {args.condition!r}")
    if args.order == 12 and args.condition not in dhm.ORDER12_CONDITIONS + ("auto",):
        raise ValueError(f"unknown order-12 condition {args.condition!r}")
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
    report = search.cross_prime_family_report(
        args.d, args.bound, args.include_zero, workers=args.workers)
    out_lines = [h.to_json() for h in report.hits]
    _out(args, "\n".join(out_lines) + ("\n" if out_lines else ""))
    csv_path = Path(args.report_dir) / f"family_report_d{args.d}.csv"
    csv_path.write_text(report.family_csv())
    summary = {"d": args.d, "include_zero": args.include_zero,
               "primes": report.primes, "n_hits": len(report.hits),
               "n_families": len(report.families),
               "n_sporadic_shapes": len(report.sporadic)}
    print(f"family report written to {csv_path}", file=sys.stderr)
    print(_json_dumps(summary), end="", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------

def _recipe_set(args) -> adsets.CharacteristicSet:
    parts = args.recipe.split(",")
    if args.order == 12:
        if len(parts) != 2 or not all(p in dhm.NAMED_SETS for p in parts):
            raise ValueError(
                f"unknown order-12 recipe {args.recipe!r}; expected two of "
                f"{sorted(dhm.NAMED_SETS)} like 'A,E'")
        sys_ = cyclotomy.build_classes(args.q, 12)
        recipe = dhm.Order12Recipe(dhm.NAMED_SETS[parts[0]],
                                   dhm.NAMED_SETS[parts[1]], args.include_zero)
        return dhm.build_order12(sys_, recipe)
    if len(parts) != 3:
        raise ValueError(f"unknown order-4 recipe {args.recipe!r}; expected 'i,j,l'")
    try:
        i, j, l = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"unknown order-4 recipe {args.recipe!r}") from None
    sys_ = cyclotomy.build_classes(args.q, 4)
    return dhm.build_order4(sys_, dhm.Order4Recipe(i, j, l, args.include_zero))


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

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cyclodes",
                                description="cyclotomic ADS constructions: "
                                            "verify, search, and emit sequences")
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--output", help="write data to this file instead of stdout")

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
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
    common(sp)
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
    common(sp)
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
    sp.add_argument("--order", type=int, choices=(4, 12), required=True)
    sp.add_argument("--recipe", required=True,
                    help="order 12: 'A,E' style set names; order 4: 'i,j,l'")
    sp.add_argument("--include-zero", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_sequence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
