"""Command-line entry point: root-system queries, folding queries, N-map
tables, the verification suite runner with canonical JSON reports, and the
finite perfectness exhibit.

Report schema: {suite, toolVersion, cases: [{id, spec, params, status,
witness}], summary: {pass, fail, skipped}, wallTime}, serialized with
sorted keys so that parse + re-serialize is byte-identical.  The wallTime
field is pinned to 0.0 in serialized reports so that repeated runs with
the same seed produce byte-identical files; measured time is printed on
the summary line instead.

Every command exits 1 on a check that does not hold (a fail case or row, or
``fail: <message>``) and 2 on bad input (``error: <message>``); ``main`` alone
maps a ``VerificationError`` and a ``ValueError`` to these codes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .chevalley import build_chevalley_basis
from .folding import (
    build_relative_system,
    classify_relative_type,
    enumerate_foldings,
    parse_folding_spec,
)
from .polyring import is_prime
from .relcalc import (
    GaugeClasses,
    RelativeRoot,
    applicable_surjectivity_cases,
    check_case_a,
    check_N11_surjectivity,
    check_spanning_lemma2_2,
    check_spanning_lemma3,
    compute_relative_commutator_maps,
)
from .rootcore import RootType, VerificationError, build_root_system, require, root_str
from .theoremlab import (
    check_identity_params,
    run_case,
    verify_C2_identities,
    verify_G2_identities,
    verify_case_schemas,
    verify_lemma1_catalog,
)

TOOL_VERSION = "0.1.0"  # the version in pyproject.toml

SUITES = ("lemma1", "lemma2", "lemma3", "c2", "g2", "cases", "all")


class CliError(ValueError):
    pass


def _dump(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _fraction(text):
    """An argparse type: ``Fraction(text)``, where a zero denominator is a
    bad value too (argparse itself catches only ValueError and TypeError)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid Fraction value: %r" % text)


def _parse_spec(args):
    text = args.type
    if args.gamma is not None:
        text += " gamma=" + args.gamma
    if args.levi is not None:
        text += " levi=" + args.levi
    return parse_folding_spec(text)


def cmd_roots(args):
    rs = build_root_system(RootType.parse(args.type))
    _dump({
        "type": str(rs.type),
        "count": len(rs.roots),
        "roots": [{"coords": list(r), "height": sum(r),
                   "length": "long" if r in rs.long_roots else "short"} for r in rs.roots],
    })
    return 0


def cmd_fold(args):
    spec = _parse_spec(args)
    rrs = build_relative_system(spec)
    label, rank = classify_relative_type(rrs)
    _dump({
        "spec": str(spec),
        "classifiedType": "%s%d" % (label, rank),
        "relativeRank": rrs.rank,
        "components": [{"rank": rrs.rank, "size": len(rrs.fibers)}],
        "relativeRoots": [{
            "coords": list(a),
            "level": sum(a),
            "sign": 1 if sum(a) > 0 else -1,
            "fiber": list(map(list, fiber)),
        } for a, fiber in sorted(rrs.fibers.items())],
    })
    return 0


def _parse_rel(text, rank):
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise CliError("bad relative root %r (expected e.g. 1,0)" % text)
    if len(coords) != rank:
        raise CliError("relative root %r has %d coordinates, expected %d"
                       % (text, len(coords), rank))
    return RelativeRoot(coords)


def cmd_nmaps(args):
    spec = _parse_spec(args)
    rrs = build_relative_system(spec)
    cb = build_chevalley_basis(rrs.rs)
    A = _parse_rel(args.a, rrs.rank)
    B = _parse_rel(args.b, rrs.rank)
    table = compute_relative_commutator_maps(rrs, cb, A, B)
    _dump({
        "spec": str(spec),
        "A": list(A.coords),
        "B": list(B.coords),
        "fiberA": [list(g) for g in rrs.fiber(A.coords)],
        "fiberB": [list(g) for g in rrs.fiber(B.coords)],
        "maps": [{
            "i": i,
            "j": j,
            "entries": {root_str(gamma): repr(p)
                        for gamma, p in sorted(table.entries[(i, j)].items())},
        } for i, j in table.pairs()],
    })
    return 0


def _report_witness(witnesses):
    """The report witness of ``check_N11_surjectivity``'s witnesses."""
    return {"witnesses": {root_str(g): "%s + %s -> %+d" % (root_str(al), root_str(be), c)
                          for g, (al, be, c) in sorted(witnesses.items())}}


def suite_lemma2(seed, max_rank=5):
    cases = []
    # case (a): unit constants — every valid pair of a simply laced folding;
    # the direct check runs once per gauge class of configurations
    classes = GaugeClasses()  # for this run
    for spec in enumerate_foldings(max_rank, series="ADE", trivial_only=True):
        rrs = build_relative_system(spec)
        if rrs.rank < 2:  # every pair is collinear
            continue
        cb = build_chevalley_basis(rrs.rs)
        cases.append(run_case("lemma2/a/%s" % spec, str(spec),
                              lambda: check_case_a(rrs, cb, classes), {"case": "a"}))

    def surjectivity(spec, case):
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
        return run_case(
            "lemma2/%s/%s" % (case, spec), str(spec),
            lambda: _report_witness(check_N11_surjectivity(rrs, cb, A, B, case)),
            {"case": case, "A": "1,0", "B": "0,1"})

    # case (d): long-root targets in the B_l half-spin folding
    for l in (3, 4):
        cases.append(surjectivity(parse_folding_spec("B%d levi=1,2" % l), "d"))
    # cases (b) and (c) on the BC2 folding of C3
    bc2 = parse_folding_spec("C3 levi=1,2")
    cases += [surjectivity(bc2, "b"), surjectivity(bc2, "c")]

    # the split C2 pair with structure constant +-2 sits outside every case
    def outside():
        rrs = build_relative_system(parse_folding_spec("C2"))
        applicable = applicable_surjectivity_cases(
            rrs, build_chevalley_basis(rrs.rs),
            RelativeRoot((1, 0)), RelativeRoot((1, 1)))
        require(not applicable, "unexpectedly applicable: %s", applicable)
        return "no unit-coefficient case applies (constant is +-2)"

    # part (2): image spanning over Q and small prime fields
    def spanning():
        rrs = build_relative_system(bc2)
        return {"fields": check_spanning_lemma2_2(
            rrs, build_chevalley_basis(rrs.rs), RelativeRoot((1, 1)), RelativeRoot((0, 1)))}

    cases.append(run_case("lemma2/outside/C2", "C2", outside,
                          {"A": "1,0", "B": "1,1"}))
    cases.append(run_case("lemma2/spanning/%s" % bc2, str(bc2), spanning,
                          {"A": "1,1", "B": "0,1", "seed": seed}))
    return cases


def suite_lemma3(seed):
    def spanning(text):
        rrs = build_relative_system(parse_folding_spec(text))
        return {"fields": check_spanning_lemma3(rrs, build_chevalley_basis(rrs.rs))}

    return [run_case("lemma3/l=%d" % l, text, lambda: spanning(text), {"l": l, "seed": seed})
            for l, text in ((4, "C4 levi=2,4"), (6, "C6 levi=3,6"))]


def suite_c2(k=None, eps=None):
    ks = [5, 6, 7] if k is None else [k]
    bindings = [None, Fraction(2)] if k is None and eps is None else [eps]
    cases = []
    for kk in ks:
        for binding in bindings:
            cases.extend(verify_C2_identities(kk, eps_binding=binding))
    return cases


def suite_g2(k=None, eps=None):
    """Long and short G2 cases, both kept from each identity call."""
    ks = [(k, max(k, 3))] if k is not None else [(2, 3), (3, 4), (4, 5)]
    return [case for k_long, k_short in ks
            for case in verify_G2_identities(k_long=k_long, k_short=k_short,
                                             eps_binding=eps)]


def suite_cases():
    cases = list(verify_case_schemas("F4_long"))
    for l in (3, 4):
        cases.extend(verify_case_schemas("Bl_pairs", l=l))
        cases.extend(verify_case_schemas("Cl_BC2", l=l, k=4))
    cases.extend(verify_case_schemas("Cl_C2", l=4, k=3))
    return cases


def run_suite(name, args):
    """Cases of one suite, which refuses a flag it does not read; ``all``
    runs the six others, in this order, each with the flags it reads."""
    def max_rank(default):
        return default if args.max_rank is None else args.max_rank

    suites = {
        "lemma1": lambda: verify_lemma1_catalog(max_rank(6)),
        "lemma2": lambda: suite_lemma2(args.seed, max_rank(5)),
        "lemma3": lambda: suite_lemma3(args.seed),
        "c2": lambda: suite_c2(args.k, args.eps),
        "g2": lambda: suite_g2(args.k, args.eps),
        "cases": suite_cases,
    }
    names = list(suites) if name == "all" else [name]
    for flag, readers in (("max_rank", ("lemma1", "lemma2")), ("k", ("c2", "g2")),
                          ("eps", ("c2", "g2"))):
        if getattr(args, flag) is not None and name not in readers + ("all",):
            raise CliError("--%s applies only to the %s suites"
                           % (flag.replace("_", "-"), " and ".join(readers)))
    # the identity flags are checked before any suite starts
    if "c2" in names:
        check_identity_params(args.eps, c2_long=args.k)
    if "g2" in names:
        check_identity_params(args.eps, g2_long=args.k)
    return [case for n in names for case in suites[n]()]


def make_report(suite, cases):
    cases = sorted(cases, key=lambda c: c.id)
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    for c in cases:
        summary[c.status] += 1
    return {
        "suite": suite,
        "toolVersion": TOOL_VERSION,
        "cases": [c.to_json() for c in cases],
        "summary": summary,
        "wallTime": 0.0,
    }


def cmd_verify(args):
    t0 = time.time()
    cases = run_suite(args.suite, args)
    report = make_report(args.suite, cases)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            raise CliError("cannot write report: %s" % exc)
    s = report["summary"]
    print("suite=%s pass=%d fail=%d skipped=%d elapsed=%.1fs"
          % (args.suite, s["pass"], s["fail"], s["skipped"], time.time() - t0))
    for c in cases:
        if c.status == "fail":
            print("FAIL %s: %s" % (c.id, c.witness), file=sys.stderr)
    return 0 if s["fail"] == 0 else 1


def cmd_perfect(args):
    # finitelab loads numpy, which no other command needs
    from .finitelab import DEFAULT_CAP, format_report, perfectness_report

    t = RootType.parse(args.type)
    if not is_prime(args.p):
        raise CliError("%d is not prime" % args.p)
    cap = DEFAULT_CAP if args.cap is None else args.cap
    if cap < 1:
        raise CliError("--cap must be a positive integer")
    rows = perfectness_report([(t, args.p)], cap=cap)
    print(format_report(rows))
    return 0 if all(r["status"] != "fail" for r in rows) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relroots",
        description="Exact relative-root-system toolkit: queries, "
                    "identity-verification suites, finite perfectness exhibit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the roots of an irreducible type")
    p.add_argument("--type", required=True, help="e.g. G2, B3, E6")
    p.set_defaults(func=cmd_roots)

    def add_fold_args(p):
        p.add_argument("--type", required=True)
        p.add_argument("--gamma", default=None,
                       help="trivial | flip | triality | order<N> | perm:<images>")
        p.add_argument("--levi", default=None,
                       help="all | comma-separated 1-based node list")

    p = sub.add_parser("fold", help="build and classify a relative root system")
    add_fold_args(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("nmaps",
                       help="commutator N-map table for a relative pair")
    add_fold_args(p)
    p.add_argument("--a", required=True, help="relative root, e.g. 1,0 or --a=-1,0")
    p.add_argument("--b", required=True, help="relative root, e.g. 0,1 or --b=-1,0")
    p.set_defaults(func=cmd_nmaps)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.add_argument("--seed", type=int, default=0, help="recorded in the report only")
    p.add_argument("--report", default=None, metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("perfect",
                       help="order and derived index of the adjoint group "
                            "over F_p")
    p.add_argument("--type", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--cap", type=int, default=None,
                   help="largest group order built or shown (default 10^6)")
    p.set_defaults(func=cmd_perfect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:  # before ValueError: CaseHypothesisError is both
        print("fail: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:  # every relroots bad-input error, CliError included
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
