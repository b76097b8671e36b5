"""Command-line entry point: root-system queries, folding queries, N-map
tables, the verification suite runner with canonical JSON reports, and the
finite perfectness exhibit.

Report schema: {suite, toolVersion, cases: [{id, spec, params, status,
witness}], summary: {pass, fail, skipped}, wallTime}, serialized with
sorted keys so that parse + re-serialize is byte-identical.  The wallTime
field is pinned to 0.0 in serialized reports so that repeated runs with
the same seed produce byte-identical files; measured time is printed on
the summary line instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from fractions import Fraction

from .chevalley import build_chevalley_basis
from .folding import (
    FoldingError,
    RelativeRoot,
    build_relative_system,
    classify_relative_type,
    enumerate_foldings,
    parse_folding_spec,
)
from .finitelab import CapExceeded, closure_cap, format_report, perfectness_report
from .polyring import is_prime
from .relcalc import (
    RelcalcError,
    applicable_surjectivity_cases,
    check_N11_surjectivity,
    check_spanning_lemma2_2,
    check_spanning_lemma3,
    compute_relative_commutator_maps,
)
from .rootcore import InvalidRootType, RootType, build_root_system, collinear
from .theoremlab import (
    VerificationCase,
    verify_C2_identities,
    verify_G2_identities,
    verify_case_schemas,
    verify_lemma1_catalog,
)

try:
    from importlib.metadata import version

    TOOL_VERSION = version("relroots")
except Exception:  # pragma: no cover - not installed
    TOOL_VERSION = "0.1.0"

SUITES = ("lemma1", "lemma2", "lemma3", "c2", "g2", "cases", "all")


class CliError(ValueError):
    pass


def _dump(obj, stream=None):
    (stream or sys.stdout).write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _parse_spec(args):
    text = args.type
    if args.gamma:
        text += " gamma=" + args.gamma
    if args.levi:
        text += " levi=" + args.levi
    try:
        return parse_folding_spec(text)
    except (FoldingError, InvalidRootType, ValueError) as exc:
        raise CliError(str(exc))


def cmd_roots(args):
    try:
        rs = build_root_system(RootType.parse(args.type))
    except InvalidRootType as exc:
        raise CliError(str(exc))
    _dump({
        "type": str(rs.type),
        "count": len(rs.roots),
        "roots": [{"coords": list(r.coords), "height": r.height,
                   "length": r.length_class} for r in rs.roots],
    })
    return 0


def cmd_fold(args):
    spec = _parse_spec(args)
    try:
        rrs = build_relative_system(spec)
        label, rank = classify_relative_type(rrs)
    except FoldingError as exc:
        raise CliError(str(exc))
    _dump({
        "spec": str(spec),
        "classifiedType": "%s%d" % (label, rank),
        "relativeRank": rrs.rank,
        "components": [{"rank": rrs.rank, "size": len(rrs.rel_roots)}],
        "relativeRoots": [{
            "coords": list(A.coords),
            "level": A.level,
            "sign": 1 if A.is_positive() else -1,
            "fiber": [list(g.coords) for g in rrs.fiber(A)],
        } for A in sorted(rrs.rel_roots, key=lambda A: A.coords)],
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
    try:
        table = compute_relative_commutator_maps(rrs, cb, A, B)
    except RelcalcError as exc:
        raise CliError(str(exc))
    _dump({
        "spec": str(spec),
        "A": list(A.coords),
        "B": list(B.coords),
        "fiberA": [list(g.coords) for g in rrs.fiber(A)],
        "fiberB": [list(g.coords) for g in rrs.fiber(B)],
        "maps": [{
            "i": i,
            "j": j,
            "entries": {str(gamma): repr(p)
                        for gamma, p in sorted(table.entries[(i, j)].items(),
                                               key=lambda kv: kv[0].coords)},
        } for i, j in table.pairs()],
    })
    return 0


def _report_case(cid, spec, report, params=None):
    """Wrap a relcalc report dict into a VerificationCase."""
    case = VerificationCase(id=cid, spec=spec, params=params or {})
    case.status = report["status"]
    wit = {}
    if "witnesses" in report:
        wit["witnesses"] = {
            str(g): "%s + %s -> %+d" % (al, be, c)
            for g, (al, be, c) in sorted(report["witnesses"].items(),
                                         key=lambda kv: kv[0].coords)}
    if "fields" in report:
        wit["fields"] = dict(sorted(report["fields"].items()))
    case.witness = wit or None
    return case


def suite_lemma2(seed, max_rank=5):
    cases = []
    # case (a): unit constants — every valid pair of a simply laced folding
    for spec in enumerate_foldings(max_rank, series="ADE", trivial_only=True):
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        pairs = [(A, B) for A, B in itertools.product(rrs.rel_roots, repeat=2)
                 if A + B in rrs and not collinear(A, B)]
        if not pairs:
            continue
        case = VerificationCase(id="lemma2/a/%s" % spec, spec=str(spec),
                                params={"case": "a"})
        bad = []
        for A, B in pairs:
            report = check_N11_surjectivity(rrs, cb, A, B, "a")
            if report["status"] != "pass":
                bad.append("%s, %s" % (A, B))
        if bad:
            case.status = "fail"
            case.witness = bad
        else:
            case.witness = {"pairs_checked": len(pairs)}
        cases.append(case)

    # case (d): long-root targets in the B_l half-spin folding
    for l in (3, 4):
        spec = parse_folding_spec("B%d levi=1,2" % l)
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
        report = check_N11_surjectivity(rrs, cb, A, B, "d")
        cases.append(_report_case("lemma2/d/%s" % spec, str(spec), report,
                                  {"case": "d", "A": "1,0", "B": "0,1"}))

    # cases (b) and (c) on the BC2 folding of C3
    spec = parse_folding_spec("C3 levi=1,2")
    rrs = build_relative_system(spec)
    cb = build_chevalley_basis(rrs.rs)
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    for tag in ("b", "c"):
        report = check_N11_surjectivity(rrs, cb, A, B, tag)
        cases.append(_report_case("lemma2/%s/%s" % (tag, spec), str(spec),
                                  report, {"case": tag, "A": "1,0", "B": "0,1"}))

    # the split C2 pair with structure constant +-2 sits outside every case
    spec = parse_folding_spec("C2")
    rrs = build_relative_system(spec)
    cb = build_chevalley_basis(rrs.rs)
    A, B = RelativeRoot((1, 0)), RelativeRoot((1, 1))
    applicable = applicable_surjectivity_cases(rrs, cb, A, B)
    case = VerificationCase(id="lemma2/outside/C2", spec="C2",
                            params={"A": "1,0", "B": "1,1"})
    if applicable:
        case.status = "fail"
        case.witness = "unexpectedly applicable: %s" % (applicable,)
    else:
        case.witness = "no unit-coefficient case applies (constant is +-2)"
    cases.append(case)

    # part (2): image spanning over Q and small prime fields
    spec = parse_folding_spec("C3 levi=1,2")
    rrs = build_relative_system(spec)
    cb = build_chevalley_basis(rrs.rs)
    report = check_spanning_lemma2_2(rrs, cb, RelativeRoot((1, 1)),
                                     RelativeRoot((0, 1)), seed=seed)
    cases.append(_report_case("lemma2/spanning/%s" % spec, str(spec), report,
                              {"A": "1,1", "B": "0,1", "seed": seed}))
    return cases


def suite_lemma3(seed):
    cases = []
    for l in (4, 6):
        report = check_spanning_lemma3(l, seed=seed)
        cases.append(_report_case("lemma3/l=%d" % l, "C%d levi=%d,%d"
                                  % (l, l // 2, l), report,
                                  {"l": l, "seed": seed}))
    return cases


def suite_c2(k=None, eps=None):
    if k is not None:
        bindings = [eps] if eps is not None else [None]
        ks = [k]
    else:
        ks = [5, 6, 7]
        bindings = [None, Fraction(2)] if eps is None else [eps]
    cases = []
    for kk in ks:
        for binding in bindings:
            cases.extend(verify_C2_identities(kk, eps_binding=binding))
    return cases


def suite_g2(k=None, eps=None):
    cases = []
    if k is not None:
        long_case, short_case = verify_G2_identities(
            k_long=k, k_short=max(k, 3), eps_binding=eps)
        return [long_case, short_case]
    for kk in (2, 3, 4):
        long_case, _ = verify_G2_identities(k_long=kk, eps_binding=eps)
        cases.append(long_case)
    for kk in (3, 4, 5):
        _, short_case = verify_G2_identities(k_short=kk, eps_binding=eps)
        cases.append(short_case)
    return cases


def suite_cases():
    cases = list(verify_case_schemas("F4_long"))
    for l in (3, 4):
        cases.extend(verify_case_schemas("Bl_pairs", l=l))
        cases.extend(verify_case_schemas("Cl_BC2", l=l, k=4))
    cases.extend(verify_case_schemas("Cl_C2", l=4, k=3))
    return cases


def run_suite(name, args):
    if name == "lemma1":
        return verify_lemma1_catalog(args.max_rank or 6)
    if name == "lemma2":
        return suite_lemma2(args.seed, max_rank=args.max_rank or 5)
    if name == "lemma3":
        return suite_lemma3(args.seed)
    if name == "c2":
        return suite_c2(args.k, args.eps)
    if name == "g2":
        return suite_g2(args.k, args.eps)
    if name == "cases":
        return suite_cases()
    assert name == "all"
    out = []
    out += verify_lemma1_catalog(args.max_rank or 6)
    out += suite_lemma2(args.seed, max_rank=5)
    out += suite_lemma3(args.seed)
    out += suite_c2()
    out += suite_g2()
    out += suite_cases()
    return out


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
    if args.suite not in SUITES:
        raise CliError("unknown suite %r (choose from %s)"
                       % (args.suite, ", ".join(SUITES)))
    t0 = time.time()
    try:
        cases = run_suite(args.suite, args)
    except (ValueError, FoldingError) as exc:
        raise CliError(str(exc))
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
    try:
        t = RootType.parse(args.type)
    except InvalidRootType as exc:
        raise CliError(str(exc))
    if not is_prime(args.p):
        raise CliError("%d is not prime" % args.p)
    try:
        cap = closure_cap() if args.cap is None else args.cap
    except ValueError as exc:
        raise CliError("bad RELROOT_CAP: %s" % exc)
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
                       help="trivial | flip | triality | perm:<images>")
        p.add_argument("--levi", default=None,
                       help="all | comma-separated 1-based node list")

    p = sub.add_parser("fold", help="build and classify a relative root system")
    add_fold_args(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("nmaps",
                       help="commutator N-map table for a relative pair")
    add_fold_args(p)
    p.add_argument("--a", required=True, help="relative root, e.g. 1,0")
    p.add_argument("--b", required=True, help="relative root, e.g. 0,1")
    p.set_defaults(func=cmd_nmaps)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=Fraction, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("perfect",
                       help="order and derived index of the adjoint group "
                            "over F_p")
    p.add_argument("--type", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--cap", type=int, default=None,
                   help="closure cap (also RELROOT_CAP env var)")
    p.set_defaults(func=cmd_perfect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("skipped: cap (%s)" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
