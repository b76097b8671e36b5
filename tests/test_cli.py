import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import relroots
import relroots.chevalley as chevalley
import relroots.cli as cli
import relroots.finitelab as finitelab
import relroots.relcalc as relcalc
import relroots.theoremlab as theoremlab
from relroots.chevalley import CollectionError
from relroots.cli import main
from relroots.folding import DecompositionError
from relroots.rootcore import require, root_str
from relroots.theoremlab import verify_lemma1_catalog


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_g2(capsys):
    code, out, _ = run(capsys, "roots", "--type", "G2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 12
    assert {r["length"] for r in data["roots"]} == {"short", "long"}


def test_roots_bad_type(capsys):
    code, _, err = run(capsys, "roots", "--type", "Z9")
    assert code == 2
    assert "Z9" in err


def test_fold_b3_levi_is_b2(capsys):
    code, out, _ = run(capsys, "fold", "--type", "B3", "--gamma", "trivial",
                       "--levi", "1,2")
    assert code == 0
    data = json.loads(out)
    assert data["classifiedType"] == "B2"
    assert len(data["relativeRoots"]) == 8


def test_fold_c3_levi_is_bc2(capsys):
    code, out, _ = run(capsys, "fold", "--type", "C3", "--levi", "1,2")
    assert code == 0
    assert json.loads(out)["classifiedType"] == "BC2"


def test_fold_c5_outer_levi_is_c2(capsys):
    # 2A1 + A2 is a relative root, so A1 is the short simple root
    code, out, _ = run(capsys, "fold", "--type", "C5", "--levi", "1,5")
    assert code == 0
    data = json.loads(out)
    assert [2, 1] in [r["coords"] for r in data["relativeRoots"]]
    assert data["classifiedType"] == "C2"


def test_fold_inadmissible_levi_errors(capsys):
    code, _, err = run(capsys, "fold", "--type", "B4", "--levi", "1,3")
    assert code == 2
    assert "no root-system type" in err


def test_fold_rank_one_set_of_no_type_errors(capsys):
    # G2 levi=1 has the relative roots +-1, +-2, +-3: neither A1 nor BC1
    code, out, err = run(capsys, "fold", "--type", "G2", "--levi", "1")
    assert code == 2
    assert out == ""
    assert "no root-system type" in err


def test_fold_repeated_levi_node_errors(capsys):
    code, out, err = run(capsys, "fold", "--type", "A3", "--levi", "1,1")
    assert code == 2
    assert out == ""
    assert err == "error: repeated levi nodes\n"


@pytest.mark.parametrize("command", ["fold", "nmaps"])
@pytest.mark.parametrize("images", ["1,2,3,4", "3,2,5", "1,1,3", "0,1,2"])
def test_gamma_images_must_permute_the_nodes(capsys, command, images):
    extra = ["--a", "1,0,0", "--b", "0,1,0"] if command == "nmaps" else []
    code, out, err = run(capsys, command, "--type", "A3", "--gamma", "perm:" + images, *extra)
    assert code == 2
    assert out == ""
    assert err == "error: gamma images %s are not a permutation of 1..3\n" % images


@pytest.mark.parametrize("command", ["fold", "nmaps"])
def test_gamma_images_must_be_integers(capsys, command):
    extra = ["--a", "1,0,0", "--b", "0,1,0"] if command == "nmaps" else []
    code, out, err = run(capsys, command, "--type", "A3", "--gamma", "perm:x", *extra)
    assert (code, out) == (2, "")
    assert err == "error: bad gamma 'perm:x'\n"


@pytest.mark.parametrize("flag", ["--levi", "--gamma"])
def test_fold_empty_levi_or_gamma_errors(capsys, flag):
    # an empty value is bad input, not "all nodes" or the trivial group
    code, out, err = run(capsys, "fold", "--type", "A3", flag, "")
    assert (code, out) == (2, "")
    assert err == "error: bad %s ''\n" % flag[2:]


@pytest.mark.parametrize("eps", ["1/0", "abc"])
def test_verify_bad_eps_errors(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "c2", "--eps", eps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --eps: invalid Fraction value: '%s'" % eps in err
    assert "Traceback" not in err


# sha1 of the output of each command, pinned when roots became coordinate
# tuples: every root in a key, case id or witness prints as (1,0,1)
GOLDEN_SHA1 = {
    ("roots", "--type", "G2"): "bd35d39fdfd122c69574d71f115d2be7b32cc791",
    ("fold", "--type", "C3", "--levi", "1,2"): "00fa22ba21275ae6cffa62ce5ce3a0aeede28307",
    ("fold", "--type", "A5", "--gamma", "flip", "--levi", "1,3,5"):
        "f496fd94615752c7b9e57e7cee6243725ab912cc",
    ("nmaps", "--type", "C3", "--levi", "1,2", "--a", "1,0", "--b", "0,1"):
        "3cab54aa7be184d49f685e305a5edf11cb021925",
    ("nmaps", "--type", "G2", "--a", "1,0", "--b", "0,1"):
        "48ada52eae05530986daafebadbff0063c406875",
    ("nmaps", "--type", "B3", "--levi", "1,2", "--a", "1,0", "--b", "0,1"):
        "64b6479b39204c3b150482e371e51b16716fc52a",
}
CASES_REPORT_SHA1 = "dec1a282040df051ab69793472587a57c505de9f"


def golden_id(argv):
    # the first pin of each command keeps the bare command name
    first = next(key for key in GOLDEN_SHA1 if key[0] == argv[0])
    return argv[0] if argv == first else "%s-%s" % (argv[0], argv[2])


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA1), ids=golden_id)
def test_golden_output_sha1(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == GOLDEN_SHA1[argv]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "-O"])
def test_golden_cases_report_sha1(tmp_path, optimize):
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    report = tmp_path / "cases.json"
    proc = subprocess.run(
        [sys.executable] + ["-O"] * optimize
        + ["-m", "relroots.cli", "verify", "--suite", "cases", "--report", str(report)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha1(report.read_bytes()).hexdigest() == CASES_REPORT_SHA1


def test_benchmark_tracer_counts_nmaps(capsys):
    # perfbench/tracing.py wraps relroots from outside and reads A.coords of
    # each table's pair, spec.gamma[i].perm and the ``cols`` of each product
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer().install()
    try:
        code, _, _ = run(capsys, *next(argv for argv in GOLDEN_SHA1 if argv[0] == "nmaps"))
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["relcalc.tables"] == 1
    assert metrics["chevalley.products"] == 2
    assert metrics["chevalley.entries_out"] > 0


def test_nmaps_c2_pair(capsys):
    code, out, _ = run(capsys, "nmaps", "--type", "C2", "--a", "1,0",
                       "--b", "0,1")
    assert code == 0
    data = json.loads(out)
    assert sorted((m["i"], m["j"]) for m in data["maps"]) == [(1, 1), (2, 1)]


# the literal maps of two tables, as ``nmaps`` prints them
NMAPS_GOLDEN = {
    ("C4", "2,4", "1,0", "0,1"): [
        {"i": 1, "j": 1, "entries": {
            "(0,1,1,1)": "-1*u0*v1 - 1*u1*v0",
            "(0,1,2,1)": "-1*u0*v2 + u1*v1",
            "(1,1,1,1)": "-1*u2*v1 - 1*u3*v0",
            "(1,1,2,1)": "-1*u2*v2 + u3*v1"}},
        {"i": 2, "j": 1, "entries": {
            "(0,2,2,1)": "-1*u0^2*v2 + 2*u0*u1*v1 + u1^2*v0",
            "(1,2,2,1)": "-1*u0*u2*v2 + u0*u3*v1 + u1*u2*v1 + u1*u3*v0",
            "(2,2,2,1)": "u2^2*v2 - 2*u2*u3*v1 - 1*u3^2*v0"}},
    ],
    ("C3", "1,2", "0,1", "1,0"): [
        {"i": 1, "j": 1, "entries": {"(1,1,0)": "u0*v0", "(1,1,1)": "u1*v0"}},
        {"i": 2, "j": 1, "entries": {"(1,2,1)": "u0*u1*v0"}},
        {"i": 2, "j": 2, "entries": {"(2,2,1)": "2*u0*u1*v0^2"}},
    ],
}


@pytest.mark.parametrize("key", sorted(NMAPS_GOLDEN), ids=lambda key: key[0])
def test_nmaps_golden_entries(capsys, key):
    t, levi, a, b = key
    code, out, _ = run(capsys, "nmaps", "--type", t, "--levi", levi, "--a", a, "--b", b)
    assert code == 0
    assert json.loads(out)["maps"] == NMAPS_GOLDEN[key]


def test_nmaps_rejects_collinear(capsys):
    code, _, err = run(capsys, "nmaps", "--type", "C2", "--a", "1,0",
                       "--b=-1,0")
    assert code == 2
    assert err.startswith("error:")


def test_nmaps_rejects_bad_coords(capsys):
    code, _, err = run(capsys, "nmaps", "--type", "C2", "--a", "1,0,0",
                       "--b", "0,1")
    assert code == 2
    assert "coordinates" in err


def test_nmaps_negative_root_in_equals_form(capsys):
    # argparse reads "--b -1,0" as an option; the help shows "--b=-1,0"
    code, out, _ = run(capsys, "nmaps", "--type", "C2", "--a", "1,1", "--b=-1,0")
    assert code == 0
    assert json.loads(out)["B"] == [-1, 0]


def _without_last_slot(rrs, a, b, _table_slots=relcalc._table_slots):
    slots, owner = _table_slots(rrs, a, b)
    return slots[:-1], owner


NMAPS_C2 = ["nmaps", "--type", "C2", "--a", "1,0", "--b", "0,1"]


def test_failed_table_check_in_nmaps_exits_1(capsys, monkeypatch):
    # the product has a factor on 2A+B, the last slot, so collect fails
    monkeypatch.setattr(relcalc, "_table_slots", _without_last_slot)
    code, out, err = run(capsys, *NMAPS_C2)
    assert (code, out) == (1, "")
    assert err == "fail: residual is not the identity; input not supported on the given slots\n"


PERFECT_A2 = ["perfect", "--type", "A2", "--p", "3"]


def _no_constants(cb, beta, gamma):
    raise CollectionError("injected fault on %s, %s" % (root_str(beta), root_str(gamma)))


def test_failed_check_in_perfect_is_a_fail_row(capsys, monkeypatch):
    monkeypatch.setattr(finitelab, "commutator_constants", _no_constants)
    code, out, err = run(capsys, *PERFECT_A2)
    assert (code, err) == (1, "")
    row = out.splitlines()[1]
    assert row.startswith("A2") and "fail: injected fault on" in row


# each fault above, injected into a ``python -O`` child before ``cli.main``:
# (patch, argv, the stream that shows the failure, how it starts there)
OPTIMIZED_FAULTS = {
    "nmaps": ("relcalc._table_slots = test_cli._without_last_slot", NMAPS_C2,
              "stderr", "fail: residual is not the identity"),
    "perfect": ("finitelab.commutator_constants = test_cli._no_constants", PERFECT_A2,
                "stdout", "type  p  route  order  index  verdict\nA2    3  -      -      -      "
                "fail: injected fault on"),
}


@pytest.mark.parametrize("command", sorted(OPTIMIZED_FAULTS))
def test_failed_check_exits_1_under_optimized_mode(command):
    patch, argv, stream, start = OPTIMIZED_FAULTS[command]
    child = ("import sys, test_cli\nfrom relroots import cli, finitelab, relcalc\n"
             "%s\nsys.exit(cli.main(sys.argv[1:]))" % patch)
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", child] + argv,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert getattr(proc, stream).startswith(start)


def test_verify_c2_k5_two_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "c2", "--k", "5")
    assert code == 0
    assert "pass=2 fail=0" in out


def test_verify_slot_overflow_is_an_error_not_a_fail(capsys, tmp_path):
    # Z^9996 under the C2 long word passes a 16-bit exponent slot: bad
    # input, so no case fails and no report is written
    report_file = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--suite", "c2", "--k", "10000",
                         "--report", str(report_file))
    assert code == 2
    assert out == ""
    assert err == "error: exponents up to 79992 overflow a 16-bit packed slot\n"
    assert not report_file.exists()


def test_verify_lemma1_skipped_matches_rank1_components(capsys, tmp_path):
    report_file = tmp_path / "lemma1.json"
    code, out, _ = run(capsys, "verify", "--suite", "lemma1",
                       "--max-rank", "3", "--report", str(report_file))
    assert code == 0
    report = json.loads(report_file.read_text())
    catalog = verify_lemma1_catalog(3)
    expected_skipped = sum(1 for c in catalog if c.status == "skipped")
    assert report["summary"]["skipped"] == expected_skipped
    assert report["summary"]["fail"] == 0


def test_verify_max_rank_out_of_range_errors(capsys):
    code, _, err = run(capsys, "verify", "--suite", "lemma1", "--max-rank", "9")
    assert code == 2
    assert err.startswith("error:") and "max rank" in err


@pytest.mark.parametrize("suite,rank", [("lemma1", "0"), ("lemma2", "0"),
                                        ("lemma2", "9"), ("all", "0")])
def test_verify_max_rank_bounds_every_suite(capsys, suite, rank):
    code, _, err = run(capsys, "verify", "--suite", suite, "--max-rank", rank)
    assert code == 2
    assert err.startswith("error:") and "max rank" in err


@pytest.mark.parametrize("suite,flag,value,readers", [
    ("c2", "--max-rank", "3", "lemma1 and lemma2"),
    ("lemma3", "--max-rank", "3", "lemma1 and lemma2"),
    ("cases", "--max-rank", "3", "lemma1 and lemma2"),
    ("lemma3", "--k", "7", "c2 and g2"),
    ("lemma1", "--k", "5", "c2 and g2"),
    ("lemma2", "--eps", "2", "c2 and g2"),
    ("cases", "--eps", "2", "c2 and g2"),
])
def test_verify_refuses_a_flag_its_suite_does_not_read(capsys, monkeypatch, suite, flag,
                                                      value, readers):
    for name in ("verify_lemma1_catalog", "suite_lemma2", "suite_lemma3", "suite_c2",
                 "suite_g2", "suite_cases"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("a suite ran"))
    code, out, err = run(capsys, "verify", "--suite", suite, flag, value, "--seed", "3")
    assert (code, out) == (2, "")
    assert err == "error: %s applies only to the %s suites\n" % (flag, readers)


def test_verify_all_passes_flags_to_every_suite(capsys, monkeypatch):
    calls = []

    def recorder(name):
        return lambda *args: calls.append((name,) + args) or []

    for name in ("verify_lemma1_catalog", "suite_lemma2", "suite_lemma3",
                 "suite_c2", "suite_g2", "suite_cases"):
        monkeypatch.setattr(cli, name, recorder(name))
    code, _, _ = run(capsys, "verify", "--suite", "all", "--max-rank", "3",
                     "--k", "6", "--eps", "3", "--seed", "4")
    assert code == 0
    assert calls == [("verify_lemma1_catalog", 3), ("suite_lemma2", 4, 3),
                     ("suite_lemma3", 4), ("suite_c2", 6, Fraction(3)),
                     ("suite_g2", 6, Fraction(3)), ("suite_cases",)]


def test_g2_suite_runs_each_reported_case_once(monkeypatch):
    ran = []

    def counting(cid, *args, _run=theoremlab.run_case):
        ran.append(cid)
        return _run(cid, *args)

    monkeypatch.setattr(theoremlab, "run_case", counting)
    cases = cli.suite_g2()
    assert sorted(c.id for c in cases) == sorted(ran)
    assert sorted(ran) == ["g2/long/k=%d/eps=symbolic" % k for k in (2, 3, 4)] + [
        "g2/short/k=%d/eps=symbolic" % k for k in (3, 4, 5)]
    assert all(c.status == "pass" for c in cases)


@pytest.mark.parametrize("flags,message", [
    (["--suite", "all", "--k", "3"], "the long-root identity needs k >= 5"),
    (["--suite", "all", "--eps", "1"], "eps binding makes eps**2 - eps vanish"),
    (["--suite", "g2", "--k", "1"], "the long-root identity needs k >= 2"),
    (["--suite", "c2", "--eps", "0"], "eps binding makes eps**2 - eps vanish"),
])
def test_verify_identity_flags_checked_before_any_suite(capsys, monkeypatch,
                                                        flags, message):
    for name in ("verify_lemma1_catalog", "suite_lemma2", "suite_lemma3"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("a suite ran"))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify", *flags)
    assert code == 2
    assert err == "error: %s\n" % message
    assert time.perf_counter() - t0 < 5


def _fault_in_c3_table(rrs, cb, A, B,
                       _table=relcalc.compute_relative_commutator_maps):
    require(str(rrs.rs.type) != "C3", "injected fault in a C3 table")
    return _table(rrs, cb, A, B)


def _fault_in_decomposition(rrs, a, verdicts=None,
                            _decompose=theoremlab.decompose_relative_root):
    if str(rrs.spec) == "A2 gamma=trivial levi=1,2":
        raise DecompositionError("injected fault in %s" % root_str(a))
    return _decompose(rrs, a, verdicts)


def _case_a_without_units(rrs, cb, A, B, case,
                          _check=relcalc.check_N11_surjectivity):
    # no constant is a unit in {7}, so the case (a) hypothesis fails
    return _check(rrs, cb, A, B, case, units=frozenset({7}))


def _doubled_target(cb, alpha, t, cone, _adjoint=theoremlab.adjoint_root_element):
    return _adjoint(cb, alpha, t.scale(2), cone)


# (suite, extra flags, module, attribute, replacement, fail rows, pass rows)
FAULTS = {
    "lemma1": ("lemma1", ["--max-rank", "2"], theoremlab,
               "decompose_relative_root", _fault_in_decomposition, 1, 3),
    "lemma2-table": ("lemma2", ["--max-rank", "2"], relcalc,
                     "compute_relative_commutator_maps", _fault_in_c3_table, 3, 4),
    "lemma2-hypothesis": ("lemma2", ["--max-rank", "2"], relcalc,
                          "check_N11_surjectivity", _case_a_without_units, 1, 6),
    "lemma2-outside": ("lemma2", ["--max-rank", "2"], cli,
                       "applicable_surjectivity_cases",
                       lambda rrs, cb, A, B: ["a"], 1, 6),
    "lemma3": ("lemma3", [], relcalc, "_image_rows",
               lambda images, p: [], 2, 0),
    "c2": ("c2", ["--k", "5"], theoremlab, "adjoint_root_element",
           _doubled_target, 2, 0),
    "g2": ("g2", ["--k", "3"], theoremlab, "adjoint_root_element",
           _doubled_target, 1, 1),
    "cases": ("cases", [], chevalley, "commutator_constants",
              lambda cb, alpha, beta: {}, 3, 43),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failed_check_is_a_fail_row(capsys, monkeypatch, tmp_path, fault):
    suite, flags, module, attr, replacement, fails, passes = FAULTS[fault]
    monkeypatch.setattr(module, attr, replacement)
    report_file = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--suite", suite, *flags,
                         "--report", str(report_file))
    assert code == 1
    assert "Traceback" not in err and "error:" not in err
    report = json.loads(report_file.read_text())
    assert report["summary"]["fail"] == fails
    assert report["summary"]["pass"] == passes
    failed = [c for c in report["cases"] if c["status"] == "fail"]
    assert all(isinstance(c["witness"], str) for c in failed)
    assert all("FAIL %s: %s" % (c["id"], c["witness"]) in err for c in failed)


def test_perturbed_collected_commutator_fails_the_c2_long_cases(capsys, monkeypatch, tmp_path):
    # the C2 long word holds the collected [x_{A1+A2}(s), x_{-A2}(t)]; the
    # short word does not
    def perturbed(cb, reg, first, second, _collected=theoremlab.collected_commutator):
        (root, c), *rest = _collected(cb, reg, first, second)
        return [(root, c.scale(2))] + rest

    monkeypatch.setattr(theoremlab, "collected_commutator", perturbed)
    report_file = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--suite", "c2", "--report", str(report_file))
    assert code == 1
    assert "Traceback" not in err
    cases = json.loads(report_file.read_text())["cases"]
    assert len(cases) == 12
    assert [c["id"] for c in cases if c["status"] == "fail"] == [
        c["id"] for c in cases if c["id"].startswith("c2/long/")]
    assert all(c["status"] == "pass" for c in cases if c["id"].startswith("c2/short/"))


def test_verify_report_roundtrip_byte_identical(capsys, tmp_path):
    report_file = tmp_path / "g2.json"
    code, _, _ = run(capsys, "verify", "--suite", "g2", "--k", "3",
                     "--report", str(report_file))
    assert code == 0
    text = report_file.read_text()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_verify_report_schema(capsys, tmp_path):
    report_file = tmp_path / "cases.json"
    run(capsys, "verify", "--suite", "cases", "--report", str(report_file))
    report = json.loads(report_file.read_text())
    assert set(report) == {"suite", "toolVersion", "cases", "summary",
                           "wallTime"}
    tallies = {"pass": 0, "fail": 0, "skipped": 0}
    for c in report["cases"]:
        assert set(c) == {"id", "spec", "params", "status", "witness"}
        tallies[c["status"]] += 1
    assert tallies == report["summary"]
    ids = [c["id"] for c in report["cases"]]
    assert ids == sorted(ids)


def test_verify_unknown_suite_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_unwritable_report_errors(capsys):
    code, _, err = run(capsys, "verify", "--suite", "c2", "--k", "5",
                       "--report", "/nonexistent/dir/out.json")
    assert code == 2
    assert "cannot write report" in err


def test_perfect_c2_p2_not_perfect(capsys):
    code, out, _ = run(capsys, "perfect", "--type", "C2", "--p", "2")
    assert code == 0
    row = out.splitlines()[1]
    assert "720" in row and "2" in row and "matches prediction" in row


def test_perfect_c2_p3_perfect(capsys):
    code, out, _ = run(capsys, "perfect", "--type", "C2", "--p", "3")
    assert code == 0
    assert "25920" in out and "matches prediction" in out


def test_perfect_a2_p2_perfect(capsys):
    code, out, _ = run(capsys, "perfect", "--type", "A2", "--p", "2")
    assert code == 0
    assert "168" in out


def test_perfect_cap_skip(capsys):
    # G2/F_2 has no witness route, and 2^12 <= 1000 < 12096
    code, out, _ = run(capsys, "perfect", "--type", "G2", "--p", "2",
                       "--cap", "1000")
    assert code == 0
    assert out.splitlines()[1].split() == ["G2", "2", "enumeration", "-", "-",
                                           "skipped:", "cap"]


def test_perfect_b3_witness_row_over_the_cap(capsys):
    code, out, _ = run(capsys, "perfect", "--type", "B3", "--p", "2",
                       "--cap", "1000")
    assert code == 0
    assert out.splitlines()[1].split() == ["B3", "2", "witness", "-", "1",
                                           "matches", "prediction"]


def test_perfect_e6_by_witness(capsys):
    t0 = time.time()
    code, out, _ = run(capsys, "perfect", "--type", "E6", "--p", "2")
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[:3] == ["E6", "2", "witness"] and row[4] == "1"
    assert "matches prediction" in out
    assert time.time() - t0 < 60


def test_cli_import_leaves_numpy_unloaded():
    # only `perfect` needs finitelab, and so numpy
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, relroots.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name,cap", [("A2", "0"), ("A2", "-5"), ("C2", "-1")])
def test_perfect_cap_must_be_positive(capsys, name, cap):
    code, out, err = run(capsys, "perfect", "--type", name, "--p", "2", "--cap", cap)
    assert (code, out) == (2, "")
    assert err == "error: --cap must be a positive integer\n"


def test_perfect_rejects_composite(capsys):
    code, _, err = run(capsys, "perfect", "--type", "A2", "--p", "4")
    assert code == 2
    assert "not prime" in err


def test_perfect_large_p_skips_cap(capsys):
    # the group has at least p^(2N) elements, so p^2 > cap skips before building
    t0 = time.time()
    code, out, _ = run(capsys, "perfect", "--type", "A1", "--p", "100003",
                       "--cap", "1000")
    assert code == 0
    assert "skipped: cap" in out
    assert time.time() - t0 < 10


def test_perfect_int64_bound_errors(capsys):
    code, _, err = run(capsys, "perfect", "--type", "A1", "--p", "2147483647")
    assert code == 2
    assert err.startswith("error:") and "int64" in err
