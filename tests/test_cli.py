import json

import pytest

from relroots.cli import main
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


def test_fold_inadmissible_levi_errors(capsys):
    code, _, err = run(capsys, "fold", "--type", "B4", "--levi", "1,3")
    assert code == 2
    assert "no root-system type" in err


def test_nmaps_c2_pair(capsys):
    code, out, _ = run(capsys, "nmaps", "--type", "C2", "--a", "1,0",
                       "--b", "0,1")
    assert code == 0
    data = json.loads(out)
    assert sorted((m["i"], m["j"]) for m in data["maps"]) == [(1, 1), (2, 1)]


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


def test_verify_c2_k5_two_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "c2", "--k", "5")
    assert code == 0
    assert "pass=2 fail=0" in out


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
    code, out, _ = run(capsys, "perfect", "--type", "B3", "--p", "2",
                       "--cap", "1000")
    assert code == 0
    assert "skipped: cap" in out


def test_perfect_bad_cap_env_errors(capsys, monkeypatch):
    monkeypatch.setenv("RELROOT_CAP", "abc")
    code, _, err = run(capsys, "perfect", "--type", "A2", "--p", "2")
    assert code == 2
    assert err.startswith("error:") and "RELROOT_CAP" in err


def test_perfect_rejects_composite(capsys):
    code, _, err = run(capsys, "perfect", "--type", "A2", "--p", "4")
    assert code == 2
    assert "not prime" in err
