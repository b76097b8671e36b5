"""Lemma 2 case (a) by structure-constant configuration.

``relcalc.check_case_a`` runs the direct check once per configuration key
and passes every other pair of the key on its mapped witnesses.  The sweep
here checks the lemma behind that: every case (a) pair of rank <= 5 has,
term by term by position, the table of the first pair with its key.  A key
without the signs of N_pq fails the sweep, so the sweep can see a key that
is too coarse.  Under ``python -O``, a perturbed structure constant fails
the mapped-witness re-check of a pair that is not the first of its key, and
a perturbed recomposition fails every case that cites its configuration
with the direct check's message.
"""

import itertools
import json
import os
import subprocess
import sys
from operator import add

import pytest

import relroots
from relroots import relcalc
from relroots.chevalley import ChevalleyBasis, build_chevalley_basis
from relroots.folding import build_relative_system, enumerate_foldings
from relroots.relcalc import RelativeRoot, check_case_a, compute_relative_commutator_maps
from relroots.rootcore import collinear


def _case_a_pairs(rrs):
    """The pairs of case (a) by tuple sums, in ``check_case_a`` order."""
    return [(a, b) for a, b in itertools.product(rrs.fibers, repeat=2)
            if tuple(map(add, a, b)) in rrs.fibers and not collinear(a, b)]


def _positional(table, slots):
    """The table by position: (i, j, position of the entry's root in S) -> terms.

    The registry lists u0.. over fiber(A) and v0.. over fiber(B) in order,
    so the packed term keys are positional already."""
    pos = {gamma: p for p, gamma in enumerate(slots)}
    return {(ij, pos[gamma]): p.terms
            for ij, entries in table.entries.items() for gamma, p in entries.items()}


@pytest.fixture(scope="module")
def rank5_tables():
    """(rrs, cb, A, B, positional direct table) for every case (a) pair of rank <= 5."""
    out = []
    for spec in enumerate_foldings(5, series="ADE", trivial_only=True):
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        for a, b in _case_a_pairs(rrs):
            slots = [gamma for _, fiber in relcalc._pair_blocks(rrs, a, b) for gamma in fiber]
            table = compute_relative_commutator_maps(rrs, cb, RelativeRoot(a), RelativeRoot(b))
            out.append((rrs, cb, a, b, _positional(table, slots)))
    return out


def _sweep(tables):
    """(keys, pairs whose table differs from the first table of their key)."""
    first = {}
    mismatches = 0
    for rrs, cb, a, b, table in tables:
        key, _ = relcalc._case_a_key(cb, relcalc._pair_blocks(rrs, a, b))
        mismatches += first.setdefault(key, table) != table
    return len(first), mismatches


def test_every_pair_has_the_table_of_its_configuration(rank5_tables):
    assert len(rank5_tables) == 5328
    assert _sweep(rank5_tables) == (255, 0)


def test_a_key_without_signs_is_caught_by_the_sweep(rank5_tables, monkeypatch):
    real = ChevalleyBasis.__dict__["brackets"]

    def unsigned(cb):
        return {alpha: {beta: (gamma, abs(n)) for beta, (gamma, n) in row.items()}
                for alpha, row in real.func(cb).items()}

    # a property outranks the value the cached_property stored on the basis
    monkeypatch.setattr(ChevalleyBasis, "brackets", property(unsigned))
    # fewer keys, and pairs whose table differs from the first of their key;
    # the count depends on which pair comes first, in ``check_case_a`` order
    assert _sweep(rank5_tables) == (62, 3212)


def test_case_a_pairs_match_coordinate_sums(monkeypatch):
    # the pair filter by integer codes and ``_pair_blocks`` against tuple
    # sums, on every type up to rank 5 (``_table_slots``, the rest of the
    # blocks, is checked against the solved multiples in test_relcalc.py);
    # the direct check, replaced by a record of its pair, runs on the first
    # pair of each key in order
    seen = []

    def record(rrs, cb, A, B, case):
        seen.append((A.coords, B.coords))
        return {}

    monkeypatch.setattr(relcalc, "check_N11_surjectivity", record)
    for spec in enumerate_foldings(5, trivial_only=True):
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        want = _case_a_pairs(rrs)
        first = {}
        for a, b in want:
            first.setdefault(relcalc._case_a_key(cb, relcalc._pair_blocks(rrs, a, b))[0],
                             (a, b))
        seen.clear()
        witnesses = {}
        assert check_case_a(rrs, cb, witnesses) == {"pairs_checked": len(want)}, spec
        assert seen == list(first.values()) and witnesses.keys() == first.keys(), spec
        # the suite skips a folding without pairs by its rank alone
        assert bool(want) == (rrs.rank >= 2), spec


# A first run without faults finds the pairs that cite a configuration
# (every pair of a key but the first) and the foldings that cite each key.
FIRST_RUN = """
import json
from collections import Counter, defaultdict

import relroots.relcalc as relcalc
from relroots.chevalley import ChevalleyBasis, build_chevalley_basis
from relroots.cli import main
from relroots.folding import build_relative_system, enumerate_foldings

witnesses = {}
citing = defaultdict(set)  # key -> case ids of the foldings with a pair of the key
profiles = {}  # key -> block sizes by owner
mapped = []  # (case id, type, mapped witness) of every pair not first of its key
first_witnesses = set()
real_key, real_check = relcalc._case_a_key, relcalc.check_N11_surjectivity


def observed_key(cb, blocks):
    key, slots = real_key(cb, blocks)
    citing[key].add(case)
    profiles[key] = Counter({o: len(f) for o, f in blocks})
    mapped.extend((case, str(rrs.rs.type), (slots[p], slots[q]))
                  for _, p, q, _ in witnesses.get(key, ()))
    return key, slots


def observed_check(rrs, cb, A, B, which):
    witnesses = real_check(rrs, cb, A, B, which)
    first_witnesses.update((str(rrs.rs.type), (al, be)) for al, be, _ in witnesses.values())
    return witnesses


relcalc._case_a_key, relcalc.check_N11_surjectivity = observed_key, observed_check
for spec in enumerate_foldings(3, series="ADE", trivial_only=True):
    rrs = build_relative_system(spec)
    case = "lemma2/a/%s" % spec
    relcalc.check_case_a(rrs, build_chevalley_basis(rrs.rs), witnesses)
relcalc._case_a_key, relcalc.check_N11_surjectivity = real_key, real_check

def verify():
    code = main(["verify", "--suite", "lemma2", "--max-rank", "3", "--report", "REPORT"])
    with open("REPORT") as fh:
        cases = json.load(fh)["cases"]
    return code, {c["id"]: [c["status"], c["witness"]] for c in cases if "/a/" in c["id"]}
"""

# the last mapped witness that no first pair of a key found flips its sign,
# once the key tables are built
PERTURBED_CONSTANT = FIRST_RUN + """
case, rtype, (al, be) = [m for m in mapped if (m[1], m[2]) not in first_witnesses][-1]
real = ChevalleyBasis.__dict__["brackets"]


def then_flipped(cb):
    table = real.__get__(cb, ChevalleyBasis)
    if str(cb.rs.type) == rtype and "struct_const" not in vars(cb):
        honest = cb.struct_const
        cb.struct_const = lambda a, b: -honest(a, b) if (a, b) == (al, be) else honest(a, b)
    return table


# a property outranks the value the cached_property stored on the basis
ChevalleyBasis.brackets = property(then_flipped)
code, cases = verify()
print(json.dumps({"code": code, "case": case, "cases": cases}))
"""

# the configuration cited by the most foldings: the recomposition of every
# table with its block sizes has one coefficient doubled
PERTURBED_RECOMPOSITION = FIRST_RUN + """
key = max(citing, key=lambda k: (len(citing[k]), k))
profile = profiles[key]
real, collect = relcalc._collect_recomposed, relcalc.collect


def doubled(cb, U, slots):
    coeffs = collect(cb, U, slots)
    gamma = next(iter(coeffs))
    coeffs[gamma] = coeffs[gamma].scale(2)
    return coeffs


def faulty(cb, U, slots, owner, failure):
    names = U.registry.names
    sizes = Counter({(1, 0): sum(n[0] == "u" for n in names),
                     (0, 1): sum(n[0] == "v" for n in names)}) + Counter(owner.values())
    if sizes != profile:
        return real(cb, U, slots, owner, failure)
    relcalc.collect = doubled
    try:
        return real(cb, U, slots, owner, failure)
    finally:
        relcalc.collect = collect


relcalc._collect_recomposed = faulty
code, cases = verify()
print(json.dumps({"code": code, "citing": sorted(citing[key]), "cases": cases}))
"""


def _run_optimized(script, tmp_path):
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c",
                           script.replace("REPORT", str(tmp_path / "report.json"))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_perturbed_constant_fails_the_mapped_witness_under_optimized_mode(tmp_path):
    out = _run_optimized(PERTURBED_CONSTANT, tmp_path)
    assert out["code"] == 1
    failed = {cid: witness for cid, (status, witness) in out["cases"].items()
              if status == "fail"}
    assert out["case"] in failed
    assert all(w.startswith("configuration witness ") for w in failed.values())
    assert len(failed) < len(out["cases"])


def test_perturbed_recomposition_fails_every_citing_case_under_optimized_mode(tmp_path):
    out = _run_optimized(PERTURBED_RECOMPOSITION, tmp_path)
    assert out["code"] == 1
    assert len(out["citing"]) > 1
    for cid in out["citing"]:
        assert out["cases"][cid] == ["fail", "recomposed product differs from the commutator"]
    assert any(status == "pass" for status, _ in out["cases"].values())
