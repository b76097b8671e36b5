"""Lemma 2 case (a) by gauge class of the structure-constant configuration.

``relcalc.check_case_a`` keys one pair of each orbit under swap and
negation, runs the direct check once per gauge class, passes every other
keyed pair of the class on its mapped witnesses, and maps the witnesses
of each keyed pair to the other three pairs of its orbit.  The sweeps here
check the lemmas behind that: every case (a) pair of rank <= 5 has, term
by term by position, the table of the first pair with its key, and, after
the sign substitution of its gauge, the table of the first pair of its
class; and the (1,1) entries of the three images of each keyed pair are
its own, mapped by swap and negation with their signs (ADE up to rank 5,
BCFG up to rank 4).  A key without the signs of N_pq, a class whose gauge
is taken to be 1, or images mapped without their signs fail the sweeps,
so a sweep can see a map that is too coarse.  Under ``python -O``, a
perturbed structure constant fails the mapped-witness re-check of a pair
whose key is not the first of its class, a perturbed bracket fails the
re-check of a witness mapped to an image pair, a mapped witness list
with one entry dropped fails the check that the witnesses cover the
target fiber, a gauge with one sign flipped fails the check of the
brackets against the class, and a perturbed recomposition fails every
case that cites its class with the direct check's message.
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
from relroots.polyring import _decode
from relroots.relcalc import (GaugeClasses, RelativeRoot, check_case_a,
                              compute_relative_commutator_maps)
from relroots.rootcore import collinear


def _case_a_pairs(rrs):
    """The pairs of case (a) by tuple sums, in ``check_case_a`` order."""
    return [(a, b) for a, b in itertools.product(rrs.fibers, repeat=2)
            if tuple(map(add, a, b)) in rrs.fibers and not collinear(a, b)]


def _representatives(rrs):
    """The case (a) pairs that ``check_case_a`` keys, one of each orbit
    {(a, b), (b, a), (-a, -b), (-b, -a)}: a < b and a + b of positive level."""
    return [(a, b) for a, b in _case_a_pairs(rrs) if a < b and sum(a) + sum(b) > 0]


def _neg(root):
    return tuple(-x for x in root)


def _orbit(a, b):
    return [(a, b), (b, a), (_neg(a), _neg(b)), (_neg(b), _neg(a))]


def _positional(table, slots):
    """The table by position: (i, j, position of the entry's root in S) -> terms.

    The registry lists u0.. over fiber(A) and v0.. over fiber(B) in order,
    so the packed term keys are positional already."""
    pos = {gamma: p for p, gamma in enumerate(slots)}
    return {(ij, pos[gamma]): p.terms
            for ij, entries in table.entries.items() for gamma, p in entries.items()}


def _gauged(table, gauge, n):
    """The positional table with every entry of root position g and
    monomial prod x_k^e_k multiplied by eps_g prod eps_k^e_k, eps the gauge
    with bit k of ``gauge`` set where eps_k = -1: N'(u, v)_g = eps_g N(eps.u,
    eps.v)_g, for the ``n`` variables x_k at positions k."""
    out = {}
    for (ij, g), terms in table.items():
        out[(ij, g)] = mapped = {}
        for key, c in terms.items():
            flips = (gauge >> g) + sum(e * (gauge >> k) for k, e in enumerate(_decode(key, n)[0]))
            mapped[key] = -c if flips & 1 else c
    return out


def _case_a_tables(max_rank, series):
    """(rrs, cb, A, B, positional direct table, variable count) for every
    case (a) pair of the trivial foldings of ``series`` up to ``max_rank``."""
    for spec in enumerate_foldings(max_rank, series=series, trivial_only=True):
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        for a, b in _case_a_pairs(rrs):
            blocks = relcalc._pair_blocks(rrs, a, b)
            slots = [gamma for _, fiber in blocks for gamma in fiber]
            table = compute_relative_commutator_maps(rrs, cb, RelativeRoot(a), RelativeRoot(b))
            yield rrs, cb, a, b, _positional(table, slots), len(blocks[0][1]) + len(blocks[1][1])


@pytest.fixture(scope="module")
def rank5_tables():
    """(rrs, cb, A, B, positional direct table, variable count) for every
    case (a) pair of rank <= 5."""
    return list(_case_a_tables(5, "ADE"))


@pytest.fixture(scope="module")
def bcfg4_tables():
    """The same for B, C, F and G up to rank 4: constants +-2 and +-3,
    where case (a) itself does not apply."""
    return list(_case_a_tables(4, "BCFG"))


def _sweep(tables):
    """(keys, pairs whose table differs from the first table of their key)."""
    first = {}
    mismatches = 0
    for rrs, cb, a, b, table, _ in tables:
        key, _ = relcalc._case_a_key(cb, relcalc._pair_blocks(rrs, a, b))
        mismatches += first.setdefault(key, table) != table
    return len(first), mismatches


def _gauge_sweep(tables, gauge_of=lambda gauge: gauge):
    """(classes, pairs whose table, mapped by the gauge of its key, differs
    from the first table of its class), the gauge read through ``gauge_of``."""
    classes, first = GaugeClasses(), {}
    mismatches = 0
    for rrs, cb, a, b, table, n in tables:
        key, _ = relcalc._case_a_key(cb, relcalc._pair_blocks(rrs, a, b))
        cls, gauge = relcalc._gauge_class(classes, key)
        mismatches += first.setdefault(cls, table) != _gauged(table, gauge_of(gauge), n)
    return len(first), mismatches


def test_every_pair_has_the_table_of_its_configuration(rank5_tables):
    assert len(rank5_tables) == 5328
    assert _sweep(rank5_tables) == (255, 0)


def test_every_pair_has_the_gauged_table_of_its_class(rank5_tables):
    assert _gauge_sweep(rank5_tables) == (62, 0)
    # the control: without its gauge a pair keeps the signs of its own key
    assert _gauge_sweep(rank5_tables, lambda gauge: 0) == (62, 3212)


def test_every_bcfg_pair_has_the_gauged_table_of_its_class(bcfg4_tables):
    tables = bcfg4_tables
    assert len(tables) == 5484
    assert _sweep(tables) == (906, 0)
    assert _gauge_sweep(tables) == (107, 0)
    assert _gauge_sweep(tables, lambda gauge: 0) == (107, 3917)


def _entries11(rrs, a, b, table):
    """The (1,1) entries of a positional table as {(gamma, alpha, beta):
    coefficient of u_alpha v_beta in the entry of gamma}."""
    blocks = relcalc._pair_blocks(rrs, a, b)
    slots = [gamma for _, fiber in blocks for gamma in fiber]
    n = len(blocks[0][1]) + len(blocks[1][1])
    out = {}
    for (ij, g), terms in table.items():
        if ij == (1, 1):
            for key, c in terms.items():
                p, q = [k for k, e in enumerate(_decode(key, n)[0]) if e]
                out[(slots[g], slots[p], slots[q])] = c
    return out


def _image_sweep(tables, sign=-1):
    """(representatives, images whose direct (1,1) entries differ from
    those of their representative mapped by swap and negation), ``sign``
    the factor that the swap and the negation each put on a coefficient."""
    entries = {}
    for rrs, _, a, b, table, _ in tables:
        entries.setdefault(id(rrs), (rrs, {}))[1][(a, b)] = table
    reps = mismatches = 0
    for rrs, by_pair in entries.values():
        assert set(by_pair) == set(_case_a_pairs(rrs))
        for a, b in _representatives(rrs):
            reps += 1
            own = _entries11(rrs, a, b, by_pair[(a, b)])
            swapped = {(g, be, al): sign * c for (g, al, be), c in own.items()}
            negated = {(_neg(g), _neg(al), _neg(be)): sign * c
                       for (g, al, be), c in own.items()}
            both = {(g, be, al): sign * c for (g, al, be), c in negated.items()}
            for pair, mapped in zip(_orbit(a, b)[1:], (swapped, negated, both)):
                mismatches += _entries11(rrs, *pair, by_pair[pair]) != mapped
    return reps, mismatches


def test_every_image_has_the_mapped_entries_of_its_representative(rank5_tables,
                                                                   bcfg4_tables):
    assert _image_sweep(rank5_tables) == (1332, 0)
    assert _image_sweep(bcfg4_tables) == (1371, 0)
    # the control: without the signs of swap and negation, the swapped and
    # the negated image of every representative differ from their own
    assert _image_sweep(rank5_tables, sign=1) == (1332, 2664)
    assert _image_sweep(bcfg4_tables, sign=1) == (1371, 2742)


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


def _rank2(vectors):
    """The rank over F_2 of vectors held as bit sets."""
    lead = {}
    for v in vectors:
        while v and v.bit_length() in lead:
            v ^= lead[v.bit_length()]
        if v:
            lead[v.bit_length()] = v
    return len(lead)


def _first_of_each_class(keyed):
    """The pair of each (key, pair) of ``keyed`` whose key is the first of
    its gauge class: two keys share a class when they agree up to the signs
    of N_pq and the sign vectors of their brackets inside S with p < q
    differ by a sum of gauge rows (row k: the brackets with k among p, q, r)."""
    firsts = []
    for key, pair in keyed:
        head, n, quads = relcalc._key_brackets(key)
        unsigned = (key[:head], [(p, q, r, abs(v)) for p, q, r, v in quads])
        inside = [(p, q, r, v) for p, q, r, v in quads if r < n and p < q]
        rows = [sum(1 << c for c, bracket in enumerate(inside) if k in bracket[:3])
                for k in range(n)]
        signs = sum(1 << c for c, bracket in enumerate(inside) if bracket[3] < 0)
        if not any(u == unsigned and _rank2(rows + [s ^ signs]) == _rank2(rows)
                   for u, s, _ in firsts):
            firsts.append((unsigned, signs, pair))
    return [pair for _, _, pair in firsts]


def test_case_a_pairs_match_coordinate_sums(monkeypatch):
    # the pair filter by integer codes and ``_pair_blocks`` against tuple
    # sums, on every type up to rank 5 (``_table_slots``, the rest of the
    # blocks, is checked against the solved multiples in test_relcalc.py);
    # the representatives' orbits are the pairs, four to an orbit; the
    # direct check, replaced by a record of its pair that returns the
    # first split of each target, runs on the first representative of each
    # gauge class in order, the classes found here by F_2 rank
    seen = []

    def record(rrs, cb, A, B, case):
        seen.append((A.coords, B.coords))
        fa, fb = rrs.fiber(A.coords), rrs.fiber(B.coords)
        return {gamma: next((al, be, cb.struct_const(al, be)) for al in fa for be in fb
                            if tuple(map(add, al, be)) == gamma)
                for gamma in rrs.fiber(tuple(map(add, A.coords, B.coords)))}

    monkeypatch.setattr(relcalc, "check_N11_surjectivity", record)
    suite, suite_checks = GaugeClasses(), 0  # one map over ADE, as the suite keeps it
    for spec in enumerate_foldings(5, trivial_only=True):
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        want, reps = _case_a_pairs(rrs), _representatives(rrs)
        assert sorted(pair for a, b in reps for pair in _orbit(a, b)) == sorted(want), spec
        keyed = {}
        for a, b in reps:
            keyed.setdefault(relcalc._case_a_key(cb, relcalc._pair_blocks(rrs, a, b))[0],
                             (a, b))
        seen.clear()
        classes = GaugeClasses()
        assert check_case_a(rrs, cb, classes) == {"pairs_checked": len(want)}, spec
        assert seen == _first_of_each_class(keyed.items()), spec
        assert classes.keys.keys() == keyed.keys(), spec
        assert set(classes.witnesses) == {cls for cls, _ in classes.first.values()}
        assert len(seen) == len(classes.first), spec
        # the suite skips a folding without pairs by its rank alone
        assert bool(want) == (rrs.rank >= 2), spec
        if spec.root_type.series in "ADE":
            seen.clear()
            check_case_a(rrs, cb, suite)
            suite_checks += len(seen)
    # 53 direct checks, one per class, for the 118 keys of the 1,332
    # representatives of 5,328 pairs
    assert (suite_checks, len(suite.first), len(suite.keys)) == (53, 53, 118)


# A first run without faults finds the pairs that cite a class (every pair
# of a class but the first), the foldings that cite each class, the
# witnesses mapped to the image pairs, and the brackets that the keys read.
FIRST_RUN = """
import json
from collections import Counter, defaultdict

import relroots.relcalc as relcalc
from relroots.chevalley import ChevalleyBasis, build_chevalley_basis
from relroots.cli import main
from relroots.folding import build_relative_system, enumerate_foldings

classes = relcalc.GaugeClasses()
pairs = []  # [case id, type, key, slots, block sizes by owner, direct] in order
first_witnesses = set()
images = []  # (case id, type, image pairs with their mapped witnesses) per keyed pair
read = set()  # (type, alpha, beta) of every bracket that a key looks up
real_key, real_check, real_images = (relcalc._case_a_key, relcalc.check_N11_surjectivity,
                                     relcalc._images)


def observed_key(cb, blocks):
    key, slots = real_key(cb, blocks)
    pairs.append([case, str(rrs.rs.type), key, slots,
                  Counter({o: len(f) for o, f in blocks}), False])
    read.update((str(rrs.rs.type), al, be) for al in slots for be in slots)
    return key, slots


def observed_images(a, b, witnesses, neg):
    out = real_images(a, b, witnesses, neg)
    images.append((case, str(rrs.rs.type), out))
    return out


def observed_check(rrs, cb, A, B, which):
    pairs[-1][-1] = True
    witnesses = real_check(rrs, cb, A, B, which)
    first_witnesses.update((str(rrs.rs.type), (al, be)) for al, be, _ in witnesses.values())
    return witnesses


relcalc._case_a_key, relcalc.check_N11_surjectivity, relcalc._images = (
    observed_key, observed_check, observed_images)
for spec in enumerate_foldings(3, series="ADE", trivial_only=True):
    rrs = build_relative_system(spec)
    case = "lemma2/a/%s" % spec
    relcalc.check_case_a(rrs, build_chevalley_basis(rrs.rs), classes)
relcalc._case_a_key, relcalc.check_N11_surjectivity, relcalc._images = (
    real_key, real_check, real_images)

citing = defaultdict(set)  # class -> case ids of the foldings with a pair of the class
citing_key = defaultdict(set)  # key -> the same
profiles = {}  # class -> block sizes by owner
# (case id, type, mapped witness, whether the pair's key is not the first
# of its class) of every pair not first of its class
mapped = []
# (case id, type, mapped witness) of every witness mapped to an image pair
image_witnesses = [(case, rtype, w) for case, rtype, out in images
                   for _, witnesses in out for w in witnesses]
for case, rtype, key, slots, profile, direct in pairs:
    cls = classes.keys[key][0]
    citing[cls].add(case)
    citing_key[key].add(case)
    profiles[cls] = profile
    if not direct:
        mapped.extend((case, rtype, (slots[p], slots[q]), key != cls)
                      for _, p, q, _ in classes.witnesses[cls])

def verify():
    code = main(["verify", "--suite", "lemma2", "--max-rank", "3", "--report", "REPORT"])
    with open("REPORT") as fh:
        cases = json.load(fh)["cases"]
    return code, {c["id"]: [c["status"], c["witness"]] for c in cases if "/a/" in c["id"]}
"""

# the last mapped witness that no first pair of a class found, at a pair whose
# key is not the first of its class, flips its sign once the key tables are built
PERTURBED_CONSTANT = FIRST_RUN + """
case, rtype, (al, be), _ = [m for m in mapped
                            if m[3] and (m[1], m[2]) not in first_witnesses][-1]
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

# the last witness mapped to an image pair whose bracket no key of its type
# reads has the sign of that bracket flipped in ``cb.brackets``
PERTURBED_IMAGE = FIRST_RUN + """
case, rtype, (gamma, al, be, c) = [m for m in image_witnesses
                                   if (m[1], m[2][1], m[2][2]) not in read][-1]
real = ChevalleyBasis.__dict__["brackets"]


def flipped(cb):
    table = real.__get__(cb, ChevalleyBasis)
    if str(cb.rs.type) != rtype:
        return table
    return {**table, al: {**table[al], be: (gamma, -c)}}


# a property outranks the value the cached_property stored on the basis
ChevalleyBasis.brackets = property(flipped)
code, cases = verify()
citing = sorted({m[0] for m in image_witnesses if (m[1], m[2][1], m[2][2]) == (rtype, al, be)})
print(json.dumps({"code": code, "case": case, "citing": citing, "cases": cases}))
"""

# the witnesses mapped to the last image pair of the run lose their last entry
DROPPED_IMAGE = FIRST_RUN + """
case, calls = images[-1][0], []


def dropped(a, b, witnesses, neg):
    out = real_images(a, b, witnesses, neg)
    calls.append((a, b))
    if len(calls) == len(images):
        out[-1][1].pop()
    return out


relcalc._images = dropped
code, cases = verify()
print(json.dumps({"code": code, "case": case, "cases": cases}))
"""

# the class cited by the most foldings: the recomposition of every table
# with its block sizes has one coefficient doubled
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

# the last key that is not the first of its class gets its gauge with the
# sign of one position of a bracket inside S flipped
PERTURBED_GAUGE = FIRST_RUN + """
key = [k for k, (cls, _) in classes.keys.items() if k != cls][-1]
real = relcalc._gauge_class


def flipped(classes, k):
    cls, gauge = real(classes, k)
    if k == key:
        _, n, quads = relcalc._key_brackets(k)
        gauge ^= 1 << next(p for p, _, r, _ in quads if r < n)
    return cls, gauge


relcalc._gauge_class = flipped
code, cases = verify()
print(json.dumps({"code": code, "citing": sorted(citing_key[key]), "cases": cases}))
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


def test_perturbed_bracket_fails_the_image_witness_under_optimized_mode(tmp_path):
    out = _run_optimized(PERTURBED_IMAGE, tmp_path)
    assert out["code"] == 1
    failed = {cid: witness for cid, (status, witness) in out["cases"].items()
              if status == "fail"}
    # no key reads the bracket, so only the foldings that map a witness to it fail
    assert out["case"] in failed
    assert sorted(failed) == out["citing"]
    assert all(w.startswith("mapped witness ") for w in failed.values())
    assert len(failed) < len(out["cases"])


def test_dropped_image_witness_fails_the_coverage_under_optimized_mode(tmp_path):
    out = _run_optimized(DROPPED_IMAGE, tmp_path)
    assert out["code"] == 1
    failed = {cid: witness for cid, (status, witness) in out["cases"].items()
              if status == "fail"}
    assert list(failed) == [out["case"]]
    assert failed[out["case"]].startswith("mapped witnesses do not cover the fiber of ")
    assert len(failed) < len(out["cases"])


def test_perturbed_recomposition_fails_every_citing_case_under_optimized_mode(tmp_path):
    out = _run_optimized(PERTURBED_RECOMPOSITION, tmp_path)
    assert out["code"] == 1
    assert len(out["citing"]) > 1
    for cid in out["citing"]:
        assert out["cases"][cid] == ["fail", "recomposed product differs from the commutator"]
    assert any(status == "pass" for status, _ in out["cases"].values())


def test_flipped_gauge_fails_the_class_brackets_under_optimized_mode(tmp_path):
    out = _run_optimized(PERTURBED_GAUGE, tmp_path)
    assert out["code"] == 1
    failed = {cid: witness for cid, (status, witness) in out["cases"].items()
              if status == "fail"}
    # the key is never kept, so every folding with a pair of it fails
    assert sorted(failed) == out["citing"]
    assert all(w.startswith("gauge fails on ") for w in failed.values())
    assert len(failed) < len(out["cases"])
