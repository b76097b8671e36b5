import os
import subprocess
import sys
from operator import add, sub

import pytest

import relroots
import relroots.folding as folding
from relroots.folding import (
    DecompositionError,
    FoldingError,
    FoldingSpec,
    all_subgroups,
    build_relative_system,
    check_lemma1_decomposition,
    classify_relative_type,
    decompose_relative_roots,
    enumerate_diagram_automorphisms,
    enumerate_foldings,
    parse_folding_spec,
    trivial_gamma,
)
from relroots.rootcore import (
    SERIES,
    InvalidRootType,
    RootSystem,
    RootType,
    VerificationError,
    build_root_system,
    collinear,
    require,
)
from relroots.theoremlab import verify_lemma1_catalog

from lie_oracles import diagram_automorphisms


def fold(text):
    return build_relative_system(parse_folding_spec(text))


def splits_of(rrs):
    """{a: (b, c)} over the one pass of ``decompose_relative_roots``."""
    return {a: (b, c) for a, b, c in decompose_relative_roots(rrs)}


def neg(a):
    return tuple(-x for x in a)


def project_coords(rrs, coords):
    """Oracle: the relative coordinates of one root, as sums over the orbits."""
    return tuple(sum(coords[j] for j in orbit) for orbit in rrs.orbits)


def test_automorphism_groups():
    assert len(enumerate_diagram_automorphisms(RootType.parse("A1"))) == 1
    assert len(enumerate_diagram_automorphisms(RootType.parse("A3"))) == 2
    assert len(enumerate_diagram_automorphisms(RootType.parse("D4"))) == 6
    assert len(enumerate_diagram_automorphisms(RootType.parse("C2"))) == 1
    assert len(enumerate_diagram_automorphisms(RootType.parse("E6"))) == 2
    assert len(enumerate_diagram_automorphisms(RootType.parse("F4"))) == 1


def test_automorphisms_match_every_permutation_up_to_rank_8():
    # the backtracking search against trying all l! permutations: the same
    # tuple, in the same order
    types = []
    for series in SERIES:
        for rank in range(1, 9):
            try:
                types.append(RootType(series, rank))
            except InvalidRootType:
                pass
    assert len(types) == 33
    for t in types:
        perms = tuple(a.perm for a in enumerate_diagram_automorphisms(t))
        assert perms == diagram_automorphisms(build_root_system(t).cartan), t


def test_subgroup_enumeration():
    # S3 for D4: subgroups of orders 1, 2 (x3), 3, 6
    sizes = sorted(len(g) for g in all_subgroups(RootType.parse("D4")))
    assert sizes == [1, 2, 2, 2, 3, 6]
    assert [len(g) for g in all_subgroups(RootType.parse("A3"))] == [1, 2]


def test_folding_spec_validation():
    t = RootType.parse("A3")
    identity = tuple(range(t.rank))
    flip = [a for a in enumerate_diagram_automorphisms(t) if a.perm != identity]
    gamma = trivial_gamma(t) + tuple(flip)
    with pytest.raises(FoldingError):
        FoldingSpec(t, gamma, (0,)).validate()  # not flip-invariant
    FoldingSpec(t, gamma, (0, 1, 2)).validate()
    with pytest.raises(FoldingError):
        parse_folding_spec("C2 gamma=flip")
    with pytest.raises(FoldingError):
        parse_folding_spec("A3 levi=5")


def test_parse_round_trip():
    spec = parse_folding_spec("C4 levi=2,4")
    assert str(spec) == "C4 gamma=trivial levi=2,4"
    spec2 = parse_folding_spec("D4 gamma=triality")
    assert len(spec2.gamma) == 6
    spec3 = parse_folding_spec("A3 gamma=perm:3,2,1")
    assert len(spec3.gamma) == 2


def test_every_unambiguous_spec_string_round_trips():
    # a gamma name is the subgroup of its order that leaves J invariant; the
    # three order-2 subgroups of D4 all leave these three J invariant
    specs = enumerate_foldings(8)
    ambiguous = {"D4 gamma=flip levi=%s" % j for j in ("2", "1,3,4", "1,2,3,4")}
    back, refused = 0, []
    for spec in specs:
        try:
            back += parse_folding_spec(str(spec)) == spec
        except FoldingError as exc:
            refused.append((str(spec), str(exc)))
    assert (len(specs), back, len(refused)) == (2797, 2788, 9)
    assert {text for text, _ in refused} == ambiguous
    assert {message for _, message in refused} == {
        "gamma=flip names 3 subgroups of D4 leaving J invariant: "
        "perm:1,2,4,3, perm:3,2,1,4, perm:4,2,3,1"}


@pytest.mark.parametrize("text,perms", [
    ("D4 gamma=flip levi=1", {(0, 1, 3, 2)}),
    ("D4 gamma=flip levi=3,4", {(0, 1, 3, 2)}),
    ("D4 gamma=order3 levi=2", {(0, 1, 2, 3), (2, 1, 3, 0), (3, 1, 0, 2)}),
    ("A5 gamma=order2 levi=3", {(4, 3, 2, 1, 0)}),
])
def test_gamma_names_pick_the_subgroup_that_fits(text, perms):
    spec = parse_folding_spec(text)
    assert {a.perm for a in spec.gamma} == perms | {tuple(range(spec.root_type.rank))}
    assert parse_folding_spec(str(spec)) == spec


@pytest.mark.parametrize("text,message", [
    ("A1 gamma=flip", "A1 has no flip automorphism group"),
    ("A3 gamma=order3", "A3 has no order3 automorphism group"),
    ("D4 gamma=orderx", "bad gamma 'orderx'"),
    ("A3 gamma=flip levi=1", "levi subset is not gamma-invariant"),
    ("D4 gamma=triality levi=1", "levi subset is not gamma-invariant"),
    ("D4 gamma=flip levi=9", "levi nodes out of range"),
])
def test_gamma_names_keep_their_messages(text, message):
    with pytest.raises(FoldingError) as info:
        parse_folding_spec(text)
    assert str(info.value) == message


def test_a3_flip_gives_c2():
    rrs = fold("A3 gamma=flip")
    assert rrs.rank == 2
    assert rrs.orbits == ((0, 2), (1,))
    assert len(rrs.fibers) == 8
    assert classify_relative_type(rrs) == ("C", 2)
    # the two outer simple roots land on the same relative root
    assert len(rrs.fiber((1, 0))) == 2


def test_c4_levi_gives_c2():
    rrs = fold("C4 levi=2,4")
    assert classify_relative_type(rrs) == ("C", 2)


def test_b3_levi_gives_b2():
    rrs = fold("B3 levi=1,2")
    assert classify_relative_type(rrs) == ("B", 2)


def test_c3_levi_gives_bc2():
    rrs = fold("C3 levi=1,2")
    assert classify_relative_type(rrs) == ("BC", 2)
    # non-reduced: some relative root has its double in the system
    assert any(tuple(2 * x for x in a) in rrs for a in rrs.fibers)


def test_d4_triality_gives_g2():
    rrs = fold("D4 gamma=triality")
    assert classify_relative_type(rrs) == ("G", 2)
    assert sorted(sum(a) for a in rrs.fibers if sum(a) > 0) == [1, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("text, expected", [("C8", ("C", 8)), ("D3", ("A", 3))])
def test_trivial_folding_keeps_its_type(text, expected):
    # C8 is not B8 under any order of coordinates; D3 is A3, named A
    assert classify_relative_type(fold(text)) == expected


def test_rank_one_classification():
    assert classify_relative_type(fold("A2 levi=1")) == ("A", 1)
    assert classify_relative_type(fold("C2 levi=1")) == ("BC", 1)


def test_rank_one_sets_match_a_type_or_are_refused():
    # rank 1 matches A1 = {+-1} and BC1 = {+-1, +-2} as every rank matches its
    # types; a set reaching +-3 or beyond is no root system
    labels, refused = {}, {}
    for spec in enumerate_foldings(8):
        rrs = build_relative_system(spec)
        if rrs.rank == 1:
            reach = max(c for (c,) in rrs.fibers)
            try:
                label = classify_relative_type(rrs)
            except FoldingError as exc:
                assert "matches no root-system type" in str(exc)
                refused[str(spec)] = reach
                continue
            assert reach == {("A", 1): 1, ("BC", 1): 2}[label]
            labels[label] = labels.get(label, 0) + 1
    assert labels == {("A", 1): 82, ("BC", 1): 127}
    assert len(refused) == 17 and min(refused.values()) == 3
    assert {text: refused[text] for text in (
        "G2 gamma=trivial levi=1", "D4 gamma=triality levi=1,3,4",
        "F4 gamma=trivial levi=2", "E8 gamma=trivial levi=4")} == {
        "G2 gamma=trivial levi=1": 3, "D4 gamma=triality levi=1,3,4": 3,
        "F4 gamma=trivial levi=2": 3, "E8 gamma=trivial levi=4": 6}


def test_projection_is_gamma_invariant():
    for text in ["A3 gamma=flip", "D4 gamma=triality", "A5 gamma=flip levi=1,3,5"]:
        rrs = fold(text)
        rs = rrs.rs
        for a in rrs.spec.gamma:
            inv = {a(i): i for i in range(rs.rank)}
            for r in rs.roots:
                moved = tuple(r[inv[i]] for i in range(rs.rank))
                assert moved in rs
                assert project_coords(rrs, moved) == project_coords(rrs, r)
                assert rrs.project(moved) == rrs.project(r)


def test_gathered_fibers_match_the_projection():
    # the fibers and ``project``, both built by projecting every root at
    # once, against the orbit sums of each root on its own, for every Gamma
    # up to rank 6
    for spec in enumerate_foldings(6):
        rrs = build_relative_system(spec)
        want = {}
        for r in rrs.rs.roots:
            c = project_coords(rrs, r)
            if any(c):
                want.setdefault(c, []).append(r)
            assert rrs.project(r) == (c if any(c) else None), (spec, r)
        assert rrs.fibers == {c: tuple(f) for c, f in want.items()}, spec
        assert list(rrs.fibers) == list(want), spec
        for j, k in enumerate(rrs.orbit_index):
            assert (j in rrs.orbits[k]) if k < rrs.rank else j not in rrs.spec.levi


def test_sign_and_level_coherence():
    for text in ["A3 gamma=flip", "C3 levi=1,2", "D4 gamma=triality"]:
        rrs = fold(text)
        for a in rrs.fibers:
            root_signs = {sum(r) > 0 for r in rrs.fiber(a)}
            assert root_signs == {sum(a) > 0}
        assert {neg(a) for a in rrs.fibers} == set(rrs.fibers)


def test_decompose_c2_split_example():
    rrs = fold("C2")
    b, c = splits_of(rrs)[2, 1]
    assert b == (1, 1)
    assert c == (1, 0)


def test_decompose_d4_triality_simple():
    rrs = fold("D4 gamma=triality")
    b, c = splits_of(rrs)[1, 0]
    assert b == (1, 1)
    assert c == (0, -1)
    # the summands sit at levels 2 and -1; later multiples only go higher
    check_lemma1_decomposition(rrs, (1, 0), b, c)


def test_decompose_a3_flip_long_root():
    rrs = fold("A3 gamma=flip")
    a = (2, 1)
    b, c = splits_of(rrs)[a]
    assert {b, c} == {(1, 1), (1, 0)}
    check_lemma1_decomposition(rrs, a, b, c)


def test_decompose_negative_mirrors_positive():
    rrs = fold("C2")
    a = (2, 1)
    splits = splits_of(rrs)
    b, c = splits[a]
    bn, cn = splits[neg(a)]
    assert (bn, cn) == (neg(b), neg(c))


def test_decompose_rejects_rank_one():
    rrs = fold("A2 levi=1")
    with pytest.raises(DecompositionError):
        decompose_relative_roots(rrs)


FOLDS_FOR_SWEEP = [
    "A2", "A3", "B3", "C3", "C4", "D4", "G2", "F4",
    "A3 gamma=flip", "A4 gamma=flip", "A5 gamma=flip",
    "D4 gamma=triality", "D4 gamma=perm:1,2,4,3",
    "E6 gamma=flip",
    "C4 levi=2,4", "B3 levi=1,2", "C3 levi=1,2", "B4 levi=2,4",
    "F4 levi=1,2", "D5 levi=1,2,3", "C5 levi=2,4", "D6 levi=2,4,6",
    "A5 gamma=flip levi=1,3,5", "E6 gamma=flip levi=2,4",
]


def test_inadmissible_foldings_are_rejected():
    # these projections are not reflection-closed, hence match no type
    for text in ["B4 levi=1,3", "F4 levi=3,4"]:
        with pytest.raises(FoldingError):
            classify_relative_type(fold(text))


@pytest.mark.parametrize("text", FOLDS_FOR_SWEEP)
def test_decompose_every_relative_root(text):
    rrs = fold(text)
    if rrs.rank < 2:
        pytest.skip("rank-1 relative system")
    split = decompose_relative_roots(rrs)
    assert [a for a, _, _ in split] == sorted(rrs.fibers)
    for a, b, c in split:
        assert check_lemma1_decomposition(rrs, a, b, c)


def exhaustive_splits(rrs, a):
    """Every b + (a - b) that passes the checker, in b order.

    Written apart from the recipe in ``decompose_relative_roots``, so it is
    the oracle for it.
    """
    out = []
    for b in sorted(rrs.fibers):
        c = tuple(map(sub, a, b))
        if c in rrs:
            try:
                check_lemma1_decomposition(rrs, a, b, c)
            except VerificationError:
                continue
            out.append((b, c))
    return out


@pytest.mark.parametrize("text", ["C2", "G2", "B3 levi=1,2", "C3 levi=1,2",
                                  "A3 gamma=flip", "D4 gamma=triality"])
def test_recipe_split_is_among_oracle_splits(text):
    rrs = fold(text)
    for a, b, c in decompose_relative_roots(rrs):
        assert (b, c) in exhaustive_splits(rrs, a)


def oracle_lowerings(rs, gamma):
    """(i, gamma - alpha_i) over every node i with gamma - alpha_i a root,
    in increasing i: the lowerings of gamma by brute force."""
    lowered = ((i, tuple(g - s for g, s in zip(gamma, simple)))
               for i, simple in enumerate(rs.simple_roots))
    return [(i, r) for i, r in lowered if r in rs]


def oracle_diagram_path(rs, start, targets):
    """A shortest node path from ``start`` to a node of ``targets``, by a
    breadth-first search from ``start``."""
    prev, frontier = {start: None}, [start]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            if v in targets:
                path = []
                while v is not None:
                    path.append(v)
                    v = prev[v]
                return path[::-1]
            for w, c in enumerate(rs.cartan[v]):
                if c and w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("no path from %d" % start)


def oracle_recipe(rrs, a):
    """The Lemma 1 recipe with a diagram search from each candidate J-node
    and a lowering chain that steps down by nodes outside J first.

    Written apart from ``folding._decompose_positive``, which reads one
    search from the support and the first lowering of the least root of
    the fiber, so it is the oracle for it.
    """
    rs = rrs.rs
    support = [k for k, x in enumerate(a) if x]
    alpha = rrs.fiber(a)[0]
    if len(support) == 1:
        orbit = rrs.orbits[support[0]]
        targets = {i for i, x in enumerate(alpha) if x}
        paths = {s: oracle_diagram_path(rs, s, targets)
                 for s in rrs.spec.levi if s not in orbit}
        s = min(paths, key=lambda v: (len(paths[v]), v))
        beta_nodes = paths[s][:-1] or [s]
        beta = tuple(int(i in beta_nodes) for i in range(rs.rank))
        return rrs.project(tuple(map(add, alpha, beta))), rrs.project(neg(beta))
    gamma = alpha
    while True:
        steps = oracle_lowerings(rs, gamma)
        i, rest = next((step for step in steps if step[0] not in rrs.spec.levi), steps[0])
        if i in rrs.spec.levi:
            return rrs.project(rest), rrs.project(rs.simple_roots[i])
        gamma = rest


def test_recipe_agrees_with_the_per_node_search_and_lowering_chain():
    # every positive relative root of every folding of rank <= 8, each Gamma
    count = 0
    for spec in enumerate_foldings(8):
        rrs = build_relative_system(spec)
        if rrs.rank >= 2:
            for a in rrs.fibers:
                if sum(a) > 0:
                    assert folding._decompose_positive(rrs, a) == oracle_recipe(rrs, a), (
                        str(spec), a)
                    count += 1
    assert count == 43136


def test_broken_recipe_is_a_fail_row(monkeypatch):
    # a recipe gap for (1,1) of C2 must fail that case, naming the root,
    # although the oracle finds a valid split there
    recipe = folding._decompose_positive
    bad = ((2, 1), (-1, 0))  # 1*B+2*C = (0,1)

    def broken(rrs, p):
        if str(rrs.spec) == "C2 gamma=trivial levi=1,2" and p == (1, 1):
            return bad
        return recipe(rrs, p)

    assert exhaustive_splits(fold("C2"), (1, 1))
    monkeypatch.setattr(folding, "_decompose_positive", broken)
    cases = {c.id: c for c in verify_lemma1_catalog(2)}
    broken_case = cases.pop("lemma1/C2 gamma=trivial levi=1,2")
    assert broken_case.status == "fail"
    assert broken_case.witness == ("no valid decomposition found for (-1,-1): "
                                   "1*B+2*C does not increase the level")
    assert {c.status for c in cases.values()} == {"pass", "skipped"}


def test_recipe_runs_once_per_pair_and_checker_once_per_input(monkeypatch):
    # the recipe reads the diagram, so it runs per folding; the checker reads
    # only the coordinate set, so it runs once per distinct (set, a, b, c)
    inputs = {(frozenset(rrs.fibers), *split)
              for spec in enumerate_foldings(6)
              for rrs in [build_relative_system(spec)] if rrs.rank >= 2
              for split in decompose_relative_roots(rrs)}
    recipe, check = folding._decompose_positive, folding.check_lemma1_decomposition
    decomposed, checked = [], []

    def counted_recipe(rrs, p):
        decomposed.append((str(rrs.spec), p))
        return recipe(rrs, p)

    def counted_check(rrs, a, b, c):
        checked.append((frozenset(rrs.fibers), a, b, c))
        return check(rrs, a, b, c)

    monkeypatch.setattr(folding, "_decompose_positive", counted_recipe)
    monkeypatch.setattr(folding, "check_lemma1_decomposition", counted_check)
    cases = verify_lemma1_catalog(6)
    assert {c.status for c in cases} == {"pass", "skipped"}
    roots = [(str(spec), a) for spec in enumerate_foldings(6)
             for rrs in [build_relative_system(spec)] if rrs.rank >= 2
             for a in rrs.fibers]
    assert sorted(decomposed) == sorted(r for r in roots if sum(r[1]) > 0)
    assert len(checked) == len(set(checked)) == 3950
    assert set(checked) == inputs
    assert len(roots) == 10416


SHARED_VERDICT = """
import sys

import relroots.folding as folding
from relroots.rootcore import require, root_str
from relroots.theoremlab import verify_lemma1_catalog

# 0: the first input cited twice; -1 or 1: the first cited twice whose
# root has that sign and is not the least root of its coordinate set
sign = int(sys.argv[1])

cited = {}  # (coordinate set, a, b, c) -> the cases whose split it is
for spec in folding.enumerate_foldings(4):
    rrs = folding.build_relative_system(spec)
    if rrs.rank >= 2:
        for split in folding.decompose_relative_roots(rrs):
            key = (frozenset(rrs.fibers), *split)
            cited.setdefault(key, []).append("lemma1/%s" % spec)
bad = next(key for key, ids in cited.items() if len(ids) >= 2 and (
    not sign or sum(key[1]) * sign > 0 and key[1] != min(key[0])))
mirror = (bad[0], *(tuple(-x for x in r) for r in bad[1:]))
check, calls = folding.check_lemma1_decomposition, []

def faulty(rrs, a, b, c):
    key = (frozenset(rrs.fibers), a, b, c)
    calls.append(key)
    require(key != bad, "injected fault on %s", a)
    return check(rrs, a, b, c)

folding.check_lemma1_decomposition = faulty
cases = verify_lemma1_catalog(4)
a = root_str(bad[1])
print("citing", *cited[bad], sep="|")
print("message", "no valid decomposition found for %s: injected fault on %s" % (a, a), sep="|")
print("calls", calls.count(bad), len(calls), len(set(calls)), len(cited), sep="|")
print("mirror", calls.count(mirror), sep="|")
for case in cases:
    print("case", case.id, case.status, case.witness if case.status == "fail" else "", sep="|")
"""


def faulty_verdict_run(sign):
    """The fail rows of ``SHARED_VERDICT`` run under ``python -O`` with one
    input of the given sign (0: either) failing the checker, and the
    script's counts."""
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", SHARED_VERDICT, str(sign)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("|") for line in proc.stdout.splitlines()]
    info = {row[0]: row[1:] for row in rows if row[0] != "case"}
    cases = {row[1]: row[2:] for row in rows if row[0] == "case"}
    citing, (message,) = info["citing"], info["message"]
    assert len(citing) >= 2
    bad_calls, calls, distinct, inputs = map(int, info["calls"])
    # no input is checked twice; the cases that fail stop at the failed root
    assert bad_calls == 1 and calls == distinct <= inputs
    assert {cid: w for cid, (status, w) in cases.items() if status == "fail"} == dict.fromkeys(
        citing, message)
    assert {status for cid, (status, _) in cases.items() if cid not in citing} == {
        "pass", "skipped"}
    return message, int(info["mirror"][0])


def test_failed_verdict_fails_every_case_that_cites_it():
    # under -O, one failed input that several foldings share is checked once,
    # and every case whose split it is becomes a fail row with its message
    faulty_verdict_run(0)


@pytest.mark.parametrize("sign", [-1, 1])
def test_verdict_of_one_sign_fails_only_its_cases(sign):
    # under -O, the checker fails one input of the pass, the split of a
    # negative root or of a positive one, and not its negation: exactly the
    # cases that cite it fail, each naming that root.  A negative root sorts
    # first, so its cases stop before they reach the mirror input; a positive
    # fault leaves the negative mirror checked, and passed, on its own
    message, mirror_calls = faulty_verdict_run(sign)
    root = message.split(": ")[0].rsplit(" ", 1)[1]
    assert ("-" in root) == (sign < 0)
    assert mirror_calls == (0 if sign < 0 else 1)


@pytest.mark.parametrize("text", FOLDS_FOR_SWEEP)
def test_classification_always_succeeds(text):
    rrs = fold(text)
    label, rank = classify_relative_type(rrs)
    assert rank == rrs.rank
    assert label in ("A", "B", "C", "BC", "D", "E", "F", "G")


def scan_clauses(rrs, a, b, c, max_mult=8):
    """The clause check as an 8x8 scan of the multiples i*b + j*c.

    Written apart from the per-root solve in ``check_lemma1_decomposition``,
    so it is the oracle for it on the multiples it reaches.
    """
    require(b in rrs and c in rrs, "B, C must be relative roots")
    require(tuple(map(add, b, c)) == a, "B + C is not A")
    require(not collinear(b, c), "B and C are collinear")
    sign = 1 if sum(a) > 0 else -1
    level = abs(sum(a))
    for i in range(1, max_mult + 1):
        for j in range(1, max_mult + 1):
            if (i, j) == (1, 1):
                continue
            d = tuple(i * y + j * z for y, z in zip(b, c))
            if d in rrs:
                require((1 if sum(d) > 0 else -1) == sign,
                        "%d*B+%d*C has the wrong sign", i, j)
                require(abs(sum(d)) > level,
                        "%d*B+%d*C does not increase the level", i, j)
    return True


def clause_verdict(check, rrs, a, b, c):
    try:
        return check(rrs, a, b, c)
    except VerificationError as exc:
        return str(exc)


@pytest.mark.parametrize("text", ["C2", "G2", "B3 levi=1,2", "C3 levi=1,2",
                                  "A3 gamma=flip", "D4 gamma=triality",
                                  "F4 levi=1,4", "B3", "F4"])
def test_checker_agrees_with_scan_on_every_split(text):
    # relative rank 3 and 4 (B3, F4) reach coordinates outside the 2x2 minor
    rrs = fold(text)
    roots = sorted(rrs.fibers)
    verdicts = set()
    for a in roots:
        for b in roots:
            c = tuple(map(sub, a, b))
            if c in rrs:
                want = clause_verdict(scan_clauses, rrs, a, b, c)
                assert clause_verdict(check_lemma1_decomposition, rrs, a, b, c) == want
                verdicts.add(want is True)
    # the sweep covers passing and failing splits alike
    assert verdicts == {True, False}


def test_checker_rejects_bad_split():
    rrs = fold("C2")
    # (1,0) + (1,1) = (2,1) is valid, but (1,1)+(1,0) with collinear pair:
    with pytest.raises(AssertionError):
        check_lemma1_decomposition(fold("C3 levi=1,2"), (2, 2), (1, 1), (1, 1))
    # wrong sum
    with pytest.raises(AssertionError):
        check_lemma1_decomposition(rrs, (2, 1), (1, 1), (0, 1))


def test_checker_rejects_summands_outside_the_fibers():
    rrs = fold("C2")
    # (3,1) is no relative root, although (3,1) + (-1,0) = (2,1) and (-1,0) is
    with pytest.raises(VerificationError, match="B, C must be relative roots"):
        check_lemma1_decomposition(rrs, (2, 1), (3, 1), (-1, 0))
    with pytest.raises(VerificationError, match="B, C must be relative roots"):
        check_lemma1_decomposition(rrs, (2, 1), (-1, 0), (3, 1))


# a diagram path forced on the single-support branch of the recipe, and the
# check that it trips: nodes 2 and 4 of A4 are not joined, so their chain sum
# is no root; node 3 of A3, a root on its own, does not add to alpha_1
FORCED_PATHS = [
    ("A4 levi=1,4", [3, 1, 0], "chain sum is not a root"),
    ("A3 levi=1,3", [2, 0], "alpha + beta is not a root"),
]


@pytest.mark.parametrize("text,path,message", FORCED_PATHS)
def test_recipe_chain_checks_fire(monkeypatch, text, path, message):
    rrs = fold(text)
    assert rrs.fiber((1, 0))[0] == (1,) + (0,) * (rrs.rs.rank - 1)
    monkeypatch.setattr(folding, "_nearest_path", lambda cartan, support, targets: path)
    with pytest.raises(DecompositionError) as exc:
        decompose_relative_roots(rrs)
    # the recipe runs at the negative root of the pair, which sorts first
    assert str(exc.value) == "no valid decomposition found for (-1,0): " + message


BAD_SPLIT = """
from relroots.folding import build_relative_system, check_lemma1_decomposition, \\
    parse_folding_spec
rrs = build_relative_system(parse_folding_spec("A3"))
check_lemma1_decomposition(rrs, (1, 1, 0), (1, 0, 0), (1, 0, 0))
"""


def test_checker_survives_optimized_mode():
    # B + C != A and B, C collinear: the check must fail even under -O
    with pytest.raises(VerificationError):
        exec(BAD_SPLIT, {})
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", BAD_SPLIT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "VerificationError: B + C is not A" in proc.stderr


MIXED_SIGN_ROOT = """
import relroots.folding as folding
from relroots.rootcore import RootSystem, RootType
spec = folding.parse_folding_spec("A2")
rs = RootSystem(RootType("A", 2))
rs.roots += ((1, -1),)  # a root list with a vector of mixed sign
folding.build_root_system = lambda t: rs
folding.RelativeRootSystem(spec)
"""


def test_mixed_sign_check_survives_optimized_mode(monkeypatch):
    spec = parse_folding_spec("A2")
    rs = RootSystem(RootType("A", 2))
    rs.roots += ((1, -1),)
    monkeypatch.setattr(folding, "build_root_system", lambda t: rs)
    with pytest.raises(VerificationError, match=r"mixed-sign relative root \(1,-1\)"):
        folding.RelativeRootSystem(spec)
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", MIXED_SIGN_ROOT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "VerificationError: mixed-sign relative root (1,-1)" in proc.stderr
