"""End-to-end acceptance gate.

Each test here re-derives one headline property with its own oracle and a
stated runtime budget:

1. structure-constant bound {+-1, +-2, +-3} over all types of rank <= 8;
2. exact recomposition of the relative commutator formula for every
   trivial-folding pair up to rank 5;
3. the full B+C decomposition catalog up to rank 6 with zero failures;
4. the unit-coefficient surjectivity cases on their stated foldings and
   the +-2 counterexample pair sitting outside all of them;
5. the spanning argument for the half-split C_l folding at l = 4, 6;
6. every explicit C2/G2/F4/B_l/C_l identity at its threshold range;
7. the finite-group orders and derived indices at the F2 boundary;
8. byte-identical reports across repeated full suite runs at a fixed seed.
"""

import hashlib
import itertools
import json
import time
from fractions import Fraction
from operator import add

from lie_oracles import commutator_constants_fast

from relroots.chevalley import build_chevalley_basis
from relroots.cli import main
from relroots.folding import (
    FoldingSpec,
    build_relative_system,
    parse_folding_spec,
    trivial_gamma,
)
from relroots.finitelab import derived_subgroup_index, generate_elementary_group
from relroots.relcalc import (
    RelativeRoot,
    applicable_surjectivity_cases,
    check_N11_surjectivity,
    check_spanning_lemma3,
    compute_relative_commutator_maps,
)
from relroots.rootcore import SERIES, InvalidRootType, RootType, build_root_system
from relroots.rootcore import collinear as _collinear
from relroots.theoremlab import (
    verify_C2_identities,
    verify_G2_identities,
    verify_case_schemas,
    verify_lemma1_catalog,
)


def _types(max_rank, series=SERIES):
    for s in series:
        for l in range(1, max_rank + 1):
            try:
                yield RootType(s, l)
            except InvalidRootType:
                continue


def _trivial_foldings(t):
    for r in range(1, t.rank + 1):
        for J in itertools.combinations(range(t.rank), r):
            yield FoldingSpec(t, trivial_gamma(t), tuple(J))


def test_1_structure_constant_bound_rank_8():
    t0 = time.time()
    first_with_2 = None
    types_with_3 = set()
    for t in _types(8):
        rs = build_root_system(t)
        cb = build_chevalley_basis(rs)
        vals = set()
        for a, b in itertools.combinations(rs.roots, 2):
            if all(x == -y for x, y in zip(a, b)):
                continue
            table = commutator_constants_fast(cb, a, b)
            vals.update(abs(c) for c in table.values())
        assert vals <= {1, 2, 3}, (t, vals)
        if 2 in vals and first_with_2 is None:
            first_with_2 = (t.series, t.rank)
        if 3 in vals:
            types_with_3.add((t.series, t.rank))
    # |C| = 2 first appears in the rank-2 doubly laced system B2 = C2
    assert first_with_2 == ("B", 2)
    assert types_with_3 == {("G", 2)}
    assert time.time() - t0 < 60


def test_2_commutator_formula_exact_rank_5():
    # compute_relative_commutator_maps recomposes the N-map factors and
    # compares against the commutator matrix entry-by-entry; building every
    # table without error is the assertion
    t0 = time.time()
    pairs = 0
    for t in _types(5):
        rs = build_root_system(t)
        cb = build_chevalley_basis(rs)
        for spec in _trivial_foldings(t):
            rrs = build_relative_system(spec)
            for a, b in itertools.product(rrs.fibers, repeat=2):
                if _collinear(a, b):
                    continue
                compute_relative_commutator_maps(rrs, cb, RelativeRoot(a), RelativeRoot(b))
                pairs += 1
    assert pairs > 20000
    assert time.time() - t0 < 600


def test_3_decomposition_catalog_rank_6():
    cases = verify_lemma1_catalog(6)
    assert not [c for c in cases if c.status == "fail"]
    assert [c for c in cases if c.status == "pass"]


def test_4_surjectivity_cases():
    # case (a) on every simply laced trivial folding of rank <= 5
    for t in _types(5, series="AD"):
        rs = build_root_system(t)
        cb = build_chevalley_basis(rs)
        for spec in _trivial_foldings(t):
            rrs = build_relative_system(spec)
            for a, b in itertools.product(rrs.fibers, repeat=2):
                if tuple(map(add, a, b)) not in rrs or _collinear(a, b):
                    continue
                witnesses = check_N11_surjectivity(rrs, cb, RelativeRoot(a), RelativeRoot(b),
                                                   "a")
                assert set(witnesses) == set(rrs.fiber(tuple(map(add, a, b)))), (spec, a, b)

    # case (d) on the B_l half-spin foldings
    for l in (3, 4):
        rrs = build_relative_system(parse_folding_spec("B%d levi=1,2" % l))
        cb = build_chevalley_basis(rrs.rs)
        witnesses = check_N11_surjectivity(rrs, cb, RelativeRoot((1, 0)),
                                           RelativeRoot((0, 1)), "d")
        assert set(witnesses) == set(rrs.fiber((1, 1)))

    # case (c) on the BC2 folding of C3
    rrs = build_relative_system(parse_folding_spec("C3 levi=1,2"))
    cb = build_chevalley_basis(rrs.rs)
    witnesses = check_N11_surjectivity(rrs, cb, RelativeRoot((1, 0)),
                                       RelativeRoot((0, 1)), "c")
    assert set(witnesses) == set(rrs.fiber((1, 1)))

    # the split C2 pair with constant +-2 is outside every case
    rrs = build_relative_system(parse_folding_spec("C2"))
    cb = build_chevalley_basis(rrs.rs)
    assert applicable_surjectivity_cases(
        rrs, cb, RelativeRoot((1, 0)), RelativeRoot((1, 1))) == []


def test_5_spanning_l4_l6():
    for l in (4, 6):
        rrs = build_relative_system(parse_folding_spec("C%d levi=%d,%d" % (l, l // 2, l)))
        fields = check_spanning_lemma3(rrs, build_chevalley_basis(rrs.rs))
        assert set(fields) == {"Q", "F2", "F3", "F5"}
        assert all(v == "full" for v in fields.values())


def test_6_explicit_identities():
    for k in (5, 6, 7):
        for eps in (None, Fraction(2)):
            cases = verify_C2_identities(k, eps_binding=eps)
            assert [c.status for c in cases] == ["pass", "pass"], (k, eps)
    for k in (2, 3, 4):
        long_case, _ = verify_G2_identities(k_long=k)
        assert long_case.status == "pass"
    for k in (3, 4, 5):
        _, short_case = verify_G2_identities(k_short=k)
        assert short_case.status == "pass"
    f4 = verify_case_schemas("F4_long")
    assert len(f4) == 24 and all(c.status == "pass" for c in f4)
    for c in verify_case_schemas("Cl_BC2", l=3, k=4):
        assert c.status == "pass"
    for c in verify_case_schemas("Cl_C2", l=4, k=3):
        assert c.status == "pass"


def test_7_finite_boundary():
    t0 = time.time()
    expected = {
        ("A2", 2): (168, 1),
        ("C2", 2): (720, 2),
        ("G2", 2): (12096, 2),
        ("C2", 3): (25920, 1),
    }
    for (name, p), (order, index) in expected.items():
        g = generate_elementary_group(RootType.parse(name), p)
        assert g.order == order, (name, p)
        assert derived_subgroup_index(g) == index, (name, p)
    assert time.time() - t0 < 300


def test_8_deterministic_reports(tmp_path, capsys):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        code = main(["verify", "--suite", "all", "--seed", "0",
                     "--report", str(path)])
        assert code == 0
    capsys.readouterr()
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert hashlib.sha1(first).hexdigest() == "3e0cc3dbcf5c77e9e83e6468d98b3234f0c70149"
    report = json.loads(first)
    assert report["summary"]["fail"] == 0
