import itertools

import pytest

from relroots.chevalley import (
    adjoint_root_element,
    build_chevalley_basis,
    product_of_root_elements,
)
from relroots.folding import RelativeRoot, build_relative_system, parse_folding_spec
from relroots.polyring import VarRegistry
from relroots.relcalc import (
    CaseHypothesisError,
    RelcalcError,
    applicable_surjectivity_cases,
    check_N11_surjectivity,
    check_spanning_lemma2_2,
    check_spanning_lemma3,
    check_sum_formula,
    compute_relative_commutator_maps,
    cone_pairs,
    relative_factors,
)
from relroots.rootcore import collinear


def setup_fold(text):
    rrs = build_relative_system(parse_folding_spec(text))
    return rrs, build_chevalley_basis(rrs.rs)


@pytest.fixture(scope="module")
def c2():
    return setup_fold("C2")


@pytest.fixture(scope="module")
def c3_bc2():
    return setup_fold("C3 levi=1,2")


@pytest.fixture(scope="module")
def a3_levi():
    return setup_fold("A3 levi=1,3")


def test_embed_identity_folding_singleton(c2):
    rrs, cb = c2
    reg = VarRegistry(["t"])
    A = RelativeRoot((1, 0))
    (alpha,) = rrs.fiber(A)
    word = relative_factors(rrs, A, {alpha: reg.var("t")})
    assert product_of_root_elements(cb, reg, word) == adjoint_root_element(
        cb, alpha, reg.var("t"))


def test_embed_zero_is_identity(c3_bc2):
    rrs, cb = c3_bc2
    A = RelativeRoot((0, 1))
    reg = VarRegistry(["t"])
    word = relative_factors(rrs, A, {alpha: reg.zero() for alpha in rrs.fiber(A)})
    assert product_of_root_elements(cb, reg, word).is_identity()


def test_embed_multi_factor_fiber():
    rrs, cb = setup_fold("C4 levi=2,4")
    A = RelativeRoot((1, 0))
    fiber = rrs.fiber(A)
    assert len(fiber) > 1
    names = ["t%d" % k for k in range(len(fiber))]
    reg = VarRegistry(names)
    coords = {alpha: reg.var(n) for alpha, n in zip(fiber, names)}
    word = relative_factors(rrs, A, coords)
    assert [root for root, _ in word] == list(fiber)
    assert not product_of_root_elements(cb, reg, word).is_identity()


def test_embed_rejects_nontrivial_gamma():
    rrs = build_relative_system(parse_folding_spec("A3 gamma=flip"))
    cb = build_chevalley_basis(rrs.rs)
    with pytest.raises(RelcalcError):
        compute_relative_commutator_maps(rrs, cb, RelativeRoot((1, 0)),
                                         RelativeRoot((1, 1)))


def test_c2_split_table_matches_displayed_formula(c2):
    rrs, cb = c2
    A1, A2 = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    table = compute_relative_commutator_maps(rrs, cb, A1, A2)
    assert set(table.entries) == {(1, 1), (2, 1)}
    # singleton fibers: the maps are the monomials st and s^2 t up to sign
    (p11,) = table.entries[(1, 1)].values()
    (p21,) = table.entries[(2, 1)].values()
    ((e11, c11),) = p11.terms.items()
    ((e21, c21),) = p21.terms.items()
    assert e11 == (1, 1) and abs(c11) == 1
    assert e21 == (2, 1) and abs(c21) == 1


def test_empty_table_for_unlinked_pair():
    rrs, cb = setup_fold("D4")
    # the two outer simple roots are orthogonal: no iA+jB is a root
    A = RelativeRoot((1, 0, 0, 0))
    B = RelativeRoot((0, 0, 0, 1))
    assert A + B not in rrs
    table = compute_relative_commutator_maps(rrs, cb, A, B)
    assert table.entries == {}


def test_simply_laced_unit_constants(a3_levi):
    rrs, cb = a3_levi
    pairs = [(A, B) for A, B in itertools.product(rrs.rel_roots, repeat=2)
             if A + B in rrs and cone_pairs(rrs, A, B)
             and not collinear(A, B)]
    assert pairs
    for A, B in pairs:
        table = compute_relative_commutator_maps(rrs, cb, A, B)
        for al in rrs.fiber(A):
            for be in rrs.fiber(B):
                c = table.bilinear_constant(al, be)
                assert c in (-1, 0, 1)


def test_rejects_collinear_pair(c3_bc2):
    rrs, cb = c3_bc2
    A = RelativeRoot((0, 1))
    with pytest.raises(RelcalcError):
        compute_relative_commutator_maps(rrs, cb, A, A)
    with pytest.raises(RelcalcError):
        compute_relative_commutator_maps(rrs, cb, A, -A)


def test_bc2_table_verifies_internally(c3_bc2):
    rrs, cb = c3_bc2
    # the compute path asserts recomposition, homogeneity and fiber grading
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    table = compute_relative_commutator_maps(rrs, cb, A, B)
    assert (1, 1) in table.entries


def test_sum_formula_singleton_no_corrections(c2):
    rrs, cb = c2
    report = check_sum_formula(rrs, cb, RelativeRoot((1, 1)))
    assert report["status"] == "pass"
    assert report["corrections"] == {}


def test_sum_formula_extra_short_correction(c3_bc2):
    rrs, cb = c3_bc2
    report = check_sum_formula(rrs, cb, RelativeRoot((0, 1)))
    assert report["status"] == "pass"
    assert set(report["corrections"]) == {2}
    # quadratic correction mixing u and u'
    polys = list(report["corrections"][2].values())
    assert any(not p.is_zero() for p in polys)


def test_sum_formula_identity_folding_no_corrections(c2):
    rrs, cb = c2
    for A in rrs.positive_roots():
        report = check_sum_formula(rrs, cb, A)
        assert report["corrections"] == {}


def test_surjectivity_simply_laced_case_a(a3_levi):
    rrs, cb = a3_levi
    pairs = [(A, B) for A, B in itertools.product(rrs.rel_roots, repeat=2)
             if A + B in rrs and not collinear(A, B)]
    assert pairs
    for A, B in pairs:
        report = check_N11_surjectivity(rrs, cb, A, B, "a")
        assert report["status"] == "pass"
        for gamma, (al, be, c) in report["witnesses"].items():
            assert abs(c) == 1


def test_surjectivity_b3_case_d():
    rrs, cb = setup_fold("B3 levi=1,2")
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    report = check_N11_surjectivity(rrs, cb, A, B, "d")
    assert report["status"] == "pass"


def test_surjectivity_c2_no_case_applies(c2):
    rrs, cb = c2
    A, B = RelativeRoot((1, 0)), RelativeRoot((1, 1))
    assert applicable_surjectivity_cases(rrs, cb, A, B) == []
    # the obstruction is the non-unit constant +-2; widening the unit set helps
    report = check_N11_surjectivity(rrs, cb, A, B, "a", units=frozenset({1, 2}))
    assert report["status"] == "pass"
    (witness,) = report["witnesses"].values()
    assert abs(witness[2]) == 2


def test_surjectivity_case_b(c3_bc2):
    rrs, cb = c3_bc2
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    # A - B = (1,-1) is not a relative root of BC2
    report = check_N11_surjectivity(rrs, cb, A, B, "b")
    assert report["status"] == "pass"


def test_surjectivity_case_c(c3_bc2):
    rrs, cb = c3_bc2
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    report = check_N11_surjectivity(rrs, cb, A, B, "c")
    assert report["status"] == "pass"


def test_spanning_lemma2_2_bc2(c3_bc2):
    rrs, cb = c3_bc2
    A, B = RelativeRoot((1, 1)), RelativeRoot((0, 1))
    report = check_spanning_lemma2_2(rrs, cb, A, B, n_random=20)
    assert report["status"] == "pass"
    assert set(report["fields"]) == {"Q", "F2", "F3", "F5"}
    assert all(v == "full" for v in report["fields"].values())


def test_spanning_lemma2_2_vacuous_simply_laced(a3_levi):
    rrs, cb = a3_levi
    hits = [(A, B) for A, B in itertools.product(rrs.rel_roots, repeat=2)
            if A + B in rrs
            and RelativeRoot(tuple(a - b for a, b in zip(A.coords, B.coords))) in rrs]
    assert hits == []  # no length-3 root chains in the simply laced case


def test_spanning_lemma2_2_rejects_bad_input(c2):
    rrs, cb = c2
    with pytest.raises(RelcalcError):
        check_spanning_lemma2_2(rrs, cb, RelativeRoot((1, 0)), RelativeRoot((0, 1)))


def test_lemma3_c4():
    report = check_spanning_lemma3(4, n_random=20)
    assert report["status"] == "pass"
    assert all(v == "full" for v in report["fields"].values())


def test_lemma3_c6():
    report = check_spanning_lemma3(6, n_random=10)
    assert report["status"] == "pass"


def test_lemma3_rejects_odd_or_small():
    for bad in (3, 5, 2):
        with pytest.raises(RelcalcError):
            check_spanning_lemma3(bad)
