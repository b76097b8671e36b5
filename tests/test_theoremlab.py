from fractions import Fraction

import pytest

import relroots.theoremlab as theoremlab
from relroots.chevalley import build_chevalley_basis, commutator_constants
from relroots.rootcore import RootType, build_root_system
from relroots.theoremlab import (
    verify_C2_identities,
    verify_G2_identities,
    verify_case_schemas,
    verify_lemma1_catalog,
)


def by_id(cases, fragment):
    return [c for c in cases if fragment in c.id]


def test_catalog_rank4_no_failures():
    cases = verify_lemma1_catalog(4)
    statuses = {c.status for c in cases}
    assert "fail" not in statuses
    assert "pass" in statuses and "skipped" in statuses


def test_catalog_d4_triality_full_levi():
    cases = verify_lemma1_catalog(4)
    (d4,) = [c for c in cases
             if c.spec == "D4 gamma=triality levi=1,2,3,4"]
    assert d4.status == "pass"
    assert len(d4.witness) == 12  # every relative root decomposed


def test_catalog_a2_flip_skipped():
    cases = verify_lemma1_catalog(2)
    (a2flip,) = [c for c in cases if c.spec == "A2 gamma=flip levi=1,2"]
    assert a2flip.status == "skipped"


@pytest.mark.parametrize("k", [5, 6, 7])
def test_c2_identities_symbolic(k):
    cases = verify_C2_identities(k)
    assert [c.status for c in cases] == ["pass", "pass"]
    for c in cases:
        assert "signs" in c.witness


def test_c2_long_inner_commutator_built_once_per_sign_pair(monkeypatch):
    # the long word's inner commutator depends on two of its five signs
    calls = []

    def counted(*args, _collected=theoremlab.collected_commutator):
        calls.append(args)
        return _collected(*args)

    monkeypatch.setattr(theoremlab, "collected_commutator", counted)
    cases = verify_C2_identities(5)
    assert [c.status for c in cases] == ["pass", "pass"]
    assert 1 <= len(calls) <= 4


def test_c2_identities_bound_eps():
    for eps in (2, Fraction(1, 2), -1):
        cases = verify_C2_identities(5, eps_binding=eps)
        assert all(c.status == "pass" for c in cases)


def test_c2_rejects_small_k_and_bad_eps():
    with pytest.raises(ValueError):
        verify_C2_identities(4)
    with pytest.raises(ValueError):
        verify_C2_identities(5, eps_binding=1)  # eps^2 - eps = 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_g2_long_identity(k):
    long_case, _ = verify_G2_identities(k_long=k)
    assert long_case.status == "pass"


@pytest.mark.parametrize("k", [3, 4, 5])
def test_g2_short_identity(k):
    _, short_case = verify_G2_identities(k_short=k)
    assert short_case.status == "pass"
    assert short_case.witness["support"] == ["[2, 1]", "[3, 1]", "[3, 2]"]
    assert short_case.witness["trailing_long_roots"] == ["[3, 1]", "[3, 2]"]


def test_g2_identities_bound_eps():
    cases = verify_G2_identities(2, 3, eps_binding=3)
    assert all(c.status == "pass" for c in cases)


def test_g2_thresholds():
    with pytest.raises(ValueError):
        verify_G2_identities(k_long=1)
    with pytest.raises(ValueError):
        verify_G2_identities(k_short=2)


def test_g2_four_factor_expansion():
    rs = build_root_system(RootType.parse("G2"))
    cb = build_chevalley_basis(rs)
    a1, a2 = rs.simple_roots
    table = commutator_constants(cb, a1, a2)
    # monomials s t, s^2 t, s^3 t, s^3 t^2 up to sign
    assert set(table) == {(1, 1), (2, 1), (3, 1), (3, 2)}
    assert all(abs(c) in (1, 2, 3) for c in table.values())


def test_f4_long_schema_all_roots():
    cases = verify_case_schemas("F4_long")
    assert len(cases) == 24
    assert all(c.status == "pass" for c in cases)
    for c in cases:
        assert abs(c.witness["constant"]) == 1


@pytest.mark.parametrize("l", [3, 4])
def test_bl_pairs_schema(l):
    cases = verify_case_schemas("Bl_pairs", l=l)
    assert len(cases) == 8  # the eight relative B2 roots
    assert all(c.status == "pass" for c in cases)


@pytest.mark.parametrize("l", [3, 4])
def test_cl_bc2_schema(l):
    fibers, chain = verify_case_schemas("Cl_BC2", l=l, k=4)
    assert fibers.status == "pass"
    assert chain.status == "pass"
    assert chain.params["k"] == 4


def test_cl_c2_schema():
    short, long_case = verify_case_schemas("Cl_C2", l=4, k=3)
    assert short.status == "pass"
    assert long_case.status == "pass"
    assert "read as A" in long_case.params["note"]


def test_schema_rejects_bad_params():
    with pytest.raises(ValueError):
        verify_case_schemas("Bl_pairs", l=2)
    with pytest.raises(ValueError):
        verify_case_schemas("Cl_C2", l=5)
    with pytest.raises(ValueError):
        verify_case_schemas("Cl_BC2", l=3, k=3)
    with pytest.raises(ValueError):
        verify_case_schemas("nonsense")
