import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import relroots
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


# each case-schema check that guards a verdict, made to fire in a
# ``python -O`` child by a monkeypatched step or a perturbed root system
# (built, with its Chevalley basis, before the perturbation)
SCHEMA_FAULTS = """
import json

from relroots import theoremlab
from relroots.chevalley import build_chevalley_basis
from relroots.rootcore import RootType, build_root_system
from relroots.theoremlab import verify_G2_identities, verify_case_schemas


def rows(cases):
    return [[c.id, c.status, c.witness if c.status == "fail" else None] for c in cases]


def perturbed(series, rank):
    rs = build_root_system(RootType(series, rank))
    build_chevalley_basis(rs)
    return rs


out = {}
# every target doubled: no long commutator reproduces it
adjoint = theoremlab.adjoint_root_element
theoremlab.adjoint_root_element = lambda cb, alpha, t, cone: adjoint(
    cb, alpha, t.scale(2), cone)
out["F4_long"] = rows(verify_case_schemas("F4_long"))
theoremlab.adjoint_root_element = adjoint

# no two roots of B3 sum to a root
rs = perturbed("B", 3)
rs.sum_is_root = lambda a, b: False
out["Bl_pairs"] = rows(verify_case_schemas("Bl_pairs", l=3))
del rs.sum_is_root

# the short simple root alpha_1 of C3, in the fiber of A1, counted long
rs = perturbed("C", 3)
longs = rs.long_roots
rs.long_roots = longs | {(1, 0, 0)}
out["Cl_BC2"] = rows(verify_case_schemas("Cl_BC2", l=3, k=4))
rs.long_roots = longs

# the long root 3A1+A2 of G2, a trailing factor of the short identity,
# counted short
rs = perturbed("G", 2)
longs = rs.long_roots
rs.long_roots = longs - {(3, 1)}
out["G2"] = rows(verify_G2_identities())
rs.long_roots = longs
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def schema_faults():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", SCHEMA_FAULTS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_f4_long_matrix_identity_fires_under_optimized_mode(schema_faults):
    rows = schema_faults["F4_long"]
    assert len(rows) == 24
    assert all(status == "fail" and witness.startswith("matrix identity failed for ")
               for _, status, witness in rows)


def test_bl_pairs_long_pair_fires_under_optimized_mode(schema_faults):
    rows = schema_faults["Bl_pairs"]
    assert len(rows) == 8
    assert all(status == "fail" and witness.startswith("no long pair for ")
               for _, status, witness in rows)


def test_cl_bc2_shortness_fires_under_optimized_mode(schema_faults):
    assert schema_faults["Cl_BC2"] == [
        ["clbc2/C3/fibers", "fail", "non-long relative roots with a non-short fiber: (1,0)"],
        ["clbc2/C3/chain/k=4", "pass", None]]


def test_g2_trailing_factors_fire_under_optimized_mode(schema_faults):
    long_case, short_case = schema_faults["G2"]
    assert long_case[1] == "pass"
    assert short_case[1:] == ["fail", "trailing factors on non-long roots"]
