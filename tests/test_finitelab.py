import numpy as np
import pytest

from relroots.finitelab import (
    CapExceeded,
    FqMatrix,
    GroupClosure,
    _bfs_closure,
    adjoint_generators,
    closure_cap,
    closure_is_idempotent,
    derived_subgroup_index,
    format_report,
    generate_elementary_group,
    perfectness_report,
)
from relroots.rootcore import RootType


@pytest.fixture(scope="module")
def a2_mod2():
    return generate_elementary_group(RootType.parse("A2"), 2)


@pytest.fixture(scope="module")
def c2_mod2():
    return generate_elementary_group(RootType.parse("C2"), 2)


def test_a2_mod2_perfect(a2_mod2):
    assert a2_mod2.order == 168
    assert derived_subgroup_index(a2_mod2) == 1


def test_c2_mod2_not_perfect(c2_mod2):
    assert c2_mod2.order == 720
    assert derived_subgroup_index(c2_mod2) == 2


def test_g2_mod2_not_perfect():
    g = generate_elementary_group(RootType.parse("G2"), 2)
    assert g.order == 12096
    assert derived_subgroup_index(g) == 2


def test_c2_mod3_perfect():
    g = generate_elementary_group(RootType.parse("C2"), 3)
    assert g.order == 25920
    assert derived_subgroup_index(g) == 1


def test_abelian_group_index_equals_order():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    elements = _bfs_closure([np.eye(2, dtype=np.int64)], [m], 5, cap=10)
    g = GroupClosure(elements, [FqMatrix(5, m)], 5, 2)
    assert g.order == 5
    assert derived_subgroup_index(g) == 5


def test_closure_idempotent(a2_mod2):
    assert closure_is_idempotent(a2_mod2)


def test_fq_matrix_inverse(a2_mod2):
    for arr in list(a2_mod2.elements.values())[:20]:
        m = FqMatrix(2, arr)
        prod = m @ m.inverse()
        assert np.array_equal(prod.array, np.eye(m.dim, dtype=np.int64))


def test_generator_dedup_and_membership(a2_mod2):
    gens = adjoint_generators(RootType.parse("A2"), 2)
    assert len({g.key() for g in gens}) == len(gens)
    for g in gens:
        assert g in a2_mod2


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        generate_elementary_group(RootType.parse("A3"), 3, cap=100)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("RELROOT_CAP", "1234")
    assert closure_cap() == 1234
    monkeypatch.delenv("RELROOT_CAP")
    assert closure_cap() == 10 ** 6


def test_report_catalog(a2_mod2):
    rows = perfectness_report([
        (RootType.parse("A2"), 2),
        (RootType.parse("C2"), 2),
        (RootType.parse("A1"), 2),
        (RootType.parse("B3"), 2),
    ], cap=10 ** 5)
    by_type = {(r["type"], r["p"]): r for r in rows}
    assert by_type[("A2", 2)]["verdict"] == "matches prediction"
    assert by_type[("C2", 2)]["derived_index"] == 2
    assert by_type[("C2", 2)]["verdict"] == "matches prediction"
    assert by_type[("A1", 2)]["verdict"].startswith("out-of-hypothesis")
    assert by_type[("B3", 2)]["note"] == "skipped: cap"
    text = format_report(rows)
    assert "skipped: cap" in text and "matches prediction" in text


def test_keys_distinguish_residues_above_255():
    assert FqMatrix(257, [[256]]) != FqMatrix(257, [[0]])
    assert FqMatrix(257, [[256]]).key() != FqMatrix(257, [[0]]).key()


def test_unipotent_closure_over_f257():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    elements = _bfs_closure([np.eye(2, dtype=np.int64)], [m], 257, cap=1000)
    assert len(elements) == 257
