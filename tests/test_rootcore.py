import itertools

import pytest

from relroots.rootcore import (
    InvalidRootType,
    Root,
    RootType,
    build_root_system,
)

ALL_TYPES_RANK8 = (
    [RootType("A", l) for l in range(1, 9)]
    + [RootType("B", l) for l in range(2, 9)]
    + [RootType("C", l) for l in range(2, 9)]
    + [RootType("D", l) for l in range(3, 9)]
    + [RootType("E", l) for l in (6, 7, 8)]
    + [RootType("F", 4), RootType("G", 2)]
)

SMALL_TYPES = [RootType.parse(s) for s in
               ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4"]]


def test_type_validation():
    for bad in ["B1", "C1", "D2", "E5", "E9", "F3", "G3", "H2", "A0"]:
        with pytest.raises(InvalidRootType):
            RootType.parse(bad)
    assert str(RootType.parse("c4")) == "C4"


@pytest.mark.parametrize("t", ALL_TYPES_RANK8, ids=str)
def test_root_counts(t):
    rs = build_root_system(t)
    # counts asserted internally against the closed form; re-check the examples
    assert len(rs.roots) % 2 == 0


def test_example_counts():
    assert len(build_root_system(RootType.parse("G2")).roots) == 12
    assert len(build_root_system(RootType.parse("C4")).roots) == 32
    a1 = build_root_system(RootType.parse("A1"))
    assert sorted(r.coords for r in a1.roots) == [(-1,), (1,)]


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_negation_closure_and_sign_coherence(t):
    rs = build_root_system(t)
    for r in rs.roots:
        assert -r in rs
        pos = [c > 0 for c in r.coords if c != 0]
        assert all(pos) or not any(pos)


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_reduced(t):
    rs = build_root_system(t)
    for r in rs.roots:
        assert tuple(2 * c for c in r.coords) not in rs


def test_c2_sum_example():
    rs = build_root_system(RootType.parse("C2"))
    a1, a2 = rs.simple_roots
    assert rs.sum_is_root(a1, a2)
    assert rs.sum(a1, a2).coords == (1, 1)
    # 2A1+A2 is a root of C2
    assert (2, 1) in rs


def test_g2_sum_example():
    rs = build_root_system(RootType.parse("G2"))
    r = rs.root_from_coords((3, 1))
    a2 = rs.simple_roots[1]
    assert rs.sum(r, a2).coords == (3, 2)


def test_height_linearity():
    rs = build_root_system(RootType.parse("B3"))
    for r in rs.roots:
        assert (-r).height == -r.height
    with pytest.raises(ValueError):
        a = rs.simple_roots[0]
        rs.sum(a, a)


def test_root_string_examples():
    a2 = build_root_system(RootType.parse("A2"))
    assert a2.root_string(a2.simple_roots[0], a2.simple_roots[1]) == (0, 1)
    c2 = build_root_system(RootType.parse("C2"))
    assert c2.root_string(c2.simple_roots[0], c2.simple_roots[1]) == (0, 2)
    # orthogonal simply laced roots: string (0, 0)
    d4 = build_root_system(RootType.parse("D4"))
    a, b = d4.simple_roots[0], d4.simple_roots[3]
    assert d4.cartan_pairing(a, b) == 0
    assert d4.root_string(a, b) == (0, 0)
    with pytest.raises(ValueError):
        a2.root_string(a2.simple_roots[0], a2.simple_roots[0])


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_root_string_matches_cartan_pairing(t):
    rs = build_root_system(t)
    for a, b in itertools.product(rs.roots, repeat=2):
        if a.coords == b.coords or a.coords == (-b).coords:
            continue
        p, q = rs.root_string(a, b)
        assert p - q == rs.cartan_pairing(b, a)


def test_cartan_entries():
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        for i, row in enumerate(rs.cartan):
            for j, v in enumerate(row):
                assert v == 2 if i == j else v in (0, -1, -2, -3)


def test_length_classes():
    g2 = build_root_system(RootType.parse("G2"))
    assert sum(1 for r in g2.roots if r.length_class == "long") == 6
    a3 = build_root_system(RootType.parse("A3"))
    assert all(r.length_class == "long" for r in a3.roots)
    b3 = build_root_system(RootType.parse("B3"))
    assert sum(1 for r in b3.roots if r.length_class == "short") == 6
