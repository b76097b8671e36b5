import itertools
import os
import subprocess
import sys
from fractions import Fraction
from operator import add

import pytest
from lie_oracles import cartan_pairing, gram_dot, root_string

import relroots
import relroots.rootcore as rootcore
from relroots.folding import _decompose_positive, build_relative_system, parse_folding_spec
from relroots.rootcore import (
    InvalidRootType,
    RootSystem,
    RootType,
    VerificationError,
    build_root_system,
    collinear,
    multiples,
    splits,
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
    assert a1.roots == ((-1,), (1,))


@pytest.mark.parametrize("t", ALL_TYPES_RANK8, ids=str)
def test_lowerings_match_brute_force(t):
    # the Lemma 1 recipe splits a root of several nodes by its least
    # lowering; in the trivial folding each root is its own fiber, so the
    # split of every such root is its first lowering by brute force
    rs = build_root_system(t)
    roots = set(rs.roots)
    positive = [r for r in rs.roots if sum(r) > 0]
    want = {}
    for gamma in positive:
        lower = [(i, tuple(g - s for g, s in zip(gamma, simple)))
                 for i, simple in enumerate(rs.simple_roots)]
        want[gamma] = tuple((i, r) for i, r in lower if r in roots)
    # only the simple roots have no lowering
    assert {g for g, steps in want.items() if not steps} == set(rs.simple_roots)
    rrs = build_relative_system(parse_folding_spec(str(t)))
    for gamma, steps in want.items():
        if sum(map(bool, gamma)) > 1:
            i, rest = steps[0]
            assert _decompose_positive(rrs, gamma) == (rest, rs.simple_roots[i])


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_negation_closure_and_sign_coherence(t):
    rs = build_root_system(t)
    for r in rs.roots:
        assert tuple(-c for c in r) in rs
        pos = [c > 0 for c in r if c != 0]
        assert all(pos) or not any(pos)


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_reduced(t):
    rs = build_root_system(t)
    for r in rs.roots:
        assert tuple(2 * c for c in r) not in rs


SHORT_ROOT_LIST = """
from relroots.rootcore import RootSystem, RootType
orbit = RootSystem.orbit
# the root list of A2 without its highest root
RootSystem.orbit = lambda rs, seeds: orbit(rs, seeds) - {(1, 1)}
RootSystem(RootType("A", 2))
"""


def test_root_count_check_survives_optimized_mode(monkeypatch):
    orbit = RootSystem.orbit
    monkeypatch.setattr(RootSystem, "orbit", lambda rs, seeds: orbit(rs, seeds) - {(1, 1)})
    with pytest.raises(VerificationError, match="generated 5 roots for A2, expected 6"):
        RootSystem(RootType("A", 2))
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", SHORT_ROOT_LIST], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "VerificationError: generated 5 roots for A2, expected 6" in proc.stderr


def test_c2_sum_example():
    rs = build_root_system(RootType.parse("C2"))
    a1, a2 = rs.simple_roots
    assert rs.sum_is_root(a1, a2)
    assert tuple(map(add, a1, a2)) == (1, 1) and (1, 1) in rs
    # 2A1+A2 is a root of C2
    assert (2, 1) in rs


def test_g2_sum_example():
    rs = build_root_system(RootType.parse("G2"))
    r = rs.root_from_coords((3, 1))
    a2 = rs.simple_roots[1]
    assert tuple(map(add, r, a2)) == (3, 2) and (3, 2) in rs


def test_height_linearity():
    rs = build_root_system(RootType.parse("B3"))
    pos = rs.positive_roots()
    assert len(pos) == len(rs.roots) // 2 and all(sum(r) > 0 for r in pos)
    a = rs.simple_roots[0]
    assert tuple(map(add, a, a)) not in rs


def test_root_string_examples():
    a2 = build_root_system(RootType.parse("A2"))
    assert root_string(a2, a2.simple_roots[0], a2.simple_roots[1]) == (0, 1)
    c2 = build_root_system(RootType.parse("C2"))
    assert root_string(c2, c2.simple_roots[0], c2.simple_roots[1]) == (0, 2)
    # orthogonal simply laced roots: string (0, 0)
    d4 = build_root_system(RootType.parse("D4"))
    a, b = d4.simple_roots[0], d4.simple_roots[3]
    assert cartan_pairing(d4, a, b) == 0
    assert root_string(d4, a, b) == (0, 0)
    with pytest.raises(ValueError):
        root_string(a2, a2.simple_roots[0], a2.simple_roots[0])


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_root_string_matches_cartan_pairing(t):
    rs = build_root_system(t)
    for a, b in itertools.product(rs.roots, repeat=2):
        if a == b or a == tuple(-x for x in b):
            continue
        p, q = root_string(rs, a, b)
        assert p - q == cartan_pairing(rs, b, a)


def test_cartan_entries():
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        for i, row in enumerate(rs.cartan):
            for j, v in enumerate(row):
                assert v == 2 if i == j else v in (0, -1, -2, -3)
                assert v == cartan_pairing(rs, rs.simple_roots[j], rs.simple_roots[i])


@pytest.mark.parametrize("t", ALL_TYPES_RANK8, ids=str)
def test_integer_root_data_matches_fraction_oracle(t):
    # every pairing with a simple coroot, every squared length and every
    # length class, against the Gram matrix in exact Fractions
    rs = build_root_system(t)
    norms = {r: gram_dot(rs, r, r) for r in rs.roots}
    longest = max(norms.values())
    for r in rs.roots:
        assert rs._norm(r) == norms[r]
        assert rs.norms[r] == norms[r]
        assert (r in rs.long_roots) == (norms[r] == longest)
        for i, simple in enumerate(rs.simple_roots):
            assert rs._pairing_coords(r, i) == cartan_pairing(rs, r, simple)


@pytest.mark.parametrize("gram", [
    [[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]],  # int() would read -1/2 as 0
    [[2, -1], [-1, 3]],  # 2 (alpha_1, alpha_2) / |alpha_2|^2 = -2/3
    [[4, -3], [-3, 6]],  # -3/2 and -1
])
def test_non_integral_cartan_entry_is_rejected(gram, monkeypatch):
    with pytest.raises(VerificationError, match="is not an integer"):
        rootcore._cartan_matrix(gram)
    monkeypatch.setattr(rootcore, "_gram_matrix", lambda t: gram)
    with pytest.raises(VerificationError, match="Cartan entry"):
        RootSystem(RootType("A", 2))


def test_length_classes():
    g2 = build_root_system(RootType.parse("G2"))
    assert len(g2.long_roots) == 6
    a3 = build_root_system(RootType.parse("A3"))
    assert a3.long_roots == a3.root_set
    b3 = build_root_system(RootType.parse("B3"))
    assert len(b3.root_set - b3.long_roots) == 6


def test_collinear_matches_every_minor():
    # oracle: every 2x2 minor vanishes; zero vectors, zero leading
    # coordinates, multiples and near misses of every length up to 8
    vectors = [(0,) * 3, (0, 0, 1), (0, 2, -4), (0, -1, 2), (0, 1, 2), (3, 0, 0), (0, 0, 0, 5),
               (0, 0, 0, -10), (0, 0, 1, -10)]
    vectors += [tuple(k * x for x in r) for t in SMALL_TYPES
                for r in build_root_system(t).roots for k in (1, -2)]
    for a, b in itertools.product(vectors, repeat=2):
        if len(a) == len(b):
            minors = all(a[i] * b[j] == a[j] * b[i]
                         for i, j in itertools.combinations(range(len(a)), 2))
            assert collinear(a, b) == minors, (a, b)


def test_multiples_order_and_bound():
    g2 = build_root_system(RootType.parse("G2"))
    a1, a2 = g2.simple_roots
    assert multiples(a1, a2, g2) == [(1, 1), (2, 1), (3, 1), (3, 2)]
    assert multiples(a2, a1, g2) == [(1, 1), (1, 2), (1, 3), (2, 3)]
    # oracle: a scan far past the bound, sorted by (i + j, i)
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        for a, b in itertools.product(rs.roots, repeat=2):
            if collinear(a, b):
                continue
            scan = [(i, j) for i in range(1, 9) for j in range(1, 9)
                    if tuple(i * x + j * y for x, y in zip(a, b)) in rs]
            assert multiples(a, b, rs) == sorted(
                scan, key=lambda ij: (ij[0] + ij[1], ij[0]))


SPLIT_PAIRS = ((1, 1), (2, 1), (1, 2))


def _brute_splits(alpha, firsts, seconds, pairs):
    """The splits of alpha by a double loop over every pair of roots."""
    return [(b, g, (i, j)) for i, j in pairs for b in firsts for g in seconds
            if tuple(i * x + j * y for x, y in zip(b, g)) == alpha
            and not collinear(b, g)]


def _check_splits(targets, firsts, seconds):
    """Compare splits with the double loop for every target, in both pair
    orders; return the (i, j) of every split found."""
    found = []
    for alpha in targets:
        for pairs in (SPLIT_PAIRS, SPLIT_PAIRS[::-1]):
            got = list(splits(alpha, firsts, frozenset(seconds), pairs))
            assert got == _brute_splits(alpha, firsts, seconds, pairs)
            found += [ij for _, _, ij in got]
    return found


@pytest.mark.parametrize("t", [t for t in ALL_TYPES_RANK8 if t.rank <= 4],
                         ids=str)
def test_splits_match_brute_force_on_root_sets(t):
    rs = build_root_system(t)
    found = set(_check_splits(rs.roots, rs.roots, rs.roots))
    # (1, 1) splits from rank 2 on, (2, 1) and (1, 2) in the multiply laced types
    assert found == (set() if t.rank == 1 else set(SPLIT_PAIRS)
                     if t.series in "BCFG" else {(1, 1)})


@pytest.mark.parametrize("spec", ["C3 levi=1,2", "C4 levi=2,4"])
def test_splits_match_brute_force_on_fibers(spec):
    rrs = build_relative_system(parse_folding_spec(spec))
    found = set()
    for a, b in itertools.product(sorted(rrs.fibers), repeat=2):
        found.update(_check_splits(rrs.rs.roots, rrs.fiber(a), rrs.fiber(b)))
    assert found == set(SPLIT_PAIRS)
