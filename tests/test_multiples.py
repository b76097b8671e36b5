"""``rootcore.multiples``, the one answer to "which i*a + j*b lie in the
system", for roots and relative roots alike.

The routine bounds i and j by Cramer's rule and finds candidates by
integer code; ``lie_oracles.solved_multiples`` solves for (i, j) once per
point of the system, with neither.  They agree on every ordered pair of
roots of every type of rank <= 7 and on the pairs of E8 whose first root
is simple; on every pair of every trivial folding of rank <= 5, on every
pair of the foldings of rank 4, 7 and 8 whose multiples run past
i + j = 5, on b = a, and on a folding of D4 where a candidate's code is
the code of another relative root.  The pair of E8 with J = {5, 8} below
needs i + j = 7, which a bound of i + j <= 6 dropped: its N-map table
failed to build and ``nmaps`` exited 1.  ``finitelab._split_pairs``, the
(i, j) that the witness search tries, is the union of the multiples of
every pair of roots, for every type of rank <= 8.
"""

import itertools

import pytest
from lie_oracles import all_types, solved_multiples

from relroots.chevalley import build_chevalley_basis
from relroots.cli import main
from relroots.finitelab import _split_pairs
from relroots.folding import build_relative_system, enumerate_foldings, parse_folding_spec
from relroots.relcalc import RelativeRoot, compute_relative_commutator_maps
from relroots.rootcore import RootType, build_root_system, collinear, multiples

# foldings whose relative multiples run past i + j = 5, with the largest
# i + j: 6 or 7 in F4 (which no root-system type matches), 7 in E7, 9 and
# 11 in E8
LONG_MULTIPLES = ["F4 levi=2,4", "F4 levi=3,4", "E7 levi=4,7", "E8 levi=4,8",
                  "E8 levi=5,8"]


def _opposite(a, b):
    return collinear(a, b) and sum(a) * sum(b) < 0


def _sweep(system, points, pairs):
    """The largest i + j among the multiples of ``pairs``, each checked
    against the solve over ``points``; a pair pointing opposite ways must
    be refused."""
    top = 0
    for a, b in pairs:
        if _opposite(a, b):
            with pytest.raises(ValueError, match="opposite ways"):
                multiples(a, b, system)
            continue
        got = multiples(a, b, system)
        assert got == solved_multiples(points, a, b), (a, b)
        top = max([top] + [i + j for i, j in got])
    return top


@pytest.mark.parametrize("t", list(all_types(7)), ids=str)
def test_root_multiples_match_the_solve(t):
    rs = build_root_system(t)
    top = _sweep(rs, rs.roots, itertools.product(rs.roots, repeat=2))
    # i + j reaches 5 in G2 (3*a1 + 2*a2), 3 in B, C and F4, 2 elsewhere
    assert top == {"G": 5, "B": 3, "C": 3, "F": 3}.get(t.series, 2 if t.rank > 1 else 0)


def test_root_multiples_match_the_solve_in_e8():
    rs = build_root_system(RootType("E", 8))
    assert _sweep(rs, rs.roots, itertools.product(rs.simple_roots, rs.roots)) == 2


@pytest.mark.parametrize("t", list(all_types(8)), ids=str)
def test_split_pairs_are_every_pair_of_roots(t):
    rs = build_root_system(t)
    every = {ij for b, c in itertools.product(rs.roots, repeat=2)
             if not _opposite(b, c) for ij in multiples(b, c, rs)}
    got = _split_pairs(rs)
    assert got == sorted(every, key=lambda ij: (ij[0] + ij[1], ij[0]))
    # ADE: (1, 1) only; B, C, F4: three pairs; G2: seven
    assert len(got) == {"B": 3, "C": 3, "F": 3, "G": 7}.get(t.series, int(t.rank > 1))


def test_multiples_match_the_solve_up_to_rank_5():
    pairs = 0
    for spec in enumerate_foldings(5, trivial_only=True):
        rrs = build_relative_system(spec)
        together = [(a, b) for a, b in itertools.product(rrs.fibers, repeat=2)
                    if not collinear(a, b)]
        _sweep(rrs, rrs.fibers, together + [(a, a) for a in rrs.fibers])
        pairs += len(together)
    assert pairs > 40000


@pytest.mark.parametrize("text,top", zip(LONG_MULTIPLES, [7, 6, 7, 11, 9]))
def test_multiples_match_the_solve_past_the_root_bound(text, top):
    rrs = build_relative_system(parse_folding_spec(text))
    assert _sweep(rrs, rrs.fibers, itertools.product(rrs.fibers, repeat=2)) == top


def test_a_code_alias_is_no_multiple():
    # codes alias outside the relative roots: in D4 folded by the flip of
    # nodes 1 and 3, (-2,-1,0) + 3*(-1,-1,0) = (-5,-4,0) has the code of
    # (0,0,-1), so only the coordinate check keeps it out
    rrs = build_relative_system(parse_folding_spec("D4 gamma=perm:3,2,1,4"))
    a, b = (-2, -1, 0), (-1, -1, 0)
    assert rrs.by_code[rrs.codes[a] + 3 * rrs.codes[b]] == (0, 0, -1)
    assert multiples(a, b, rrs) == [] == solved_multiples(rrs.fibers, a, b)
    _sweep(rrs, rrs.fibers, itertools.product(rrs.fibers, repeat=2))


def test_found_pairs():
    rrs = build_relative_system(parse_folding_spec("F4 levi=2,4"))
    # 3*(-3,-2) + 4*(2,1) = (-1,-2)
    assert (3, 4) in multiples((-3, -2), (2, 1), rrs)
    rrs = build_relative_system(parse_folding_spec("E8 levi=5,8"))
    assert multiples((5, 1), (-1, 0), rrs) == [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5)]
    table = compute_relative_commutator_maps(rrs, build_chevalley_basis(rrs.rs),
                                             RelativeRoot((5, 1)), RelativeRoot((-1, 0)))
    assert (2, 5) in table.entries
    assert main(["nmaps", "--type", "E8", "--levi", "5,8", "--a", "5,1", "--b=-1,0"]) == 0


def test_multiples_of_one_relative_root():
    # BC2 of C3: 2*(0,1) is a relative root, 3*(0,1) is not
    rrs = build_relative_system(parse_folding_spec("C3 levi=1,2"))
    assert multiples((0, 1), (0, 1), rrs) == [(1, 1)]
    assert multiples((0, 1), (0, 2), rrs) == []
    assert multiples((1, 0), (1, 0), rrs) == []
    with pytest.raises(ValueError, match="opposite ways"):
        multiples((0, 1), (0, -2), rrs)
