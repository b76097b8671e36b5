"""``RelativeRootSystem.multiples``, the one answer to "which i*a + j*b are
relative roots".

The routine bounds i and j by Cramer's rule and finds candidates by
integer code; ``lie_oracles.solved_multiples`` solves for (i, j) once per
relative root, with neither.  They agree on every pair of every trivial
folding of rank <= 5, on every pair of the foldings of rank 4, 7 and 8
whose multiples run past i + j = 5, on b = a, and on a folding of D4
where a candidate's code is the code of another relative root.  The pair
of E8 with J = {5, 8} below needs i + j = 7, which a bound of i + j <= 6
dropped: its N-map table failed to build and ``nmaps`` exited 1.
"""

import itertools

import pytest
from lie_oracles import solved_multiples

from relroots.chevalley import build_chevalley_basis
from relroots.cli import main
from relroots.folding import build_relative_system, enumerate_foldings, parse_folding_spec
from relroots.relcalc import RelativeRoot, compute_relative_commutator_maps
from relroots.rootcore import collinear

# foldings whose relative multiples run past i + j = 5, with the largest
# i + j: 6 or 7 in F4 (which no root-system type matches), 7 in E7, 9 and
# 11 in E8
LONG_MULTIPLES = ["F4 levi=2,4", "F4 levi=3,4", "E7 levi=4,7", "E8 levi=4,8",
                  "E8 levi=5,8"]


def _opposite(a, b):
    return collinear(a, b) and sum(a) * sum(b) < 0


def _sweep(rrs, pairs):
    """The largest i + j among the multiples of ``pairs``, each checked
    against the solve; a pair pointing opposite ways must be refused."""
    top = 0
    for a, b in pairs:
        if _opposite(a, b):
            with pytest.raises(ValueError, match="opposite ways"):
                rrs.multiples(a, b)
            continue
        got = rrs.multiples(a, b)
        assert got == solved_multiples(rrs.fibers, a, b), (rrs.spec, a, b)
        top = max([top] + [i + j for i, j in got])
    return top


def test_multiples_match_the_solve_up_to_rank_5():
    pairs = 0
    for spec in enumerate_foldings(5, trivial_only=True):
        rrs = build_relative_system(spec)
        together = [(a, b) for a, b in itertools.product(rrs.fibers, repeat=2)
                    if not collinear(a, b)]
        _sweep(rrs, together + [(a, a) for a in rrs.fibers])
        pairs += len(together)
    assert pairs > 40000


@pytest.mark.parametrize("text,top", zip(LONG_MULTIPLES, [7, 6, 7, 11, 9]))
def test_multiples_match_the_solve_past_the_root_bound(text, top):
    rrs = build_relative_system(parse_folding_spec(text))
    assert _sweep(rrs, itertools.product(rrs.fibers, repeat=2)) == top


def test_a_code_alias_is_no_multiple():
    # codes alias outside the relative roots: in D4 folded by the flip of
    # nodes 1 and 3, (-2,-1,0) + 3*(-1,-1,0) = (-5,-4,0) has the code of
    # (0,0,-1), so only the coordinate check keeps it out
    rrs = build_relative_system(parse_folding_spec("D4 gamma=perm:3,2,1,4"))
    a, b = (-2, -1, 0), (-1, -1, 0)
    assert rrs.by_code[rrs.codes[a] + 3 * rrs.codes[b]] == (0, 0, -1)
    assert rrs.multiples(a, b) == [] == solved_multiples(rrs.fibers, a, b)
    _sweep(rrs, itertools.product(rrs.fibers, repeat=2))


def test_found_pairs():
    rrs = build_relative_system(parse_folding_spec("F4 levi=2,4"))
    # 3*(-3,-2) + 4*(2,1) = (-1,-2)
    assert (3, 4) in rrs.multiples((-3, -2), (2, 1))
    rrs = build_relative_system(parse_folding_spec("E8 levi=5,8"))
    assert rrs.multiples((5, 1), (-1, 0)) == [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5)]
    table = compute_relative_commutator_maps(rrs, build_chevalley_basis(rrs.rs),
                                             RelativeRoot((5, 1)), RelativeRoot((-1, 0)))
    assert (2, 5) in table.entries
    assert main(["nmaps", "--type", "E8", "--levi", "5,8", "--a", "5,1", "--b=-1,0"]) == 0


def test_multiples_of_one_relative_root():
    # BC2 of C3: 2*(0,1) is a relative root, 3*(0,1) is not
    rrs = build_relative_system(parse_folding_spec("C3 levi=1,2"))
    assert rrs.multiples((0, 1), (0, 1)) == [(1, 1)]
    assert rrs.multiples((0, 1), (0, 2)) == []
    assert rrs.multiples((1, 0), (1, 0)) == []
    with pytest.raises(ValueError, match="opposite ways"):
        rrs.multiples((0, 1), (0, -2))
