"""One copy of each verification step.

``folding.closure_of_auts`` grows the subgroup from the identity under the
generators; the closure it replaced is kept here, as it was, as the oracle
it must agree with.  ``PERTURBED`` checks, under ``python -O``, that the
term checks of ``relcalc._verify_table`` and the recomposition of the sum
formula can fail: each table is perturbed after the recomposition of its
true coefficients has passed, and one correction of the sum formula is
bumped before its recomposition.
"""

import itertools
import json
import os
import subprocess
import sys

import pytest

import relroots
from relroots.folding import DiagramAut, closure_of_auts, enumerate_diagram_automorphisms
from relroots.rootcore import RootType

TYPES_RANK8 = [RootType(s, l) for s, ls in
               [("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
                ("D", range(3, 9)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]
               for l in ls]


def old_closure_of_auts(gens, l):
    """Subgroup generated by the given automorphisms."""
    ident = DiagramAut(tuple(range(l)))
    group = {ident.perm: ident}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        if g.perm not in group:
            group[g.perm] = g
            frontier.extend(g.compose(h) for h in list(group.values()))
            continue
        for h in list(group.values()):
            c = g.compose(h)
            if c.perm not in group:
                group[c.perm] = c
                frontier.append(c)
    return sorted(group.values(), key=lambda a: a.perm)


@pytest.mark.parametrize("t", TYPES_RANK8, ids=str)
def test_closure_matches_the_old_closure(t):
    auts = enumerate_diagram_automorphisms(t)
    subsets = [gens for k in range(len(auts) + 1)
               for gens in itertools.permutations(auts, k)]
    for gens in subsets:
        assert closure_of_auts(gens, t.rank) == old_closure_of_auts(gens, t.rank), gens


PERTURBED = """
import json
from fractions import Fraction

import relroots.relcalc as relcalc
from relroots.folding import build_relative_system, parse_folding_spec
from relroots.chevalley import build_chevalley_basis
from relroots.polyring import PolyElem
from relroots.rootcore import VerificationError

rrs = build_relative_system(parse_folding_spec("C3 levi=1,2"))
cb = build_chevalley_basis(rrs.rs)
A, B = relcalc.RelativeRoot((1, 0)), relcalc.RelativeRoot((0, 1))
fa, fb = rrs.fiber(A.coords), rrs.fiber(B.coords)


def outcome(run):
    try:
        run()
    except VerificationError as exc:
        return str(exc)
    return "pass"


# each edit replaces the terms of the first (1,1) entry
def with_w(reg, gamma, terms):
    key, c = next(iter(terms.items()))
    return {**terms, key + reg.w_unit: c}


def half(reg, gamma, terms):
    key = next(iter(terms))
    return {**terms, key: Fraction(1, 2)}


def degree_20(reg, gamma, terms):
    return {**terms, 2 * reg.units[0]: 1}


def off_fiber(reg, gamma, terms):
    k, m = next((k, m) for k in range(len(fa)) for m in range(len(fb))
                if tuple(map(sum, zip(fa[k], fb[m]))) != gamma)
    return {reg.units[k] + reg.units[len(fa) + m]: 1}


collect_recomposed = relcalc._collect_recomposed
out = {"table": outcome(lambda: relcalc.compute_relative_commutator_maps(rrs, cb, A, B))}
for edit in (with_w, half, degree_20, off_fiber):
    def perturbed(cb, U, slots, owner, failure, edit=edit):
        grouped = collect_recomposed(cb, U, slots, owner, failure)
        ent = grouped[(1, 1)]
        gamma = next(iter(ent))
        ent[gamma] = PolyElem(U.registry, edit(U.registry, gamma, ent[gamma].terms),
                              _canonical=True)
        return grouped

    relcalc._collect_recomposed = perturbed
    out[edit.__name__] = outcome(
        lambda: relcalc.compute_relative_commutator_maps(rrs, cb, A, B))
relcalc._collect_recomposed = collect_recomposed

collect = relcalc.collect
out["sum"] = outcome(lambda: relcalc.check_sum_formula(rrs, cb, B))


def bumped(cb, U, slots):
    coeffs = collect(cb, U, slots)
    gamma = next(iter(coeffs))
    coeffs[gamma] = coeffs[gamma] + 1
    return coeffs


relcalc.collect = bumped
out["sum_bumped"] = outcome(lambda: relcalc.check_sum_formula(rrs, cb, B))
print(json.dumps(out))
"""


def test_touched_checks_fire_under_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", PERTURBED],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "table": "pass",
        "with_w": "N_{11} is not a polynomial",
        "half": "non-integer N_{11}",
        "degree_20": "N_{11} monomial of degree (2,0)",
        "off_fiber": "monomial roots do not sum to the target fiber root",
        "sum": "pass",
        "sum_bumped": "recomposed sum formula differs from its residual",
    }
