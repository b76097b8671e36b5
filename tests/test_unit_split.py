"""One home for each shared witness search and root fact.

``chevalley.unit_split`` replaced three searches (the witness loop of
``check_N11_surjectivity``, theoremlab's ``_unit_split`` and the clean
long pair of the F4 schema) and ``RootSystem.orbit`` two closures under
the simple reflections.  The old code is kept here as it was, as the
oracle that each replacement must agree with, call by call
(``RootSystem.norms`` is checked against the Fraction oracle of
``test_rootcore``).  ``PERTURBED`` checks, under ``python
-O``, that the verdicts they feed can fail.
"""

import itertools
import json
import os
import subprocess
import sys
from operator import add

import pytest

import relroots
import relroots.relcalc as relcalc
import relroots.theoremlab as theoremlab
from relroots.chevalley import build_chevalley_basis, commutator_constants, unit_split
from relroots.folding import build_relative_system, enumerate_foldings, parse_folding_spec
from relroots.relcalc import RelativeRoot, check_N11_surjectivity
from relroots.rootcore import (RootType, build_root_system, collinear, multiples,
                               require, root_str, splits)
from relroots.theoremlab import verify_case_schemas

TYPES_RANK8 = [RootType(s, l) for s, ls in
               [("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
                ("D", range(3, 9)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]
               for l in ls]


# -- the replaced code, as it was -----------------------------------------


def old_generate(rs):
    l = rs.rank
    frontier = {tuple(1 if j == i else 0 for j in range(l)) for i in range(l)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for c in frontier:
            for i in range(l):
                n = rs._pairing_coords(c, i)
                if n == 0:
                    continue
                refl = list(c)
                refl[i] -= n
                refl = tuple(refl)
                if refl not in seen:
                    seen.add(refl)
                    nxt.add(refl)
        frontier = nxt
    return seen | {tuple(-x for x in c) for c in seen}


def old_long_roots_single_weyl_orbit(rs):
    longs = rs.long_roots
    start = min(longs)
    seen = {start}
    frontier = [start]
    while frontier:
        c = frontier.pop()
        for i in range(rs.rank):
            n = rs._pairing_coords(c, i)
            refl = list(c)
            refl[i] -= n
            refl = tuple(refl)
            if refl in longs and refl not in seen:
                seen.add(refl)
                frontier.append(refl)
    return seen == longs


def old_n11_search(cb, gamma, firsts, among, unit_abs):
    return next(((al, be, cb.struct_const(al, be))
                 for al, be, _ in splits(gamma, firsts, among, ((1, 1),))
                 if abs(cb.struct_const(al, be)) in unit_abs), None)


def old_unit_split(rrs, cb, src_rel, mid_rel, gamma, ij, clean=False):
    rs = rrs.rs
    for alpha, beta, _ in splits(gamma, rrs.fiber(src_rel), set(rrs.fiber(mid_rel)), (ij,)):
        if clean and tuple(2 * a + b for a, b in zip(alpha, beta)) in rs:
            continue
        c = (cb.struct_const(alpha, beta) if ij == (1, 1)
             else commutator_constants(cb, alpha, beta).get(ij, 0))
        if abs(c) == 1:
            return alpha, beta, c
    return None


def old_f4_pair(cb, A, longs):
    rs = cb.rs
    clean = [(B, C) for B, C, _ in splits(A, longs, rs.long_roots, ((1, 1),))
             if multiples(B, C, rs) == [(1, 1)]]
    require(clean, "no clean long pair")
    B, C = clean[0]
    n = cb.struct_const(B, C)
    require(abs(n) == 1, "constant of %s, %s is not a unit", B, C)
    return B, C, n


# -- agreement ------------------------------------------------------------


@pytest.mark.parametrize("t", TYPES_RANK8, ids=str)
def test_orbit_matches_the_old_generation(t):
    rs = build_root_system(t)
    assert rs.orbit(rs.simple_roots) == rs.root_set == frozenset(old_generate(rs))
    assert old_long_roots_single_weyl_orbit(rs)
    assert rs.orbit({min(rs.long_roots)}) == rs.long_roots


def test_unit_split_matches_the_n11_search_on_every_case_a_target():
    calls = found = 0
    for spec in enumerate_foldings(5, series="ADE", trivial_only=True):
        rrs = build_relative_system(spec)
        cb = build_chevalley_basis(rrs.rs)
        for a, b in itertools.product(rrs.fibers, repeat=2):
            if tuple(map(add, a, b)) not in rrs or collinear(a, b):
                continue
            fa, fb = rrs.fiber(a), set(rrs.fiber(b))
            for gamma in rrs.fiber(tuple(map(add, a, b))):
                for units in ({1}, {2}):
                    got = unit_split(cb, gamma, fa, fb, units=units)
                    assert got == old_n11_search(cb, gamma, fa, fb, units)
                    calls += 1
                    found += got is not None
    # every simply laced constant is +-1: each target has a witness at {1}
    assert found == calls // 2 > 5000


@pytest.mark.parametrize("spec,case", [("B3 levi=1,2", "d"), ("B4 levi=1,2", "d"),
                                       ("C3 levi=1,2", "b"), ("C3 levi=1,2", "c")])
def test_unit_split_matches_the_n11_search_on_the_suite_cases(spec, case):
    rrs = build_relative_system(parse_folding_spec(spec))
    cb = build_chevalley_basis(rrs.rs)
    rs = rrs.rs
    fa, fb = rrs.fiber((1, 0)), rrs.fiber((0, 1))
    want = {}
    for gamma in rrs.fiber((1, 1)):
        firsts, among = fa, set(fb)
        if case == "d" and gamma in rs.long_roots:
            firsts = [al for al in fa if al in rs.long_roots]
            among = rs.long_roots.intersection(fb)
        want[gamma] = old_n11_search(cb, gamma, firsts, among, {1})
    assert None not in want.values()
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    assert check_N11_surjectivity(rrs, cb, A, B, case) == want


def test_unit_split_matches_the_f4_clean_pair_on_every_long_root():
    rs = build_root_system(RootType("F", 4))
    cb = build_chevalley_basis(rs)
    longs = [r for r in rs.roots if r in rs.long_roots]
    want = {A: old_f4_pair(cb, A, longs) for A in longs}
    assert all(unit_split(cb, A, longs, rs.long_roots) == want[A]
               for A in longs)
    cases = verify_case_schemas("F4_long")
    assert len(cases) == len(longs) == 24
    for case, A in zip(cases, longs):
        B, C, n = want[A]
        assert case.status == "pass"
        assert case.witness == {"B": root_str(B), "C": root_str(C), "constant": n}


def old_cl_c2_calls(l):
    """The results of every ``_unit_split`` call of the old C_l C2 schema."""
    rrs = build_relative_system(parse_folding_spec("C%d levi=%d,%d" % (l, l // 2, l)))
    cb = build_chevalley_basis(rrs.rs)
    a1, a2 = (1, 0), (0, 1)
    mid = tuple(map(add, a1, a2))
    top = tuple(map(add, mid, a1))
    out = [old_unit_split(rrs, cb, a1, a2, gamma, (1, 1), clean=True)
           for gamma in rrs.fiber(mid)]
    for gamma in rrs.fiber(top):
        if gamma not in rrs.rs.long_roots:
            out.append(old_unit_split(rrs, cb, a1, mid, gamma, (1, 1)))
            continue
        hit = old_unit_split(rrs, cb, a1, a2, gamma, (2, 1))
        byproduct = tuple(map(add, *hit[:2]))
        assert byproduct in rrs.rs
        out += [hit, old_unit_split(rrs, cb, a1, a2, byproduct, (1, 1), clean=True)]
    return out


def old_cl_bc2_calls(l):
    """The results of every ``_unit_split`` call of the old BC2 chain; its
    one junk root, found there by ``collect``, is alpha + beta."""
    rrs = build_relative_system(parse_folding_spec("C%d levi=1,2" % l))
    cb = build_chevalley_basis(rrs.rs)
    a1, a2 = (1, 0), (0, 1)
    (gamma_A,) = rrs.fiber((2, 2))
    hit = old_unit_split(rrs, cb, a1, tuple(2 * x for x in a2), gamma_A, (2, 1))
    byproduct = tuple(map(add, *hit[:2]))
    assert byproduct in rrs.rs
    return [hit, old_unit_split(rrs, cb, tuple(map(add, a1, a2)), a2, byproduct, (1, 1))]


@pytest.mark.parametrize("schema,l", [("Cl_C2", 4), ("Cl_C2", 6), ("Cl_C2", 8),
                                      ("Cl_BC2", 3), ("Cl_BC2", 4), ("Cl_BC2", 5),
                                      ("Cl_BC2", 6)])
def test_unit_split_matches_every_call_of_the_cl_schemas(monkeypatch, schema, l):
    got = []

    def recorded(*args, **kwargs):
        got.append(unit_split(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(theoremlab, "unit_split", recorded)
    if schema == "Cl_C2":
        cases, want = verify_case_schemas(schema, l=l, k=3), old_cl_c2_calls(l)
    else:
        cases, want = verify_case_schemas(schema, l=l, k=4), old_cl_bc2_calls(l)
    assert [c.status for c in cases] == ["pass", "pass"]
    assert None not in want and got == want


# -- every touched check can fail -----------------------------------------


PERTURBED = """
import json

import relroots.chevalley as chevalley
import relroots.relcalc as relcalc
import relroots.theoremlab as theoremlab
from relroots.folding import build_relative_system, parse_folding_spec
from relroots.relcalc import RelativeRoot
from relroots.rootcore import RootSystem
from relroots.theoremlab import run_case, verify_case_schemas

unit_split = chevalley.unit_split


def schemas():
    cases = list(verify_case_schemas("F4_long"))
    for l in (3, 4):
        cases += verify_case_schemas("Cl_BC2", l=l, k=4)
    for l in (4, 6):
        cases += verify_case_schemas("Cl_C2", l=l, k=3)
    return cases


def n11(spec, case):
    rrs = build_relative_system(parse_folding_spec(spec))
    cb = chevalley.build_chevalley_basis(rrs.rs)
    return run_case("lemma2/%s/%s" % (case, spec), spec, lambda: relcalc.check_N11_surjectivity(
        rrs, cb, RelativeRoot((1, 0)), RelativeRoot((0, 1)), case))


# unit_split with ``edit`` applied to the calls in ``roles``: the (2,1)
# "hit", the "canceller" (the call right after a hit), a "plain" call (no
# keyword) and any "other"
def perturbed(edit, roles):
    state = {"hit": False}

    def patched(*args, **kwargs):
        got = unit_split(*args, **kwargs)
        after_hit, state["hit"] = state["hit"], kwargs.get("ij") == (2, 1)
        role = ("hit" if state["hit"] else "canceller" if after_hit
                else "other" if kwargs else "plain")
        return edit(got) if role in roles else got
    return patched


def flip(got):
    return got[:2] + (-got[2],)


def none(got):
    return None


out = {}
for label, edit, roles in [("c21", flip, {"hit"}), ("canceller", flip, {"canceller"}),
                           ("none", none, {"hit", "canceller", "plain", "other"}),
                           ("none-canceller", none, {"canceller"}),
                           ("none-plain", none, {"plain"})]:
    theoremlab.unit_split = perturbed(edit, roles)
    out[label] = [[c.id, c.status, c.witness if c.status == "fail" else None]
                  for c in schemas()]
theoremlab.unit_split = unit_split

relcalc.unit_split = lambda *args, **kwargs: None
out["none-n11"] = [[c.id, c.status, c.witness] for c in
                   [n11("B3 levi=1,2", "d"), n11("C3 levi=1,2", "b"), n11("C3 levi=1,2", "c")]]
relcalc.unit_split = unit_split

# the root systems are built (and cached) before the closure loses a root
n11("B3 levi=1,2", "d")
orbit = RootSystem.orbit
RootSystem.orbit = lambda rs, seeds: orbit(rs, seeds) - {max(rs.long_roots)}
case = n11("B3 levi=1,2", "d")
out["orbit"] = [[case.id, case.status, case.witness]]
RootSystem.orbit = orbit
print(json.dumps(out))
"""


def test_touched_checks_fire_under_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", PERTURBED],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)

    def failed(label):
        return {cid: wit for cid, status, wit in out[label] if status == "fail"}

    chains = {"clbc2/C3/chain/k=4", "clbc2/C4/chain/k=4",
              "clc2/C4/long/k=3", "clc2/C6/long/k=3"}
    for label in ("c21", "canceller"):
        assert set(failed(label)) == chains
        assert all("does not reproduce" in w or "differs from the target" in w
                   for w in failed(label).values())
    # no split: every row that searches one fails, and says so
    nones = failed("none")
    assert len(nones) == 24 + len(chains) + 2
    assert {cid for cid in nones if not cid.startswith("f4long/")} == chains | {
        "clc2/C4/short/k=3", "clc2/C6/short/k=3"}
    assert all(w.startswith("no unit ") for w in nones.values())
    assert {w.split(" for ")[0] for w in failed("none-canceller").values()} == {
        "no unit canceller"}
    assert set(failed("none-canceller")) == chains
    assert {w.split(" for ")[0] for w in failed("none-plain").values()} == {
        "no unit pair", "no unit long pair"}
    assert {cid for cid in failed("none-plain") if not cid.startswith("f4long/")} == {
        "clc2/C4/long/k=3", "clc2/C6/long/k=3"}
    assert len(failed("none-plain")) == 24 + 2
    assert [(status, wit.split(" for ")[0]) for _, status, wit in out["none-n11"]] == [
        ("fail", "no unit hit")] * 3
    ((_, status, wit),) = out["orbit"]
    assert (status, wit) == ("fail", "long roots are not a single Weyl orbit")
