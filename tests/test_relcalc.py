import itertools
import json
import os
import subprocess
import sys
from operator import add, mul, sub

import pytest
from lie_oracles import full_product, solved_multiples

import relroots
import relroots.relcalc as relcalc
from relroots.chevalley import (
    adjoint_root_element,
    build_chevalley_basis,
    commutator_factors,
    cone_weights,
    product_of_root_elements,
)
from relroots.folding import build_relative_system, enumerate_foldings, parse_folding_spec
from relroots.polyring import PolyElem, VarRegistry, _decode
from relroots.relcalc import (
    CaseHypothesisError,
    RelativeRoot,
    RelcalcError,
    applicable_surjectivity_cases,
    check_N11_surjectivity,
    check_spanning_lemma2_2,
    check_spanning_lemma3,
    check_sum_formula,
    compute_relative_commutator_maps,
    relative_factors,
)
from relroots.rootcore import VerificationError, collinear


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
    (alpha,) = rrs.fiber((1, 0))
    word = relative_factors(rrs, (1, 0), {alpha: reg.var("t")})
    assert product_of_root_elements(cb, reg, word, (1, 1)) == adjoint_root_element(
        cb, alpha, reg.var("t"), (1, 1))


def test_embed_zero_is_identity(c3_bc2):
    rrs, cb = c3_bc2
    a = (0, 1)
    reg = VarRegistry(["t"])
    word = relative_factors(rrs, a, {alpha: reg.zero() for alpha in rrs.fiber(a)})
    assert (product_of_root_elements(cb, reg, word, (1, 1, 1))
            == product_of_root_elements(cb, reg, [], (1, 1, 1)))


def test_embed_multi_factor_fiber():
    rrs, cb = setup_fold("C4 levi=2,4")
    a = (1, 0)
    fiber = rrs.fiber(a)
    assert len(fiber) > 1
    names = ["t%d" % k for k in range(len(fiber))]
    reg = VarRegistry(names)
    coords = {alpha: reg.var(n) for alpha, n in zip(fiber, names)}
    word = relative_factors(rrs, a, coords)
    assert [root for root, _ in word] == list(fiber)
    assert not (product_of_root_elements(cb, reg, word, (1, 1, 1, 1))
                == product_of_root_elements(cb, reg, [], (1, 1, 1, 1)))


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
    assert _decode(e11, 2) == ((1, 1), 0) and abs(c11) == 1
    assert _decode(e21, 2) == ((2, 1), 0) and abs(c21) == 1


def test_empty_table_for_unlinked_pair():
    rrs, cb = setup_fold("D4")
    # the two outer simple roots are orthogonal: no iA+jB is a root
    assert (1, 0, 0, 1) not in rrs
    table = compute_relative_commutator_maps(rrs, cb, RelativeRoot((1, 0, 0, 0)),
                                             RelativeRoot((0, 0, 0, 1)))
    assert table.entries == {}


def test_simply_laced_unit_constants(a3_levi):
    rrs, cb = a3_levi
    pairs = [(a, b) for a, b in itertools.product(rrs.fibers, repeat=2)
             if tuple(map(add, a, b)) in rrs and not collinear(a, b)
             and solved_multiples(rrs.fibers, a, b)]
    assert pairs
    for a, b in pairs:
        table = compute_relative_commutator_maps(rrs, cb, RelativeRoot(a), RelativeRoot(b))
        # every (1,1) term is one u_al * v_be (homogeneity and fiber grading)
        for p in table.entries.get((1, 1), {}).values():
            for c in p.terms.values():
                assert c in (-1, 0, 1)


def test_rejects_collinear_pair(c3_bc2):
    rrs, cb = c3_bc2
    A = RelativeRoot((0, 1))
    with pytest.raises(RelcalcError):
        compute_relative_commutator_maps(rrs, cb, A, A)
    with pytest.raises(RelcalcError):
        compute_relative_commutator_maps(rrs, cb, A, RelativeRoot((0, -1)))


def test_bc2_table_verifies_internally(c3_bc2):
    rrs, cb = c3_bc2
    # the compute path asserts recomposition, homogeneity and fiber grading
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    table = compute_relative_commutator_maps(rrs, cb, A, B)
    assert (1, 1) in table.entries


@pytest.mark.parametrize("spec", ["C3 levi=1,2", "B3 levi=1,2", "G2", "A4 levi=1,3",
                                  "D4 levi=1,2", "D5 levi=1,3", "F4 levi=1,4"])
def test_cone_path_tables_equal_frame_path_tables(spec):
    # each table, recomposed in slot order, has the full matrix of its
    # commutator word
    rrs, cb = setup_fold(spec)
    pairs = [(a, b) for a, b in itertools.product(sorted(rrs.fibers), repeat=2)
             if not collinear(a, b)]
    assert len(pairs) > 20
    for a, b in pairs:
        table = compute_relative_commutator_maps(rrs, cb, RelativeRoot(a), RelativeRoot(b))
        reg = table.registry
        u = {alpha: reg.var(reg.names[k]) for alpha, k in table.u_index.items()}
        v = {beta: reg.var(reg.names[k]) for beta, k in table.v_index.items()}
        word = commutator_factors(relative_factors(rrs, a, u), relative_factors(rrs, b, v))
        recomposed = [(gamma, table.entries[(i, j)][gamma])
                      for i, j in solved_multiples(rrs.fibers, a, b)
                      for gamma in rrs.fiber(tuple(i * x + j * y for x, y in zip(a, b)))
                      if gamma in table.entries.get((i, j), {})]
        assert full_product(cb, reg, word) == full_product(cb, reg, recomposed), (a, b)


@pytest.mark.parametrize("spec", ["C3 levi=1,2", "C4 levi=2,4", "G2"])
def test_one_column_recomposition_catches_a_perturbed_monomial(spec, monkeypatch):
    rrs, cb = setup_fold(spec)
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    table = compute_relative_commutator_maps(rrs, cb, A, B)
    monomials = [(gamma, exp) for ent in table.entries.values()
                 for gamma, p in ent.items() for exp in p.terms]
    assert monomials
    real_collect = relcalc.collect
    for gamma, exp in monomials:
        def bumped(cb, U, slots, gamma=gamma, exp=exp):
            assert list(U.cols) == ["h_f"]  # the commutator is carried on one column
            coeffs = real_collect(cb, U, slots)
            coeffs[gamma] = coeffs[gamma] + PolyElem(table.registry, {exp: 1})
            return coeffs

        monkeypatch.setattr(relcalc, "collect", bumped)
        with pytest.raises(VerificationError, match="recomposed product differs"):
            compute_relative_commutator_maps(rrs, cb, A, B)


def test_sum_formula_singleton_no_corrections(c2):
    rrs, cb = c2
    assert check_sum_formula(rrs, cb, RelativeRoot((1, 1))) == {}


def test_sum_formula_extra_short_correction(c3_bc2):
    rrs, cb = c3_bc2
    corrections = check_sum_formula(rrs, cb, RelativeRoot((0, 1)))
    assert set(corrections) == {2}
    # quadratic correction mixing u and u'
    polys = list(corrections[2].values())
    assert any(not p.is_zero() for p in polys)


def test_sum_formula_identity_folding_no_corrections(c2):
    rrs, cb = c2
    for a in [a for a in rrs.fibers if sum(a) > 0]:
        assert check_sum_formula(rrs, cb, RelativeRoot(a)) == {}


def test_surjectivity_simply_laced_case_a(a3_levi):
    rrs, cb = a3_levi
    pairs = [(a, b) for a, b in itertools.product(rrs.fibers, repeat=2)
             if tuple(map(add, a, b)) in rrs and not collinear(a, b)]
    assert pairs
    for a, b in pairs:
        witnesses = check_N11_surjectivity(rrs, cb, RelativeRoot(a), RelativeRoot(b), "a")
        assert set(witnesses) == set(rrs.fiber(tuple(map(add, a, b))))
        for gamma, (al, be, c) in witnesses.items():
            assert abs(c) == 1


def test_surjectivity_b3_case_d():
    rrs, cb = setup_fold("B3 levi=1,2")
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    assert set(check_N11_surjectivity(rrs, cb, A, B, "d")) == set(rrs.fiber((1, 1)))


# the witness of one B3 target is found from N_{al,be}; its (1,1) coefficient
# doubled in the table must fail the re-check by evaluation, under -O too
DOUBLED_COEFFICIENT = """
import relroots.relcalc as relcalc
from relroots.chevalley import build_chevalley_basis
from relroots.cli import suite_lemma2
from relroots.folding import build_relative_system, parse_folding_spec
from relroots.polyring import PolyElem

rrs = build_relative_system(parse_folding_spec("B3 levi=1,2"))
A, B = relcalc.RelativeRoot((1, 0)), relcalc.RelativeRoot((0, 1))
witnesses = relcalc.check_N11_surjectivity(rrs, build_chevalley_basis(rrs.rs), A, B, "d")
gamma, (al, be, c) = min(witnesses.items())
real = relcalc.compute_relative_commutator_maps

def doubled(rrs_, cb, A_, B_):
    table = real(rrs_, cb, A_, B_)
    if (rrs_.spec, A_, B_) == (rrs.spec, A, B):
        units = table.registry.units
        key = units[table.u_index[al]] + units[table.v_index[be]]
        p = table.entries[1, 1][gamma]
        table.entries[1, 1][gamma] = PolyElem(table.registry,
                                              {**p.terms, key: 2 * p.terms[key]})
    return table

relcalc.compute_relative_commutator_maps = doubled
for case in suite_lemma2(0, max_rank=2):
    if case.id.startswith("lemma2/d/"):
        print("%s: %s %s" % (case.id, case.status, case.witness))
"""


def test_doubled_witness_coefficient_is_a_fail_row_under_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", DOUBLED_COEFFICIENT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("lemma2/d/B3 gamma=trivial levi=1,2: fail witness")
    assert "does not evaluate to" in lines[0]
    assert lines[1].startswith("lemma2/d/B4 gamma=trivial levi=1,2: pass")


# every public check returns its witness alone; with one F_3 pivot dropped,
# both span checks raise the report's message from relcalc itself
CONTRACT = """
import json

import relroots.relcalc as relcalc
from relroots.chevalley import build_chevalley_basis
from relroots.folding import build_relative_system, parse_folding_spec
from relroots.polyring import PolyElem
from relroots.rootcore import VerificationError


def setup(text):
    rrs = build_relative_system(parse_folding_spec(text))
    return rrs, build_chevalley_basis(rrs.rs)


R = relcalc.RelativeRoot
bc2 = setup("C3 levi=1,2")
out = {}
corrections = relcalc.check_sum_formula(*bc2, R((0, 1)))
out["sum"] = {str(i): all(isinstance(p, PolyElem) for p in ent.values())
              for i, ent in corrections.items()}
witnesses = relcalc.check_N11_surjectivity(*bc2, R((1, 0)), R((0, 1)), "c")
out["n11"] = [sorted(witnesses) == sorted(bc2[0].fiber((1, 1))),
              all(al in bc2[0].fiber((1, 0)) and be in bc2[0].fiber((0, 1)) and abs(c) == 1
                  and tuple(map(sum, zip(al, be))) == gamma
                  for gamma, (al, be, c) in witnesses.items())]
spans = {"lemma2_2": lambda: relcalc.check_spanning_lemma2_2(*bc2, R((1, 1)), R((0, 1))),
         "lemma3": lambda: relcalc.check_spanning_lemma3(*setup("C4 levi=2,4"))}
for name, check in spans.items():
    out[name] = check()

real = relcalc.row_reduce


def dropped(rows, n, p=None):
    reduced, pivots = real(rows, n, p)
    return reduced, pivots[:-1] if p == 3 else pivots


relcalc.row_reduce = dropped
for name, check in spans.items():
    try:
        out[name + "/deficient"] = ["returned", check()]
    except VerificationError as exc:
        out[name + "/deficient"] = ["raised", str(exc)]
print(json.dumps(out))
"""


def test_checks_return_their_witness_or_raise_under_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", CONTRACT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    full = {"F2": "full", "F3": "full", "F5": "full", "Q": "full"}
    assert out["sum"] == {"2": True}
    assert out["n11"] == [True, True]
    assert out["lemma2_2"] == out["lemma3"] == full
    message = "image does not span the target: %s" % dict(full, F3="deficient")
    assert out["lemma2_2/deficient"] == out["lemma3/deficient"] == ["raised", message]


def test_surjectivity_c2_no_case_applies(c2, monkeypatch):
    rrs, cb = c2
    A, B = RelativeRoot((1, 0)), RelativeRoot((1, 1))
    tables, build = [], relcalc.compute_relative_commutator_maps
    monkeypatch.setattr(relcalc, "compute_relative_commutator_maps",
                        lambda *args: tables.append(args) or build(*args))
    assert applicable_surjectivity_cases(rrs, cb, A, B) == []
    # every hypothesis, case (a)'s structure constants included, fails
    # before a table is built
    assert tables == []
    # the obstruction is the non-unit constant +-2; widening the unit set helps
    witnesses = check_N11_surjectivity(rrs, cb, A, B, "a", units=frozenset({1, 2}))
    assert set(witnesses) == set(rrs.fiber((2, 1)))
    (witness,) = witnesses.values()
    assert abs(witness[2]) == 2


def test_surjectivity_case_b(c3_bc2):
    rrs, cb = c3_bc2
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    # A - B = (1,-1) is not a relative root of BC2
    assert set(check_N11_surjectivity(rrs, cb, A, B, "b")) == set(rrs.fiber((1, 1)))


def test_surjectivity_case_c(c3_bc2):
    rrs, cb = c3_bc2
    A, B = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    assert set(check_N11_surjectivity(rrs, cb, A, B, "c")) == set(rrs.fiber((1, 1)))


def test_spanning_lemma2_2_bc2(c3_bc2):
    rrs, cb = c3_bc2
    A, B = RelativeRoot((1, 1)), RelativeRoot((0, 1))
    fields = check_spanning_lemma2_2(rrs, cb, A, B)
    assert set(fields) == {"Q", "F2", "F3", "F5"}
    assert all(v == "full" for v in fields.values())


def test_spanning_lemma2_2_vacuous_simply_laced(a3_levi):
    rrs, cb = a3_levi
    hits = [(a, b) for a, b in itertools.product(rrs.fibers, repeat=2)
            if tuple(map(add, a, b)) in rrs and tuple(map(sub, a, b)) in rrs]
    assert hits == []  # no length-3 root chains in the simply laced case


def test_spanning_lemma2_2_rejects_bad_input(c2):
    rrs, cb = c2
    with pytest.raises(RelcalcError):
        check_spanning_lemma2_2(rrs, cb, RelativeRoot((1, 0)), RelativeRoot((0, 1)))


def test_lemma3_c4():
    fields = check_spanning_lemma3(*setup_fold("C4 levi=2,4"))
    assert all(v == "full" for v in fields.values())


def test_lemma3_c6():
    fields = check_spanning_lemma3(*setup_fold("C6 levi=3,6"))
    assert fields == {"F2": "full", "F3": "full", "F5": "full", "Q": "full"}


def test_lemma3_rejects_odd_or_small():
    for text in ("C3 levi=1,3", "C5 levi=2,5", "C2 levi=1,2"):
        with pytest.raises(RelcalcError, match="half-split"):
            check_spanning_lemma3(*setup_fold(text))


@pytest.mark.parametrize("text", ["C4 levi=1,4", "C4 levi=2,3", "C4", "B4 levi=2,4",
                                  "D4 levi=2,4", "A5 gamma=flip levi=3"])
def test_lemma3_rejects_every_other_folding(text):
    # the wrong J or the wrong type
    with pytest.raises(RelcalcError, match="half-split"):
        check_spanning_lemma3(*setup_fold(text))


def test_table_slots_and_cone_match_their_definitions():
    # the coordinate-keyed slots against the solved multiples and the
    # fibers of i*a + j*b, and the gathered cone against the weights
    # pulled back through the projection matrix, on every non-collinear pair
    specs = enumerate_foldings(5, trivial_only=True)
    assert {"C3 gamma=trivial levi=1,2", "F4 gamma=trivial levi=1,4",
            "G2 gamma=trivial levi=1,2"} <= set(map(str, specs))
    pairs = 0
    for spec in specs:
        rrs = build_relative_system(spec)
        proj = [[int(j in orbit) for j in range(rrs.rs.rank)] for orbit in rrs.orbits]
        for a, b in itertools.product(rrs.fibers, repeat=2):
            if collinear(a, b):
                continue
            slots, owner = [], {}
            for i, j in solved_multiples(rrs.fibers, a, b):
                for gamma in rrs.fiber(tuple(i * x + j * y for x, y in zip(a, b))):
                    slots.append(gamma)
                    owner[gamma] = (i, j)
            assert relcalc._table_slots(rrs, a, b) == (slots, owner)
            g = cone_weights(a, b)
            assert relcalc._relative_cone(rrs, a, b) == tuple(
                sum(map(mul, g, col)) for col in zip(*proj))
            pairs += 1
    assert pairs > 10000
