import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from lie_oracles import (all_types, bracket, commutator_constants_fast, full_product, h_of,
                         root_string)

import relroots
import relroots.chevalley as chevalley
from relroots.chevalley import (
    CollectionError,
    adjoint_root_element,
    build_chevalley_basis,
    collect,
    collected_commutator,
    commutator_constants,
    commutator_factors,
    cone_weights,
    invert_factors,
    product_of_root_elements,
)
from relroots.polyring import SlotOverflow, VarRegistry, _decode, _slots
from relroots.rootcore import RootType, VerificationError, build_root_system


def neg(root):
    return tuple(-x for x in root)


def cb_for(name):
    return build_chevalley_basis(build_root_system(RootType.parse(name)))


@pytest.fixture(scope="module")
def c2():
    return cb_for("C2")


@pytest.fixture(scope="module")
def g2():
    return cb_for("G2")


def test_a2_simple_constant():
    cb = cb_for("A2")
    assert abs(cb.struct_const((1, 0), (0, 1))) == 1


def test_c2_doubled_constant(c2):
    # p = 1 through the string alpha_2, alpha_1+alpha_2, 2alpha_1+alpha_2
    assert abs(c2.struct_const((1, 0), (1, 1))) == 2


def test_g2_max_constant(g2):
    vals = set()
    for a, b in itertools.product(g2.rs.roots, repeat=2):
        s = tuple(x + y for x, y in zip(a, b))
        if any(s) and s in g2.rs:
            vals.add(abs(g2.struct_const(a, b)))
    assert max(vals) == 3
    assert vals <= {1, 2, 3}


def test_antisymmetry_and_magnitude_law(c2):
    for a, b in itertools.product(c2.rs.roots, repeat=2):
        s = tuple(x + y for x, y in zip(a, b))
        if any(s) and s in c2.rs:
            n = c2.struct_const(a, b)
            assert n == -c2.struct_const(b, a)
            p, _ = root_string(c2.rs, a, b)
            assert abs(n) == p + 1


def assert_jacobi(cb, triples):
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on basis triples, by ``bracket``."""
    for x, y, z in triples:
        acc = {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for i, c in bracket(cb, u, v).items():
                for j, d in bracket(cb, cb.basis[i], w).items():
                    acc[j] = acc.get(j, 0) + c * d
        assert not any(acc.values()), (x, y, z, acc)


@pytest.mark.parametrize("name", ["A2", "C2", "G2", "A3", "B3"])
def test_jacobi_full(name):
    cb = cb_for(name)
    assert_jacobi(cb, itertools.combinations(cb.basis, 3))


def test_jacobi_sampled_f4():
    cb = cb_for("F4")
    rng = random.Random(0)
    assert_jacobi(cb, [tuple(rng.choice(cb.basis) for _ in range(3)) for _ in range(2000)])


SWEEP_TYPES = [str(t) for t in all_types(6)] + ["E7"]


@pytest.mark.parametrize("name", SWEEP_TYPES)
def test_ad_rows_match_the_bracket(name):
    # ad e_alpha, read off root sums in _root_entry, is the column list of
    # [e_alpha, -] by the bracket oracle, in basis order, for every root
    cb = cb_for(name)
    for root in cb.rs.roots:
        cols = [(j, bracket(cb, ("e", root), other)) for j, other in enumerate(cb.basis)]
        assert list(cb.exp_ad_powers(root)[0].items()) == [(j, c) for j, c in cols if c], root


@pytest.mark.parametrize("name", [str(t) for t in all_types(6)])
def test_no_multiple_is_a_root_when_the_sum_is_not(name):
    # collected_commutator returns the empty word, with no product and no
    # collect, for every non-opposite pair whose sum is not a root: then no
    # i*alpha + j*beta is a root, so the commutator is 1
    rs = build_root_system(RootType.parse(name))
    pairs = [(a, b) for a, b in itertools.product(rs.roots, repeat=2)
             if a != neg(b) and not rs.sum_is_root(a, b)]
    assert pairs
    for a, b in pairs:
        assert not [(i, j) for i in range(1, 6) for j in range(1, 7 - i)
                    if tuple(i * x + j * y for x, y in zip(a, b)) in rs], (a, b)


def test_adjoint_element_identity_at_zero(c2):
    reg = VarRegistry(["t"])
    m = adjoint_root_element(c2, c2.rs.simple_roots[0], reg.zero(), height(c2))
    assert m == product_of_root_elements(c2, reg, [], height(c2))


def test_one_parameter_law(c2):
    reg = VarRegistry(["s", "t"])
    s, t = reg.var("s"), reg.var("t")
    a = c2.rs.simple_roots[0]
    left = product_of_root_elements(c2, reg, [(a, s), (a, t)], height(c2))
    right = adjoint_root_element(c2, a, s + t, height(c2))
    assert left == right


def test_a1_ad_cube_vanishes():
    cb = cb_for("A1")
    powers = cb.exp_ad_powers((1,))
    assert len(powers) == 2  # ad and ad^2/2 nonzero, ad^3 = 0


def positive_slots(cb, sign=1):
    """All roots of one sign, in the collection order (height, then coords)."""
    return [tuple(sign * x for x in c) for c in cb.pos_roots]


def height(cb, sign=1):
    return (sign,) * cb.rs.rank


def test_collect_single_letter(c2):
    reg = VarRegistry(["t"])
    a = c2.rs.simple_roots[0]
    U = product_of_root_elements(c2, reg, [(a, reg.var("t"))], height(c2))
    assert collect(c2, U, positive_slots(c2)) == {a: reg.var("t")}


def test_collect_a2_swap():
    cb = cb_for("A2")
    reg = VarRegistry(["s", "t"])
    s, t = reg.var("s"), reg.var("t")
    a1, a2 = cb.rs.simple_roots
    high = cb.rs.root_from_coords((1, 1))
    U = product_of_root_elements(cb, reg, [(a2, t), (a1, s)], height(cb))
    with pytest.raises(CollectionError):  # the one-column residual sees the missing slot
        collect(cb, U, [a1, a2])
    coeffs = collect(cb, U, [a1, a2, high])
    assert coeffs[a1] == s
    assert coeffs[a2] == t
    c = coeffs[high]
    (key, coeff), = c.terms.items()
    assert _decode(key, 2) == ((1, 1), 0) and abs(coeff) == 1
    # oracle: recompose and compare full matrices
    out = [(r, coeffs[r]) for r in (a1, a2, high)]
    assert full_product(cb, reg, [(a2, t), (a1, s)]) == full_product(cb, reg, out)


def test_cone_rejects_mixed_signs(c2):
    reg = VarRegistry(["s"])
    a = c2.rs.simple_roots[0]
    with pytest.raises(VerificationError, match="outside the cone"):
        product_of_root_elements(c2, reg, [(a, reg.var("s")), (neg(a), reg.var("s"))],
                                 height(c2))


def test_collect_negative_word(c2):
    reg = VarRegistry(["s", "t"])
    s, t = reg.var("s"), reg.var("t")
    a1, a2 = c2.rs.simple_roots
    word = [(neg(a2), t), (neg(a1), s)]
    coeffs = collect(c2, product_of_root_elements(c2, reg, word, height(c2, -1)),
                     positive_slots(c2, -1))
    out = [(r, coeffs[r]) for r in positive_slots(c2, -1) if r in coeffs]
    assert full_product(c2, reg, word) == full_product(c2, reg, out)


def test_collect_rejects_slot_outside_the_cone(c2):
    reg = VarRegistry(["s"])
    a1, a2 = c2.rs.simple_roots
    U = product_of_root_elements(c2, reg, [(a1, reg.var("s"))], (1, 0))
    with pytest.raises(VerificationError, match="outside the cone"):
        collect(c2, U, [a1, a2])


def test_products_on_different_columns_do_not_compare(c2):
    reg = VarRegistry(["s"])
    a1, a2 = c2.rs.simple_roots
    word = [(a1, reg.var("s"))]
    on_h = product_of_root_elements(c2, reg, word, (1, 1))
    on_other_h = product_of_root_elements(c2, reg, word, (1, 0))
    for U, V in ((on_h, on_other_h), (on_other_h, on_h)):
        with pytest.raises(VerificationError, match="different columns"):
            U == V
    # proportional weights give the same column
    assert on_h == product_of_root_elements(c2, reg, word, (2, 2))


def test_commutator_constants_orthogonal():
    cb = cb_for("A3")
    a1, a3 = cb.rs.simple_roots[0], cb.rs.simple_roots[2]
    assert commutator_constants(cb, a1, a3) == {}


def test_commutator_constants_c2(c2):
    a1, a2 = c2.rs.simple_roots
    table = commutator_constants(c2, a1, a2)
    assert set(table) == {(1, 1), (2, 1)}
    assert abs(table[(1, 1)]) == 1
    assert abs(table[(2, 1)]) == 1


def test_commutator_constants_g2(g2):
    a1, a2 = g2.rs.simple_roots
    table = commutator_constants(g2, a1, a2)
    assert set(table) == {(1, 1), (2, 1), (3, 1), (3, 2)}


def test_commutator_constants_rejects_opposites(c2):
    a = c2.rs.simple_roots[0]
    with pytest.raises(ValueError):
        commutator_constants(c2, a, neg(a))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_fast_table_matches_symbolic(name):
    cb = cb_for(name)
    for a, b in itertools.product(cb.rs.roots, repeat=2):
        try:
            fast = commutator_constants_fast(cb, a, b)
        except ValueError:
            continue
        sym = commutator_constants(cb, a, b)
        assert set(sym) == set(fast)
        for ij, c in sym.items():
            assert abs(c) == fast[ij]


@pytest.mark.parametrize("name", ["A3", "B2", "B3", "C3", "C4", "D4", "F4", "G2", "E6"])
def test_c11_is_the_structure_constant(name):
    # the witness searches read C_11 of [x_beta(s), x_gamma(t)] as N_{beta,gamma}
    cb = cb_for(name)
    rs = cb.rs
    pairs = [(b, g) for b, g in itertools.product(rs.roots, repeat=2)
             if rs.sum_is_root(b, g)]
    assert pairs
    for b, g in pairs:
        assert commutator_constants(cb, b, g)[(1, 1)] == cb.struct_const(b, g)


def test_all_constants_bounded_c4_f4():
    for name in ["C4", "F4"]:
        cb = cb_for(name)
        for a, b in itertools.product(cb.rs.roots, repeat=2):
            try:
                table = commutator_constants_fast(cb, a, b)
            except ValueError:
                continue
            assert all(v in (1, 2, 3) for v in table.values())


# -- the one column against the full matrix -------------------------------


def random_word(cb, reg, rng, length):
    s, t = reg.var("s"), reg.var("t")
    # monomials with coefficients 1, 2, -1/3, 3 and 5/2, and sums of terms
    coeffs = [s, t, s * t, s + t, reg.const(2), reg.const(Fraction(-1, 3)),
              (s * s).scale(3), t.scale(Fraction(5, 2)), s.scale(2) + (s * t).scale(-3)]
    if reg.eps_index is not None:
        # localized coefficients: w = 1/(eps^2 - eps) and its multiples
        inv, eps = reg.eps_unit_inverse(), reg.var("eps")
        coeffs += [inv, eps * inv * s, (eps + t) * inv, inv * inv * t]
    return [(rng.choice(cb.rs.roots), rng.choice(coeffs).scale(rng.choice((1, -1))))
            for _ in range(length)]


def cone_word(cb, reg, rng, inside, length):
    return [(rng.choice(inside), c) for _, c in random_word(cb, reg, rng, length)]


def random_cone(cb, rng):
    """Nonzero integer weights and the roots on which they are positive."""
    weights = (0,) * cb.rs.rank
    while not any(weights):
        weights = tuple(rng.randint(-3, 3) for _ in range(cb.rs.rank))
    return weights, [r for r in cb.rs.roots
                     if sum(w * x for w, x in zip(weights, r)) > 0]


@pytest.mark.parametrize("name", ["A2", "C2", "G2", "B3"])
def test_frame_matches_full_matrix(name):
    # w w^-1 = 1 and x_r(c) x_r(d) = x_r(c + d) on the column h_f of a
    # random cone, and w is the product of its collected normal form
    cb = cb_for(name)
    rng = random.Random(name)
    plain, localized = VarRegistry(["s", "t"]), VarRegistry(["s", "t", "eps"])
    branches = set()

    def recollected(reg, word, weights):
        # slots in order of f: a sum of two slot roots comes later
        def f(g):
            return sum(x * y for x, y in zip(weights, g))

        slots = sorted((g for g in cb.rs.roots if f(g) > 0), key=lambda g: (f(g), g))
        U = product_of_root_elements(cb, reg, word, weights)
        coeffs = collect(cb, U, slots)
        # collect divides each entry by pair = root(h_f); over the plain
        # registry no reduction merges terms, so an int coefficient with
        # |pair| > 1 came from an exact integer quotient, and a
        # non-integral one from a remainder
        for g, c in coeffs.items() if reg == plain else ():
            pair = sum(x * y for x, y in zip(g, U.cone))
            branches.update("quotient" if type(v) is int and abs(pair) > 1 else
                            "fraction" if type(v) is Fraction else "unit"
                            for v in c.terms.values())
        normal = [(g, coeffs[g]) for g in slots if g in coeffs]
        assert full_product(cb, reg, word) == full_product(cb, reg, normal)
        V = product_of_root_elements(cb, reg, normal, weights)
        assert U == V
        return U, V

    for reg in [plain] * 20 + [localized] * 8:
        weights, inside = random_cone(cb, rng)
        w1 = cone_word(cb, reg, rng, inside, rng.randint(1, 5))
        identity = product_of_root_elements(cb, reg, [], weights)
        assert product_of_root_elements(cb, reg, w1 + invert_factors(w1), weights) == identity
        (r, c), (_, d) = cone_word(cb, reg, rng, inside, 2)
        assert full_product(cb, reg, [(r, c), (r, d)]) == full_product(cb, reg, [(r, c + d)])
        two = product_of_root_elements(cb, reg, [(r, c), (r, d)], weights)
        one = product_of_root_elements(cb, reg, [(r, c + d)], weights)
        assert two == one
        assert product_of_root_elements(cb, reg, [(r, c), (r, d), (r, -(c + d))],
                                        weights) == identity
        recollected(reg, w1, weights)
    # column work multiplies unreduced terms: eps w times eps w gives
    # w^2 eps^2 on e_{a1+a2}, which the collected coefficient, reduced,
    # does not carry; equality reduces the raw entries
    reg = localized
    x = reg.var("eps") * reg.eps_unit_inverse()
    a1, a2 = cb.rs.simple_roots[:2]
    U, V = recollected(reg, [(a1, x * reg.var("s")), (a2, x * reg.var("t"))], height(cb))
    assert U.packed != V.packed
    assert {"quotient", "fraction"} <= branches


def column_image(cb, full, h):
    """The root rows of the image of h_f = sum h_i h_i under a full product,
    zero entries dropped."""
    npos, l, image = len(cb.pos_roots), cb.rs.rank, {}
    for i, hi in enumerate(h):
        for r, v in full[npos + i].items():
            image[r] = image[r] + v.scale(hi) if r in image else v.scale(hi)
    return {"h_f": {r: v for r, v in image.items()
                    if not npos <= r < npos + l and not v.is_zero()}}


@pytest.mark.parametrize("name", ["A2", "C2", "G2", "B3", "F4"])
def test_cone_column_matches_full_matrix(name):
    # a product with cone weights carries h_f's image, and equal columns
    # mean equal matrices on words inside the cone
    cb = cb_for(name)
    rng = random.Random("cone " + name)
    plain, localized = VarRegistry(["s", "t"]), VarRegistry(["s", "t", "eps"])
    coeffs = []
    for reg in [plain] * 20 + [localized] * 8:
        weights, inside = random_cone(cb, rng)
        h = h_of(cb, weights)
        # gamma(h_f) is one positive multiple of f(gamma)
        ratios = {Fraction(sum(c * cb.rs._pairing_coords(r, i) for i, c in enumerate(h)),
                           sum(w * x for w, x in zip(weights, r))) for r in inside}
        assert len(ratios) == 1 and ratios.pop() > 0

        w1 = cone_word(cb, reg, rng, inside, rng.randint(1, 5))
        k = rng.randint(0, len(w1))
        (root, c), = cone_word(cb, reg, rng, inside, 1)
        same = w1[:k] + [(root, c), (root, -c)] + w1[k:]
        other = w1[:k] + [(root, c)] + w1[k:]
        coeffs += [c for _, c in w1]
        full1 = full_product(cb, reg, w1)
        U1 = product_of_root_elements(cb, reg, w1, weights)
        assert U1.cols == column_image(cb, full1, h)
        for w2 in (w1, same, other):
            U2 = product_of_root_elements(cb, reg, w2, weights)
            assert (U1 == U2) == (full1 == full_product(cb, reg, w2))
        assert U1 == product_of_root_elements(cb, reg, same, weights)
        assert U1 != product_of_root_elements(cb, reg, other, weights)
        assert (product_of_root_elements(cb, reg, w1 + invert_factors(w1), weights)
                == product_of_root_elements(cb, reg, [], weights))
    # the words met a monomial whose coefficient is not +-1, and a sum of terms
    assert any(len(c.terms) == 1 and abs(next(iter(c.terms.values()))) != 1 for c in coeffs)
    assert any(len(c.terms) > 1 for c in coeffs)


@pytest.mark.parametrize("name", ["G2", "F4"])
def test_every_divided_power_matches_full_matrix(name):
    # x_a(c) x_b(d) on the height cone for every pair of positive roots
    # with a + b a root, c and d a monomial with coefficient 3 and a sum of
    # terms: the Cartan term of each factor, and every divided power of
    # ad e_a acting on the e_b that x_b(d) put on the column, meet the full
    # product
    cb = cb_for(name)
    reg = VarRegistry(["s", "t"])
    s, t = reg.var("s"), reg.var("t")
    h = h_of(cb, height(cb))
    reached = set()
    for a, b in itertools.product(positive_slots(cb), repeat=2):
        if not cb.rs.sum_is_root(a, b):  # else no b + k a is a root (strings are unbroken)
            continue
        for c, d in [(s.scale(3), s * t + t), (s - t.scale(2), (t * t).scale(3))]:
            word = [(a, c), (b, d)]
            U = product_of_root_elements(cb, reg, word, height(cb))
            assert U.cols == column_image(cb, full_product(cb, reg, word), h), (a, b)
            reached.update(k for k in range(1, len(cb.exp_ad_powers(a)) + 1)
                           if tuple(k * x + y for x, y in zip(a, b)) in cb.rs)
    assert max(reached) == (3 if name == "G2" else 2)


@pytest.mark.parametrize("name", ["C2", "G2", "F4"])
def test_columns_hold_root_rows_alone(name, monkeypatch):
    # on random cones, the column of every product and of every collect
    # residual, after each factor, has no h row; and collect reads the same
    # coefficients on the proportional weights w and 3w
    cb = cb_for(name)
    npos = len(cb.pos_roots)
    h_rows = set(range(npos, npos + cb.rs.rank))
    real = chevalley._left_multiply
    calls = []

    def checked(col, entry, pair, t):
        real(col, entry, pair, t)
        calls.append(bool(h_rows & col.keys()))

    monkeypatch.setattr(chevalley, "_left_multiply", checked)
    rng = random.Random("rows " + name)
    reg = VarRegistry(["s", "t"])
    for _ in range(12):
        weights, inside = random_cone(cb, rng)
        slots = sorted(inside, key=lambda g: (sum(x * y for x, y in zip(weights, g)), g))
        word = cone_word(cb, reg, rng, inside, rng.randint(1, 5))
        coeffs = []
        for w in (weights, tuple(3 * x for x in weights)):
            U = product_of_root_elements(cb, reg, word, w)
            assert not h_rows & U.packed.keys()
            coeffs.append(collect(cb, U, slots))
        assert coeffs[0] == coeffs[1]
    assert calls and not any(calls)


def test_perturbed_cartan_term_fails_collection(monkeypatch):
    # collect peels each slot with the Cartan term -t root(h_f); one that is
    # off by h_f leaves e_root on the residual
    cb = cb_for("C2")
    reg = VarRegistry(["s", "t"])
    a1, a2 = cb.rs.simple_roots
    U = product_of_root_elements(cb, reg, [(a1, reg.var("s")), (a2, reg.var("t"))],
                                 height(cb))
    slots = positive_slots(cb)
    assert set(collect(cb, U, slots)) == set(slots)
    real = chevalley._left_multiply
    monkeypatch.setattr(chevalley, "_left_multiply",
                        lambda col, entry, pair, t: real(col, entry, pair + 1, t))
    with pytest.raises(CollectionError, match="residual"):
        collect(cb, U, slots)


@pytest.mark.parametrize("name", ["C2", "G2", "B3"])
def test_collected_commutator_matches_full_matrix(name):
    # every non-opposite pair of roots of opposite signs: the collected
    # word and the commutator have the same full matrix
    cb = cb_for(name)
    reg = VarRegistry(["s", "t"])
    s, t = reg.var("s"), reg.var("t")
    pairs = [(a, b) for a, b in itertools.product(cb.rs.roots, repeat=2)
             if (sum(a) > 0) != (sum(b) > 0) and a != neg(b)]
    assert pairs
    for a, b in pairs:
        word = collected_commutator(cb, reg, (a, s), (b, t))
        assert full_product(cb, reg, word) == full_product(
            cb, reg, commutator_factors([(a, s)], [(b, t)])), (a, b)


def test_cone_weights_are_positive_on_the_span():
    for a, b in [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (-1, 0)), ((1, 2, 1), (0, -1, 1)),
                 ((1, 1), (1, 1))]:
        w = cone_weights(a, b)
        for i, j in itertools.product(range(4), repeat=2):
            if i + j:
                assert sum(x * (i * p + j * q) for x, p, q in zip(w, a, b)) > 0


def test_slot_overflow_rejected_before_column_work(monkeypatch):
    # x_a(t) reaches t^2 in A2, so s^40000 needs exponents up to 80000
    cb = cb_for("A2")
    reg = VarRegistry(["s"])
    a1, a2 = cb.rs.simple_roots
    monkeypatch.setattr(chevalley, "_left_multiply", None)  # any column work fails
    with pytest.raises(SlotOverflow, match="overflow") as info:
        product_of_root_elements(cb, reg, [(a1, reg.var("s", 40000)), (a2, reg.var("s"))],
                                 height(cb))
    # bad input, not a failed check: run_case lets it through
    assert not isinstance(info.value, AssertionError)


@pytest.mark.parametrize("exps, bound", [((5000, 5133, 5001, 3), 65535),
                                         ((5000, 5134, 5000, 3), 65536),
                                         ((5000, 5133, 5001, 8884), 65535)])
def test_slot_bound_at_its_edge(exps, bound, g2, monkeypatch):
    # G2: x_a(t) reaches t^3 on a short root, t^2 on a long one, so slot k
    # of the word below has the bound 3p_k + 2q_k + 3r_k + 2q_k + 3p_k, p_k
    # the largest exponent of p in slot k; p and -p, q and -q repeat their
    # keys.  Each slot has its own bound: the last word passes, while one
    # bound over every slot, 3*5000 + 2*8884 + 3*5001 + 2*8884 + 3*5000 =
    # 80539, would refuse it
    p_exp, q_exp, r_exp, t_exp = exps
    slot_bounds = (6 * p_exp + 4 * q_exp + 3 * r_exp, 6 * 4999 + 4 * t_exp + 3, 0)
    assert max(slot_bounds) == bound
    reg = VarRegistry(["s", "t"])
    s, t = reg.var("s"), reg.var("t")
    short, long = g2.rs.simple_roots
    mid = g2.rs.root_from_coords((1, 1))
    # the largest slot is on neither the first nor the last term
    p = (reg.var("s", 4000) * reg.var("t", 7)).scale(3) + reg.var("s", p_exp) \
        - reg.var("t", 4999)
    q = (s * s * t).scale(-2) + reg.var("s", q_exp) + reg.var("t", t_exp)
    r = reg.var("s", r_exp) * t
    word = [(short, p), (long, q), (mid, r), (long, -q), (short, -p)]
    if bound < 65536:
        U = product_of_root_elements(g2, reg, word, height(g2))
        assert U.bound == slot_bounds
        for key in (key for d in U.packed.values() for key in d):
            assert all(e <= b for e, b in zip(_slots(key, 2), slot_bounds))
    else:
        monkeypatch.setattr(chevalley, "_left_multiply", None)  # any column work fails
        with pytest.raises(SlotOverflow, match="exponents up to 65536 overflow"):
            product_of_root_elements(g2, reg, word, height(g2))


def test_frame_rejects_torus_element():
    # h_a(2) = w_a(2) w_a(1)^-1 fixes every h_i but scales the e_a, so no
    # column h_f tells it from 1; its word leaves every half-space, so the
    # product path refuses it
    cb = cb_for("A2")
    reg = VarRegistry(["t"])
    a = cb.rs.simple_roots[0]
    c = reg.const
    word = [(a, c(2)), (neg(a), c(Fraction(-1, 2))), (a, c(2)),
            (a, c(-1)), (neg(a), c(1)), (a, c(-1))]
    full = full_product(cb, reg, word)
    npos = len(cb.pos_roots)
    hcols = range(npos, npos + cb.rs.rank)
    assert all(full[j] == {j: reg.const(1)} for j in hcols)
    assert any(full[j] != {j: reg.const(1)} for j in range(cb.dim))
    for weights in [(1, 1), (1, 0), (-1, 0), (2, -1)]:
        with pytest.raises(VerificationError, match="outside the cone"):
            product_of_root_elements(cb, reg, word, weights)


PERTURBED_CHECKS = """
import dataclasses
from fractions import Fraction

from lie_oracles import commutator_constants_fast
from relroots.chevalley import ChevalleyBasis, commutator_constants, \\
    product_of_root_elements
import relroots.chevalley as chevalley
from relroots.polyring import SlotOverflow, VarRegistry
import relroots.rootcore as rootcore
from relroots.rootcore import RootSystem, RootType, VerificationError, build_root_system
from relroots.theoremlab import _sign_search

def expect_failure(label, run, error=VerificationError):
    try:
        run()
    except error as exc:
        print("%s: %s" % (label, exc))
    else:
        raise SystemExit("%s: perturbation went unnoticed" % label)

# |N| = p+1: double one antisymmetric pair of A2
cb = ChevalleyBasis(build_root_system(RootType("A", 2)))
cb._n_cache[((1, 0), (0, 1))] *= 2
cb._n_cache[((0, 1), (1, 0))] *= 2
expect_failure("pair law", cb._verify_pair_laws)

# integrality before int(): C_31 of G2 becomes N(a1,a2) N(a1,a1+a2) / 6
cb = ChevalleyBasis(build_root_system(RootType("G", 2)))
a1, a2 = cb.rs.simple_roots
cb._n_cache[((1, 0), (2, 1))] = 1
expect_failure("fast table", lambda: commutator_constants_fast(cb, a1, a2))

# the {1, 2, 3} bound: scale every collected coefficient by 5
collect = chevalley.collect
chevalley.collect = lambda *args: {r: c.scale(5) for r, c in collect(*args).items()}
cb = ChevalleyBasis(build_root_system(RootType("A", 2)))
a1, a2 = cb.rs.simple_roots
expect_failure("constant bound", lambda: commutator_constants(cb, a1, a2))

# packed exponent slots: s^40000 under x_a1, whose series reaches t^2
reg = VarRegistry(["s"])
expect_failure("slot bound", lambda: product_of_root_elements(
    cb, reg, [(a1, reg.var("s", 40000))], (1, 1)), SlotOverflow)

# the one-column lemma: a factor and a slot outside the cone, and a
# comparison of the columns of two cones
s = reg.var("s")
expect_failure("cone factor", lambda: product_of_root_elements(
    cb, reg, [(a1, s), ((0, -1), s)], (1, 1)))
U = product_of_root_elements(cb, reg, [(a1, s)], (1, 1))
expect_failure("cone slot", lambda: collect(cb, U, [a1, (0, -1)]))
expect_failure("columns", lambda: U == product_of_root_elements(cb, reg, [(a1, s)], (1, 0)))

# h_f exists only for a nonsingular Cartan matrix: a row reduction that
# drops a pivot
row_reduce = chevalley.row_reduce

def drop_pivot(rows, ncols):
    reduced, pivots = row_reduce(rows, ncols)
    return reduced, pivots[:-1]

chevalley.row_reduce = drop_pivot
expect_failure("singular cartan", lambda: ChevalleyBasis(build_root_system(RootType("A", 2))))
chevalley.row_reduce = row_reduce

# Cartan integers are checked, not truncated: (alpha_1, alpha_2) = -1/2 in
# A2 makes 2(alpha_1, alpha_2)/|alpha_1|^2 = -1/2, which int() reads as 0
expect_failure("cartan", lambda: rootcore._cartan_matrix(
    [[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]]))
# and building a root system from a Gram matrix with |alpha_2|^2 = 3, which
# makes <alpha_1, alpha_2^vee> = -2/3
gram = rootcore._gram_matrix

def bad_gram(t):
    g = gram(t)
    g[1][1] = Fraction(3)
    return g

rootcore._gram_matrix = bad_gram
expect_failure("cartan pairing", lambda: RootSystem(RootType("A", 2)))
rootcore._gram_matrix = gram
rs = RootSystem(RootType("A", 2))
rs.gram[1][1] = 3
expect_failure("coroot", lambda: rs.coroot_coords(rs.root_from_coords((1, 1))))

# the sign search is bounded at six slots
expect_failure("sign search", lambda: _sign_search(list("abcdefg"), None, None))

# commutator witnesses: C_ij + 1 on a witness's own entry, and a dropped
# factor, each fail the F_p re-check
from relroots.finitelab import check_witnesses, find_witnesses
chevalley.collect = collect
c2 = RootType("C", 2)
for label, edit in [("witness constant", lambda w, tab: tab.update({w.ij: tab[w.ij] + 1})),
                    ("witness factor", lambda w, tab: tab.pop(
                        next(kl for kl in tab if kl != w.ij and tab[kl] % 3)))]:
    ws = find_witnesses(c2, 3)
    k = next(k for k, w in enumerate(ws) if len(w.table) > 1 and w.table[w.ij] % 3 == 1)
    table = dict(ws[k].table)
    edit(ws[k], table)
    ws[k] = dataclasses.replace(ws[k], table=table)
    expect_failure(label, lambda: check_witnesses(c2, 3, ws))

# the extraspecial pairs come from ``splits``: a search that finds nothing
splits = chevalley.splits
chevalley.splits = lambda *args: iter(())
expect_failure("extraspecial", lambda: ChevalleyBasis(build_root_system(RootType("A", 2))))
chevalley.splits = splits

# N((1,0,0), (0,1,1)) of A3 divides by N((1,1,1), -eps), eps = (0,0,1): zero it
cb = ChevalleyBasis(build_root_system(RootType("A", 3)))
cb._n_cache[((1, 1, 1), (0, 0, -1))] = 0
cb._n_cache.pop(((1, 0, 0), (0, 1, 1)))
expect_failure("extraspecial denominator", lambda: cb.struct_const((1, 0, 0), (0, 1, 1)))

# (ad e_a1)^2 / 2 of C2 takes e_a2 to N(a1, a2) N(a1, a1 + a2) / 2 e_(2a1+a2):
# halve N(a1, a1 + a2) = +-2 once every constant is cached
cb = ChevalleyBasis(build_root_system(RootType("C", 2)))
cb.brackets
cb._n_cache[((1, 0), (1, 1))] //= 2
expect_failure("divided power", lambda: cb._root_entry((1, 0)))

# C_ij must be one monomial: add the constant 1 to every collected coefficient
chevalley.collect = lambda *args: {r: c + c.registry.const(1) for r, c in collect(*args).items()}
cb = ChevalleyBasis(build_root_system(RootType("A", 2)))
expect_failure("monomial", lambda: commutator_constants(cb, *cb.rs.simple_roots))
chevalley.collect = collect
"""


def test_constant_checks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-O", "-c", PERTURBED_CHECKS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "pair law", "fast table", "constant bound", "slot bound", "cone factor",
        "cone slot", "columns", "singular cartan", "cartan", "cartan pairing", "coroot",
        "sign search", "witness constant", "witness factor", "extraspecial",
        "extraspecial denominator", "divided power", "monomial"]
    assert "|N" in lines[0] and "not an integer" in lines[1]
    assert "not in {1, 2, 3}" in lines[2] and "overflow" in lines[3]
    assert all("outside the cone" in line for line in lines[4:6])
    assert "different columns" in lines[6] and "is singular" in lines[7]
    assert all("not an integer" in line for line in lines[8:10])
    assert "non-integer" in lines[10] and "7 slots" in lines[11]
    assert all("not the product of its table" in line for line in lines[12:14])
    assert "no decomposition for (1,1)" in lines[14]
    assert "vanishes on an extraspecial pair" in lines[15]
    assert "divided power not integral" in lines[16] and "not a monomial" in lines[17]


ANTISYMMETRY = """
from relroots.chevalley import ChevalleyBasis
from relroots.rootcore import RootType, build_root_system

# negate one of the two entries of an A2 pair: |N| = p+1 still holds on both
cb = ChevalleyBasis(build_root_system(RootType("A", 2)))
cb._n_cache[((1, 0), (0, 1))] *= -1
cb._verify_pair_laws()
"""


def test_antisymmetry_check_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", ANTISYMMETRY],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stderr.splitlines()[-1] == (
        "relroots.rootcore.VerificationError: N is not antisymmetric on (0,1), (1,0)")


INTEGRALITY = {
    # N((1,0,0), (0,1,1)) of A3 is the Jacobi quotient N((0,1,1), -eps)
    # N((1,0,0), (0,1,0)) / N((1,1,1), -eps), eps = (0,0,1), with numerator
    # -1 or 1; a denominator of 2 leaves a remainder
    "jacobi quotient": ("A", 3, ((1, 1, 1), (0, 0, -1)), 2, ((1, 0, 0), (0, 1, 1))),
    # N((2,1), (-1,-1)) of C2 is -|(1,0)|^2 / |(2,1)|^2 N((1,1), (1,0)) =
    # -2 N((1,1), (1,0)) / 4, exact for N = -2, not for N = -1
    "cyclic relation": ("C", 2, ((1, 1), (1, 0)), -1, ((2, 1), (-1, -1))),
}

STRUCT_CONST = """
import ast
import sys
from relroots.chevalley import ChevalleyBasis
from relroots.rootcore import RootType, build_root_system

series, rank, perturbed, value, pair = ast.literal_eval(sys.argv[1])
cb = ChevalleyBasis(build_root_system(RootType(series, rank)))
cb._n_cache[perturbed] = value
cb._n_cache.pop(pair, None)
cb.struct_const(*pair)
"""


@pytest.mark.parametrize("label", sorted(INTEGRALITY))
def test_struct_const_integrality_survives_optimized_mode(label):
    # each integer division of struct_const checks its remainder
    series, rank, _, _, (a, b) = INTEGRALITY[label]
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", STRUCT_CONST, repr(INTEGRALITY[label])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("relroots.rootcore.VerificationError: N(%s, %s) = "
                           % tuple(",".join(map(str, r)).join("()") for r in (a, b)))
    assert last.endswith(" is not an integer")
