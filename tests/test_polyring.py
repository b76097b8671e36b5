import random
from fractions import Fraction

import pytest
from eval_oracle import evaluate
from ring_oracle import RefPoly, RefRegistry

from relroots.polyring import (
    LocalizationError,
    PolyElem,
    RegistryMismatch,
    SlotOverflow,
    VarRegistry,
    _decode,
    row_reduce,
)
from relroots.rootcore import VerificationError


@pytest.fixture
def reg():
    return VarRegistry(["Z", "Y", "v", "s", "t", "u", "eps"])


def test_registry_rejects_duplicates():
    with pytest.raises(ValueError):
        VarRegistry(["s", "s"])


def test_product_slot_bound_at_its_edge(reg):
    # a product may reach 2**16 - 1 in any slot, w's included, and no
    # further; the exact check runs only when a top slot bit is set
    s, t = reg.var("s"), reg.var("t")

    def w(k):
        return PolyElem(reg, {k * reg.w_unit: 1})

    assert reg.var("s", 32767) * reg.var("s", 32767) == reg.var("s", 65534)
    assert reg.var("s", 32767) * reg.var("s", 32768) == reg.var("s", 65535)
    assert reg.var("s", 65534) * s == reg.var("s", 65535)
    assert (reg.var("s", 40000) * t) * reg.var("t", 40000) == \
        reg.var("s", 40000) * reg.var("t", 40001)
    assert (w(32767) * w(32768)).terms == {65535 * reg.w_unit: 1}
    for a, b in [(reg.var("s", 32768), reg.var("s", 32768)), (reg.var("s", 65535), s),
                 (t + reg.var("s", 40000), reg.var("s", 30000) * t), (w(32768), w(32768) * t)]:
        with pytest.raises(SlotOverflow, match="overflow"):
            a * b


def test_additive_cancellation(reg):
    z = reg.var("Z")
    assert (z + 1) + reg.const(-1) == z


def test_absorbing_zero(reg):
    p = reg.var("Z") * reg.var("v")
    q = p * reg.const(0)
    assert q.is_zero()
    assert q.terms == {}


def test_monomial_product(reg):
    s, t = reg.var("s"), reg.var("t")
    # independent oracle: compare exponent vectors directly
    prod = (s * t) * (s * s * t)
    (key, coeff), = prod.terms.items()
    assert coeff == 1
    expected = [0] * len(reg.names)
    expected[reg.index("s")] = 3
    expected[reg.index("t")] = 2
    assert _decode(key, len(reg.names)) == (tuple(expected), 0)
    assert prod == s * s * s * t * t


def test_registry_mismatch(reg):
    other = VarRegistry(["x"])
    with pytest.raises(RegistryMismatch):
        reg.var("Z") + other.var("x")


def _random_poly(reg, rng, nterms=3, maxdeg=3):
    p = reg.zero()
    for _ in range(rng.randint(0, nterms)):
        term = reg.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for name in rng.sample(reg.names, rng.randint(0, 2)):
            term = term * reg.var(name, rng.randint(1, maxdeg))
        p = p + term
    return p


def test_ring_axioms_random():
    reg = VarRegistry(["Z", "Y", "v", "eps"])
    rng = random.Random(0)
    for _ in range(1000):
        a = _random_poly(reg, rng)
        b = _random_poly(reg, rng)
        c = _random_poly(reg, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_localize_divide_definitions(reg):
    one = reg.const(1)
    inv = one * reg.eps_unit_inverse()
    assert inv == reg.eps_unit_inverse()
    eps = reg.var("eps")
    unit = eps * eps - eps
    assert unit * inv == one
    # eps^3 - eps^2 = eps * (eps^2 - eps); oracle: multiply back
    p = eps * eps * eps - eps * eps
    assert p * inv == eps
    assert p * inv * unit == p


def test_localize_roundtrip_random():
    reg = VarRegistry(["Z", "v", "eps"])
    rng = random.Random(1)
    eps = reg.var("eps")
    unit = eps * eps - eps
    for _ in range(1000):
        p = _random_poly(reg, rng)
        assert p * reg.eps_unit_inverse() * unit == p


def test_denominator_minimality(reg):
    eps = reg.var("eps")
    unit = eps * eps - eps
    p = (unit * reg.var("Z")) * reg.eps_unit_inverse()
    assert all(_decode(k, len(reg.names))[1] == 0 for k in p.terms)
    assert p == reg.var("Z")


def _random_pair(reg, ref, rng, max_w):
    """One random element, spelled in the packed ring and in the reference ring."""
    p, q = reg.zero(), ref.zero()
    for _ in range(rng.randint(0, 4)):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        tp, tq = reg.const(c), ref.const(c)
        for name in reg.names:
            e = rng.randint(0, 3)
            tp, tq = tp * reg.var(name, e), tq * ref.var(name, e)
        for _ in range(rng.randint(0, max_w)):
            tp, tq = tp * reg.eps_unit_inverse(), tq * ref.eps_unit_inverse()
        p, q = p + tp, q + tq
    return p, q


def _as_ref(p, ref):
    """The reference element of packed terms: w^a is a denominator power a."""
    by_w = {}
    for key, c in p.terms.items():
        exp, w = _decode(key, len(ref.names))
        by_w.setdefault(w, {})[tuple(exp)] = c
    out = ref.zero()
    for w, terms in by_w.items():
        out = out + RefPoly(ref, terms, w)
    return out


def test_packed_ring_agrees_with_the_reference_ring():
    names = ["Z", "v", "eps"]
    reg, ref = VarRegistry(names), RefRegistry(names)
    rng = random.Random(11)
    unit = reg.var("eps", 2) - reg.var("eps")
    unit_ref = ref.var("eps", 2) - ref.var("eps")
    w_free = 0
    for _ in range(1000):
        max_w = rng.choice((0, 3))
        (a, ra), (b, rb), (c, rc) = (_random_pair(reg, ref, rng, max_w) for _ in range(3))
        if rng.random() < 0.25:
            # another spelling of a: a * (eps^2 - eps) * w
            c = a * unit * reg.eps_unit_inverse()
            rc = ra * unit_ref * ref.eps_unit_inverse()
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for got, want in [(a, ra), (b, rb), (c, rc), (a + b, ra + rb), (a - c, ra - rc),
                          (a * b, ra * rb), (a * (b + c), ra * (rb + rc)),
                          (a.scale(k), ra.scale(k))]:
            assert _as_ref(got, ref) == want
            assert got.is_zero() == want.is_zero()
            if not want.denom_power:
                w_free += 1
                assert repr(got) == repr(want)
        assert (a == b) == (ra == rb)
        assert (a == c) == (ra == rc)
        assert (a * b == c) == (ra * rb == rc)
    assert w_free > 1000


def test_evaluate_agrees_with_the_reference_ring():
    names = ["u0", "u1", "v0", "eps"]
    reg, ref = VarRegistry(names), RefRegistry(names)
    rng = random.Random(5)
    skipped = 0
    for _ in range(1000):
        p, q = _random_pair(reg, ref, rng, 0)
        values = {k: rng.choice((0, 0, 1, -2, Fraction(1, 3))) for k in range(len(names))}
        want = 0
        for exp, c in q.terms.items():
            for k, e in enumerate(exp):
                c *= values[k] ** e
            want += c
        assert evaluate(p, values) == want
        skipped += any(values[k] == 0 and e for exp in q.terms for k, e in enumerate(exp))
    assert skipped > 100


def test_evaluate_never_skips_an_eps_denominator():
    # u0 is 0, so the mask would skip the term, but it carries w
    reg = VarRegistry(["u0", "eps"])
    p = reg.var("u0") * reg.eps_unit_inverse() + 1
    for values in ({}, {0: 0}, {0: 2, 1: 3}):
        with pytest.raises(VerificationError, match="eps denominator"):
            evaluate(p, values)


def test_raw_spellings_build_one_element():
    reg = VarRegistry(["Z", "v", "eps"])
    w, e = reg.w_unit, reg.units[reg.index("eps")]
    for raw, reduced in [({w + 2 * e: 1}, {w + e: 1, 0: 1}),
                         ({w + 2 * e: 1, w + e: -1}, {0: 1})]:
        p, q = PolyElem(reg, raw), PolyElem(reg, reduced)
        assert p == q
        assert p.terms == q.terms == reduced
        assert hash(p) == hash(q)


def test_localization_needs_eps():
    reg = VarRegistry(["Z", "v"])
    with pytest.raises(LocalizationError):
        reg.eps_unit_inverse()
    with pytest.raises(LocalizationError):
        PolyElem(reg, {reg.units[0] + reg.w_unit: 1})


def test_row_reduce_rank_nullspace_inverse():
    # rank 2 over Q but 1 over F_2: the rows agree mod 2
    rows = [[1, 1, 0], [1, -1, 2]]
    assert row_reduce(rows, 3)[1] == [0, 1]
    assert row_reduce(rows, 3, 2)[1] == [0]
    # nullspace over Q: the free column 2 gives (-1, 1, 1)
    reduced, pivots = row_reduce(rows, 3)
    v = [0, 0, 1]
    for row, pc in zip(reduced, pivots):
        v[pc] = -Fraction(row[2], row[pc])
    assert v == [-1, 1, 1]
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    # inverse mod 7 by reducing [A | I] to [I | A^-1]
    a = [[2, 3], [1, 4]]
    reduced, pivots = row_reduce([row + [int(i == j) for j in range(2)]
                                  for i, row in enumerate(a)], 2, 7)
    assert pivots == [0, 1]
    inv = [row[2:] for row in reduced]
    prod = [[sum(a[i][k] * inv[k][j] for k in range(2)) % 7 for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    assert all(isinstance(x, int) for row in inv for x in row)


def fraction_row_reduce(rows, ncols):
    """Gauss-Jordan over Q in Fractions, pivot normalized to 1 at each step.

    Written apart from the integer elimination of ``row_reduce``, so it is
    the oracle for it.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = top = [x * inv for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(c)
    return mat, pivots


def leading_one(rows):
    """Each row divided by its first nonzero entry (a pivot row by its
    pivot), so two rows that are nonzero multiples of each other agree."""
    return [[Fraction(x) / next((y for y in row if y), 1) for x in row] for row in rows]


def _random_matrix(rng, nrows, width, rank, fractions, zero_rows):
    """Rows spanned by ``rank`` random rows, some replaced by zero rows."""
    def entry():
        x = rng.randint(-6, 6)
        return Fraction(x, rng.randint(1, 7)) if fractions and rng.random() < 0.4 else x

    basis = [[entry() for _ in range(width)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        rows.append([sum(k * b[j] for k, b in zip(coeffs, basis)) for j in range(width)])
    for i in rng.sample(range(nrows), min(zero_rows, nrows)):
        rows[i] = [0] * width
    return rows


@pytest.mark.parametrize("fractions", [False, True], ids=["ints", "fractions"])
@pytest.mark.parametrize("augmented", [0, 3], ids=["square", "augmented"])
def test_row_reduce_matches_fraction_gauss_jordan(fractions, augmented):
    rng = random.Random(17 + 2 * fractions + augmented)
    for _ in range(200):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(1, 9)
        rank = rng.randint(0, min(nrows, ncols + augmented))
        rows = _random_matrix(rng, nrows, ncols + augmented, rank, fractions,
                              zero_rows=rng.randint(0, 2))
        reduced, pivots = row_reduce(rows, ncols)
        want, want_pivots = fraction_row_reduce(rows, ncols)
        assert (leading_one(reduced), pivots) == (leading_one(want), want_pivots)
        assert all(type(x) is int for row in reduced for x in row)
        assert len(pivots) <= rank


def test_row_reduce_matches_oracle_on_a_lemma3_sized_matrix():
    # about the shape of lemma3's probe matrices: many rows, 15 columns
    rng = random.Random(5)
    rows = _random_matrix(rng, 1000, 15, 12, fractions=False, zero_rows=40)
    rows += [[rng.randint(-4, 4) for _ in range(15)] for _ in range(5)]
    reduced, pivots = row_reduce(rows, 15)
    want, want_pivots = fraction_row_reduce(rows, 15)
    assert (leading_one(reduced), pivots) == (leading_one(want), want_pivots)
    assert len(pivots) == 15
