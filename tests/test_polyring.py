import random
from fractions import Fraction

import pytest

from relroots.polyring import (
    LocalizationError,
    PolyElem,
    RegistryMismatch,
    VarRegistry,
    row_reduce,
)


@pytest.fixture
def reg():
    return VarRegistry(["Z", "Y", "v", "s", "t", "u", "eps"])


def test_registry_rejects_duplicates():
    with pytest.raises(ValueError):
        VarRegistry(["s", "s"])


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
    prod = (s * t) * (s ** 2 * t)
    (exp, coeff), = prod.terms.items()
    assert coeff == 1
    expected = [0] * len(reg.names)
    expected[reg.index("s")] = 3
    expected[reg.index("t")] = 2
    assert exp == tuple(expected)
    assert prod == s ** 3 * t ** 2


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
    one = reg.one()
    inv = one.localize_divide()
    assert inv == reg.eps_unit_inverse()
    eps = reg.var("eps")
    unit = eps ** 2 - eps
    assert unit.localize_divide() == one
    # eps^3 - eps^2 = eps * (eps^2 - eps); oracle: multiply back
    p = eps ** 3 - eps ** 2
    assert p.localize_divide() == eps
    assert p.localize_divide() * unit == p


def test_localize_roundtrip_random():
    reg = VarRegistry(["Z", "v", "eps"])
    rng = random.Random(1)
    unit = reg.var("eps") ** 2 - reg.var("eps")
    for _ in range(1000):
        p = _random_poly(reg, rng)
        assert p.localize_divide() * unit == p


def test_denominator_minimality(reg):
    eps = reg.var("eps")
    unit = eps ** 2 - eps
    p = (unit * reg.var("Z")).localize_divide()
    assert p.denom_power == 0
    assert p == reg.var("Z")


def test_substitute_identity(reg):
    p = reg.var("Z", 3) * reg.var("v")
    assert p.substitute({"Z": reg.one()}) == reg.var("v")


def test_substitute_localized_constant(reg):
    p = reg.eps_unit_inverse()
    assert p.substitute({"eps": 2}) == reg.const(Fraction(1, 2))
    with pytest.raises(LocalizationError):
        p.substitute({"eps": 1})
    with pytest.raises(LocalizationError):
        p.substitute({"eps": reg.var("Z")})


def test_substitute_composite(reg):
    # s -> Z^2, t -> -Z*eps*(eps^2-eps)^-1*v applied to s^2*t
    p = reg.var("s") ** 2 * reg.var("t")
    t_val = -(reg.var("Z") * reg.var("eps") * reg.var("v")).localize_divide()
    got = p.substitute({"s": reg.var("Z") ** 2, "t": t_val})
    expected = -(reg.var("Z") ** 5 * reg.var("eps") * reg.var("v")).localize_divide()
    # oracle: term-by-term expansion
    assert got.denom_power == 1
    (exp, coeff), = got.terms.items()
    assert coeff == -1
    assert exp[reg.index("Z")] == 5
    assert exp[reg.index("eps")] == 1
    assert exp[reg.index("v")] == 1
    assert got == expected


def test_substitution_commutes_with_arithmetic():
    reg = VarRegistry(["Z", "v", "eps"])
    rng = random.Random(2)
    for _ in range(300):
        a = _random_poly(reg, rng)
        b = _random_poly(reg, rng)
        binding = {"Z": _random_poly(reg, rng), "v": reg.const(rng.randint(-3, 3))}
        assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)
        assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)


def test_row_reduce_rank_nullspace_inverse():
    # rank 2 over Q but 1 over F_2: the rows agree mod 2
    rows = [[1, 1, 0], [1, -1, 2]]
    assert row_reduce(rows, 3)[1] == [0, 1]
    assert row_reduce(rows, 3, 2)[1] == [0]
    # nullspace over Q: the free column 2 gives (-1, 1, 1)
    reduced, pivots = row_reduce(rows, 3)
    v = [0, 0, 1]
    for row, pc in zip(reduced, pivots):
        v[pc] = -row[2]
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
