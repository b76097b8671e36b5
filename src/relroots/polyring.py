"""Exact coefficient arithmetic for the symbolic group computations.

Multivariate polynomials with rational coefficients over a fixed ordered
set of indeterminates, in the ring localized at ``eps**2 - eps`` when one
of them is ``eps`` (the only localization the identities need), and the
one exact row reduction over Q and F_p that every linear-algebra question
here uses.

A :class:`PolyElem` over n variables is one dict {packed exponent:
coefficient}.  The int key holds the exponent of variable i in bits
16i..16i+15 and, in the slot after the last variable, the power of
w = 1/(eps**2 - eps), so the product of two terms is one integer addition
and ``chevalley`` multiplies these dicts as they are.  The localized ring
is Q[vars, w] / (w*(eps**2 - eps) - 1).  The one binomial is a Groebner
basis of its ideal with leading term w*eps**2, so the normal form is
unique: no term has both w >= 1 and eps >= 2, and w*eps**2 is rewritten
to w*eps + 1 until none does.  Every PolyElem is kept in that form, so
equality is plain dict equality.  No slot may pass 2**16 - 1: ``var`` and
``*`` check it, and products of root elements check a running bound
before any column work; a value past it raises :class:`SlotOverflow`.

Everything is exact: coefficients are Python ints or ``Fraction``s, never
floats.  Values are immutable after construction.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

EPS = "eps"

_BITS = 16  # exponent bits per slot of a packed term, one struct "H"
_SLOT_MAX = (1 << _BITS) - 1


def _norm_coeff(c):
    """Collapse integral Fractions to int so products stay in fast int arithmetic."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class RegistryMismatch(ValueError):
    pass


class LocalizationError(ValueError):
    pass


class SlotOverflow(ValueError):
    """An exponent does not fit a packed slot: bad input, not a failed check."""


def _require_slot(e):
    """``e``, unless it passes the largest exponent a slot holds."""
    if e > _SLOT_MAX:
        raise SlotOverflow("exponents up to %d overflow a %d-bit packed slot"
                           % (e, _BITS))
    return e


@lru_cache(maxsize=None)
def _slot_struct(n):
    return struct.Struct("<%dH" % (n + 1))


def _slots(key, n):
    """The n + 1 slots of a packed key over n variables, the power of w last."""
    return _slot_struct(n).unpack(key.to_bytes(2 * n + 2, "little"))


def _decode(key, n):
    """(exponents of the n variables, power of w) of a packed key."""
    slots = _slots(key, n)
    return slots[:n], slots[n]


def _slot_maxima(terms, n):
    """The largest exponent in each slot, w last, over the keys of ``terms``."""
    return [max(col) for col in zip(*(_slots(k, n) for k in terms))] or [0] * (n + 1)


class VarRegistry:
    """Ordered set of indeterminate names, fixing the term order.

    The order of ``names`` is the canonical variable order; ``units[i]`` is
    the packed key of variable i to the first power, ``w_unit`` that of w,
    and ``top_bits`` has the top bit of every slot.  A variable named
    ``eps`` plays a special role: the ring is localized at ``eps**2 - eps``.
    """

    __slots__ = ("names", "_index", "eps_index", "units", "w_unit", "top_bits")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self.eps_index = self._index.get(EPS)
        self.units = tuple(1 << (_BITS * i) for i in range(len(names)))
        self.w_unit = 1 << (_BITS * len(names))
        self.top_bits = (1 << (_BITS - 1)) * sum(self.units + (self.w_unit,))

    def __eq__(self, other):
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VarRegistry(%r)" % (self.names,)

    def index(self, name):
        return self._index[name]

    def zero(self):
        return PolyElem(self, {})

    def const(self, c):
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        return PolyElem(self, {0: c} if c else {}, _canonical=True)

    def var(self, name, power=1):
        if power < 0:
            raise ValueError("negative power %d of %s" % (power, name))
        return PolyElem(self, {_require_slot(power) * self.units[self.index(name)]: 1},
                        _canonical=True)

    def eps_unit_inverse(self):
        """The localized unit w = ``(eps**2 - eps)**-1``."""
        if self.eps_index is None:
            raise LocalizationError("registry has no 'eps' variable")
        return PolyElem(self, {self.w_unit: 1}, _canonical=True)


def _reduce(terms, registry):
    """The normal form of ``terms``: w*eps**2 -> w*eps + 1 until no term has
    both w >= 1 and eps >= 2 (module docstring)."""
    w1, e1 = registry.w_unit, registry.units[registry.eps_index]
    shift = _BITS * registry.eps_index
    out = {}
    while terms:
        rest = {}
        for k, c in terms.items():
            if k >= w1 and (k >> shift) & _SLOT_MAX >= 2:
                for r in (k - e1, k - w1 - 2 * e1):
                    rest[r] = rest.get(r, 0) + c
            else:
                out[k] = out.get(k, 0) + c
        terms = rest
    return {k: _norm_coeff(c) for k, c in out.items() if c}


class PolyElem:
    """An element of the (localized) polynomial ring, as packed terms.

    ``terms`` maps packed exponents (module docstring) to nonzero
    int/Fraction coefficients, in the normal form with no w*eps**2
    factor; equality is structural.
    """

    __slots__ = ("registry", "terms")

    def __init__(self, registry, terms, _canonical=False):
        self.registry = registry
        if not _canonical:
            terms = {k: _norm_coeff(c) for k, c in terms.items() if c != 0}
            if terms and max(terms) >= registry.w_unit:
                if registry.eps_index is None:
                    raise LocalizationError("localization requires an 'eps' variable")
                terms = _reduce(terms, registry)
        self.terms = terms

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PolyElem):
            if other.registry != self.registry:
                raise RegistryMismatch("operands over different registries")
            return other
        if isinstance(other, (int, Fraction)):
            return self.registry.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a sum of normal forms is one: no new monomial appears
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, 0) + c
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = _norm_coeff(s)
        return PolyElem(self.registry, terms, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return PolyElem(self.registry, {k: -c for k, c in self.terms.items()},
                        _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # two slots below 2**15 cannot add up past _SLOT_MAX
        if (reduce(or_, self.terms, 0) | reduce(or_, other.terms, 0)) & self.registry.top_bits:
            n = len(self.registry.names)
            _require_slot(max(x + y for x, y in zip(_slot_maxima(self.terms, n),
                                                    _slot_maxima(other.terms, n))))
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                terms[k] = terms.get(k, 0) + c1 * c2
        return PolyElem(self.registry, terms)

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by an exact scalar (possibly a non-integer rational)."""
        if c == 0:
            return self.registry.zero()
        return PolyElem(self.registry,
                        {k: _norm_coeff(v * c) for k, v in self.terms.items()},
                        _canonical=True)

    # -- structure -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.registry.const(other)
        if not isinstance(other, PolyElem):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self):
        return hash((self.registry, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.registry.names
        parts = []
        # lexicographic on the registry order, then w, highest exponent first
        for (exp, w), c in sorted(((_decode(k, len(names)), c)
                                   for k, c in self.terms.items()), reverse=True):
            factors = [] if c == 1 and (any(exp) or w) else [str(c)]
            factors += [name if e == 1 else "%s^%d" % (name, e)
                        for name, e in zip(names, exp) if e]
            if w:
                factors.append("(eps^2-eps)^-%d" % w)
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


# -- exact linear algebra -----------------------------------------------


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def row_reduce(rows, ncols, p=None):
    """Row reduction over Q, or over F_p when ``p`` is given.

    Pivots are sought in the first ``ncols`` columns only; any further
    columns (an augmented block) are carried along.  Returns the reduced
    rows, pivot rows first, and the pivot columns; the rank is
    ``len(pivots)``.  Over F_p the rows are the reduced row echelon form.
    Over Q the entries are ints or Fractions; each row is scaled to
    integers, and eliminating with pivot a sets row := (a*row - f*top) /
    gcd, so every row comes back as integers, a nonzero multiple of the
    row Fraction Gauss-Jordan would hold (the eliminations, swaps and zero
    patterns are the same).
    """
    if p is None:
        mat = []
        for row in rows:
            den = math.lcm(*(x.denominator for x in row))
            mat.append([x.numerator * (den // x.denominator) for x in row])
    else:
        mat = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        if p is not None:
            inv = pow(mat[r][c], -1, p)
            mat[r] = [x * inv % p for x in mat[r]]
            # the pivot is 1: a row changes only where the pivot row is nonzero
            nonzero = [(k, y) for k, y in enumerate(mat[r]) if y]
        top = mat[r]
        a = top[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                if p is None:
                    new = [a * x - f * y for x, y in zip(row, top)]
                    g = math.gcd(*new)
                    mat[i] = [x // g for x in new] if g > 1 else new
                else:
                    for k, y in nonzero:
                        row[k] = (row[k] - f * y) % p
        pivots.append(c)
    return mat, pivots
