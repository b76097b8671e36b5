"""Exact coefficient arithmetic for the symbolic group computations.

Multivariate polynomials with rational coefficients over a fixed ordered
set of indeterminates, optionally divided by a power of ``eps**2 - eps``
(the only localization the identities need), plus the one exact row
reduction over Q and F_p that every linear-algebra question here uses.

Everything is exact: coefficients are Python ints or ``Fraction``s, never
floats.  Values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction

EPS = "eps"


def _norm_coeff(c):
    """Collapse integral Fractions to int so products stay in fast int arithmetic."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class RegistryMismatch(ValueError):
    pass


class LocalizationError(ValueError):
    pass


class VarRegistry:
    """Ordered set of indeterminate names, fixing the term order.

    The order of ``names`` is the canonical variable order; exponent
    vectors of every :class:`PolyElem` over this registry are indexed by
    it.  A variable named ``eps`` plays a special role: the ring may be
    localized at ``eps**2 - eps``.
    """

    __slots__ = ("names", "_index", "eps_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self.eps_index = self._index.get(EPS)

    def __len__(self):
        return len(self.names)

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

    def one(self):
        return self.const(1)

    def const(self, c):
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return PolyElem(self, {})
        return PolyElem(self, {(0,) * len(self.names): c})

    def var(self, name, power=1):
        exp = [0] * len(self.names)
        exp[self.index(name)] = power
        return PolyElem(self, {tuple(exp): 1})

    def eps_unit_inverse(self):
        """The localized unit ``(eps**2 - eps)**-1``."""
        if self.eps_index is None:
            raise LocalizationError("registry has no 'eps' variable")
        return PolyElem(self, {(0,) * len(self.names): 1}, denom_power=1)


def _divide_by_eps_minus_one(terms, k):
    """Exact division of a term dict by ``(eps - 1)``; None if inexact.

    Synthetic division in the eps exponent, grouping terms by the
    remaining exponents.
    """
    groups = {}
    for exp, c in terms.items():
        rest = exp[:k] + (0,) + exp[k + 1:]
        groups.setdefault(rest, {})[exp[k]] = c
    out = {}
    for rest, coeffs in groups.items():
        deg = max(coeffs)
        quot = [0] * deg
        carry = 0
        for d in range(deg, 0, -1):
            carry = coeffs.get(d, 0) + carry
            quot[d - 1] = carry
        if coeffs.get(0, 0) + carry != 0:
            return None
        for d, c in enumerate(quot):
            if c != 0:
                out[rest[:k] + (d,) + rest[k + 1:]] = c
    return out


def _divide_by_eps2_minus_eps(terms, k):
    """Exact division by ``eps**2 - eps = eps*(eps - 1)``; None if inexact."""
    if any(exp[k] == 0 for exp in terms):
        return None
    shifted = {exp[:k] + (exp[k] - 1,) + exp[k + 1:]: c for exp, c in terms.items()}
    return _divide_by_eps_minus_one(shifted, k)


class PolyElem:
    """A polynomial divided by ``(eps**2 - eps)**denom_power``.

    ``terms`` maps exponent tuples (one slot per registry variable) to
    nonzero int/Fraction coefficients.  Canonical form: no zero
    coefficients, and when ``denom_power > 0`` the numerator is not
    divisible by ``eps**2 - eps``.  Equality is structural.
    """

    __slots__ = ("registry", "terms", "denom_power")

    def __init__(self, registry, terms, denom_power=0, _canonical=False):
        self.registry = registry
        if denom_power < 0:
            raise ValueError("negative denominator power")
        if denom_power > 0 and registry.eps_index is None:
            raise LocalizationError("localization requires an 'eps' variable")
        if not _canonical:
            terms = {e: _norm_coeff(c) for e, c in terms.items() if c != 0}
            k = registry.eps_index
            while denom_power > 0 and terms:
                reduced = _divide_by_eps2_minus_eps(terms, k)
                if reduced is None:
                    break
                terms = reduced
                denom_power -= 1
            if not terms:
                denom_power = 0
        self.terms = terms
        self.denom_power = denom_power

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        zero = (0,) * len(self.registry.names)
        return self.denom_power == 0 and all(e == zero for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        zero = (0,) * len(self.registry.names)
        return self.terms.get(zero, 0)

    def variables(self):
        used = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(self.registry.names[i])
        if self.denom_power > 0:
            used.add(EPS)
        return used

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
        a, b = self, other
        # common denominator power
        if a.denom_power != b.denom_power:
            if a.denom_power < b.denom_power:
                a, b = b, a
            b = b._scale_denominator(a.denom_power - b.denom_power)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            s = terms.get(exp, 0) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = _norm_coeff(s)
        return PolyElem(self.registry, terms, a.denom_power)

    __radd__ = __add__

    def __neg__(self):
        return PolyElem(self.registry, {e: -c for e, c in self.terms.items()},
                        self.denom_power, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(exp, 0) + c1 * c2
                if s == 0:
                    terms.pop(exp, None)
                else:
                    terms[exp] = _norm_coeff(s)
        return PolyElem(self.registry, terms, self.denom_power + other.denom_power)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.registry.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c):
        """Multiply by an exact scalar (possibly a non-integer rational)."""
        if c == 0:
            return self.registry.zero()
        return PolyElem(self.registry,
                        {e: _norm_coeff(v * c) for e, v in self.terms.items()},
                        self.denom_power)

    def _scale_denominator(self, extra):
        """Multiply numerator by (eps**2 - eps)**extra without reducing."""
        if extra == 0:
            return self
        k = self.registry.eps_index
        unit = {}
        e2 = [0] * len(self.registry.names)
        e1 = list(e2)
        e2[k], e1[k] = 2, 1
        unit[tuple(e2)] = 1
        unit[tuple(e1)] = -1
        num = dict(self.terms)
        for _ in range(extra):
            nxt = {}
            for exp, c in num.items():
                for ue, uc in unit.items():
                    key = tuple(x + y for x, y in zip(exp, ue))
                    s = nxt.get(key, 0) + c * uc
                    if s == 0:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = s
            num = nxt
        return PolyElem(self.registry, num, self.denom_power + extra, _canonical=True)

    def localize_divide(self):
        """Divide by ``eps**2 - eps``, staying in the localized ring."""
        return PolyElem(self.registry, self.terms, self.denom_power + 1)

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings):
        """Substitute variables by polynomials (or exact scalars).

        Unbound variables are left alone.  ``eps`` may only be bound to a
        constant; when the element carries a denominator the constant c
        must satisfy c**2 - c != 0.
        """
        reg = self.registry
        bound = {}
        for name, val in bindings.items():
            i = reg.index(name)
            if not isinstance(val, PolyElem):
                val = reg.const(val)
            elif val.registry != reg:
                raise RegistryMismatch("binding over a different registry")
            bound[i] = val

        denom_scalar = 1
        if self.denom_power > 0 and reg.eps_index in bound:
            v = bound[reg.eps_index]
            if not v.is_constant():
                raise LocalizationError("eps must be bound to a constant under localization")
            c = v.constant_value()
            u = c * c - c
            if u == 0:
                raise LocalizationError("eps binding makes eps**2 - eps vanish")
            denom_scalar = Fraction(1, 1) / Fraction(u) ** self.denom_power

        out = reg.zero()
        for exp, coeff in self.terms.items():
            term = reg.const(coeff)
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                if i in bound:
                    term = term * bound[i] ** e
                else:
                    term = term * reg.var(reg.names[i], e)
            out = out + term
        if self.denom_power > 0 and reg.eps_index in bound:
            out = out.scale(denom_scalar)
        else:
            out = PolyElem(reg, out.terms, out.denom_power + self.denom_power)
        return out

    # -- structure -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.registry.const(other)
        if not isinstance(other, PolyElem):
            return NotImplemented
        return (self.registry == other.registry and self.denom_power == other.denom_power
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.registry, self.denom_power, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in the canonical lexicographic-on-registry order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = [str(c)] if c != 1 or not any(exp) else []
            if c == 1 and not any(exp):
                factors = ["1"]
            for name, e in zip(self.registry.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            parts.append("*".join(factors))
        s = " + ".join(parts).replace("+ -", "- ")
        if self.denom_power:
            s = "(%s)/(eps^2-eps)^%d" % (s, self.denom_power)
        return s


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
    """Reduced row echelon form over Q, or over F_p when ``p`` is given.

    Pivots are sought in the first ``ncols`` columns only; any further
    columns (an augmented block) are carried along.  Returns the reduced
    rows, pivot rows first, and the pivot columns; the rank is
    ``len(pivots)``.
    """
    if p is None:
        mat = [[Fraction(x) for x in row] for row in rows]
    else:
        mat = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        if p is None:
            inv = 1 / mat[r][c]
            mat[r] = top = [x * inv for x in mat[r]]
        else:
            inv = pow(mat[r][c], -1, p)
            mat[r] = top = [x * inv % p for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                if p is None:
                    mat[i] = [x - f * y for x, y in zip(row, top)]
                else:
                    mat[i] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(c)
    return mat, pivots
