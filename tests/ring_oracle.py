"""The reference ring for ``relroots.polyring``, written apart from it.

A polynomial over an ordered set of names, keyed by exponent tuples,
divided by ``(eps**2 - eps)**denom_power`` with a numerator that
``eps**2 - eps`` does not divide.  This was relroots' own representation
before ``PolyElem`` stored packed terms reduced by w*(eps**2 - eps) = 1;
the agreement sweep in ``test_polyring`` checks the packed ring against it.
"""

from fractions import Fraction


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class RefRegistry:
    def __init__(self, names):
        self.names = tuple(names)
        self.eps_index = self.names.index("eps") if "eps" in self.names else None

    def zero(self):
        return RefPoly(self, {})

    def const(self, c):
        c = _norm_coeff(Fraction(c))
        return RefPoly(self, {(0,) * len(self.names): c} if c else {})

    def var(self, name, power=1):
        exp = [0] * len(self.names)
        exp[self.names.index(name)] = power
        return RefPoly(self, {tuple(exp): 1})

    def eps_unit_inverse(self):
        return RefPoly(self, {(0,) * len(self.names): 1}, denom_power=1)


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


class RefPoly:
    """A polynomial divided by ``(eps**2 - eps)**denom_power``, in lowest terms."""

    def __init__(self, registry, terms, denom_power=0):
        self.registry = registry
        terms = {e: _norm_coeff(c) for e, c in terms.items() if c != 0}
        k = registry.eps_index
        while denom_power > 0 and terms:
            reduced = _divide_by_eps2_minus_eps(terms, k)
            if reduced is None:
                break
            terms = reduced
            denom_power -= 1
        self.terms = terms
        self.denom_power = denom_power if terms else 0

    def is_zero(self):
        return not self.terms

    def _scale_denominator(self, extra):
        """The numerator times (eps**2 - eps)**extra, over the larger power."""
        k = self.registry.eps_index
        num = dict(self.terms)
        for _ in range(extra):
            nxt = {}
            for exp, c in num.items():
                for d, uc in ((2, 1), (1, -1)):
                    key = exp[:k] + (exp[k] + d,) + exp[k + 1:]
                    nxt[key] = nxt.get(key, 0) + c * uc
            num = nxt
        return num

    def __add__(self, other):
        d = max(self.denom_power, other.denom_power)
        terms = self._scale_denominator(d - self.denom_power)
        for exp, c in other._scale_denominator(d - other.denom_power).items():
            terms[exp] = terms.get(exp, 0) + c
        return RefPoly(self.registry, terms, d)

    def __neg__(self):
        return RefPoly(self.registry, {e: -c for e, c in self.terms.items()},
                       self.denom_power)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return RefPoly(self.registry, terms, self.denom_power + other.denom_power)

    def scale(self, c):
        return RefPoly(self.registry, {e: v * c for e, v in self.terms.items()},
                       self.denom_power)

    def __eq__(self, other):
        return self.denom_power == other.denom_power and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        # lexicographic on the registry order, highest exponent first
        for exp, c in sorted(self.terms.items(), reverse=True):
            factors = [str(c)] if c != 1 or not any(exp) else []
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
