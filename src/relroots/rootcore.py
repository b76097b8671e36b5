"""Irreducible reduced root systems with Bourbaki numbering.

Roots are integer coordinate vectors over the simple roots; all metric
data (Cartan pairings, length classes) is derived from an exact rational
Gram matrix of the simple roots, so there are no irrational norms
anywhere.  The full root set is generated by closing the simple roots
under the simple reflections and is cross-checked against the closed-form
root counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

SERIES = "ABCDEFG"

ROOT_COUNT = {
    "A": lambda l: l * (l + 1),
    "B": lambda l: 2 * l * l,
    "C": lambda l: 2 * l * l,
    "D": lambda l: 2 * l * (l - 1),
    "E": lambda l: {6: 72, 7: 126, 8: 240}[l],
    "F": lambda l: 48,
    "G": lambda l: 12,
}


class InvalidRootType(ValueError):
    pass


@dataclass(frozen=True)
class RootType:
    series: str
    rank: int

    def __post_init__(self):
        s, l = self.series, self.rank
        ok = (
            (s == "A" and l >= 1)
            or (s == "B" and l >= 2)
            or (s == "C" and l >= 2)
            or (s == "D" and l >= 3)
            or (s == "E" and l in (6, 7, 8))
            or (s == "F" and l == 4)
            or (s == "G" and l == 2)
        )
        if not ok:
            raise InvalidRootType("invalid type %s%d" % (s, l))

    def __str__(self):
        return "%s%d" % (self.series, self.rank)

    @staticmethod
    def parse(text):
        text = text.strip().upper()
        if len(text) < 2 or text[0] not in SERIES or not text[1:].isdigit():
            raise InvalidRootType("cannot parse root type %r" % (text,))
        return RootType(text[0], int(text[1:]))


def _gram_matrix(t: RootType):
    """Exact inner products of the simple roots, Bourbaki numbering.

    Normalized so long roots have squared length 2 in the simply laced
    and B series; C/F/G use a uniform scaling (only ratios matter).
    """
    l = t.rank
    s = t.series
    G = [[Fraction(0)] * l for _ in range(l)]

    def chain(i, j, val=-1):
        G[i][j] = G[j][i] = Fraction(val)

    if s == "A":
        for i in range(l):
            G[i][i] = Fraction(2)
        for i in range(l - 1):
            chain(i, i + 1)
    elif s == "B":
        # alpha_l is short
        for i in range(l):
            G[i][i] = Fraction(2) if i < l - 1 else Fraction(1)
        for i in range(l - 1):
            chain(i, i + 1)
    elif s == "C":
        # alpha_l is long (scaled: short norm 2, long norm 4)
        for i in range(l):
            G[i][i] = Fraction(2) if i < l - 1 else Fraction(4)
        for i in range(l - 2):
            chain(i, i + 1)
        chain(l - 2, l - 1, -2)
    elif s == "D":
        for i in range(l):
            G[i][i] = Fraction(2)
        for i in range(l - 3):
            chain(i, i + 1)
        chain(l - 3, l - 2)
        chain(l - 3, l - 1)
    elif s == "E":
        for i in range(l):
            G[i][i] = Fraction(2)
        # Bourbaki: chain 1-3-4-5-...-l, node 2 attached to 4
        chain(0, 2)
        chain(1, 3)
        for i in range(2, l - 1):
            chain(i, i + 1)
    elif s == "F":
        # alpha_1, alpha_2 long (norm 4); alpha_3, alpha_4 short (norm 2)
        norms = [4, 4, 2, 2]
        for i in range(4):
            G[i][i] = Fraction(norms[i])
        chain(0, 1, -2)
        chain(1, 2, -2)
        chain(2, 3, -1)
    elif s == "G":
        # alpha_1 short (norm 2), alpha_2 long (norm 6)
        G[0][0] = Fraction(2)
        G[1][1] = Fraction(6)
        chain(0, 1, -3)
    return G


@dataclass(frozen=True)
class Root:
    """A root as an integer vector over the simple roots."""

    coords: tuple
    length_class: str  # "short" or "long"

    @property
    def height(self):
        return sum(self.coords)

    def is_positive(self):
        return self.height > 0

    def __neg__(self):
        return Root(tuple(-c for c in self.coords), self.length_class)

    def __str__(self):
        return "(%s)" % ",".join(str(c) for c in self.coords)


class RootSystem:
    """All roots of an irreducible type, closed under reflections.

    Immutable after construction.  ``cartan[i][j]`` is the Cartan integer
    <alpha_j, alpha_i^vee>, so the simple reflection s_i acts by
    ``beta - <beta, alpha_i^vee> * alpha_i``.
    """

    def __init__(self, root_type: RootType):
        self.type = root_type
        self.rank = root_type.rank
        self.gram = _gram_matrix(root_type)
        l = self.rank
        self.cartan = tuple(
            tuple(int(2 * self.gram[i][j] / self.gram[i][i]) for j in range(l))
            for i in range(l)
        )
        coord_set = self._generate()
        long_norm = max(self._norm(c) for c in coord_set)
        self._by_coords = {}
        for c in sorted(coord_set):
            cls = "long" if self._norm(c) == long_norm else "short"
            self._by_coords[c] = Root(c, cls)
        self.roots = tuple(self._by_coords.values())
        self.simple_roots = tuple(self.root_from_coords(
            tuple(1 if j == i else 0 for j in range(l))) for i in range(l))
        expected = ROOT_COUNT[root_type.series](l)
        if len(self.roots) != expected:
            raise AssertionError("generated %d roots for %s, expected %d"
                                 % (len(self.roots), root_type, expected))

    def _norm(self, coords):
        g = self.gram
        return sum(ci * cj * g[i][j]
                   for i, ci in enumerate(coords) if ci
                   for j, cj in enumerate(coords) if cj)

    def _pairing_coords(self, coords, i):
        """<coords, alpha_i^vee> as an exact integer."""
        g = self.gram
        val = 2 * sum(c * g[j][i] for j, c in enumerate(coords) if c) / g[i][i]
        assert val.denominator == 1
        return int(val)

    def _generate(self):
        l = self.rank
        frontier = {tuple(1 if j == i else 0 for j in range(l)) for i in range(l)}
        seen = set(frontier)
        while frontier:
            nxt = set()
            for c in frontier:
                for i in range(l):
                    n = self._pairing_coords(c, i)
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

    # -- lookups ---------------------------------------------------------

    def __contains__(self, item):
        coords = item.coords if isinstance(item, Root) else tuple(item)
        return coords in self._by_coords

    def root_from_coords(self, coords):
        return self._by_coords[tuple(coords)]

    def positive_roots(self):
        return tuple(r for r in self.roots if r.is_positive())

    def cartan_pairing(self, beta: Root, alpha: Root):
        """<beta, alpha^vee> = 2(beta, alpha)/(alpha, alpha)."""
        g = self.gram
        num = sum(bi * aj * g[i][j]
                  for i, bi in enumerate(beta.coords) if bi
                  for j, aj in enumerate(alpha.coords) if aj)
        val = 2 * num / self._norm(alpha.coords)
        assert val.denominator == 1
        return int(val)

    def norm(self, alpha: Root):
        return self._norm(alpha.coords)

    # -- arithmetic ------------------------------------------------------

    def sum_is_root(self, a: Root, b: Root):
        return tuple(x + y for x, y in zip(a.coords, b.coords)) in self._by_coords

    def sum(self, a: Root, b: Root):
        coords = tuple(x + y for x, y in zip(a.coords, b.coords))
        if coords not in self._by_coords:
            raise ValueError("%s + %s is not a root of %s" % (a, b, self.type))
        return self._by_coords[coords]

    def root_string(self, a: Root, b: Root):
        """(p, q) with b - p*a, ..., b + q*a the a-string through b."""
        if a.coords == b.coords or a.coords == (-b).coords:
            raise ValueError("root string undefined for collinear pair")
        p = 0
        while tuple(x - (p + 1) * y for x, y in zip(b.coords, a.coords)) in self._by_coords:
            p += 1
        q = 0
        while tuple(x + (q + 1) * y for x, y in zip(b.coords, a.coords)) in self._by_coords:
            q += 1
        return p, q

    def coroot_coords(self, alpha: Root):
        """alpha^vee as an integer vector over the simple coroots."""
        na = self._norm(alpha.coords)
        out = []
        for i, k in enumerate(alpha.coords):
            v = k * self.gram[i][i] / na
            assert v.denominator == 1
            out.append(int(v))
        return tuple(out)


def collinear(a, b):
    """Whether two coordinate vectors lie on one line through the origin.

    Takes coordinate tuples, or roots and relative roots via ``.coords``.
    """
    a, b = getattr(a, "coords", a), getattr(b, "coords", b)
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def build_root_system(t: RootType) -> RootSystem:
    return RootSystem(t)
