"""Irreducible reduced root systems with Bourbaki numbering.

A root is its integer coordinate tuple over the simple roots: its height
is ``sum(root)``, its length class is membership in
``RootSystem.long_roots``, and ``root_str`` prints it, as ``(1,0,1)``, in
every report.  All metric data is derived from an integer Gram matrix of
the simple roots (each type scaled so that every squared length is an
integer), so there are no irrational norms anywhere.  The Cartan integers
2 g_ij / g_ii are checked integral when they are built, and every pairing
<beta, alpha_i^vee> is then the integer sum over j of beta_j times the
Cartan integer <alpha_j, alpha_i^vee>; squared lengths, which fix the
length classes, are integer quadratic forms.  The full root set is
generated by closing the simple roots under the simple reflections and is
cross-checked against the closed-form root counts.

Three helpers read pairs of coordinate tuples: ``collinear``,
``multiples`` (the i*a + j*b that are roots) and ``splits`` (the pairs
whose i*beta + j*gamma is a given root), the one search behind every
commutator witness.  Relative roots reach them by their ``coords``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

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


class VerificationError(AssertionError):
    """A verification check failed; raised even under ``python -O``."""


def require(cond, msg, *args):
    """Raise VerificationError(msg % args) unless cond holds; a tuple in
    ``args``, a root, is printed by ``root_str`` as in the reports."""
    if not cond:
        args = tuple(root_str(a) if isinstance(a, tuple) else a for a in args)
        raise VerificationError(msg % args if args else msg)


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
    """Integer inner products of the simple roots, Bourbaki numbering.

    Normalized so long roots have squared length 2 in the simply laced
    and B series; C/F/G use a uniform scaling (only ratios matter).
    """
    l = t.rank
    s = t.series
    G = [[0] * l for _ in range(l)]

    def chain(i, j, val=-1):
        G[i][j] = G[j][i] = val

    if s == "A":
        for i in range(l):
            G[i][i] = 2
        for i in range(l - 1):
            chain(i, i + 1)
    elif s == "B":
        # alpha_l is short
        for i in range(l):
            G[i][i] = 2 if i < l - 1 else 1
        for i in range(l - 1):
            chain(i, i + 1)
    elif s == "C":
        # alpha_l is long (scaled: short norm 2, long norm 4)
        for i in range(l):
            G[i][i] = 2 if i < l - 1 else 4
        for i in range(l - 2):
            chain(i, i + 1)
        chain(l - 2, l - 1, -2)
    elif s == "D":
        for i in range(l):
            G[i][i] = 2
        for i in range(l - 3):
            chain(i, i + 1)
        chain(l - 3, l - 2)
        chain(l - 3, l - 1)
    elif s == "E":
        for i in range(l):
            G[i][i] = 2
        # Bourbaki: chain 1-3-4-5-...-l, node 2 attached to 4
        chain(0, 2)
        chain(1, 3)
        for i in range(2, l - 1):
            chain(i, i + 1)
    elif s == "F":
        # alpha_1, alpha_2 long (norm 4); alpha_3, alpha_4 short (norm 2)
        norms = [4, 4, 2, 2]
        for i in range(4):
            G[i][i] = norms[i]
        chain(0, 1, -2)
        chain(1, 2, -2)
        chain(2, 3, -1)
    elif s == "G":
        # alpha_1 short (norm 2), alpha_2 long (norm 6)
        G[0][0] = 2
        G[1][1] = 6
        chain(0, 1, -3)
    return G


def _cartan_matrix(gram):
    """The Cartan integers <alpha_j, alpha_i^vee> = 2 g_ij / g_ii, each
    checked integral: a Gram matrix that no root system has fails here
    instead of being truncated."""
    l = len(gram)
    rows = []
    for i in range(l):
        row = []
        for j in range(l):
            a, rem = divmod(2 * gram[i][j], gram[i][i])
            require(rem == 0, "Cartan entry 2*(%s)/(%s) of alpha_%d, alpha_%d is not "
                    "an integer", gram[i][j], gram[i][i], j + 1, i + 1)
            row.append(int(a))
        rows.append(tuple(row))
    return tuple(rows)


def root_str(coords):
    """A root or relative root as printed in every report, e.g. ``(1,0,1)``."""
    return "(%s)" % ",".join(map(str, coords))


class RootSystem:
    """All roots of an irreducible type, closed under reflections.

    Immutable after construction.  A root is its coordinate tuple over the
    simple roots; ``roots`` lists them in increasing order, ``root_set``
    holds them for lookups and ``long_roots`` holds the long ones (every
    root of a simply laced type).  ``cartan[i][j]`` is the Cartan integer
    <alpha_j, alpha_i^vee>, so the simple reflection s_i acts by
    ``beta - <beta, alpha_i^vee> * alpha_i``.
    """

    def __init__(self, root_type: RootType):
        self.type = root_type
        self.rank = root_type.rank
        self.gram = _gram_matrix(root_type)
        self.cartan = _cartan_matrix(self.gram)
        l = self.rank
        self.roots = tuple(sorted(self._generate()))
        self.root_set = frozenset(self.roots)
        long_norm = max(self._norm(c) for c in self.roots)
        self.long_roots = frozenset(c for c in self.roots if self._norm(c) == long_norm)
        self.simple_roots = tuple(tuple(int(j == i) for j in range(l)) for i in range(l))
        expected = ROOT_COUNT[root_type.series](l)
        if len(self.roots) != expected:
            raise AssertionError("generated %d roots for %s, expected %d"
                                 % (len(self.roots), root_type, expected))

    def _norm(self, coords):
        """|coords|^2 as an integer."""
        g = self.gram
        return sum(ci * cj * g[i][j]
                   for i, ci in enumerate(coords) if ci
                   for j, cj in enumerate(coords) if cj)

    def _pairing_coords(self, coords, i):
        """<coords, alpha_i^vee> = sum_j coords_j <alpha_j, alpha_i^vee>, an integer."""
        return sum(map(mul, coords, self.cartan[i]))

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

    def __contains__(self, coords):
        return coords in self.root_set

    def root_from_coords(self, coords):
        """``coords`` as a tuple; KeyError unless it is a root."""
        coords = tuple(coords)
        if coords not in self.root_set:
            raise KeyError(coords)
        return coords

    def positive_roots(self):
        return tuple(r for r in self.roots if sum(r) > 0)

    # -- arithmetic ------------------------------------------------------

    def sum_is_root(self, a, b):
        return tuple(x + y for x, y in zip(a, b)) in self.root_set

    def sum(self, a, b):
        coords = tuple(x + y for x, y in zip(a, b))
        if coords not in self.root_set:
            raise ValueError("%s + %s is not a root of %s"
                             % (root_str(a), root_str(b), self.type))
        return coords

    def coroot_coords(self, alpha):
        """alpha^vee as an integer vector over the simple coroots."""
        na = self._norm(alpha)
        out = []
        for i, k in enumerate(alpha):
            v, rem = divmod(k * self.gram[i][i], na)
            require(rem == 0, "coroot of %s has the non-integer coordinate %s/%s",
                    alpha, k * self.gram[i][i], na)
            out.append(v)
        return tuple(out)


def collinear(a, b):
    """Whether two coordinate tuples lie on one line through the origin."""
    # b = (b_k / a_k) a for the first k with a_k != 0, or a = 0
    k = next((k for k, x in enumerate(a) if x), None)
    return k is None or [a[k] * y for y in b] == [b[k] * x for x in a]


MULTIPLE_BOUND = 6  # no root system has i*a + j*b a root beyond i + j = 5
# (i, j) with i, j >= 1 and i + j <= MULTIPLE_BOUND, sorted by (i + j, i)
MULTIPLE_PAIRS = tuple((i, total - i) for total in range(2, MULTIPLE_BOUND + 1)
                       for i in range(1, total))


def multiples(a, b, coords):
    """(i, j) with i, j >= 1 and i*a + j*b in ``coords``, sorted by (i + j, i).

    ``a`` and ``b`` are coordinate tuples; ``coords`` is any container of
    coordinate tuples (``RootSystem.root_set``, or the relative coordinates
    of a folding).
    """
    ab = list(zip(a, b))
    return [(i, j) for i, j in MULTIPLE_PAIRS
            if tuple([i * x + j * y for x, y in ab]) in coords]


def splits(alpha, firsts, seconds, pairs=MULTIPLE_PAIRS):
    """(beta, gamma, (i, j)) with i*beta + j*gamma = alpha, beta and gamma
    not collinear: the ways to write ``alpha`` as the root of an entry of a
    commutator [x_beta, x_gamma].

    All are coordinate tuples.  (i, j) runs over ``pairs`` in order, then
    beta over ``firsts`` in order; gamma = (alpha - i*beta) / j must lie in
    ``seconds``, a container of coordinate tuples (``RootSystem.root_set``,
    or a fiber).
    """
    for i, j in pairs:
        for beta in firsts:
            rest = [a - i * b for a, b in zip(alpha, beta)]
            if j > 1:
                if any(x % j for x in rest):
                    continue
                rest = [x // j for x in rest]
            gamma = tuple(rest)
            if gamma in seconds and not collinear(beta, gamma):
                yield beta, gamma, (i, j)


@lru_cache(maxsize=None)
def build_root_system(t: RootType) -> RootSystem:
    return RootSystem(t)
