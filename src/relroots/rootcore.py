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
length classes, are integer quadratic forms, taken once per root in
``RootSystem.norms``.  ``RootSystem.orbit`` closes a set of roots under
the simple reflections: the orbit of the simple roots is the full root
set, cross-checked against the closed-form root counts.

Three helpers read pairs of coordinate tuples: ``collinear``,
``multiples`` (the i*a + j*b in a system) and ``splits`` (the pairs whose
i*beta + j*gamma is a given root), the one search behind every commutator
witness; ``chevalley.unit_split`` takes its first split with a unit
constant.  A root system is the relative system of its own trivial
folding (``relroots.folding``), so they take roots and relative roots
alike; ``multiples`` reads the ``coding`` of its system (``Coded``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def coding(points):
    """(bounds, codes, by_code) of a collection of integer tuples: the
    largest |c_k| of a point in each place k, and each point c to and from
    its code sum_k c_k (2m + 1)**k, m = max(bounds), which is additive and
    injective where every |c_k| <= m (so not on every i*a + j*b)."""
    bounds = tuple(max(map(abs, col)) for col in zip(*points))
    powers = [(2 * max(bounds) + 1) ** k for k in range(len(bounds))]
    codes = {c: sum(map(mul, c, powers)) for c in points}
    return bounds, codes, dict(zip(codes.values(), codes))


class Coded:
    """Integer ``points`` and the ``bounds``, ``codes``, ``by_code`` of their ``coding``."""

    _coding = cached_property(lambda self: coding(self.points))
    bounds = cached_property(lambda self: self._coding[0])
    codes = cached_property(lambda self: self._coding[1])
    by_code = cached_property(lambda self: self._coding[2])


class RootSystem(Coded):
    """All roots of an irreducible type, closed under reflections.

    Immutable after construction.  A root is its coordinate tuple over the
    simple roots; ``roots``, the ``points``, lists them in increasing order,
    ``root_set`` holds them for lookups, ``norms`` maps each to its squared
    length and ``long_roots`` holds the long ones (every root of a simply
    laced type); the ``coding`` (``Coded``) is built on first use.
    ``cartan[i][j]`` is the Cartan integer <alpha_j, alpha_i^vee>, so the
    simple reflection s_i acts by ``beta - <beta, alpha_i^vee> * alpha_i``.
    """

    def __init__(self, root_type: RootType):
        self.type = root_type
        self.rank = root_type.rank
        self.gram = _gram_matrix(root_type)
        self.cartan = _cartan_matrix(self.gram)
        l = self.rank
        self.simple_roots = tuple(tuple(int(j == i) for j in range(l)) for i in range(l))
        self.root_set = self.orbit(self.simple_roots)
        self.roots = self.points = tuple(sorted(self.root_set))
        self.norms = {c: self._norm(c) for c in self.roots}
        long_norm = max(self.norms.values())
        self.long_roots = frozenset(c for c, n in self.norms.items() if n == long_norm)
        expected = ROOT_COUNT[root_type.series](l)
        require(len(self.roots) == expected, "generated %d roots for %s, expected %d",
                len(self.roots), root_type, expected)

    def _norm(self, coords):
        """|coords|^2 as an integer."""
        g = self.gram
        return sum(ci * cj * g[i][j]
                   for i, ci in enumerate(coords) if ci
                   for j, cj in enumerate(coords) if cj)

    def _pairing_coords(self, coords, i):
        """<coords, alpha_i^vee> = sum_j coords_j <alpha_j, alpha_i^vee>, an integer."""
        return sum(map(mul, coords, self.cartan[i]))

    def orbit(self, seeds):
        """The closure of the coordinate tuples ``seeds`` under the simple
        reflections s_i, a frozenset."""
        seen = set(seeds)
        frontier = list(seen)
        while frontier:
            c = frontier.pop()
            for i in range(self.rank):
                n = self._pairing_coords(c, i)
                refl = c[:i] + (c[i] - n,) + c[i + 1:]
                if refl not in seen:
                    seen.add(refl)
                    frontier.append(refl)
        return frozenset(seen)

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

    def coroot_coords(self, alpha):
        """alpha^vee as an integer vector over the simple coroots."""
        na = self.norms[alpha]
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


def multiples(a, b, system):
    """(i, j) with i, j >= 1 and i*a + j*b in ``system``, sorted by (i + j, i).

    ``system`` is a ``RootSystem`` or a ``folding.RelativeRootSystem``;
    ``a`` and ``b`` lie in it, not collinear unless they point one way
    (b = a gives the multiples (i + j)*a).  As a, b and d = i*a + j*b each
    have one sign and |d_k| <= m_k (``system.bounds``), Cramer's rule on the
    first nonzero minor (p, q), i * det = d_p b_q - d_q b_p, gives |i| <=
    max(m_p |b_q|, m_q |b_p|) / |det|, and j likewise; a collinear pair has
    i |a_p| + j |b_p| <= m_p.  A hit by code counts if its coordinates match.
    """
    bounds = system.bounds
    p = next(k for k, x in enumerate(a) if x)
    mp, ap, bp = bounds[p], abs(a[p]), abs(b[p])
    for aq, bq, mq in zip(map(abs, a), map(abs, b), bounds):
        det = abs(ap * bq - aq * bp)  # |det|, as a and b each have one sign
        if det:
            imax, jmax = max(mp * bq, mq * bp) // det, max(mp * aq, mq * ap) // det
            break
    else:
        if a[p] * b[p] < 0:
            raise ValueError("%s and %s point opposite ways" % (root_str(a), root_str(b)))
        imax, jmax = (mp - bp) // ap, (mp - ap) // bp
    ka, kb, by_code = system.codes[a], system.codes[b], system.by_code
    hits = []
    for i in range(1, imax + 1):
        ki = i * ka
        for j in range(1, jmax + 1):
            d = by_code.get(ki + j * kb)
            if d is not None and d == tuple([i * x + j * y for x, y in zip(a, b)]):
                hits.append((i, j))
    return sorted(hits, key=sum)  # stable: i increases within each i + j


def splits(alpha, firsts, seconds, pairs):
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
