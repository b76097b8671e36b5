"""Dynkin diagram foldings and relative root systems.

A folding is a pair (J, Gamma): a subgroup Gamma of the diagram
automorphism group and a Gamma-invariant subset J of the simple roots.
The projection kills the simple roots outside J and identifies the
members of each Gamma-orbit inside J; the nonzero images of the roots
form the relative root system, with fibers, signs, levels and (possibly
non-reduced) type classification.

The quotient lattice is coordinatized by the Gamma-orbits of J in
increasing order of minimal node index, so relative simple roots are the
unit vectors.  A relative root is its coordinate tuple, as a root is in
``relroots.rootcore``: its level is ``sum(a)``, its sign the sign of that
sum, ``root_str`` prints it, ``RelativeRootSystem.fibers`` keys every
fiber by it, and ``rootcore.multiples`` takes it as it takes a root.
Lemma 1 (``decompose_relative_roots`` and its checker) takes and returns
these tuples: one pass over the sorted relative roots of a system splits
each.  Its recipe runs once per +-pair and reads only the least root of
the fiber and the diagram: a lowering by a simple root, or one
breadth-first search from the root's support to the nearest other J-node.
The checker reads a system only through its set of relative coordinates,
so a verdict map keyed by (A, B, C), one per coordinate set and kept for
one ``lemma1`` catalog run, lets the checker run once per distinct
(coordinate set, A, B, C).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .rootcore import (
    SERIES,
    Coded,
    InvalidRootType,
    RootType,
    VerificationError,
    build_root_system,
    collinear,
    multiples,
    require,
    root_str,
)


class FoldingError(ValueError):
    pass


@dataclass(frozen=True)
class DiagramAut:
    """Permutation of the node indices 0..l-1 preserving the diagram."""

    perm: tuple

    def __call__(self, i):
        return self.perm[i]

    def compose(self, other):
        return DiagramAut(tuple(self.perm[other.perm[i]] for i in range(len(self.perm))))

    def __str__(self):
        return ",".join(str(p + 1) for p in self.perm)


@lru_cache(maxsize=None)
def enumerate_diagram_automorphisms(t: RootType):
    """All graph automorphisms of the Dynkin diagram of t, as a tuple in
    lexicographic order of the permutations.

    The permutation is built node by node, smallest image first, and a
    partial one is dropped as soon as a Cartan entry between assigned
    nodes is not preserved."""
    cartan = build_root_system(t).cartan
    l = t.rank
    found, perm = [], []

    def extend():
        i = len(perm)
        if i == l:
            found.append(DiagramAut(tuple(perm)))
            return
        for v in range(l):
            if v not in perm and cartan[v][v] == cartan[i][i] and all(
                    cartan[v][w] == cartan[i][j] and cartan[w][v] == cartan[j][i]
                    for j, w in enumerate(perm)):
                perm.append(v)
                extend()
                perm.pop()

    extend()
    return tuple(found)


def closure_of_auts(gens, l):
    """Subgroup generated by the given automorphisms, grown from the identity."""
    ident = DiagramAut(tuple(range(l)))
    group, frontier = {ident.perm: ident}, [ident]
    while frontier:
        g = frontier.pop()
        for h in gens:
            c = h.compose(g)
            if c.perm not in group:
                group[c.perm] = c
                frontier.append(c)
    return sorted(group.values(), key=lambda a: a.perm)


def all_subgroups(t: RootType):
    """Every subgroup of Aut(D) (the groups are tiny: order at most 6)."""
    auts = enumerate_diagram_automorphisms(t)
    l = t.rank
    seen = {}
    for k in range(len(auts) + 1):
        for subset in itertools.combinations(auts, k):
            grp = closure_of_auts(subset, l)
            key = tuple(a.perm for a in grp)
            seen.setdefault(key, grp)
    return sorted(seen.values(), key=lambda g: (len(g), [a.perm for a in g]))


GAMMA_NAMES = {1: "trivial", 2: "flip", 6: "triality"}  # by order; any other is orderN


@dataclass(frozen=True)
class FoldingSpec:
    """(root type, automorphism subgroup Gamma, Levi subset J); 0-based nodes."""

    root_type: RootType
    gamma: tuple  # tuple of DiagramAut, closed under composition
    levi: tuple   # sorted node indices

    def validate(self):
        l = self.root_type.rank
        valid = {a.perm for a in enumerate_diagram_automorphisms(self.root_type)}
        perms = {a.perm for a in self.gamma}
        if not perms <= valid:
            raise FoldingError("gamma contains a non-automorphism")
        if {a.compose(b).perm for a in self.gamma for b in self.gamma} != perms:
            raise FoldingError("gamma is not closed under composition")
        if tuple(range(l)) not in perms:
            raise FoldingError("gamma does not contain the identity")
        jset = set(self.levi)
        if len(jset) != len(self.levi):
            raise FoldingError("repeated levi nodes")
        if not jset <= set(range(l)):
            raise FoldingError("levi nodes out of range")
        if any({a(i) for i in jset} != jset for a in self.gamma):
            raise FoldingError("levi subset is not gamma-invariant")

    def __str__(self):
        g = GAMMA_NAMES.get(len(self.gamma), "order%d" % len(self.gamma))
        return "%s gamma=%s levi=%s" % (
            self.root_type, g, ",".join(str(i + 1) for i in self.levi))


def trivial_gamma(t: RootType):
    return (DiagramAut(tuple(range(t.rank))),)


def parse_folding_spec(text):
    """Parse "<TYPE> gamma=<trivial|flip|triality|orderN|perm:...> levi=<i,...|all>".

    A Gamma name is the subgroup of its order that leaves J invariant; several
    that do are an error naming each one's ``perm:`` spec."""
    parts = text.split()
    if not parts:
        raise FoldingError("empty folding spec")
    t = RootType.parse(parts[0])
    gamma_arg, levi_arg = "trivial", "all"
    for p in parts[1:]:
        if p.startswith("gamma="):
            gamma_arg = p[len("gamma="):]
        elif p.startswith("levi="):
            levi_arg = p[len("levi="):]
        else:
            raise FoldingError("unrecognized token %r" % p)
    if levi_arg == "all":
        levi = tuple(range(t.rank))
    else:
        try:
            levi = tuple(sorted(int(x) - 1 for x in levi_arg.split(",")))
        except ValueError:
            raise FoldingError("bad levi %r" % levi_arg)
    order = {n: k for k, n in GAMMA_NAMES.items()}.get(gamma_arg)
    if gamma_arg.startswith("perm:"):
        try:
            images = tuple(int(x) - 1 for x in gamma_arg[5:].split(","))
        except ValueError:
            raise FoldingError("bad gamma %r" % gamma_arg)
        if sorted(images) != list(range(t.rank)):
            raise FoldingError("gamma images %s are not a permutation of 1..%d"
                               % (gamma_arg[5:], t.rank))
        groups = [closure_of_auts([DiagramAut(images)], t.rank)]
    elif order is None and not (gamma_arg.startswith("order") and gamma_arg[5:].isdigit()):
        raise FoldingError("bad gamma %r" % gamma_arg)
    else:
        groups = [g for g in all_subgroups(t) if len(g) == (order or int(gamma_arg[5:]))]
        if not groups:
            raise FoldingError("%s has no %s automorphism group" % (t, gamma_arg))
    jset = set(levi)
    fits = [g for g in groups if jset <= set(range(t.rank))
            and all({a(i) for i in jset} == jset for a in g)]
    # bad input, or no group that fits, fails validation with its message
    spec = FoldingSpec(t, tuple((fits or groups)[0]), levi)
    spec.validate()
    if len(fits) > 1:
        # only D4 has two groups of one order, 2: each is the closure of its largest element
        raise FoldingError("gamma=%s names %d subgroups of %s leaving J invariant: %s" % (
            gamma_arg, len(fits), t, ", ".join("perm:%s" % max(g, key=str) for g in fits)))
    return spec


def enumerate_foldings(max_rank, series=SERIES, trivial_only=False):
    """Foldings (J, Gamma) with J nonempty, for each type of rank <= max_rank.

    Types run over ``series`` in order.  Per type, Gamma runs over
    ``all_subgroups`` (only the trivial group if ``trivial_only``) and, for
    each Gamma, J over the Gamma-invariant node subsets.  Raises ValueError
    unless 1 <= max_rank <= 8.
    """
    if not 1 <= max_rank <= 8:
        raise ValueError("max rank must be between 1 and 8, got %d" % max_rank)
    specs = []
    for s in series:
        for l in range(1, max_rank + 1):
            try:
                t = RootType(s, l)
            except InvalidRootType:
                continue
            for gamma in [trivial_gamma(t)] if trivial_only else all_subgroups(t):
                gamma = tuple(gamma)
                for bits in itertools.product((0, 1), repeat=l):
                    levi = tuple(i for i, b in enumerate(bits) if b)
                    if levi and all({a(i) for i in levi} == set(levi) for a in gamma):
                        specs.append(FoldingSpec(t, gamma, levi))
    return specs


class RelativeRootSystem(Coded):
    """``fibers``, the one set of relative coordinates and the ``points``,
    maps each to its fiber, in increasing order; ``orbit_index[j]`` is the
    Gamma-orbit of node j, or ``rank`` for a node outside J.  The ``coding``
    of the relative roots (``Coded``) is built on first use."""

    def __init__(self, spec: FoldingSpec):
        spec.validate()
        self.spec = spec
        self.rs = build_root_system(spec.root_type)
        orbits, index = [], [None] * spec.root_type.rank
        for i in sorted(set(spec.levi)):
            if index[i] is None:
                orbit = tuple(sorted({a(i) for a in spec.gamma}))
                for j in orbit:
                    index[j] = len(orbits)
                orbits.append(orbit)
        self.orbits = tuple(orbits)
        self.rank = len(orbits)
        self.orbit_index = tuple(self.rank if k is None else k for k in index)
        # project every root at once: orbit k sums columns orbit[k] of the roots
        cols = tuple(zip(*self.rs.roots))
        projected = zip(*[cols[o[0]] if len(o) == 1 else tuple(map(sum, zip(*map(
            cols.__getitem__, o)))) for o in orbits])
        self._coords = dict(zip(self.rs.roots, projected))  # root -> its relative coordinates
        fibers = {}
        for root, c in self._coords.items():
            if any(c):
                fibers.setdefault(c, []).append(root)
        # the roots are in increasing order, so each fiber is too
        self.fibers = self.points = {c: tuple(f) for c, f in fibers.items()}
        for c in self.fibers:
            require(len({x > 0 for x in c if x}) == 1, "mixed-sign relative root %s", c)

    def project(self, root):
        """The relative root of the root ``root``, or None where it projects to 0."""
        c = self._coords[root]
        return c if any(c) else None

    def __contains__(self, a):
        return a in self.fibers

    def fiber(self, a):
        return self.fibers[a]



def build_relative_system(spec: FoldingSpec) -> RelativeRootSystem:
    return RelativeRootSystem(spec)


# -- type classification -------------------------------------------------


def _reference_root_set(label, rank):
    """Root coordinate vectors over simple roots for a (possibly BC) type,
    or None for a type of no such rank."""
    if label == "BC":
        if rank == 1:
            return {(1,), (-1,), (2,), (-2,)}
        base = build_root_system(RootType("B", rank))
        shorts = base.root_set - base.long_roots
        return base.root_set | {tuple(2 * c for c in r) for r in shorts}
    try:
        t = RootType(label, rank)
    except ValueError:
        return None
    return build_root_system(t).root_set


def classify_relative_type(rrs: RelativeRootSystem):
    """Match the relative system against the abstract root-system types.

    The input system is irreducible, so Gamma permutes its single component
    transitively and the relative system is irreducible too.  Every rank
    matches the same way: at rank 1 against A1 = {+-1} and BC1 = {+-1, +-2}.
    """
    rank = rrs.rank
    coord_set = rrs.fibers
    # a set matches one candidate at most, up to coordinate order (D3 = A3 is
    # left out; B2 and C2 are told apart below): map it once per permutation
    refs = []
    for label in ("A", "B", "C", "BC", "D", "E", "F", "G"):
        ref = None if (label, rank) == ("D", 3) else _reference_root_set(label, rank)
        if ref is not None and len(ref) == len(coord_set):
            refs.append((label, ref))
    for perm in itertools.permutations(range(rank)) if refs else ():
        mapped = {tuple(c[i] for i in perm) for c in coord_set}
        for label, ref in refs:
            if mapped == ref:
                if rank == 2 and label in ("B", "C"):
                    # B2 and C2 coincide up to swapping the coordinates; B2
                    # leads with the long simple root, so A1 + 2A2 is a root
                    label = "B" if (1, 2) in coord_set else "C"
                return label, rank
    # not every (J, Gamma) pair is admissible: the projected set can fail
    # to be reflection-closed, in which case it matches no abstract type
    raise FoldingError("relative system of %s matches no root-system type"
                       % (rrs.spec,))


# -- Lemma-style decomposition -------------------------------------------


class DecompositionError(VerificationError):
    pass


def check_lemma1_decomposition(rrs, a, b, c):
    """Independent re-verification of every clause of the decomposition.

    Every multiple i*b + j*c other than b + c that is a relative root
    (``rootcore.multiples``, with no bound on i and j) must keep
    the sign of a and raise its level; the first violation in (i, j) order
    raises VerificationError, which ``python -O`` keeps.
    """
    require(b in rrs and c in rrs, "B, C must be relative roots")
    require(tuple(map(add, b, c)) == a, "B + C is not A")
    require(not collinear(b, c), "B and C are collinear")
    level, lb, lc = sum(a), sum(b), sum(c)
    for i, j in sorted(set(multiples(b, c, rrs)) - {(1, 1)}):  # (1, 1) gives a itself
        d_level = i * lb + j * lc
        require(d_level * level > 0, "%d*B+%d*C has the wrong sign", i, j)
        require(abs(d_level) > abs(level), "%d*B+%d*C does not increase the level", i, j)
    return True


def decompose_relative_roots(rrs: RelativeRootSystem, verdicts=None):
    """Split every relative root a = b + c per the constructive recipe;
    checker-verified.  Returns [(a, b, c)] over ``sorted(rrs.fibers)``.

    The two branches of ``_decompose_positive`` mirror the constructive
    existence proof: multiples of a single relative simple root borrow a
    chain through the nearest other J-node; anything else splits off the
    least simple root by which the least root of its fiber lowers.  A
    negative root sorts before every positive one, so the recipe runs once
    per +-pair, at the negative root, and the positive root takes the
    negated split (the clauses are symmetric under negation).  Each split
    of either sign is checked by ``check_lemma1_decomposition``: directly,
    or, given ``verdicts``, a dict (a, b, c) -> "" or the checker's message
    for systems with the coordinate set of ``rrs``, once per key.  The
    first recipe step or clause that fails raises DecompositionError naming
    its root, so a gap in the recipe shows as a failed case.
    """
    if rrs.rank < 2:
        raise DecompositionError("the relative roots of %s lie in a rank-1 component"
                                 % (rrs.spec,))
    verdicts = {} if verdicts is None else verdicts
    splits, out = {}, []  # positive root -> its split
    for a in sorted(rrs.fibers):
        try:
            if sum(a) < 0:
                p = tuple(-x for x in a)
                splits[p] = _decompose_positive(rrs, p)
                b, c = (tuple(-x for x in r) for r in splits[p])
            else:
                b, c = splits[a]
            verdict = verdicts.get((a, b, c))
            if verdict is None:
                try:
                    check_lemma1_decomposition(rrs, a, b, c)
                    verdict = ""
                except AssertionError as exc:
                    verdict = str(exc)
                verdicts[a, b, c] = verdict
            require(not verdict, verdict)
        except AssertionError as exc:
            raise DecompositionError("no valid decomposition found for %s: %s"
                                     % (root_str(a), exc))
        out.append((a, b, c))
    return out


def _nearest_path(cartan, support, targets):
    """The diagram path (s, ..., t) from the least of the nodes of
    ``targets`` nearest to ``support`` back to its node t in ``support``: one
    breadth-first search from ``support`` over the Cartan adjacency.

    A Dynkin diagram is a connected tree and the support of a root is
    connected (Bourbaki, *Lie Groups and Lie Algebras*, ch. VI, section 1.6),
    so the path is unique and the search ends for nonempty ``targets``.
    """
    parent = dict.fromkeys(support)
    level = support
    while targets.isdisjoint(level):
        nxt = []
        for v in level:
            for w, c in enumerate(cartan[v]):
                if c and w not in parent:
                    parent[w] = v
                    nxt.append(w)
        level = nxt
    path = [min(targets.intersection(level))]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _decompose_positive(rrs, a):
    """The recipe's split (b, c) of the positive relative root a, read off
    alpha, the least root of the fiber of a.

    For a = k * pi(alpha_r), beta is the chain of nodes from the nearest
    J-node s outside the orbit of r (the least one at that distance) up to
    the support of alpha, which it joins: b = pi(alpha + beta), c = -pi(beta).
    Otherwise alpha - alpha_i for a node i outside J would be a root of the
    same fiber (it has the same projection) and, as it is lexicographically
    smaller than alpha, the least root of that fiber, which alpha is: so every
    lowering of alpha is by a node of J, and the least one splits a into
    pi(alpha - alpha_i) + pi(alpha_i).
    """
    rs = rrs.rs
    support = [k for k, x in enumerate(a) if x]
    alpha = rrs.fiber(a)[0]
    if len(support) == 1:
        others = set(rrs.spec.levi).difference(rrs.orbits[support[0]])
        path = _nearest_path(rs.cartan, [i for i, x in enumerate(alpha) if x], others)
        beta = tuple(int(i in path[:-1]) for i in range(rs.rank))
        require(beta in rs, "chain sum is not a root")
        gamma = tuple(map(add, alpha, beta))
        require(gamma in rs, "alpha + beta is not a root")
        return rrs.project(gamma), rrs.project(tuple(-x for x in beta))
    for simple in rs.simple_roots:
        rest = tuple(map(sub, alpha, simple))
        if rest in rs:
            return rrs.project(rest), rrs.project(simple)
