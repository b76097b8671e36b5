"""Dynkin diagram foldings and relative root systems.

A folding is a pair (J, Gamma): a subgroup Gamma of the diagram
automorphism group and a Gamma-invariant subset J of the simple roots.
The projection kills the simple roots outside J and identifies the
members of each Gamma-orbit inside J; the nonzero images of the roots
form the relative root system, with fibers, signs, levels and (possibly
non-reduced) type classification.

The quotient lattice is coordinatized by the Gamma-orbits of J in
increasing order of minimal node index, so relative simple roots are the
unit vectors and the sign/level of a relative root can be read off its
coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .polyring import row_reduce
from .rootcore import (
    SERIES,
    InvalidRootType,
    Root,
    RootType,
    build_root_system,
    collinear,
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

    def is_identity(self):
        return all(p == i for i, p in enumerate(self.perm))

    def __str__(self):
        return ",".join(str(p + 1) for p in self.perm)


def enumerate_diagram_automorphisms(t: RootType):
    """All graph automorphisms of the Dynkin diagram of t."""
    rs = build_root_system(t)
    l = t.rank
    cartan = rs.cartan
    auts = []
    for perm in itertools.permutations(range(l)):
        if all(cartan[perm[i]][perm[j]] == cartan[i][j]
               for i in range(l) for j in range(l)):
            auts.append(DiagramAut(perm))
    return auts


def closure_of_auts(gens, l):
    """Subgroup generated by the given automorphisms."""
    ident = DiagramAut(tuple(range(l)))
    group = {ident.perm: ident}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        if g.perm not in group:
            group[g.perm] = g
            frontier.extend(g.compose(h) for h in list(group.values()))
            continue
        for h in list(group.values()):
            c = g.compose(h)
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
        if not jset <= set(range(l)):
            raise FoldingError("levi nodes out of range")
        for a in self.gamma:
            if {a(i) for i in jset} != jset:
                raise FoldingError("levi subset is not gamma-invariant")

    def __str__(self):
        names = {1: "trivial", 2: "flip", 6: "triality"}
        g = names.get(len(self.gamma), "order%d" % len(self.gamma))
        return "%s gamma=%s levi=%s" % (
            self.root_type, g, ",".join(str(i + 1) for i in self.levi))


def trivial_gamma(t: RootType):
    return (DiagramAut(tuple(range(t.rank))),)


def parse_folding_spec(text):
    """Parse "<TYPE> gamma=<trivial|flip|triality|perm:...> levi=<i,...|all>"."""
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
    auts = enumerate_diagram_automorphisms(t)
    if gamma_arg == "trivial":
        gamma = trivial_gamma(t)
    elif gamma_arg in ("flip", "triality"):
        want = 2 if gamma_arg == "flip" else 6
        if len(auts) != want:
            raise FoldingError("%s has no %s automorphism group" % (t, gamma_arg))
        gamma = tuple(closure_of_auts(auts, t.rank))
    elif gamma_arg.startswith("perm:"):
        images = tuple(int(x) - 1 for x in gamma_arg[len("perm:"):].split(","))
        gamma = tuple(closure_of_auts([DiagramAut(images)], t.rank))
    else:
        raise FoldingError("bad gamma %r" % gamma_arg)
    if levi_arg == "all":
        levi = tuple(range(t.rank))
    else:
        levi = tuple(sorted(int(x) - 1 for x in levi_arg.split(",")))
    spec = FoldingSpec(t, gamma, levi)
    spec.validate()
    return spec


def enumerate_foldings(max_rank, series=SERIES, trivial_only=False):
    """Foldings (J, Gamma) with J nonempty, for each type of rank <= max_rank.

    Types run over ``series`` in order.  Per type, Gamma runs over
    ``all_subgroups`` (only the trivial group if ``trivial_only``) and, for
    each Gamma, J over the Gamma-invariant node subsets.
    """
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
                        yield FoldingSpec(t, gamma, levi)


@dataclass(frozen=True)
class RelativeRoot:
    """Integer vector over the Gamma-orbits of J; all coords share a sign."""

    coords: tuple

    @property
    def level(self):
        return sum(self.coords)

    def is_positive(self):
        return self.level > 0

    def __neg__(self):
        return RelativeRoot(tuple(-c for c in self.coords))

    def __add__(self, other):
        return RelativeRoot(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scaled(self, k):
        return RelativeRoot(tuple(k * c for c in self.coords))

    def __str__(self):
        return "(%s)" % ",".join(str(c) for c in self.coords)


class RelativeRootSystem:
    def __init__(self, spec: FoldingSpec):
        spec.validate()
        self.spec = spec
        self.rs = build_root_system(spec.root_type)
        jset = set(spec.levi)
        orbit_of = {}
        orbits = []
        for i in sorted(jset):
            if i in orbit_of:
                continue
            orbit = tuple(sorted({a(i) for a in spec.gamma}))
            orbits.append(orbit)
            for j in orbit:
                orbit_of[j] = len(orbits) - 1
        self.orbits = tuple(orbits)
        self.rank = len(orbits)
        # projection matrix: rows indexed by orbits, columns by nodes
        self.proj_matrix = tuple(
            tuple(1 if j in set(orbit) else 0 for j in range(spec.root_type.rank))
            for orbit in orbits)
        fibers = {}
        for root in self.rs.roots:
            c = self.project_coords(root.coords)
            if any(c):
                fibers.setdefault(c, []).append(root)
        self.fibers = {RelativeRoot(c): tuple(sorted(f, key=lambda r: r.coords))
                       for c, f in fibers.items()}
        self.rel_roots = frozenset(self.fibers)
        for A in self.rel_roots:
            signs = {c > 0 for c in A.coords if c}
            if len(signs) != 1:
                raise AssertionError("mixed-sign relative root %s" % A)

    def project_coords(self, coords):
        return tuple(sum(coords[j] for j in orbit) for orbit in self.orbits)

    def project(self, root):
        c = self.project_coords(root.coords if isinstance(root, Root) else root)
        return RelativeRoot(c) if any(c) else None

    def __contains__(self, item):
        coords = item.coords if isinstance(item, RelativeRoot) else tuple(item)
        return RelativeRoot(coords) in self.rel_roots

    def fiber(self, A):
        return self.fibers[A]

    def positive_roots(self):
        return sorted((A for A in self.rel_roots if A.is_positive()),
                      key=lambda A: (A.level, A.coords))


def build_relative_system(spec: FoldingSpec) -> RelativeRootSystem:
    return RelativeRootSystem(spec)


# -- induced metric ------------------------------------------------------


def relative_norms(rrs: RelativeRootSystem):
    """Exact squared lengths of relative roots in the induced metric.

    Relative roots live in the subspace fixed by Gamma and orthogonal to
    the killed simple roots; the norm of A is the squared length of the
    orthogonal projection of any fiber representative (the projections of
    all representatives coincide, which is asserted).
    """
    rs = rrs.rs
    l = rs.rank
    gram = rs.gram
    delta = sorted(set(range(l)) - set(rrs.spec.levi))
    # Gamma-orbit-constant coordinates: one variable per orbit of all nodes
    all_orbits = []
    seen = set()
    for i in range(l):
        if i not in seen:
            orb = tuple(sorted({a(i) for a in rrs.spec.gamma}))
            all_orbits.append(orb)
            seen |= set(orb)
    m = len(all_orbits)
    # constraint per killed node j: sum_O x_O * sum_{i in O} (alpha_i, alpha_j) = 0
    rows = [[sum(gram[i][j] for i in orb) for orb in all_orbits] for j in delta]
    reduced, pivots = row_reduce(rows, m)
    null = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [Fraction(c == fc) for c in range(m)]
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        null.append(v)
    assert len(null) == rrs.rank, "fixed subspace has the wrong dimension"
    orbit_index = {i: k for k, orb in enumerate(all_orbits) for i in orb}
    basis = [[v[orbit_index[i]] for i in range(l)] for v in null]
    # basis vectors in root coordinates; Gram of the subspace basis
    def inner(u, w):
        return sum(u[i] * w[i2] * gram[i][i2]
                   for i in range(l) if u[i] for i2 in range(l) if w[i2])
    sub_gram = [[inner(u, w) for w in basis] for u in basis]
    n = len(basis)

    norms = {}
    for A, fiber in rrs.fibers.items():
        projections = set()
        for root in fiber:
            # solve sub_gram * coeffs = (<u, alpha>)_u; sub_gram is nonsingular
            reduced, _ = row_reduce([row + [inner(u, root.coords)]
                                     for row, u in zip(sub_gram, basis)], n)
            coeffs = [row[n] for row in reduced]
            proj = tuple(sum(coeffs[k] * basis[k][i] for k in range(n))
                         for i in range(l))
            projections.add(proj)
        assert len(projections) == 1, \
            "fiber of %s does not project to a single point" % A
        p = projections.pop()
        norms[A] = inner(list(p), list(p))
    return norms


# -- type classification -------------------------------------------------


def _reference_root_set(label, rank):
    """Root coordinate vectors over simple roots for a (possibly BC) type."""
    if label == "BC":
        base = build_root_system(RootType("B", rank)) if rank >= 2 else None
        if rank == 1:
            return {(1,), (-1,), (2,), (-2,)}
        roots = {r.coords for r in base.roots}
        roots |= {tuple(2 * c for c in r.coords) for r in base.roots
                  if r.length_class == "short"}
        return roots
    if rank == 1:
        return {(1,), (-1,)} if label == "A" else None
    try:
        t = RootType(label, rank)
    except ValueError:
        return None
    return {r.coords for r in build_root_system(t).roots}


def classify_relative_type(rrs: RelativeRootSystem):
    """Match the relative system against the abstract root-system types.

    The input system is irreducible, so Gamma permutes its single component
    transitively and the relative system is irreducible too.
    """
    rank = rrs.rank
    coord_set = {A.coords for A in rrs.rel_roots}
    if rank == 1:
        label = "BC" if any(abs(c) == 2 for (c,) in coord_set) else "A"
        return label, 1
    for label in ("A", "B", "C", "BC", "D", "E", "F", "G"):
        ref = _reference_root_set(label, rank)
        if ref is None or len(ref) != len(coord_set):
            continue
        for perm in itertools.permutations(range(rank)):
            mapped = {tuple(c[perm[i]] for i in range(rank)) for c in coord_set}
            if mapped == ref:
                if rank == 2 and label in ("B", "C"):
                    # B2 and C2 coincide as coordinate sets; orient by the
                    # induced metric (B2 leads with the long simple root)
                    norms = relative_norms(rrs)
                    n1 = norms[RelativeRoot((1, 0))]
                    n2 = norms[RelativeRoot((0, 1))]
                    label = "B" if n1 > n2 else "C"
                return label, rank
    # not every (J, Gamma) pair is admissible: the projected set can fail
    # to be reflection-closed, in which case it matches no abstract type
    raise FoldingError("relative system of %s matches no root-system type"
                       % (rrs.spec,))


# -- Lemma-style decomposition -------------------------------------------


class DecompositionError(ValueError):
    pass


def _diagram_adjacency(rs):
    l = rs.rank
    return {i: [j for j in range(l) if j != i and rs.cartan[i][j] != 0]
            for i in range(l)}


def _diagram_path(rs, start, targets):
    """Shortest node path from start to any node in targets (BFS)."""
    adj = _diagram_adjacency(rs)
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            if v in targets:
                path = []
                while v is not None:
                    path.append(v)
                    v = prev[v]
                return list(reversed(path))
            for w in adj[v]:
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("diagram is connected; no path found")


def check_lemma1_decomposition(rrs, A, B, C, max_mult=8):
    """Independent re-verification of every clause of the decomposition.

    Exhaustive scan over small multiples; raises AssertionError on any
    violated clause.
    """
    assert B in rrs and C in rrs, "B, C must be relative roots"
    assert B + C == A
    assert not collinear(B, C), "B and C are collinear"
    sign = 1 if A.is_positive() else -1
    for i in range(1, max_mult + 1):
        for j in range(1, max_mult + 1):
            if (i, j) == (1, 1):
                continue
            D = B.scaled(i) + C.scaled(j)
            if D in rrs:
                assert (1 if D.is_positive() else -1) == sign, \
                    "%d*B+%d*C has the wrong sign" % (i, j)
                assert abs(D.level) > abs(A.level), \
                    "%d*B+%d*C does not increase the level" % (i, j)
    return True


def decompose_relative_root(rrs: RelativeRootSystem, A: RelativeRoot):
    """Split A = B + C per the constructive recipe; checker-verified.

    The two branches mirror the constructive existence proof: multiples of
    a single relative simple root borrow a chain through the nearest other
    J-node; anything else splits off the last J-node of a root chain.
    Falls back to exhaustive search if the construction fails, which would
    indicate a gap in the recipe.  Negative A takes the negated split of -A
    (the clauses are symmetric under negation).  The returned split is the
    first candidate that passes ``check_lemma1_decomposition``, so the
    recipe's split is checked exactly once.
    """
    if rrs.rank < 2:
        raise DecompositionError("relative root %s lies in a rank-1 component" % A)
    sign = 1 if A.is_positive() else -1
    P = A.scaled(sign)
    for B, C in _split_candidates(rrs, P):
        B, C = B.scaled(sign), C.scaled(sign)
        try:
            check_lemma1_decomposition(rrs, A, B, C)
            return B, C
        except AssertionError:
            continue
    raise DecompositionError("no valid decomposition found for %s" % A)


def _split_candidates(rrs, P):
    """The recipe's split of a positive P, then every B + (P - B) in B order."""
    try:
        yield _decompose_positive(rrs, P)
    except AssertionError:
        pass
    for B in sorted(rrs.rel_roots, key=lambda R: R.coords):
        C = RelativeRoot(tuple(a - b for a, b in zip(P.coords, B.coords)))
        if C in rrs:
            yield B, C


def _decompose_positive(rrs, A):
    rs = rrs.rs
    support = [k for k, c in enumerate(A.coords) if c]
    fiber = rrs.fiber(A)
    alpha = fiber[0]  # deterministic: minimal coordinate vector
    if len(support) == 1:
        # A = k * pi(alpha_r): borrow a chain through the nearest other J-node
        orbit = rrs.orbits[support[0]]
        r = orbit[0]
        others = [s for s in rrs.spec.levi if s not in set(orbit)]
        adj_path = {s: _diagram_path(rs, s, set(
            i for i, c in enumerate(alpha.coords) if c)) for s in others}
        s = min(others, key=lambda v: (len(adj_path[v]), v))
        beta_nodes = adj_path[s][:-1] or [s]
        beta_coords = tuple(1 if i in set(beta_nodes) else 0 for i in range(rs.rank))
        assert beta_coords in rs, "chain sum is not a root"
        beta = rs.root_from_coords(beta_coords)
        assert rs.sum_is_root(alpha, beta), "alpha + beta is not a root"
        return rrs.project(rs.sum(alpha, beta)), rrs.project(-beta)
    # split off the last J-node of a root chain for alpha
    delta = set(range(rs.rank)) - set(rrs.spec.levi)
    gamma = alpha
    while True:
        strippable = [i for i in range(rs.rank)
                      if gamma.coords[i] > 0 and tuple(
                          c - (1 if k == i else 0)
                          for k, c in enumerate(gamma.coords)) in rs]
        in_delta = [i for i in strippable if i in delta]
        if in_delta:
            i = in_delta[0]
            gamma = rs.root_from_coords(tuple(
                c - (1 if k == i else 0) for k, c in enumerate(gamma.coords)))
            continue
        i = next(i for i in strippable if i in set(rrs.spec.levi))
        rest = tuple(c - (1 if k == i else 0) for k, c in enumerate(gamma.coords))
        B = rrs.project(rest)
        C = rrs.project(tuple(1 if k == i else 0 for k in range(rs.rank)))
        return B, C
