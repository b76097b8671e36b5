"""Chevalley basis, signed structure constants, and symbolic root elements.

The basis of the simple complex Lie algebra is e_alpha for every root plus
h_i for every simple root, carried in the adjoint representation
(dimension = number of roots + rank).  Structure constant signs are fixed
by the extraspecial-pair convention: positive roots are totally ordered by
(height, coordinates); for each non-simple positive gamma the minimal
first member over all decompositions gamma = alpha + beta gives the
extraspecial pair, whose constant is set to +(p+1).  All remaining
constants follow from antisymmetry, the cyclic relation for triples
summing to zero, and a Jacobi-derived recursion, and are verified against
the magnitude law |N| = p+1.

Root elements x_alpha(t) = exp(t ad e_alpha) are exact sparse matrices
over :class:`~relroots.polyring.PolyElem`, a root being its coordinate
tuple; ``collect`` reads a product back to normal form along ordered slots
(coordinate tuples), peeling one factor per slot, and
its check that the residual is the identity proves the matrix identity it
outputs.

Every product carries one column.  Its word must lie in a half-space:
let f be an integer linear form on root coordinates (``cone`` weights)
with f > 0 on every factor, Psi = {gamma : f(gamma) > 0}, form the
weights divided by their gcd g, and h_f = (C^T)^-1 form the Cartan vector
over Q with alpha_j(h_f) = form_j, so gamma(h_f) = f(gamma) / g for every
root gamma.  h_f exists because the Cartan matrix C is nonsingular, which
the basis checks when it is built.  Psi is closed and holds
no opposite pair, so it lies in a positive system (Bourbaki, *Lie Groups
and Lie Algebras* VI 1.7) and every element u of U_Psi is a unique
ordered product of x_gamma(t_gamma), gamma in Psi (Steinberg, *Lectures
on Chevalley Groups*).  Over a torsion-free Q-algebra, the localization
at w = 1/(eps^2 - eps) included, u = u' on U_Psi iff u(h_f) = u'(h_f):
if u'' = u'^-1 u != 1, let alpha be an f-minimal root of its normal form
with t_alpha != 0.  Any other way to reach e_alpha from h_f brackets with
two or more roots of Psi, whose f-values add up past f(alpha), so
e_alpha appears in u''(h_f) with coefficient -t_alpha alpha(h_f) != 0.
A product therefore carries the single column h_f and checks f > 0
on every factor, and ``collect`` checks it on every slot, so every
residual stays in U_Psi.  Torus elements such as h_alpha(2), which fix
h_f, do not break this: they are not in U_Psi, and no word of f-positive
root elements reaches them.  A word with a root outside the cone raises,
and so does a comparison of products on different columns.

On such a column the Cartan part never moves.  ad e_alpha, alpha in Psi,
sends h to g_alpha and g_gamma to g_{gamma+alpha}, and gamma + alpha = 0
would need f(gamma) < 0, so u(h_f) - h_f lies in the sum of the g_gamma,
gamma in Psi, for every u in U_Psi.  A product starts from the empty
column and carries u(h_f) - h_f, its root rows alone: x_alpha(t) adds the
single term -t alpha(h_f) e_alpha for the Cartan part ([e_alpha, h_f] =
-alpha(h_f) e_alpha, and [e_alpha, e_alpha] = 0), and u = 1 iff every
entry is zero.  The product keeps form as the ``cone`` of the
``UnipotentMatrix`` it returns and takes alpha(h_f) = sum_j alpha_j
form_j for each factor; ``collect`` reads the form there and takes the
same value as the ``pair`` it divides by, by ``divmod``, with a
``Fraction`` only where a remainder is left.  Every other row moves by
the root's compiled action, built once per root with its divided powers
in the one per-basis cache entry (``ChevalleyBasis._root_entry``).  Its
ad e_alpha is read off root sums: column e_beta holds N_{alpha,beta} on
e_{alpha+beta} when alpha + beta is a root, column e_-alpha the coroot
h_alpha, and column h_i -<alpha, alpha_i^vee> on e_alpha.  The entry is
(powers, row of e_alpha, action), where ``action[r]`` is None or the flat
tuple (k, i, c, k', i', c', ...) of the nonzero entries c = ((ad
e_alpha)^(k+1) / (k+1)!)[i][r], k ascending, h rows left out as sources
and targets.  A factor x(t) builds t^(k+1) for k >= 1 only when one of
these triples first needs it: on a column in U_Psi they rarely fire, and
never in a simply laced type, where their only source row is e_-alpha.

A commutator [x_alpha(s), x_beta(t)] of non-opposite roots lies in the
half-space of ``cone_weights(alpha, beta)`` whatever the signs of alpha
and beta.  ``collected_commutator`` returns its normal form there, a word
on the roots i*alpha + j*beta, which may then stand inside a word of
another half-space.  The residual check of the collection proves the
rewrite for the s and t given.  When alpha + beta is not a root, no
i*alpha + j*beta (i, j >= 1) is one, so the commutator is 1 and the
word is empty, with no product and no collection.  For alpha = beta the
multiples of a root are not roots.  Otherwise take such a root gamma with
i + j least, so i + j > 2.  (gamma, gamma) > 0 gives (gamma, alpha) > 0 or
(gamma, beta) > 0, so gamma - alpha or gamma - beta is a root (Humphreys,
*Introduction to Lie Algebras and Representation Theory* 9.4): a
combination with a smaller i + j, or a multiple 2*beta, 3*beta, ... (or of
alpha), and neither can be.  ``commutator_constants`` reads the C_ij off the
word over one fixed ring Z[s, t], and ``unit_split``, the one search for
a commutator witness with a unit constant, reads C_11 = N_{alpha,beta}
and any other C_ij there.

A column entry is a raw term dict of :class:`~relroots.polyring.PolyElem`
({packed exponent: coefficient}, see ``relroots.polyring``): each
factor's word term is its coefficient's own ``terms``, and a product of
two terms is one integer addition, so the localized C2/G2 identities take
the same path as the polynomial tables.  Column work does not reduce by
w (eps^2 - eps) = 1, so two equal entries can differ raw; equality and
``collect``, its residual test included, compare and read entries as the
PolyElem they build, which is reduced.  No slot may pass 2^16 - 1: a running
bound per slot, the sum over factors x(t) of (number of divided powers of
ad e) * (largest exponent of t in that slot), is checked before any column
work, and a word that could overflow a slot raises ``SlotOverflow``.  The
slots of a key are unpacked once per distinct key within one product or
``collect`` call (t and -t share their keys), and the cone once per
distinct root of the word.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul

from .polyring import (PolyElem, RegistryMismatch, VarRegistry, _decode, _require_slot,
                       _slots, row_reduce)
from .rootcore import (RootSystem, VerificationError, collinear, multiples, require, root_str,
                       splits)


class CollectionError(VerificationError):
    pass


def _pos_key(coords):
    return (sum(coords), coords)


class ChevalleyBasis:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        l = rs.rank
        pos = sorted(rs.positive_roots(), key=_pos_key)
        neg = sorted((tuple(-c for c in p) for p in pos), key=_pos_key)
        self.pos_roots = pos
        # basis layout: e_alpha (alpha > 0), h_1..h_l, e_alpha (alpha < 0)
        self.basis = [("e", c) for c in pos] + [("h", i) for i in range(l)] \
            + [("e", c) for c in neg]
        self.dim = len(self.basis)
        self.index = {lab: i for i, lab in enumerate(self.basis)}
        self._pos_set = set(pos)
        self._pos_order = {c: i for i, c in enumerate(pos)}
        self._extraspecial = self._find_extraspecial()
        self._n_cache = {}
        self._exp_cache = {}
        # h_f = (C^T)^-1 form must exist for every cone (module docstring)
        require(len(row_reduce(rs.cartan, l)[1]) == l,
                "the Cartan matrix of %s is singular", rs.type)
        self._verify_pair_laws()

    # -- structure constants ---------------------------------------------

    def _find_extraspecial(self):
        """gamma -> (alpha, beta), alpha + beta = gamma with alpha least in
        the positive order, for each non-simple positive gamma."""
        esp = {}
        for gamma in self.pos_roots:
            if sum(gamma) > 1:
                split = next(splits(gamma, self.pos_roots, self._pos_set, ((1, 1),)), None)
                require(split, "no decomposition for %s", gamma)
                esp[gamma] = split[:2]
        return esp

    def _string_p(self, a, b):
        """max i with b - i*a a root."""
        p = 0
        while tuple(x - (p + 1) * y for x, y in zip(b, a)) in self.rs:
            p += 1
        return p

    def struct_const(self, a, b):
        """N_{a,b} for roots a, b (coordinate tuples) with a+b a root; else 0."""
        key = (a, b)
        cached = self._n_cache.get(key)
        if cached is not None:
            return cached
        val = self._compute_n(a, b)
        self._n_cache[key] = val
        return val

    @cached_property
    def brackets(self):
        """alpha -> {beta: (alpha + beta, N_{alpha,beta})} over the pairs of
        roots whose sum is a root."""
        rs = self.rs
        out = {}
        for alpha in rs.roots:
            row = out[alpha] = {}
            for beta in rs.roots:
                gamma = tuple(map(add, alpha, beta))
                if gamma in rs:
                    row[beta] = (gamma, self.struct_const(alpha, beta))
        return out

    def _compute_n(self, a, b):
        s = tuple(x + y for x, y in zip(a, b))
        if s not in self.rs:
            return 0
        a_pos = a in self._pos_set
        b_pos = b in self._pos_set
        if a_pos and b_pos:
            return self._n_pos(a, b)
        if not a_pos and not b_pos:
            return -self.struct_const(tuple(-x for x in a), tuple(-x for x in b))
        if not a_pos:
            return -self.struct_const(b, a)
        # a positive, b negative
        if s not in self._pos_set:
            return -self.struct_const(tuple(-x for x in a), tuple(-x for x in b))
        # cyclic relation for a + b + (-s) = 0: N_ab = -|s|^2 / |a|^2 N_{-b,s}
        num = -self.rs.norms[s] * self.struct_const(tuple(-x for x in b), s)
        den = self.rs.norms[a]
        val, rem = divmod(num, den)
        require(rem == 0, "N(%s, %s) = %s/%s is not an integer", a, b, num, den)
        return val

    def _n_pos(self, a, b):
        gamma = tuple(x + y for x, y in zip(a, b))
        eps, eta = self._extraspecial[gamma]
        if (a, b) == (eps, eta):
            return self._string_p(eps, eta) + 1
        if self._pos_order[a] > self._pos_order[b]:
            return -self._n_pos(b, a)
        neg_eps = tuple(-x for x in eps)
        num = 0
        a_m = tuple(x - y for x, y in zip(a, eps))
        if a_m in self.rs:
            num += self.struct_const(a, neg_eps) * self.struct_const(a_m, b)
        b_m = tuple(x - y for x, y in zip(b, eps))
        if b_m in self.rs:
            num += self.struct_const(b, neg_eps) * self.struct_const(a, b_m)
        den = self.struct_const(gamma, neg_eps)
        require(den != 0, "N(%s, %s) vanishes on an extraspecial pair", gamma, neg_eps)
        val, rem = divmod(num, den)
        require(rem == 0, "N(%s, %s) = %s/%s is not an integer", a, b, num, den)
        return val

    def _verify_pair_laws(self):
        """Antisymmetry and |N| = p+1 over all positive pairs with root sum."""
        for a in self.pos_roots:
            for b in self.pos_roots:
                if a == b:
                    continue
                if tuple(x + y for x, y in zip(a, b)) in self._pos_set:
                    n = self.struct_const(a, b)
                    require(n == -self.struct_const(b, a),
                            "N is not antisymmetric on %s, %s", a, b)
                    require(abs(n) == self._string_p(a, b) + 1,
                            "|N(%s, %s)| = %d breaks the law |N| = p+1", a, b, abs(n))

    # -- root elements ---------------------------------------------------

    def _root_entry(self, coords):
        """The cache entry of one root, built on first use: (divided powers
        (ad e)^k / k! for k >= 1 as sparse columns {col: {row: int}}, the
        row of e_coords, the compiled action indexed by source row).

        ``action[r]`` is None or the flat tuple (k, i, c, ...) of the
        nonzero c = ((ad e)^(k+1) / (k+1)!)[i][r], k ascending, the targets
        of each power in its column's order; h rows are neither sources nor
        targets (module docstring)."""
        entry = self._exp_cache.get(coords)
        if entry is not None:
            return entry
        rs, index = self.rs, self.index
        row = index[("e", coords)]
        npos = len(self.pos_roots)
        ad = {}  # read off root sums (module docstring), in basis order
        for j, (kind, other) in enumerate(self.basis):
            if kind == "h":
                pair = rs._pairing_coords(coords, other)
                if pair:
                    ad[j] = {row: -pair}
                continue
            s = tuple(map(add, coords, other))
            if s in rs:
                ad[j] = {index[("e", s)]: self.struct_const(coords, other)}
            elif not any(s):
                ad[j] = {npos + i: c for i, c in enumerate(rs.coroot_coords(coords)) if c}
        powers = []
        cur = ad
        k = 1
        while cur:
            powers.append(cur)
            k += 1
            nxt = {}
            for j, col in cur.items():
                out = {}
                for r, c in col.items():
                    for i, d in ad.get(r, {}).items():
                        v = out.get(i, 0) + c * d
                        if v == 0:
                            out.pop(i, None)
                        else:
                            out[i] = v
                if out:
                    frac = {}
                    for i, v in out.items():
                        q, rem = divmod(v, k)
                        require(rem == 0, "divided power not integral")
                        frac[i] = q
                    nxt[j] = frac
            cur = nxt
        h_rows = range(npos, npos + rs.rank)
        action = [[] for _ in range(self.dim)]
        for k, power in enumerate(powers):
            for r, col in power.items():
                if r not in h_rows:
                    for i, c in col.items():
                        if i not in h_rows:
                            action[r] += (k, i, c)
        entry = self._exp_cache[coords] = (
            powers, row, tuple(tuple(t) if t else None for t in action))
        return entry

    def exp_ad_powers(self, coords):
        """[(ad e)^k / k! for k >= 1], integer sparse columns, until zero."""
        return self._root_entry(coords)[0]


@lru_cache(maxsize=None)
def build_chevalley_basis(rs: RootSystem) -> ChevalleyBasis:
    return ChevalleyBasis(rs)


# -- symbolic matrices ---------------------------------------------------


def _grow_bound(bound, reach, terms, n, unpacked):
    """Raise ``bound``, one bound per slot, in place for a factor x(t), t
    with ``terms``: x(t) reaches t^reach.  ``unpacked`` memoizes the nonzero
    (slot, exponent) pairs of each key over one product or ``collect`` call."""
    top = {}
    for key in terms:
        nonzero = unpacked.get(key)
        if nonzero is None:
            nonzero = unpacked[key] = [(k, e) for k, e in enumerate(_slots(key, n)) if e]
        for k, e in nonzero:
            if e > top.get(k, 0):
                top[k] = e
    for k, e in top.items():
        bound[k] = _require_slot(bound[k] + reach * e)


class UnipotentMatrix:
    """The column h_f of a product of root elements, carried through the word.

    ``cone`` is the form (alpha_j(h_f))_j, the weights of f divided by their
    gcd, so root(h_f) = sum_j root_j cone_j.  ``packed`` holds u(h_f) - h_f,
    the root rows of the image, {row: raw PolyElem terms} with no empty
    entry; slot k of every key of every entry is at most ``bound[k]``.
    """

    __slots__ = ("dim", "registry", "packed", "bound", "cone")

    def __init__(self, dim, registry, packed, bound, cone):
        self.dim = dim
        self.registry = registry
        self.packed = packed
        self.bound = bound
        self.cone = cone

    @property
    def cols(self):
        """The carried column as {"h_f": {row: PolyElem}}, zero entries dropped."""
        vals = ((i, PolyElem(self.registry, d)) for i, d in self.packed.items())
        return {"h_f": {i: v for i, v in vals if not v.is_zero()}}

    def __eq__(self, other):
        if not isinstance(other, UnipotentMatrix):
            return NotImplemented
        if self.dim != other.dim or self.registry != other.registry:
            return False
        # the images of different columns say nothing about each other
        require(self.cone == other.cone,
                "cannot compare products that start from different columns")
        # equal raw entries are equal; others are compared in normal form
        a, b, reg = self.packed, other.packed, self.registry
        return a == b or all(PolyElem(reg, a.get(i, {})) == PolyElem(reg, b.get(i, {}))
                             for i in a.keys() | b.keys() if a.get(i) != b.get(i))


def _vanishes(registry, col):
    """Whether every entry of a column is zero in normal form."""
    return all(PolyElem(registry, d).is_zero() for d in col.values())


def adjoint_root_element(cb: ChevalleyBasis, alpha, t: PolyElem, cone) -> UnipotentMatrix:
    """exp(t ad e_alpha), as a one-factor product on the column of ``cone``,
    the weights of the word it is compared against."""
    return product_of_root_elements(cb, t.registry, [(alpha, t)], cone)


def _times(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _left_multiply(col, entry, pair, t):
    """col <- x(t) col in place, for the column of a product on U_Psi.

    ``entry`` is the root's ``ChevalleyBasis._root_entry``, ``pair`` is
    root(h_f) and ``t`` a nonzero packed term dict.  x(t) = I + sum_k t^k
    P_k adds -t pair on e_root for the Cartan part h_f, which the column
    leaves out;
    every other row r adds t^(k+1) c times its entry on row i for each
    compiled triple (k, i, c); t^(k+1) is built the first time a triple
    needs it.  Entry dicts are never changed once stored (a changed entry
    is a new dict), so they may be shared.
    """
    _, row, action = entry
    tks = [t]
    delta = {row: {k: -pair * c for k, c in t.items()}}
    for r, m in col.items():
        flat = action[r]
        if flat is None:
            continue
        it = iter(flat)
        for k, i, c in zip(it, it, it):
            d = delta.get(i)
            if d is None:
                d = delta[i] = {}
            try:
                tk = tks[k]
            except IndexError:
                while len(tks) <= k:
                    tks.append(_times(tks[-1], t))
                tk = tks[k]
            for ka, ca in tk.items():
                v = ca * c
                for km, cm in m.items():
                    km += ka
                    d[km] = d.get(km, 0) + cm * v
    for i, d in delta.items():
        cur = col.get(i)
        if cur is not None:
            for k, v in cur.items():
                d[k] = d.get(k, 0) + v
        if not all(d.values()):
            d = {k: v for k, v in d.items() if v}
        if d:
            col[i] = d
        elif cur is not None:
            del col[i]


def cone_weights(a, b):
    """Integer weights of a form f > 0 on every i*a + j*b, i, j >= 0, i + j > 0.

    f(x) = (a.x)(|b|^2 - a.b) + (b.x)(|a|^2 - a.b) in the plain coordinate
    dot product, so f(i*a + j*b) = (i + j)(|a|^2 |b|^2 - (a.b)^2) > 0 for
    non-collinear a, b; for collinear a, b on one ray f(x) = a.x.
    """
    if collinear(a, b):
        return tuple(a)
    aa, bb, ab = sum(map(mul, a, a)), sum(map(mul, b, b)), sum(map(mul, a, b))
    return tuple([x * (bb - ab) + y * (aa - ab) for x, y in zip(a, b)])


def _require_in_cone(cone, root):
    require(sum(map(mul, cone, root)) > 0, "root %s lies outside the cone %s", root, cone)


def product_of_root_elements(cb, registry, factors, cone):
    """The column h_f of the left-to-right product of x_root(t) factors.

    ``cone`` holds the integer weights of a form f that must be positive
    on every factor's root (module docstring).  The word's slot bound and
    cone, the latter once per distinct root, are checked before any column
    work.
    """
    n = len(registry.names)
    entries, unpacked = {}, {}
    word, bound = [], [0] * (n + 1)
    for root, t in reversed(list(factors)):
        if t.registry != registry:
            raise RegistryMismatch("factor over a different registry")
        entry = entries.get(root)
        if entry is None:
            _require_in_cone(cone, root)
            entry = entries[root] = cb._root_entry(root)
        _grow_bound(bound, len(entry[0]), t.terms, n, unpacked)
        if t.terms:
            word.append((root, entry, t.terms))
    g = math.gcd(*cone)
    form = tuple([w // g for w in cone])
    col = {}
    for root, entry, terms in word:
        _left_multiply(col, entry, sum(map(mul, root, form)), terms)
    return UnipotentMatrix(cb.dim, registry, col, tuple(bound), form)


def invert_factors(factors):
    return [(root, -t) for root, t in reversed(list(factors))]


def commutator_factors(f1, f2):
    """Elementary factor word for [P1, P2] = P1 P2 P1^-1 P2^-1."""
    f1, f2 = list(f1), list(f2)
    return f1 + f2 + invert_factors(f1) + invert_factors(f2)


# -- collection ----------------------------------------------------------


def collect(cb, U, slots):
    """Normal-form coefficients of a group element along ordered slots.

    ``slots`` is a list of distinct roots (coordinate tuples), each inside
    the cone of ``U``, or the one-column check would not cover the
    residual.  Each coefficient is read off the column h_f as -t *
    root(h_f), and its
    factor peeled off the left; the final residual check proves U =
    prod x_r(t_r) over the slots in order, so any slot order gives a
    correct answer or a CollectionError.  Collection succeeds when every
    root that is a sum of two slot roots is a later slot, e.g. slots in
    order of |height|.  Returns {root: PolyElem}.
    """
    reg, form = U.registry, U.cone
    n = len(reg.names)
    col, bound = dict(U.packed), list(U.bound)
    coeffs, unpacked = {}, {}
    for root in slots:
        _require_in_cone(form, root)
        entry = cb._root_entry(root)
        raw = col.get(entry[1])
        if raw is None:
            continue
        pair = sum(map(mul, root, form))
        terms = {}
        for k, v in raw.items():
            q, rem = divmod(-v, pair)
            terms[k] = Fraction(-v, pair) if rem else q
        t = PolyElem(reg, terms)
        if t.is_zero():
            continue
        coeffs[root] = t
        _grow_bound(bound, len(entry[0]), t.terms, n, unpacked)
        _left_multiply(col, entry, pair, {k: -v for k, v in t.terms.items()})
    if not _vanishes(reg, col):
        raise CollectionError("residual is not the identity; "
                              "input not supported on the given slots")
    return coeffs


# -- classical commutator constants --------------------------------------


def collected_commutator(cb, registry, first, second):
    """Normal form of [x_alpha(s), x_beta(t)], ``first`` = (alpha, s) and
    ``second`` = (beta, t), for non-opposite roots of any signs.

    The commutator is multiplied on the column of ``cone_weights(alpha,
    beta)`` and collected along the roots i*alpha + j*beta in the order of
    ``multiples``.  Returns the word [(gamma, c_gamma)] in that order, zero
    coefficients left out; the residual check of ``collect`` proves that
    its product is the commutator.  The word is empty, and nothing is
    multiplied, when alpha + beta is not a root (module docstring).
    """
    (a, _), (b, _) = first, second
    _check_not_opposite_ray(a, b)
    if tuple(map(add, a, b)) not in cb.rs:
        return []  # no i*alpha + j*beta is a root (module docstring)
    U = product_of_root_elements(cb, registry, commutator_factors([first], [second]),
                                 cone_weights(a, b))
    slots = [tuple(i * x + j * y for x, y in zip(a, b))
             for i, j in multiples(a, b, cb.rs)]
    return list(collect(cb, U, slots).items())


# the one ring Z[s, t] of every C_ij table; its elements are never changed
_ST = VarRegistry(("s", "t"))
_S, _T = _ST.var("s"), _ST.var("t")


def commutator_constants(cb, alpha, beta):
    """Constants C_ij with [x_alpha(s), x_beta(t)] = prod x_{i a + j b}(C_ij s^i t^j),
    for roots alpha and beta given as coordinate tuples.

    Read off ``collected_commutator`` over the module's one Z[s, t], so
    the returned table is verified by construction.  Empty dict when no
    i*alpha + j*beta is a root, that is when alpha + beta is not one.
    """
    table = {}
    for root, c in collected_commutator(cb, _ST, (alpha, _S), (beta, _T)):
        # must be a single monomial C * s^i t^j on the root i*alpha + j*beta,
        # with |C| in {1, 2, 3}
        key, coeff = next(iter(c.terms.items()))
        (i, j), _ = _decode(key, 2)
        require(len(c.terms) == 1
                and root == tuple(i * x + j * y for x, y in zip(alpha, beta)),
                "coefficient of %s in [x_%s(s), x_%s(t)] is %r, not a monomial "
                "s^i t^j with %s = i*%s + j*%s", root, alpha, beta, c, root, alpha, beta)
        require(isinstance(coeff, int) and abs(coeff) in (1, 2, 3),
                "commutator constant %s for %s, %s is not in {1, 2, 3}",
                coeff, alpha, beta)
        table[(i, j)] = coeff
    return table


def unit_split(cb, gamma, firsts, seconds, ij=(1, 1), units=frozenset({1}), clean=False):
    """The first (alpha, beta, C_ij) of ``splits(gamma, firsts, seconds,
    (ij,))`` with |C_ij| in ``units``, or None; with ``clean``, 2*alpha +
    beta must not be a root.

    C_11 is the structure constant N_{alpha,beta}; any other C_ij is read
    from the ``commutator_constants`` of the pair.
    """
    for alpha, beta, _ in splits(gamma, firsts, seconds, (ij,)):
        if clean and tuple(2 * a + b for a, b in zip(alpha, beta)) in cb.rs:
            continue
        c = (cb.struct_const(alpha, beta) if ij == (1, 1)
             else commutator_constants(cb, alpha, beta).get(ij, 0))
        if abs(c) in units:
            return alpha, beta, c
    return None


def _check_not_opposite_ray(alpha, beta):
    # m*alpha = -k*beta for some m,k >= 1 iff beta is a negative multiple of alpha
    if collinear(alpha, beta) and sum(map(mul, alpha, beta)) < 0:
        raise ValueError("collinear opposite pair %s, %s"
                         % (root_str(alpha), root_str(beta)))
