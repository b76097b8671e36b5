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
over :class:`~relroots.polyring.PolyElem`; products of them are collected
back to normal form by graded elimination, which at the same time proves
the matrix identity it outputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .polyring import PolyElem, VarRegistry
from .rootcore import Root, RootSystem, collinear


class CollectionError(ValueError):
    pass


def _pos_key(coords):
    return (sum(coords), coords)


class ChevalleyBasis:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        l = rs.rank
        pos = sorted((r.coords for r in rs.positive_roots()), key=_pos_key)
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
        self._ad_cache = {}
        self._exp_cache = {}
        self._verify_pair_laws()

    # -- structure constants ---------------------------------------------

    def _find_extraspecial(self):
        esp = {}
        for gamma in self.pos_roots:
            if sum(gamma) == 1:
                continue
            for alpha in self.pos_roots:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in self._pos_set:
                    esp[gamma] = (alpha, beta)
                    break
            else:
                raise AssertionError("no decomposition for %r" % (gamma,))
        return esp

    def _norm(self, coords):
        return self.rs._norm(coords)

    def _string_p(self, a, b):
        """max i with b - i*a a root."""
        p = 0
        while tuple(x - (p + 1) * y for x, y in zip(b, a)) in self.rs:
            p += 1
        return p

    def struct_const(self, a, b):
        """N_{a,b} for roots a, b (coordinate tuples) with a+b a root; else 0."""
        a = a.coords if isinstance(a, Root) else tuple(a)
        b = b.coords if isinstance(b, Root) else tuple(b)
        key = (a, b)
        cached = self._n_cache.get(key)
        if cached is not None:
            return cached
        val = self._compute_n(a, b)
        self._n_cache[key] = val
        return val

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
        if s in self._pos_set:
            # cyclic relation for a + b + (-s) = 0
            ratio = Fraction(self._norm(s), self._norm(a))
            val = -ratio * self.struct_const(tuple(-x for x in b), s)
        else:
            val = -self.struct_const(tuple(-x for x in a), tuple(-x for x in b))
        assert val.denominator == 1, (a, b, val)
        return int(val)

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
        assert den != 0
        val = Fraction(num, den)
        assert val.denominator == 1, (a, b, val)
        return int(val)

    def _verify_pair_laws(self):
        """Antisymmetry and |N| = p+1 over all positive pairs with root sum."""
        for a in self.pos_roots:
            for b in self.pos_roots:
                if a == b:
                    continue
                if tuple(x + y for x, y in zip(a, b)) in self._pos_set:
                    n = self.struct_const(a, b)
                    assert n == -self.struct_const(b, a)
                    assert abs(n) == self._string_p(a, b) + 1, (a, b, n)

    # -- brackets --------------------------------------------------------

    def bracket(self, x, y):
        """Bracket of two basis labels as {basis index: integer coeff}."""
        if x[0] == "h" and y[0] == "h":
            return {}
        if x[0] == "h":
            out = self.bracket(y, x)
            return {i: -c for i, c in out.items()}
        if y[0] == "h":
            # [e_a, h_i] = -<a, alpha_i^vee> e_a
            a = x[1]
            pair = self.rs._pairing_coords(a, y[1])
            return {self.index[x]: -pair} if pair else {}
        a, b = x[1], y[1]
        s = tuple(p + q for p, q in zip(a, b))
        if not any(s):
            # [e_a, e_-a] = h_a (coroot of a)
            cor = self.rs.coroot_coords(self.rs.root_from_coords(a))
            npos = len(self.pos_roots)
            return {npos + i: c for i, c in enumerate(cor) if c}
        if s in self.rs:
            n = self.struct_const(a, b)
            return {self.index[("e", s)]: n} if n else {}
        return {}

    def verify_jacobi(self, triples=None):
        """Check [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on basis triples."""
        import itertools
        if triples is None:
            triples = itertools.combinations(self.basis, 3)
        for x, y, z in triples:
            acc = {}
            for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                for i, c in self.bracket(u, v).items():
                    for j, d in self.bracket(self.basis[i], w).items():
                        acc[j] = acc.get(j, 0) + c * d
            if any(acc.values()):
                raise AssertionError("Jacobi fails on %r %r %r: %r" % (x, y, z, acc))
        return True

    # -- adjoint matrices ------------------------------------------------

    def ad_matrix(self, coords):
        """Sparse columns of ad e_coords: {col: {row: int}}."""
        coords = coords.coords if isinstance(coords, Root) else tuple(coords)
        cached = self._ad_cache.get(coords)
        if cached is not None:
            return cached
        lab = ("e", coords)
        cols = {}
        for j, other in enumerate(self.basis):
            col = self.bracket(lab, other)
            if col:
                cols[j] = col
        self._ad_cache[coords] = cols
        return cols

    def exp_ad_powers(self, coords):
        """[(ad e)^k / k! for k >= 1], integer sparse columns, until zero."""
        coords = coords.coords if isinstance(coords, Root) else tuple(coords)
        cached = self._exp_cache.get(coords)
        if cached is not None:
            return cached
        ad = self.ad_matrix(coords)
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
                        q = Fraction(v, k)
                        assert q.denominator == 1, "divided power not integral"
                        frac[i] = int(q)
                    nxt[j] = frac
            cur = nxt
        self._exp_cache[coords] = powers
        return powers


@lru_cache(maxsize=None)
def build_chevalley_basis(rs: RootSystem) -> ChevalleyBasis:
    return ChevalleyBasis(rs)


# -- symbolic matrices ---------------------------------------------------


class UnipotentMatrix:
    """Sparse square matrix of PolyElem entries, stored column-wise."""

    __slots__ = ("dim", "registry", "cols")

    def __init__(self, dim, registry, cols):
        self.dim = dim
        self.registry = registry
        self.cols = cols  # {col: {row: PolyElem}}, identity entries included

    @classmethod
    def identity(cls, dim, registry):
        one = registry.one()
        return cls(dim, registry, {j: {j: one} for j in range(dim)})

    def __matmul__(self, other):
        # (self @ other)[i][j] = sum_r self[i][r] * other[r][j]
        out = {}
        for j, colB in other.cols.items():
            acc = {}
            for r, b in colB.items():
                colA = self.cols.get(r)
                if not colA:
                    continue
                for i, a in colA.items():
                    v = a * b
                    if v.is_zero():
                        continue
                    cur = acc.get(i)
                    acc[i] = v if cur is None else cur + v
            out[j] = {i: v for i, v in acc.items() if not v.is_zero()}
        return UnipotentMatrix(self.dim, self.registry, out)

    def is_identity(self):
        one = self.registry.one()
        for j in range(self.dim):
            col = self.cols.get(j, {})
            for i, v in col.items():
                if i == j:
                    if v != one:
                        return False
                elif not v.is_zero():
                    return False
            if col.get(j) is None:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, UnipotentMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        for j in range(self.dim):
            a = {i: v for i, v in self.cols.get(j, {}).items() if not v.is_zero()}
            b = {i: v for i, v in other.cols.get(j, {}).items() if not v.is_zero()}
            if a != b:
                return False
        return True

    def __hash__(self):
        raise TypeError("unhashable")


def adjoint_root_element(cb: ChevalleyBasis, alpha, t: PolyElem) -> UnipotentMatrix:
    """exp(t ad e_alpha) as an exact matrix; the series terminates."""
    coords = alpha.coords if isinstance(alpha, Root) else tuple(alpha)
    reg = t.registry
    mat = UnipotentMatrix.identity(cb.dim, reg)
    tk = reg.one()
    for power in cb.exp_ad_powers(coords):
        tk = tk * t
        if tk.is_zero():
            break
        for j, col in power.items():
            dest = mat.cols.setdefault(j, {})
            for i, c in col.items():
                add = tk.scale(c)
                cur = dest.get(i)
                val = add if cur is None else cur + add
                if val.is_zero():
                    dest.pop(i, None)
                else:
                    dest[i] = val
    return mat


def _mul_elem_left(cb, factor, M):
    """x_root(t) @ M without materializing the elementary matrix."""
    root, t = factor
    reg = M.registry
    powers = cb.exp_ad_powers(root.coords if isinstance(root, Root) else tuple(root))
    out = {}
    tks = []
    tk = reg.one()
    for _ in powers:
        tk = tk * t
        if tk.is_zero():
            break
        tks.append(tk)
    for j, colM in M.cols.items():
        acc = dict(colM)
        for r, m in colM.items():
            for tk, power in zip(tks, powers):
                col = power.get(r)
                if not col:
                    continue
                for i, c in col.items():
                    add = (tk * m).scale(c)
                    cur = acc.get(i)
                    val = add if cur is None else cur + add
                    if val.is_zero():
                        acc.pop(i, None)
                    else:
                        acc[i] = val
        out[j] = acc
    return UnipotentMatrix(M.dim, reg, out)


def product_of_root_elements(cb, registry, factors):
    """Matrix of the left-to-right product of x_root(t) factors."""
    M = UnipotentMatrix.identity(cb.dim, registry)
    for root, t in reversed(list(factors)):
        M = _mul_elem_left(cb, (root, t), M)
    return M


def invert_factors(factors):
    return [(root, -t) for root, t in reversed(list(factors))]


def commutator_factors(f1, f2):
    """Elementary factor word for [P1, P2] = P1 P2 P1^-1 P2^-1."""
    f1, f2 = list(f1), list(f2)
    return f1 + f2 + invert_factors(f1) + invert_factors(f2)


# -- collection ----------------------------------------------------------


def collect(cb, U, slots, grading):
    """Normal-form coefficients of a group element along ordered slots.

    ``slots`` is a list of Root (distinct) and ``grading`` maps each slot
    root to a positive rational; the slot order must be non-decreasing in
    the grading, and any sum of two slot roots that is again a root must
    be a slot root (of strictly larger grade -- automatic for additive
    positive gradings).  Returns {root: PolyElem}; raises
    CollectionError if U is not a product of slot root elements.
    """
    reg = U.registry
    grades = [grading(r) for r in slots]
    if any(g <= 0 for g in grades):
        raise CollectionError("grading must be strictly positive on slots")
    if any(grades[i] > grades[i + 1] for i in range(len(grades) - 1)):
        raise CollectionError("slots out of grading order")
    npos = len(cb.pos_roots)
    W = U
    coeffs = {}
    for root in slots:
        # pick a Cartan column whose image sees e_root
        for i in range(cb.rs.rank):
            pair = cb.rs._pairing_coords(root.coords, i)
            if pair:
                break
        hcol = npos + i
        row = cb.index[("e", root.coords)]
        c = W.cols.get(hcol, {}).get(row)
        if c is None or c.is_zero():
            continue
        t = c.scale(Fraction(-1, pair))
        coeffs[root] = t
        W = _mul_elem_left(cb, (root, -t), W)
    if not W.is_identity():
        raise CollectionError("residual is not the identity; "
                              "input not supported on the given slots")
    return coeffs


def positive_root_order(cb):
    """All positive roots in the collection order (height, then coords)."""
    return [cb.rs.root_from_coords(c) for c in cb.pos_roots]


def collect_to_normal_form(cb, word, ordering=None):
    """Rewrite a product of root elements as an ordered normal form.

    ``word`` is a list of (Root, PolyElem) with all roots positive (or all
    negative); returns the list of (Root, PolyElem) with nonzero
    coefficients in the normal-form order.
    """
    word = list(word)
    if not word:
        return []
    reg = word[0][1].registry
    signs = {r.is_positive() for r, _ in word}
    if len(signs) != 1:
        raise CollectionError("mixed-sign word is not unipotent")
    positive = signs.pop()
    if ordering is None:
        ordering = positive_root_order(cb)
        if not positive:
            ordering = [-r for r in ordering]
            ordering = [cb.rs.root_from_coords(r.coords) for r in ordering]
    U = product_of_root_elements(cb, reg, word)
    coeffs = collect(cb, U, ordering, lambda r: abs(r.height))
    return [(r, coeffs[r]) for r in ordering if r in coeffs]


# -- classical commutator constants --------------------------------------


def commutator_constants(cb, alpha: Root, beta: Root):
    """Constants C_ij with [x_alpha(s), x_beta(t)] = prod x_{i a + j b}(C_ij s^i t^j).

    Computed by symbolic collection of the commutator matrix, so the
    returned table is verified by construction.  Empty dict when no
    i*alpha + j*beta is a root.
    """
    _check_not_opposite_ray(alpha, beta)
    reg = VarRegistry(["s", "t"])
    s, t = reg.var("s"), reg.var("t")
    word = commutator_factors([(alpha, s)], [(beta, t)])
    U = product_of_root_elements(cb, reg, word)
    slots = _span_slots(cb, alpha.coords, beta.coords)
    coeffs = collect(cb, U, [r for r, _ in slots], lambda r: _slot_grade(slots, r))
    table = {}
    for root, (i, j) in ((r, ij) for r, ij in slots):
        c = coeffs.get(root)
        if c is None:
            continue
        # must be a single monomial C * s^i t^j
        (exp, coeff), = c.terms.items()
        assert exp == (i, j), (alpha, beta, root, c)
        assert isinstance(coeff, int) and abs(coeff) in (1, 2, 3), coeff
        table[(i, j)] = coeff
    return table


def _check_not_opposite_ray(alpha, beta):
    # m*alpha = -k*beta for some m,k >= 1 iff beta is a negative multiple of alpha
    if collinear(alpha, beta) and sum(
            x * y for x, y in zip(alpha.coords, beta.coords)) < 0:
        raise ValueError("collinear opposite pair %s, %s" % (alpha, beta))


def _span_slots(cb, a, b):
    """[(root, (i,j))] for all i*a + j*b in Phi with i,j > 0, ordered by i+j."""
    out = []
    for i in range(1, 6):
        for j in range(1, 6):
            c = tuple(i * x + j * y for x, y in zip(a, b))
            if c in cb.rs:
                out.append((cb.rs.root_from_coords(c), (i, j)))
    out.sort(key=lambda e: (e[1][0] + e[1][1], e[1][0]))
    return out


def _slot_grade(slots, root):
    for r, (i, j) in slots:
        if r == root:
            return i + j
    raise KeyError(root)


def commutator_constants_fast(cb, alpha: Root, beta: Root):
    """|C_ij| table from the structure constants, without matrix work.

    Classical closed forms in terms of N values; magnitudes only (the
    signs depend on the product ordering convention, which the symbolic
    route pins down instead).
    """
    _check_not_opposite_ray(alpha, beta)
    a, b = alpha.coords, beta.coords
    N = cb.struct_const

    def vec(i, j):
        return tuple(i * x + j * y for x, y in zip(a, b))

    def m_chain(base, step, count):
        # (1/count!) * prod_{j<count} N(step, j*step + base)
        val = Fraction(1)
        cur = base
        for j in range(count):
            val *= N(step, cur)
            cur = tuple(x + y for x, y in zip(cur, step))
        fact = 1
        for j in range(2, count + 1):
            fact *= j
        return val / fact

    table = {}
    for (i, j) in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (3, 2), (2, 3)):
        if vec(i, j) not in cb.rs:
            continue
        if j == 1:
            val = m_chain(b, a, i)
        elif i == 1:
            val = m_chain(a, b, j)
        elif (i, j) == (3, 2):
            val = m_chain(a, vec(1, 1), 2) * 2 / 3
        else:  # (2, 3)
            val = m_chain(b, vec(1, 1), 2) / 3
        assert val.denominator == 1, (alpha, beta, i, j, val)
        table[(i, j)] = abs(int(val))
    return table
