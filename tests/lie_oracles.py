"""Oracles the tests share, written apart from the paths they check.

``full_product`` is the one full-matrix oracle for products of root
elements; ``root_string``, ``gram_dot`` and ``cartan_pairing`` recompute
root data from the root set and the Gram matrix alone, in Fractions, and
``h_of`` the Cartan vector h_f of a cone from them;
``commutator_constants_fast`` gives the magnitudes of the commutator
constants from the structure constants, with no matrix work;
``diagram_automorphisms`` tries every permutation of the Dynkin nodes;
``bracket`` is the Lie bracket of two basis labels, case by case,
``all_types`` lists every irreducible type up to a rank, and
``solved_multiples`` finds the multiples of a pair of roots or relative
roots by one exact solve per point of the system.
"""

import itertools
import math
from fractions import Fraction

from relroots.rootcore import InvalidRootType, RootType, collinear, require


def all_types(max_rank):
    for series in "ABCDEFG":
        for rank in range(1, max_rank + 1):
            try:
                yield RootType(series, rank)
            except InvalidRootType:
                pass


def full_product(cb, reg, factors):
    """All dim columns of the product, right-multiplying I + sum t^k P_k.

    Written apart from ``product_of_root_elements``: it multiplies on the
    right and keeps every column, for words of any signs.
    """
    one = reg.const(1)
    M = {j: {j: one} for j in range(cb.dim)}
    for root, t in factors:
        tks, tk = [], one
        for _ in cb.exp_ad_powers(root):
            tk = tk * t
            tks.append(tk)
        out = {}
        for j in range(cb.dim):
            acc = dict(M[j])
            for tk, power in zip(tks, cb.exp_ad_powers(root)):
                for r, c in power.get(j, {}).items():
                    for i, m in M[r].items():
                        acc[i] = acc.get(i, reg.zero()) + (tk * m).scale(c)
            out[j] = {i: v for i, v in acc.items() if not v.is_zero()}
        M = out
    return M


def bracket(cb, x, y):
    """[x, y] of two basis labels of ``cb`` as {basis index: integer coeff},
    each case of the bracket on its own: [h, h'] = 0, [e_a, h_i] =
    -<a, alpha_i^vee> e_a, [e_a, e_-a] = h_a and [e_a, e_b] = N_ab e_{a+b}."""
    if x[0] == "h" and y[0] == "h":
        return {}
    if x[0] == "h":
        return {i: -c for i, c in bracket(cb, y, x).items()}
    if y[0] == "h":
        pair = cb.rs._pairing_coords(x[1], y[1])
        return {cb.index[x]: -pair} if pair else {}
    a, b = x[1], y[1]
    s = tuple(p + q for p, q in zip(a, b))
    if not any(s):
        npos = len(cb.pos_roots)
        return {npos + i: c for i, c in enumerate(cb.rs.coroot_coords(a)) if c}
    if s in cb.rs:
        n = cb.struct_const(a, b)
        return {cb.index[("e", s)]: n} if n else {}
    return {}


def root_string(rs, a, b):
    """(p, q) with b - p*a, ..., b + q*a the a-string through b."""
    if a == b or a == tuple(-x for x in b):
        raise ValueError("root string undefined for collinear pair")
    p = 0
    while tuple(x - (p + 1) * y for x, y in zip(b, a)) in rs:
        p += 1
    q = 0
    while tuple(x + (q + 1) * y for x, y in zip(b, a)) in rs:
        q += 1
    return p, q


def gram_dot(rs, x, y):
    """(x, y) of two roots from the Gram matrix alone, an exact Fraction."""
    return sum(Fraction(xi * yj) * rs.gram[i][j]
               for i, xi in enumerate(x) if xi
               for j, yj in enumerate(y) if yj)


def cartan_pairing(rs, beta, alpha):
    """<beta, alpha^vee> = 2(beta, alpha)/(alpha, alpha), an exact Fraction,
    from the Gram matrix alone, not from the Cartan integers of ``rs``."""
    return 2 * gram_dot(rs, beta, alpha) / gram_dot(rs, alpha, alpha)


def h_of(cb, weights):
    """(c_1..c_l) with h_f = sum c_i h_i and alpha_j(h_f) = form_j, form
    the ``weights`` divided by their gcd, an exact Fraction vector solved by
    Gauss-Jordan from the Gram matrix alone (alpha_j(h_i) = <alpha_j,
    alpha_i^vee>)."""
    l = cb.rs.rank
    g = math.gcd(*weights)
    simple = [tuple(int(i == j) for i in range(l)) for j in range(l)]
    rows = [[cartan_pairing(cb.rs, simple[j], simple[i]) for i in range(l)]
            + [Fraction(weights[j], g)] for j in range(l)]
    for c in range(l):
        piv = next(r for r in range(c, l) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(l):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[l] for row in rows)


def commutator_constants_fast(cb, alpha, beta):
    """|C_ij| table from the structure constants, without matrix work.

    Classical closed forms in terms of N values; magnitudes only (the
    signs depend on the product ordering convention, which the symbolic
    route pins down instead).
    """
    a, b = alpha, beta
    if collinear(a, b) and sum(x * y for x, y in zip(a, b)) < 0:
        raise ValueError("collinear opposite pair %s, %s" % (alpha, beta))
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
        require(val.denominator == 1, "C_%d%d(%s, %s) = %s is not an integer",
                i, j, alpha, beta, val)
        table[(i, j)] = abs(int(val))
    return table


# degrees d_i = m_i + 1 of the basic invariants of the Weyl group
# (Humphreys, *Reflection Groups and Coxeter Groups*, Table 3.1)
DEGREES = {
    "A": lambda l: list(range(2, l + 2)),
    "B": lambda l: list(range(2, 2 * l + 1, 2)),
    "C": lambda l: list(range(2, 2 * l + 1, 2)),
    "D": lambda l: list(range(2, 2 * l - 1, 2)) + [l],
    "E": lambda l: {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
                    8: [2, 8, 12, 14, 18, 20, 24, 30]}[l],
    "F": lambda l: [2, 6, 8, 12],
    "G": lambda l: [2, 6],
}


def diagram_automorphisms(cartan):
    """Every permutation of the nodes that preserves the Cartan matrix, in
    lexicographic order: all l! of them are tried."""
    l = len(cartan)
    return tuple(perm for perm in itertools.permutations(range(l))
                 if all(cartan[perm[i]][perm[j]] == cartan[i][j]
                        for i in range(l) for j in range(l)))


def solved_multiples(fibers, a, b):
    """(i, j) with i, j >= 1 and i*a + j*b in ``fibers``, sorted by (i + j, i).

    Written apart from ``rootcore.multiples``, with no bound and no code:
    for each d in ``fibers`` (the roots or the relative roots) it solves
    d = i*a + j*b and keeps an integral solution that holds on every
    coordinate.  A pair that is not
    collinear is solved on its first nonzero 2x2 minor (p, q) by Cramer's
    rule.  A collinear pair must point one way; then on the first nonzero
    coordinate p, i*|a_p| + j*|b_p| = |d_p|, so each i <= |d_p| is tried.
    """
    n = len(a)
    minors = [(p, q) for p in range(n) for q in range(p + 1, n)
              if a[p] * b[q] != a[q] * b[p]]
    out = []
    for d in fibers:
        if minors:
            p, q = minors[0]
            det = a[p] * b[q] - a[q] * b[p]
            i, ri = divmod(d[p] * b[q] - d[q] * b[p], det)
            j, rj = divmod(a[p] * d[q] - a[q] * d[p], det)
            solutions = [(i, j)] if not ri and not rj else []
        else:
            p = next(k for k, x in enumerate(a) if x)
            require(a[p] * b[p] > 0, "a and b point opposite ways")
            solutions = [(i, j) for i in range(1, abs(d[p]) + 1)
                         for j, r in [divmod(d[p] - i * a[p], b[p])] if not r]
        out += [(i, j) for i, j in solutions if i >= 1 and j >= 1
                and all(x == i * y + j * z for x, y, z in zip(d, a, b))]
    return sorted(out, key=lambda ij: (ij[0] + ij[1], ij[0]))
