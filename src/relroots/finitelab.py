"""Finite boundary exhibit: adjoint elementary groups over prime fields.

Generates the matrix group spanned by all adjoint root elements x_alpha(c)
over F_p, one generator x_alpha(1) per root, and decides whether it is
perfect by one of two routes, against the prediction that only the rank-2
doubly/triply laced types (B2 = C2 and G2) over F_2 fail to be perfect.

- **witness**: as in the paper's proof that E(R) is perfect, every x_alpha(1)
  is shown to lie in [G, G] by the generalized Chevalley commutator formula
  (Steinberg, *Lectures on Chevalley Groups*).  Roots are resolved in
  rounds: alpha is resolved by a pair (beta, gamma) and an entry (i, j) of
  ``commutator_constants(cb, beta, gamma)`` with i*beta + j*gamma = alpha,
  p not dividing C_ij, and every other factor of the table either
  divisible by p or on a root resolved before.  Then [x_beta(1),
  x_gamma(1)] = x_alpha(C_ij) times factors in [G, G], so x_alpha(C_ij) and,
  by the one-parameter law, x_alpha(1) lie in [G, G].  Each witness is
  re-checked as F_p matrices, and when every root is resolved, G = [G, G]
  with no enumeration of either group.
- **enumeration**: Dimino's coset-by-coset closure (Butler, Fundamental
  Algorithms for Permutation Groups, 1991) of the group, and its derived
  subgroup grown in place as the normal closure of the generator
  commutators.  This is the route wherever the search stops short (a failed
  search proves nothing), for rank 1, and for hand-built groups.

Only the enumeration route builds the closure, whose order is checked
against ``adjoint_order``; a witness row takes its order from that formula.
The closure stops at a cap on its element count, and before it builds
anything when p^(2N) already exceeds the cap (N positive roots).
All statements are about the adjoint image of the group; rank-1 types are
reported without a verdict, being outside the rank >= 2 hypothesis.

Both routes multiply F_p matrices through one exact kernel, ``_times``: a
stack of matrices held by columns times a right factor, summed over the
factor's nonzeros in the narrowest unsigned dtype that holds every sum
(uint8 over F_2).  A Dimino coset is one such product of the whole
subgroup, and the witness re-check and the one-parameter law multiply by
root elements and their divided powers, which have few nonzeros.  Single
dense products (coset representatives times generators, the commutators
of the derived subgroup) stay int64 matmul, exact while dim (p - 1)^2 <
2^63.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from .chevalley import build_chevalley_basis, commutator_constants
from .polyring import is_prime, row_reduce
from .rootcore import RootType, VerificationError, build_root_system, multiples, require, splits

DEFAULT_CAP = 10 ** 6


class CapExceeded(RuntimeError):
    pass


def _key_dtype(p):
    """Group elements over F_p are stored, and keyed by their bytes, in the
    smallest unsigned dtype that holds p - 1 (uint8 up to p = 256)."""
    return np.min_scalar_type(p - 1)


def _sum_dtype(n, p):
    """The smallest unsigned dtype that holds n (p - 1)^2: a sum of n
    products of residues in [0, p), so no sum of ``_times`` can wrap."""
    return np.min_scalar_type(n * (p - 1) ** 2)


def _columns(stack, dtype=np.int64):
    """A stack of n x n matrices held by columns: row k is column k of
    every row of the stack, the rows in stack order (a single matrix A
    gives A^T)."""
    n = stack.shape[-1]
    return stack.reshape(-1, n, n).transpose(2, 0, 1).reshape(n, -1).astype(
        dtype, copy=False)


def _times(cols, r, p):
    """A r mod p for a stack A held by columns (``_columns``), entries of
    both in [0, p); the product comes back by columns, so products chain.

    Column j of the product is the sum of r[k, j] cols[k] over the nonzeros
    of r, added in place.  The sums are held in ``_sum_dtype(len(cols), p)``,
    so they are exact by construction (uint8 for p = 2 and n <= 255, with
    n = len(cols)), and a right factor with few nonzeros costs few vector
    additions.  They are reduced as s - p (s // p): numpy divides unsigned
    integers by a scalar about ten times faster than it takes remainders."""
    dtype = _sum_dtype(len(cols), p)
    cols = cols.astype(dtype, copy=False)
    out = np.zeros((r.shape[1], cols.shape[1]), dtype=dtype)
    term = np.empty(cols.shape[1], dtype=dtype)
    sums, terms = list(out), list(cols)  # row views, made once
    n, flat = r.shape[1], np.flatnonzero(r)
    for f, c in zip(flat.tolist(), r.ravel()[flat].tolist()):
        k, j = divmod(f, n)
        if c == 1:
            np.add(sums[j], terms[k], out=sums[j])
        else:
            np.add(sums[j], np.multiply(terms[k], c, out=term), out=sums[j])
    quotient = out // p
    quotient *= p
    out -= quotient
    return out


def _inverse(a, p):
    """A^-1 over F_p, by row-reducing [A | I] to [I | A^-1]."""
    n = len(a)
    reduced, pivots = row_reduce(np.hstack([a, np.eye(n, dtype=np.int64)]).tolist(), n, p)
    if len(pivots) != n:
        raise ZeroDivisionError("singular matrix over F_%d" % p)
    return np.array([row[n:] for row in reduced], dtype=np.int64)


@dataclass
class GroupClosure:
    elements: dict  # byte key -> np.ndarray in _key_dtype(p)
    generators: list  # of int64 arrays mod p, each enlarging the group
    p: int
    dim: int
    root_type: RootType | None = None  # None for a hand-built group

    @property
    def order(self):
        return len(self.elements)


def _root_powers(cb, coords, p):
    """Stack N_0 = 1, N_k = (ad e)^k / k! mod p, so x_alpha(c) = sum c^k N_k,
    in ``_key_dtype(p)``."""
    powers = cb.exp_ad_powers(coords)
    dtype = _key_dtype(p)
    out = np.zeros((len(powers) + 1, cb.dim, cb.dim), dtype=dtype)
    out[0] = np.eye(cb.dim, dtype=dtype)
    for k, power in enumerate(powers, 1):
        for j, col in power.items():
            for i, v in col.items():
                out[k, i, j] = v % p
    return out


def _check_one_parameter_law(powers, p, keep=()):
    """x(a) x(b) = x(a + b) for all a, b in F_p, x(c) = sum_k c^k N_k;
    returns {c: x(c)} for each c in ``keep`` (0 <= c < p), in the dtype of
    ``powers``.

    With N_0 = 1, x(a) x(b) = sum_{i,j} a^i b^j N_i N_j and x(a + b) =
    sum_{i,j} a^i b^j C(i + j, i) N_{i+j}, so the law holds as polynomials
    in a and b once N_i N_j = C(i + j, i) N_{i+j} mod p for all i, j >= 1,
    N_m = 0 above the top power: one product of the stack N_1..N_top by
    each N_j, whatever p.  So x(c) = x(1)^c and x(1) generates every x(c)."""
    top = len(powers) - 1
    stack = _columns(powers[1:])
    wide = powers.astype(np.int64)
    for j in range(1, top + 1):
        want = np.zeros((top,) + powers.shape[1:], dtype=np.int64)
        for i in range(1, top + 1 - j):
            want[i - 1] = comb(i + j, i) * wide[i + j] % p
        require(np.array_equal(_times(stack, powers[j], p), _columns(want)),
                "one-parameter law fails mod %d", p)
    return {c: (np.tensordot([pow(c, k, p) for k in range(top + 1)], wide, 1) % p).astype(
        powers.dtype) for c in keep}


def adjoint_generators(t: RootType, p):
    """One x_alpha(1) per root alpha, mod p; over the prime field
    x_alpha(c) = x_alpha(1)^c, which the one-parameter law check confirms."""
    cb = build_chevalley_basis(build_root_system(t))
    gens = []
    for root in cb.rs.roots:
        powers = _root_powers(cb, root, p)
        _check_one_parameter_law(powers, p)
        gens.append(powers.sum(axis=0, dtype=np.int64) % p)
    return gens


def _identity_group(dim, p):
    """The trivial subgroup, as a closure dict for ``_extend``."""
    ident = np.eye(dim, dtype=_key_dtype(p))
    return {ident.tobytes(): ident}


def _extend(elements, gens, g, p, cap):
    """Grow the subgroup H = <gens> held in ``elements`` to <gens, g> in place,
    by Dimino's algorithm; return whether g was new.

    The new subgroup is the union of right cosets H r: each is added whole,
    as one ``_times`` product of H, laid out by columns once per extension,
    with r, and its keys are cut from that block in one call.  A membership
    lookup is made only for each coset representative times generator.
    ``CapExceeded`` is raised before a coset would take the order past
    ``cap``, so the dict never holds more than ``cap`` elements (it is left
    part-grown)."""
    dtype = _key_dtype(p)
    if g.astype(dtype).tobytes() in elements:
        return False
    gens.append(g)
    dim = g.shape[0]
    width = dim * dim * dtype.itemsize
    order = len(elements)
    cols = _columns(np.stack(list(elements.values())), _sum_dtype(dim, p))
    stacked = np.stack(gens)

    def add_coset(r):
        if len(elements) + order > cap:
            raise CapExceeded("closure exceeded cap %d" % cap)
        block = _times(cols, r, p).T.astype(dtype, order="C")
        keys = block.reshape(order, -1).view("V%d" % width).ravel().tolist()
        elements.update(zip(keys, block.reshape(order, dim, dim)))

    add_coset(g)
    reps = [g]
    for r in reps:  # grows while it is walked
        prods = r @ stacked % p
        buf = prods.astype(dtype).tobytes()
        for i, e in enumerate(prods):
            if buf[i * width:(i + 1) * width] not in elements:
                add_coset(e)
                reps.append(e)
    return True


def _matmul_bound(dim, p):
    """Reject a p that is not prime, and a field where int64 products of
    F_p matrices are not exact (they are iff dim (p-1)^2 < 2^63)."""
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)
    if dim * (p - 1) ** 2 >= 1 << 63:
        raise ValueError("F_%d matrices of size %d overflow int64 products"
                         % (p, dim))


def generate_elementary_group(t: RootType, p, cap=DEFAULT_CAP) -> GroupClosure:
    """The adjoint group generated by the x_alpha(c), grown generator by
    generator; ``generators`` keeps the ones that enlarged it."""
    n_pos = len(build_root_system(t).roots) // 2
    dim = t.rank + 2 * n_pos
    _matmul_bound(dim, p)
    if p ** (2 * n_pos) > cap:
        # U- and U+ each have p^N elements in the adjoint image, and
        # U- meets U+ only in 1 (lower- and upper-unitriangular in the
        # height order), so the products u- u+ are p^(2N) distinct elements
        raise CapExceeded("order >= p^(2N) = %d^%d exceeds cap %d"
                          % (p, 2 * n_pos, cap))
    elements, gens = _identity_group(dim, p), []
    for m in adjoint_generators(t, p):
        _extend(elements, gens, m, p, cap)
    return GroupClosure(elements, gens, p, dim, t)


def derived_subgroup(g: GroupClosure):
    """Normal closure of the generator commutators, grown in one dict: each
    kept subgroup generator h is conjugated by every group generator m and
    m h m^-1 extends the subgroup unless it is already inside."""
    p = g.p
    gens = [(m, _inverse(m, p)) for m in g.generators]
    elements, kept = _identity_group(g.dim, p), []
    queue = []
    for a, a_inv in gens:
        for b, b_inv in gens:
            comm = (a @ b % p) @ (a_inv @ b_inv % p) % p
            if _extend(elements, kept, comm, p, g.order):
                queue.append(comm)
    while queue:
        h = queue.pop()
        for m, m_inv in gens:
            conj = (m @ h % p) @ m_inv % p
            if _extend(elements, kept, conj, p, g.order):
                queue.append(conj)
    return elements


def _enumerated_index(g: GroupClosure):
    h = derived_subgroup(g)
    require(g.order % len(h) == 0,
            "subgroup order %d does not divide group order %d",
            len(h), g.order)
    return g.order // len(h)


# -- commutator witnesses ------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """x_root(1) lies in [G, G]: [x_beta(1), x_gamma(1)] is the ordered
    product of x_{k beta + l gamma}(C_kl) over ``table``, and
    root = i*beta + j*gamma for ``ij`` = (i, j)."""

    root: tuple
    beta: tuple
    gamma: tuple
    ij: tuple
    table: dict  # (k, l) -> C_kl, in product order


def _combination(ij, beta, gamma):
    i, j = ij
    return tuple(i * x + j * y for x, y in zip(beta, gamma))


def _split_pairs(rs):
    """Every (i, j) with i*b + j*c a root for some roots b, c, by (i + j, i):
    each root is W-conjugate to a simple b, W keeps the roots (Humphreys,
    *Introduction to Lie Algebras*, 10.3), and b + c is a root (``chevalley``)."""
    return sorted({ij for b in rs.simple_roots for c in rs.roots
                   if rs.sum_is_root(b, c) for ij in multiples(b, c, rs)},
                  key=lambda ij: (sum(ij), ij[0]))


def find_witnesses(t: RootType, p):
    """Commutator witnesses over F_p, in the order they were accepted.

    Roots are resolved in rounds until a round resolves none; a root that
    is never resolved has no witness.  Each pair's table is built once, on
    its first use."""
    rs = build_root_system(t)
    cb = build_chevalley_basis(rs)
    position = {r: k for k, r in enumerate(rs.roots)}
    pairs = _split_pairs(rs)
    tables, resolved, witnesses = {}, set(), []
    while True:
        before = len(witnesses)
        for alpha in position:
            if alpha in resolved:
                continue
            for beta, gamma, ij in splits(alpha, position, rs.root_set, pairs):
                # one of the two orders of each pair: [x_gamma, x_beta] is the
                # inverse of [x_beta, x_gamma], whose factors sit on the same roots
                if position[gamma] <= position[beta]:
                    continue
                table = tables.get((beta, gamma))
                if table is None:
                    table = tables[beta, gamma] = commutator_constants(cb, beta, gamma)
                if table.get(ij, 0) % p and all(
                        kl == ij or c % p == 0
                        or _combination(kl, beta, gamma) in resolved
                        for kl, c in table.items()):
                    witnesses.append(Witness(alpha, beta, gamma, ij, table))
                    resolved.add(alpha)
                    break
        if len(witnesses) == before:
            return witnesses


def check_witnesses(t: RootType, p, witnesses):
    """Re-check ``witnesses`` in order as F_p matrices; return the roots
    they resolve.

    The matrices x_delta(c) = sum_k c^k N_k come from ``_root_powers``
    and the one-parameter law is checked for every root used, so x(-1) =
    x(1)^-1 and x(c) = x(1)^c; every x(delta, c) is kept in
    ``_key_dtype(p)``, uint8 up to p = 256.  The c each root is used with
    are read off the witnesses first, so the law check hands back each
    root's x(c) and its stack is dropped at once.  Each witness must name
    its root by its entry, with p not dividing that constant, put every other
    nonzero factor on a root resolved by an earlier witness, and satisfy
    [x_beta(1), x_gamma(1)] = prod x_delta(C mod p) in table order."""
    rs = build_root_system(t)
    cb = build_chevalley_basis(rs)
    _matmul_bound(cb.dim, p)
    uses = {}  # root -> the c mod p of its elements
    for w in witnesses:
        for root in (w.beta, w.gamma):
            uses.setdefault(root, set()).update((1, -1 % p))
        for kl, c in w.table.items():
            delta = _combination(kl, w.beta, w.gamma)
            if c % p and delta in rs:  # a factor off the roots fails below
                uses.setdefault(delta, set()).add(c % p)
    elements = {}
    for root, cs in uses.items():
        for c, xc in _check_one_parameter_law(_root_powers(cb, root, p), p, cs).items():
            elements[root, c] = xc

    def x(root, c):
        return elements[root, c % p]

    resolved = set()
    for w in witnesses:
        b, g = w.beta, w.gamma
        require(w.root not in resolved and w.root == _combination(w.ij, b, g)
                and w.table.get(w.ij, 0) % p,
                "witness for %s: %s*%s + %s*%s with constant %s mod %d",
                w.root, w.ij[0], b, w.ij[1], g, w.table.get(w.ij), p)
        lhs = _columns(x(b, 1))
        for r in (x(g, 1), x(b, -1), x(g, -1)):
            lhs = _times(lhs, r, p)
        rhs = np.eye(cb.dim, dtype=np.int64)  # by columns, as lhs
        for kl, c in w.table.items():
            if c % p == 0:
                continue
            delta = _combination(kl, b, g)
            require(delta in rs and (kl == w.ij or delta in resolved),
                    "witness for %s: factor on %s is not resolved before it",
                    w.root, delta)
            rhs = _times(rhs, x(delta, c), p)
        require(np.array_equal(lhs, rhs),
                "witness for %s: [x_%s(1), x_%s(1)] is not the product of its "
                "table mod %d", w.root, b, g, p)
        resolved.add(w.root)
    return resolved


def perfect_by_witness(t: RootType, p):
    """Whether re-checked commutator witnesses resolve every root, which
    proves G = [G, G]; False proves nothing."""
    resolved = check_witnesses(t, p, find_witnesses(t, p))
    return len(resolved) == len(build_root_system(t).roots)


def derived_subgroup_index(g: GroupClosure):
    """[G : [G, G]]: 1 when commutator witnesses resolve every root of
    ``g.root_type``, else by enumerating the derived subgroup."""
    if g.root_type is not None and perfect_by_witness(g.root_type, g.p):
        return 1
    return _enumerated_index(g)


def _exponents(t: RootType):
    """m_j = #{k : n_k >= j} for j = 1..rank, where n_k is the number of
    positive roots of height k: the partition of the positive roots by
    height is dual to the exponents (Kostant)."""
    heights = Counter(sum(r) for r in build_root_system(t).positive_roots())
    return [sum(n >= j for n in heights.values()) for j in range(1, t.rank + 1)]


def adjoint_order(t: RootType, p):
    """Order of the adjoint elementary group over F_p (Carter, *Simple
    Groups of Lie Type*, Thm 9.4.10): p^N prod (p^(m_j + 1) - 1) / |Z|, where
    |Z| = prod gcd(e, p - 1) over the invariant factors e of the centre of
    the simply connected group."""
    l, exponents = t.rank, _exponents(t)
    order = p ** sum(exponents)  # the exponents sum to N
    for m in exponents:
        order *= p ** (m + 1) - 1
    centre = {"A": (l + 1,), "B": (2,), "C": (2,), "D": (2, 2) if l % 2 == 0 else (4,),
              "E": {6: (3,), 7: (2,)}.get(l, ())}  # none for E8, F4 and G2
    for e in centre.get(t.series, ()):
        order //= gcd(e, p - 1)
    return order


PREDICTED_IMPERFECT = {("C", 2), ("B", 2), ("G", 2)}


def perfectness_report(cases, cap=DEFAULT_CAP):
    """Rows of (type, p, route, order, derived index, verdict) for the catalog.

    A witness row has index 1 and the order from ``adjoint_order``, shown
    when it is at most ``cap``; otherwise the closure is built (or the row
    is ``skipped: cap``), checked against that order, and its derived
    subgroup enumerated.  A failed check becomes a ``fail`` row."""
    rows = []
    for t, p in cases:
        row = {"type": str(t), "p": p}
        rows.append(row)
        try:
            order = adjoint_order(t, p)
            if perfect_by_witness(t, p):
                row.update(route="witness", derived_index=1)
                if order <= cap:
                    row["order"] = order
            else:
                row["route"] = "enumeration"
                try:
                    g = generate_elementary_group(t, p, cap=cap)
                except CapExceeded:
                    row.update(status="skipped", note="skipped: cap")
                    continue
                require(g.order == order,
                        "closure order %d is not the order formula's %d",
                        g.order, order)
                row.update(order=order, derived_index=_enumerated_index(g))
        except VerificationError as exc:
            row.update(status="fail", note="fail: %s" % exc)
            continue
        perfect = row["derived_index"] == 1
        row.update(status="pass", perfect=perfect)
        if t.rank < 2:
            row["verdict"] = "out-of-hypothesis (rank 1)"
        else:
            predicted = not ((t.series, t.rank) in PREDICTED_IMPERFECT and p == 2)
            agrees = perfect == predicted
            row["verdict"] = ("matches prediction" if agrees
                              else "CONTRADICTS prediction")
            if not agrees:
                row["status"] = "fail"
    return rows


def format_report(rows):
    header = ["type", "p", "route", "order", "index", "verdict"]
    table = [header]
    for r in rows:
        table.append([r["type"], str(r["p"]), r.get("route", "-"),
                      str(r.get("order", "-")),
                      str(r.get("derived_index", "-")),
                      r.get("verdict", r.get("note", ""))])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines)
