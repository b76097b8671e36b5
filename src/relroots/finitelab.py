"""Finite boundary exhibit: adjoint elementary groups over prime fields.

Generates the matrix group spanned by all adjoint root elements x_alpha(c)
over F_p by breadth-first closure, computes its derived subgroup, and
compares perfectness against the prediction that only the rank-2
doubly/triply laced types (B2 = C2 and G2) over F_2 fail to be perfect.
All statements are about the adjoint image of the group; rank-1 types are
reported without a verdict, being outside the rank >= 2 hypothesis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .chevalley import build_chevalley_basis
from .polyring import is_prime, row_reduce
from .rootcore import RootType, build_root_system

DEFAULT_CAP = 10 ** 6


class CapExceeded(RuntimeError):
    pass


def closure_cap():
    return int(os.environ.get("RELROOT_CAP", DEFAULT_CAP))


def _keyer(p):
    """Byte key of a matrix over F_p, entries in the smallest unsigned dtype
    that holds p - 1 (uint8 up to p = 256)."""
    dtype = np.min_scalar_type(p - 1)
    return lambda a: a.astype(dtype).tobytes()


class FqMatrix:
    """Square matrix over F_p with a canonical hashable byte encoding."""

    __slots__ = ("p", "array")

    def __init__(self, p, array):
        if not is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.array = np.ascontiguousarray(np.asarray(array, dtype=np.int64) % p)

    @property
    def dim(self):
        return self.array.shape[0]

    def key(self):
        return _keyer(self.p)(self.array)

    def __matmul__(self, other):
        return FqMatrix(self.p, (self.array @ other.array) % self.p)

    def __eq__(self, other):
        return isinstance(other, FqMatrix) and self.p == other.p \
            and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def inverse(self):
        n = self.dim
        # row-reduce [A | I] to [I | A^-1]
        aug = np.concatenate([self.array, np.eye(n, dtype=np.int64)], axis=1)
        reduced, pivots = row_reduce(aug.tolist(), n, self.p)
        if len(pivots) != n:
            raise ZeroDivisionError("singular matrix over F_%d" % self.p)
        return FqMatrix(self.p, [row[n:] for row in reduced])


@dataclass
class GroupClosure:
    elements: dict  # byte key -> np.ndarray
    generators: list  # of FqMatrix
    p: int
    dim: int

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, m: FqMatrix):
        return m.key() in self.elements


def _root_element_matrix(cb, coords, c, p):
    """Adjoint x_alpha(c) reduced mod p, as an integer numpy matrix."""
    n = cb.dim
    mat = np.eye(n, dtype=np.int64)
    ck = 1
    for power in cb.exp_ad_powers(coords):
        ck = (ck * c) % p
        for j, col in power.items():
            for i, v in col.items():
                mat[i, j] = (mat[i, j] + ck * v) % p
        if ck == 0:
            break
    return mat % p


def adjoint_generators(t: RootType, p):
    """All x_alpha(c), alpha in Phi, c in F_p*, deduplicated."""
    rs = build_root_system(t)
    cb = build_chevalley_basis(rs)
    gens, seen = [], set()
    for root in rs.roots:
        for c in range(1, p):
            m = FqMatrix(p, _root_element_matrix(cb, root.coords, c, p))
            if m.key() not in seen:
                seen.add(m.key())
                gens.append(m)
    # one-parameter law sanity: x(a) x(b) = x(a+b) in F_p
    for root in rs.roots[:2]:
        for a in range(p):
            for b in range(p):
                lhs = FqMatrix(p, _root_element_matrix(cb, root.coords, a, p)) \
                    @ FqMatrix(p, _root_element_matrix(cb, root.coords, b, p))
                rhs = FqMatrix(p, _root_element_matrix(cb, root.coords,
                                                       (a + b) % p, p))
                assert lhs == rhs, "one-parameter law fails mod %d" % p
    return gens


def _bfs_closure(seed_arrays, gen_arrays, p, cap):
    """Byte-keyed BFS closure of the seeds under right-multiplication."""
    dim = gen_arrays[0].shape[0]
    gens = np.stack(gen_arrays)
    key = _keyer(p)
    elements = {}
    frontier = []
    for a in seed_arrays:
        k = key(a)
        if k not in elements:
            elements[k] = a
            frontier.append(a)
    chunk = max(1, (1 << 22) // (len(gen_arrays) * dim * dim))
    while frontier:
        work, frontier = frontier, []
        for lo in range(0, len(work), chunk):
            batch = np.stack(work[lo:lo + chunk])
            # (f, 1, n, n) @ (g, n, n) -> (f, g, n, n)
            prods = np.matmul(batch[:, None, :, :], gens[None, :, :, :]) % p
            for a in prods.reshape(-1, dim, dim):
                k = key(a)
                if k not in elements:
                    a = a.copy()  # a view would keep the whole batch alive
                    elements[k] = a
                    frontier.append(a)
            if len(elements) > cap:
                raise CapExceeded("closure exceeded cap %d" % cap)
    return elements


def generate_elementary_group(t: RootType, p, cap=None) -> GroupClosure:
    cap = closure_cap() if cap is None else cap
    gens = adjoint_generators(t, p)
    arrays = [g.array for g in gens]
    ident = np.eye(gens[0].dim, dtype=np.int64)
    elements = _bfs_closure([ident], arrays, p, cap)
    closure = GroupClosure(elements, gens, p, gens[0].dim)
    return closure


def closure_is_idempotent(g: GroupClosure):
    """Re-running BFS on all elements adds nothing."""
    again = _bfs_closure(list(g.elements.values()),
                         [m.array for m in g.generators], g.p,
                         cap=2 * g.order + 1)
    return set(again) == set(g.elements)


def derived_subgroup(g: GroupClosure):
    """Closure of generator-pair commutators under products and conjugation."""
    p = g.p
    key = _keyer(p)
    inv = {m.key(): m.inverse() for m in g.generators}
    seeds = []
    seen = set()
    for a in g.generators:
        for b in g.generators:
            comm = a @ b @ inv[a.key()] @ inv[b.key()]
            if comm.key() not in seen:
                seen.add(comm.key())
                seeds.append(comm)
    seed_arrays = [m.array for m in seeds]
    elements = _bfs_closure([np.eye(g.dim, dtype=np.int64)], seed_arrays, p,
                            cap=g.order + 1)
    # normal closure: conjugating by the group generators must stay inside
    while True:
        new = []
        for m in g.generators:
            minv = inv[m.key()]
            for a in seed_arrays:
                conj = (m.array @ a @ minv.array) % p
                if key(conj) not in elements:
                    new.append(conj)
        if not new:
            break
        seed_arrays.extend(new)
        elements = _bfs_closure(list(elements.values()) + new, seed_arrays, p,
                                cap=g.order + 1)
    return elements


def derived_subgroup_index(g: GroupClosure):
    h = derived_subgroup(g)
    assert g.order % len(h) == 0, "subgroup order does not divide group order"
    return g.order // len(h)


PREDICTED_IMPERFECT = {("C", 2), ("B", 2), ("G", 2)}


def perfectness_report(cases, cap=None):
    """Rows of (type, p, order, derived index, verdict) for the catalog."""
    rows = []
    for t, p in cases:
        row = {"type": str(t), "p": p}
        try:
            g = generate_elementary_group(t, p, cap=cap)
        except CapExceeded:
            row.update(status="skipped", note="skipped: cap")
            rows.append(row)
            continue
        idx = derived_subgroup_index(g)
        perfect = idx == 1
        row.update(status="pass", order=g.order, derived_index=idx,
                   perfect=perfect)
        if t.rank < 2:
            row["verdict"] = "out-of-hypothesis (rank 1)"
        else:
            predicted = not ((t.series, t.rank) in PREDICTED_IMPERFECT and p == 2)
            agrees = perfect == predicted
            row["verdict"] = ("matches prediction" if agrees
                              else "CONTRADICTS prediction")
            if not agrees:
                row["status"] = "fail"
        rows.append(row)
    return rows


def format_report(rows):
    header = ["type", "p", "order", "index", "verdict"]
    table = [header]
    for r in rows:
        table.append([r["type"], str(r["p"]),
                      str(r.get("order", "-")),
                      str(r.get("derived_index", "-")),
                      r.get("verdict", r.get("note", ""))])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines)
