"""Finite boundary exhibit: adjoint elementary groups over prime fields.

Generates the matrix group spanned by all adjoint root elements x_alpha(c)
over F_p, one generator x_alpha(1) per root, by Dimino's coset-by-coset
closure (Butler, Fundamental Algorithms for Permutation Groups, 1991),
grows its derived subgroup in place as the normal closure of the generator
commutators, and compares perfectness against the prediction that only the
rank-2 doubly/triply laced types (B2 = C2 and G2) over F_2 fail to be
perfect.
All statements are about the adjoint image of the group; rank-1 types are
reported without a verdict, being outside the rank >= 2 hypothesis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .chevalley import build_chevalley_basis
from .polyring import is_prime, row_reduce
from .rootcore import RootType, build_root_system, require

DEFAULT_CAP = 10 ** 6


class CapExceeded(RuntimeError):
    pass


def closure_cap():
    return int(os.environ.get("RELROOT_CAP", DEFAULT_CAP))


def _key_dtype(p):
    """Group elements over F_p are stored, and keyed by their bytes, in the
    smallest unsigned dtype that holds p - 1 (uint8 up to p = 256)."""
    return np.min_scalar_type(p - 1)


class FqMatrix:
    """Square matrix over F_p with a canonical hashable byte encoding."""

    __slots__ = ("p", "array")

    def __init__(self, p, array):
        if not is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.array = np.ascontiguousarray(np.asarray(array, dtype=np.int64) % p)
        _matmul_bound(self.dim, p)

    @property
    def dim(self):
        return self.array.shape[0]

    def key(self):
        return self.array.astype(_key_dtype(self.p)).tobytes()

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
    elements: dict  # byte key -> np.ndarray in _key_dtype(p)
    generators: list  # of FqMatrix, each enlarging the group
    p: int
    dim: int

    @property
    def order(self):
        return len(self.elements)


def _root_powers(cb, coords, p):
    """Stack N_0 = 1, N_k = (ad e)^k / k! mod p, so x_alpha(c) = sum c^k N_k."""
    powers = cb.exp_ad_powers(coords)
    out = np.zeros((len(powers) + 1, cb.dim, cb.dim), dtype=np.int64)
    out[0] = np.eye(cb.dim, dtype=np.int64)
    for k, power in enumerate(powers, 1):
        for j, col in power.items():
            for i, v in col.items():
                out[k, i, j] = v % p
    return out


def _check_one_parameter_law(powers, p):
    """x(a) x(1) = x(a + 1) for every a in F_p.

    With x(0) = N_0 = 1 this is the whole law x(a) x(b) = x(a + b), by
    induction on b, so x(c) = x(1)^c and x(1) generates every x(c)."""
    n = powers.shape[1]
    flat = powers.reshape(len(powers), n * n)
    x1 = powers.sum(axis=0) % p
    chunk = max(1, (1 << 18) // (n * n))
    for lo in range(0, p, chunk):
        a = np.arange(lo, min(lo + chunk, p) + 1, dtype=np.int64)  # a and a + 1
        coeff = np.ones((len(a), len(powers)), dtype=np.int64)
        for k in range(1, len(powers)):
            coeff[:, k] = coeff[:, k - 1] * a % p
        x = (coeff @ flat % p).reshape(len(a), n, n)
        require(np.array_equal(x[:-1] @ x1 % p, x[1:]),
                "one-parameter law fails mod %d", p)


def adjoint_generators(t: RootType, p):
    """One x_alpha(1) per root alpha, deduplicated; over the prime field
    x_alpha(c) = x_alpha(1)^c, which the one-parameter law check confirms."""
    rs = build_root_system(t)
    cb = build_chevalley_basis(rs)
    gens, seen = [], set()
    for root in rs.roots:
        powers = _root_powers(cb, root.coords, p)
        m = FqMatrix(p, powers.sum(axis=0))  # checks the int64 bound first
        _check_one_parameter_law(powers, p)
        if m.key() not in seen:
            seen.add(m.key())
            gens.append(m)
    return gens


def _identity_group(dim, p):
    """The trivial subgroup, as a closure dict for ``_extend``."""
    ident = np.eye(dim, dtype=_key_dtype(p))
    return {ident.tobytes(): ident}


def _extend(elements, gens, g, p, cap):
    """Grow the subgroup H = <gens> held in ``elements`` to <gens, g> in place,
    by Dimino's algorithm; return whether g was new.

    The new subgroup is the union of right cosets H r: each is added whole,
    with one product (H @ r) % p and keys cut in bulk from one buffer, and
    a membership lookup is made only for each coset representative times
    generator.  ``CapExceeded`` is raised before a coset would take the order
    past ``cap``, so the dict never holds more than ``cap`` elements (it is
    left part-grown)."""
    dtype = _key_dtype(p)
    if g.astype(dtype).tobytes() in elements:
        return False
    gens.append(g)
    dim = g.shape[0]
    width = dim * dim * dtype.itemsize
    h = np.stack(list(elements.values())).astype(np.int64).reshape(-1, dim)
    order = len(h) // dim
    stacked = np.stack(gens)

    def add_coset(r):
        if len(elements) + order > cap:
            raise CapExceeded("closure exceeded cap %d" % cap)
        block = (h @ r % p).astype(dtype).reshape(order, dim, dim)
        buf = block.tobytes()
        elements.update(zip((buf[i:i + width]
                             for i in range(0, len(buf), width)), block))

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
    """Products of int64 matrices over F_p are exact iff dim (p-1)^2 < 2^63."""
    if dim * (p - 1) ** 2 >= 1 << 63:
        raise ValueError("F_%d matrices of size %d overflow int64 products"
                         % (p, dim))


def generate_elementary_group(t: RootType, p, cap=None) -> GroupClosure:
    """The adjoint group generated by the x_alpha(c), grown generator by
    generator; ``generators`` keeps the ones that enlarged it."""
    cap = closure_cap() if cap is None else cap
    dim = t.rank + len(build_root_system(t).roots)
    _matmul_bound(dim, p)
    if p > cap:
        # x_{alpha_1}(t) e_{-alpha_1} = e_{-alpha_1} + t h_1 - t^2 e_{alpha_1}:
        # the p elements x_{alpha_1}(t) are distinct
        raise CapExceeded("order >= p = %d exceeds cap %d" % (p, cap))
    elements, kept = _identity_group(dim, p), []
    gens = [m for m in adjoint_generators(t, p)
            if _extend(elements, kept, m.array, p, cap)]
    return GroupClosure(elements, gens, p, dim)


def derived_subgroup(g: GroupClosure):
    """Normal closure of the generator commutators, grown in one dict: each
    kept subgroup generator h is conjugated by every group generator m and
    m h m^-1 extends the subgroup unless it is already inside."""
    p = g.p
    gens = [(m.array, m.inverse().array) for m in g.generators]
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


def derived_subgroup_index(g: GroupClosure):
    h = derived_subgroup(g)
    require(g.order % len(h) == 0,
            "subgroup order %d does not divide group order %d",
            len(h), g.order)
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
