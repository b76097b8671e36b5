"""Correctness oracles that share no code with relroots.

Root systems are rebuilt here from Dynkin diagrams (Bourbaki numbering),
relative root systems from orbit sums, the Lemma 1 clauses are re-checked
by a separate checker, commutator-constant magnitudes come from root-string
lengths, and finite group orders from the order formula
q^N * prod(q^d - 1) / |Z|.  ``check_verify_report`` returns a list of
problems (empty when the report is right), one entry per failed case.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from math import comb, gcd

# -- root systems ----------------------------------------------------------

# squared lengths of the simple roots and the diagram edges (0-based)
def _diagram(series, l):
    chain = [(i, i + 1) for i in range(l - 1)]
    if series == "A":
        return [2] * l, chain
    if series == "B":
        return [2] * (l - 1) + [1], chain
    if series == "C":
        return [1] * (l - 1) + [2], chain
    if series == "D":
        return [2] * l, [(i, i + 1) for i in range(l - 2)] + [(l - 3, l - 1)]
    if series == "E":
        return [2] * l, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, l - 1)]
    if series == "F":
        return [2, 2, 1, 1], chain
    if series == "G":
        return [1, 3], chain
    raise ValueError(series)


def _valid(series, l):
    return {"A": l >= 1, "B": l >= 2, "C": l >= 2, "D": l >= 3,
            "E": l in (6, 7, 8), "F": l == 4, "G": l == 2}[series]


def types_up_to(max_rank):
    return [(s, l) for s in "ABCDEFG" for l in range(1, max_rank + 1) if _valid(s, l)]


def parse_type(text):
    return text[0], int(text[1:])


_SYSTEMS = {}


class Roots:
    """All roots of one irreducible type as integer coordinate tuples."""

    def __init__(self, series, l):
        norms, edges = _diagram(series, l)
        # twice the Gram matrix, so every entry is an integer
        g = [[0] * l for _ in range(l)]
        for i in range(l):
            g[i][i] = 2 * norms[i]
        for i, j in edges:
            g[i][j] = g[j][i] = -max(norms[i], norms[j])
        self.gram2 = g
        self.rank = l
        simple = [tuple(int(i == j) for j in range(l)) for i in range(l)]
        seen, frontier = set(simple), list(simple)
        while frontier:
            nxt = []
            for c in frontier:
                for i in range(l):
                    n = self.pairing(c, i)
                    if n:
                        r = tuple(x - n * (k == i) for k, x in enumerate(c))
                        if r not in seen:
                            seen.add(r)
                            nxt.append(r)
            frontier = nxt
        self.all = frozenset(seen)
        self.positive = sorted(c for c in seen if sum(c) > 0)
        self._subgroups = None

    def pairing(self, c, i):
        """<c, alpha_i^vee>."""
        num = 2 * sum(x * self.gram2[j][i] for j, x in enumerate(c))
        q, r = divmod(num, self.gram2[i][i])
        assert r == 0
        return q

    def string_down(self, base, step):
        """Largest p with base - p*step a root."""
        p = 0
        while tuple(b - (p + 1) * s for b, s in zip(base, step)) in self.all:
            p += 1
        return p

    def automorphisms(self):
        l = self.rank
        g = self.gram2
        return [perm for perm in itertools.permutations(range(l))
                if all(g[perm[i]][perm[j]] == g[i][j]
                       for i in range(l) for j in range(l))]

    def diagram_subgroups(self):
        if self._subgroups is None:
            self._subgroups = subgroups(self.automorphisms(), self.rank)
        return self._subgroups


def roots(series, l):
    key = (series, l)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = Roots(series, l)
    return _SYSTEMS[key]


def subgroups(perms, l):
    """Every subgroup of the given permutation group, as frozensets."""
    ident = tuple(range(l))

    def close(gens):
        group = {ident, *gens}
        while True:
            bigger = group | {tuple(a[b[i]] for i in range(l))
                              for a in group for b in group}
            if bigger == group:
                return frozenset(group)
            group = bigger

    return {close(gens) for k in range(3) for gens in itertools.combinations(perms, k)}


def relative_roots(rs, group, levi):
    """(Gamma-orbits of J, relative roots): the nonzero orbit sums of roots."""
    orbits = sorted({tuple(sorted({a[i] for a in group})) for i in levi})
    rel = {_project(orbits, c) for c in rs.all} - {(0,) * len(orbits)}
    return orbits, frozenset(rel)


def _project(orbits, c):
    return tuple(sum(c[j] for j in orbit) for orbit in orbits)


def _collinear(b, c):
    n = len(b)
    return n < 2 or all(b[i] * c[j] == b[j] * c[i]
                        for i in range(n) for j in range(i + 1, n))


def _sign(v):
    return 1 if sum(v) > 0 else -1


def lemma1_clause_ok(rel, A, B, C):
    """Membership, B + C = A, non-collinearity, and the sign and level clause.

    Every relative root D = i*B + j*C with i, j >= 1 other than A itself
    must have the sign of A and a larger absolute level.  The pair (i, j)
    is solved from an invertible 2x2 minor, so no bound on i, j is needed.
    """
    if B not in rel or C not in rel or A not in rel:
        return False
    if tuple(b + c for b, c in zip(B, C)) != A or _collinear(B, C):
        return False
    n = len(B)
    k1, k2, det = next((k1, k2, B[k1] * C[k2] - B[k2] * C[k1])
                       for k1 in range(n) for k2 in range(k1 + 1, n)
                       if B[k1] * C[k2] != B[k2] * C[k1])
    level, sign = abs(sum(A)), _sign(A)
    for D in rel:
        i, ri = divmod(D[k1] * C[k2] - D[k2] * C[k1], det)
        j, rj = divmod(B[k1] * D[k2] - B[k2] * D[k1], det)
        if ri or rj or i < 1 or j < 1 or (i, j) == (1, 1):
            continue
        if tuple(i * b + j * c for b, c in zip(B, C)) != D:
            continue
        if _sign(D) != sign or abs(sum(D)) <= level:
            return False
    return True


# -- verify --suite all ----------------------------------------------------

_VEC = re.compile(r"\(([-0-9,]+)\)")
_GAMMA_ORDER = {"trivial": 1, "flip": 2, "triality": 6}


def _vec(text):
    return tuple(int(x) for x in text.split(","))


def _parse_spec(spec):
    """("D4", order of Gamma, Levi nodes 0-based or None for all)."""
    parts = spec.split()
    t = parts[0]
    order, levi = 1, None
    for p in parts[1:]:
        if p.startswith("gamma="):
            name = p[6:]
            order = _GAMMA_ORDER.get(name) or int(name[len("order"):])
        elif p.startswith("levi="):
            levi = tuple(int(x) - 1 for x in p[5:].split(","))
    return t, order, levi


def _gamma_candidates(rs, order, levi):
    """Subgroups of the given order leaving J invariant (D4 has three flips)."""
    return [g for g in rs.diagram_subgroups()
            if len(g) == order and all({a[i] for i in levi} == set(levi) for a in g)]


def _gamma_name(order):
    return {1: "trivial", 2: "flip", 6: "triality"}.get(order, "order%d" % order)


def lemma1_catalog(max_rank=6):
    """Counter of every folding spec string the Lemma 1 sweep must contain."""
    specs = Counter()
    for s, l in types_up_to(max_rank):
        rs = roots(s, l)
        for g in rs.diagram_subgroups():
            for bits in itertools.product((0, 1), repeat=l):
                levi = [i for i in range(l) if bits[i]]
                if levi and all({a[i] for i in levi} == set(levi) for a in g):
                    specs["%s%d gamma=%s levi=%s" % (
                        s, l, _gamma_name(len(g)), ",".join(str(i + 1) for i in levi))] += 1
    return specs


def _check_lemma1(case):
    t, order, levi = _parse_spec(case["spec"])
    rs = roots(*parse_type(t))
    for g in _gamma_candidates(rs, order, levi):
        orbits, rel = relative_roots(rs, g, levi)
        if case["status"] == "skipped":
            if len(orbits) < 2:
                return True
            continue
        if case["status"] != "pass" or len(orbits) < 2:
            continue
        seen = []
        ok = True
        for line in case["witness"]:
            A, B, C = (_vec(m) for m in _VEC.findall(line))
            seen.append(A)
            if not lemma1_clause_ok(rel, A, B, C):
                ok = False
                break
        if ok and sorted(seen) == sorted(rel):
            return True
    return False


def _lemma2_pairs(rel):
    return sum(1 for A in rel for B in rel
               if tuple(a + b for a, b in zip(A, B)) in rel and not _collinear(A, B))


def _check_lemma2(case):
    t, order, levi = _parse_spec(case["spec"])
    rs = roots(*parse_type(t))
    levi = levi if levi is not None else tuple(range(rs.rank))
    (g,) = _gamma_candidates(rs, order, levi)
    orbits, rel = relative_roots(rs, g, levi)
    kind = case["id"].split("/")[1]
    wit = case["witness"]
    if case["status"] != "pass":
        return False
    if kind == "a":
        return wit == {"pairs_checked": _lemma2_pairs(rel)}
    if kind == "spanning":
        return set(wit["fields"].values()) == {"full"}
    if kind == "outside":
        # the C2 pair (1,0), (1,1): |N| = p + 1 = 2 is no unit
        a, b = _vec(case["params"]["A"]), _vec(case["params"]["B"])
        return rs.string_down(b, a) + 1 == 2
    A, B = _vec(case["params"]["A"]), _vec(case["params"]["B"])
    target = {c for c in rs.all if _project(orbits, c) == tuple(x + y for x, y in zip(A, B))}
    got = set()
    for key, text in wit["witnesses"].items():
        m = re.fullmatch(r"\(([-0-9,]+)\) \+ \(([-0-9,]+)\) -> ([-+]\d+)", text)
        if not m:
            return False
        gamma, al, be, c = _vec(key[1:-1]), _vec(m[1]), _vec(m[2]), int(m[3])
        if not ({gamma, al, be} <= rs.all and abs(c) == 1
                and tuple(x + y for x, y in zip(al, be)) == gamma
                and _project(orbits, al) == A and _project(orbits, be) == B):
            return False
        got.add(gamma)
    return got == target


def check_verify_report(report, catalog):
    """Problems in a ``verify --suite all`` report, one per bad case id."""
    problems = []
    cases = report["cases"]
    summary = Counter(c["status"] for c in cases)
    if report["summary"] != {"pass": summary["pass"], "fail": summary["fail"],
                             "skipped": summary["skipped"]}:
        problems.append("summary does not match the cases")
    lemma1 = Counter(c["spec"] for c in cases if c["id"].startswith("lemma1/"))
    if lemma1 != catalog:
        problems.append("lemma1 sweep differs from the catalog of foldings: %s"
                        % sorted((lemma1 - catalog) + (catalog - lemma1))[:5])
    for case in cases:
        cid = case["id"]
        try:
            if case["status"] == "fail":
                ok = False
            elif cid.startswith("lemma1/"):
                ok = _check_lemma1(case)
            elif cid.startswith("lemma2/"):
                ok = _check_lemma2(case)
            elif cid.startswith("lemma3/"):
                ok = set(case["witness"]["fields"].values()) == {"full"}
            else:
                ok = case["status"] == "pass"
        except (KeyError, TypeError, ValueError) as exc:
            ok = False
            cid += " (%s)" % exc
        if not ok:
            problems.append(cid)
    return problems


# -- commutator constants ----------------------------------------------------


def check_constant_table(rs, alpha, beta, table):
    """A [x_a(s), x_b(t)] constant table against root-string magnitudes."""
    slots = {(i, j) for i in range(1, 6) for j in range(1, 6)
             if tuple(i * a + j * b for a, b in zip(alpha, beta)) in rs.all}
    if set(table) != slots:
        return False
    if any(abs(c) not in (1, 2, 3) for c in table.values()):
        return False
    p = rs.string_down(beta, alpha)
    q = rs.string_down(alpha, beta)
    for (i, j), c in table.items():
        if j == 1 and abs(c) != comb(p + i, i):
            return False
        if i == 1 and abs(c) != comb(q + j, j):
            return False
    return True


# -- finite groups -------------------------------------------------------------

DEGREES = {"A": lambda l: range(2, l + 2), "B": lambda l: range(2, 2 * l + 1, 2),
           "C": lambda l: range(2, 2 * l + 1, 2), "G": lambda l: (2, 6)}


def adjoint_order(series, l, q):
    """|E(q)| of the adjoint elementary group: q^N prod(q^d - 1) / |Z|."""
    degrees = list(DEGREES[series](l))
    order = q ** sum(d - 1 for d in degrees)
    for d in degrees:
        order *= q ** d - 1
    centre = {"A": gcd(l + 1, q - 1), "B": gcd(2, q - 1), "C": gcd(2, q - 1),
              "G": 1}[series]
    return order // centre


def derived_index(series, l, q):
    """B2 = C2 and G2 over F_2 have derived index 2; the others are perfect."""
    return 2 if q == 2 and (series, l) in {("B", 2), ("C", 2), ("G", 2)} else 1

