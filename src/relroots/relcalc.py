"""Relative root subschemes and their commutator maps, split realization.

For a trivial-Gamma folding the module V_A attached to a relative root A
is free on the fiber of A, and X_A(v) is the ordered product of the
elementary root elements over the fiber (lexicographic root order).  The
generalized Chevalley commutator formula

    [X_A(u), X_B(v)] = prod_{i,j>0} X_{iA+jB}(N_{ABij}(u, v))

is computed symbolically and the polynomial maps N_{ABij} are extracted
by graded collection; every table is re-verified by recomposition and by
structural homogeneity and fiber-grading checks.  On top of the tables
sit the surjectivity and spanning verifications used by the perfectness
argument (unit-coefficient witnesses for N_{AB11}, and exact linear-span
oracles over the rationals and small prime fields).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .chevalley import collect, commutator_factors, product_of_root_elements
from .folding import RelativeRoot, RelativeRootSystem, classify_relative_type
from .polyring import PolyElem, VarRegistry, row_reduce
from .rootcore import collinear

CONE_BOUND = 6  # no root system has iA+jB live beyond i+j = 5


class RelcalcError(ValueError):
    pass


class CaseHypothesisError(RelcalcError):
    """The named surjectivity case's hypothesis fails for this pair."""


def _require_split(rrs):
    if len(rrs.spec.gamma) != 1:
        raise RelcalcError(
            "relative root subschemes are only realized for trivial gamma")


def relative_factors(rrs, A, coords):
    """Elementary factor word for X_A(v), fiber in lexicographic order."""
    return [(alpha, coords[alpha]) for alpha in rrs.fiber(A)]


def cone_pairs(rrs, A, B, bound=CONE_BOUND):
    """(i, j) with i, j > 0 and iA+jB a relative root, sorted by (i+j, i)."""
    out = []
    for total in range(2, bound + 1):
        for i in range(1, total):
            j = total - i
            if A.scaled(i) + B.scaled(j) in rrs:
                out.append((i, j))
    return out


@dataclass
class NMapTable:
    """Coordinate polynomials of the maps N_{ABij} for one pair (A, B).

    ``entries[(i, j)]`` maps each fiber root of iA+jB to a polynomial in
    the registry variables u0..u{m-1} (coordinates on V_A) and v0..
    (coordinates on V_B).
    """

    rrs: RelativeRootSystem
    A: RelativeRoot
    B: RelativeRoot
    registry: VarRegistry
    u_index: dict  # Root in fiber(A) -> registry variable position
    v_index: dict
    entries: dict = field(default_factory=dict)  # (i,j) -> {Root: PolyElem}

    def pairs(self):
        return sorted(self.entries, key=lambda ij: (ij[0] + ij[1], ij[0]))

    def evaluate(self, i, j, u_coords, v_coords):
        """N_{ABij} at concrete coordinates (Root -> number)."""
        vals = {}
        for alpha, k in self.u_index.items():
            vals[k] = u_coords.get(alpha, 0)
        for beta, k in self.v_index.items():
            vals[k] = v_coords.get(beta, 0)
        return {gamma: _poly_eval(p, vals)
                for gamma, p in self.entries.get((i, j), {}).items()}

    def bilinear_constant(self, alpha, beta):
        """Coefficient of u_alpha * v_beta in the (1,1) map (0 if absent)."""
        gamma_coords = tuple(a + b for a, b in zip(alpha.coords, beta.coords))
        if gamma_coords not in self.rrs.rs:
            return 0
        gamma = self.rrs.rs.root_from_coords(gamma_coords)
        p = self.entries.get((1, 1), {}).get(gamma)
        if p is None:
            return 0
        n = len(self.registry.names)
        exp = [0] * n
        exp[self.u_index[alpha]] = 1
        exp[self.v_index[beta]] = 1
        return p.terms.get(tuple(exp), 0)


def _poly_eval(p: PolyElem, vals):
    assert p.denom_power == 0
    total = Fraction(0)
    for exp, coeff in p.terms.items():
        term = Fraction(coeff)
        for k, e in enumerate(exp):
            if e:
                term *= Fraction(vals.get(k, 0)) ** e
        total += term
    assert total.denominator == 1
    return int(total)


def compute_relative_commutator_maps(rrs, cb, A, B) -> NMapTable:
    _require_split(rrs)
    if A not in rrs or B not in rrs:
        raise RelcalcError("A and B must be relative roots")
    if collinear(A, B):
        raise RelcalcError("commutator maps need non-collinear A, B "
                           "(mA = -kB or proportional rays rejected)")
    fa, fb = rrs.fiber(A), rrs.fiber(B)
    names = ["u%d" % k for k in range(len(fa))] + ["v%d" % k for k in range(len(fb))]
    reg = VarRegistry(names)
    u_index = {alpha: k for k, alpha in enumerate(fa)}
    v_index = {beta: len(fa) + k for k, beta in enumerate(fb)}
    word = commutator_factors(
        [(alpha, reg.var("u%d" % k)) for k, alpha in enumerate(fa)],
        [(beta, reg.var("v%d" % k)) for k, beta in enumerate(fb)])
    U = product_of_root_elements(cb, reg, word)

    pairs = cone_pairs(rrs, A, B)
    slots, grade, owner = [], {}, {}
    for (i, j) in pairs:
        for gamma in rrs.fiber(A.scaled(i) + B.scaled(j)):
            slots.append(gamma)
            grade[gamma] = i + j
            owner[gamma] = (i, j)
    coeffs = collect(cb, U, slots, lambda r: grade[r])

    table = NMapTable(rrs, A, B, reg, u_index, v_index)
    for gamma, p in coeffs.items():
        table.entries.setdefault(owner[gamma], {})[gamma] = p
    _verify_table(rrs, cb, table, U, slots, owner)
    return table


def _verify_table(rrs, cb, table, U, slots, owner):
    # recomposition: the grouped product reproduces the commutator matrix
    factors = []
    for gamma in slots:
        p = table.entries.get(owner[gamma], {}).get(gamma)
        if p is not None:
            factors.append((gamma, p))
    assert product_of_root_elements(cb, table.registry, factors) == U, \
        "recomposed product differs from the commutator"
    n_u = len(table.u_index)
    root_of_u = {k: alpha for alpha, k in table.u_index.items()}
    root_of_v = {k: beta for beta, k in table.v_index.items()}
    for (i, j), ent in table.entries.items():
        for gamma, p in ent.items():
            assert p.denom_power == 0
            for exp, coeff in p.terms.items():
                assert Fraction(coeff).denominator == 1
                du = sum(e for k, e in enumerate(exp) if k < n_u)
                dv = sum(e for k, e in enumerate(exp) if k >= n_u)
                # homogeneity: degree i in u, degree j in v
                assert (du, dv) == (i, j), \
                    "N_{%d%d} monomial of degree (%d,%d)" % (i, j, du, dv)
                # fiber grading: underlying roots sum to gamma
                total = [0] * rrs.rs.rank
                for k, e in enumerate(exp):
                    root = root_of_u[k] if k < n_u else root_of_v[k]
                    for pos, c in enumerate(root.coords):
                        total[pos] += e * c
                assert tuple(total) == gamma.coords, \
                    "monomial roots do not sum to the target fiber root"


# -- sum formula ---------------------------------------------------------


def check_sum_formula(rrs, cb, A):
    """X_A(u+u') = X_A(u) X_A(u') prod_{i>1} X_{iA}(u_i), with witnesses."""
    _require_split(rrs)
    fiber = rrs.fiber(A)
    names = (["u%d" % k for k in range(len(fiber))]
             + ["w%d" % k for k in range(len(fiber))])
    reg = VarRegistry(names)
    u = {alpha: reg.var("u%d" % k) for k, alpha in enumerate(fiber)}
    w = {alpha: reg.var("w%d" % k) for k, alpha in enumerate(fiber)}
    both = {alpha: u[alpha] + w[alpha] for alpha in fiber}
    lhs = product_of_root_elements(cb, reg, relative_factors(rrs, A, both))
    base = (relative_factors(rrs, A, u) + relative_factors(rrs, A, w))
    base_inv = [(r, -t) for r, t in reversed(base)]
    # residual = (X_A(u)X_A(u'))^-1 X_A(u+u'), supported on multiples iA, i >= 2
    residual = product_of_root_elements(cb, reg, base_inv) @ lhs
    multiples = [i for i in range(2, CONE_BOUND + 1) if A.scaled(i) in rrs]
    slots, grade, owner = [], {}, {}
    for i in multiples:
        for gamma in rrs.fiber(A.scaled(i)):
            slots.append(gamma)
            grade[gamma] = i
            owner[gamma] = i
    coeffs = collect(cb, residual, slots, lambda r: grade.get(r, 0))
    corrections = {}
    for gamma, p in coeffs.items():
        corrections.setdefault(owner[gamma], {})[gamma] = p
    # oracle: recompose the full right-hand side and compare matrices
    rhs_factors = list(base)
    for gamma in slots:
        p = corrections.get(owner[gamma], {}).get(gamma)
        if p is not None:
            rhs_factors.append((gamma, p))
    assert product_of_root_elements(cb, reg, rhs_factors) == lhs
    return {
        "A": A,
        "corrections": corrections,
        "status": "pass",
    }


# -- surjectivity of N_AB11 (four unit-coefficient cases) ----------------


def _long_roots_single_weyl_orbit(rs):
    """Simple reflections act transitively on the long roots."""
    longs = {r.coords for r in rs.roots if r.length_class == "long"}
    start = next(iter(sorted(longs)))
    seen = {start}
    frontier = [start]
    while frontier:
        c = frontier.pop()
        for i in range(rs.rank):
            n = rs._pairing_coords(c, i)
            refl = list(c)
            refl[i] -= n
            refl = tuple(refl)
            if refl in longs and refl not in seen:
                seen.add(refl)
                frontier.append(refl)
    return seen == longs


def check_N11_surjectivity(rrs, cb, A, B, case, units=frozenset({1, -1})):
    """Unit-coefficient witnesses that N_AB11 covers every target basis vector.

    ``case`` selects which hypothesis justifies invertibility:
      a -- all structure constants hit by the pair lie in ``units``;
      b -- A != B and A - B is not a relative root;
      c -- the target fiber consists of short roots (doubly laced type);
      d -- the fibers of A and B contain long roots summing to a root.
    """
    _require_split(rrs)
    if A + B not in rrs:
        raise RelcalcError("A+B is not a relative root")
    table = compute_relative_commutator_maps(rrs, cb, A, B)
    rs = rrs.rs
    fa, fb = rrs.fiber(A), rrs.fiber(B)
    target = rrs.fiber(A + B)
    laced = rs.type.series in ("B", "C", "F")
    unit_abs = {abs(x) for x in units}

    if case == "a":
        hit = {abs(table.bilinear_constant(al, be))
               for al in fa for be in fb if table.bilinear_constant(al, be)}
        if not hit <= unit_abs:
            raise CaseHypothesisError(
                "constants %s not all invertible for the supplied units" % sorted(hit))
    elif case == "b":
        diff = RelativeRoot(tuple(a - b for a, b in zip(A.coords, B.coords)))
        if A == B or diff in rrs:
            raise CaseHypothesisError("need A != B and A-B not a relative root")
        unit_abs = {1}
    elif case == "c":
        if not (laced and all(g.length_class == "short" for g in target)):
            raise CaseHypothesisError(
                "target fiber must be all short in a doubly laced type")
        unit_abs = {1}
    elif case == "d":
        long_pairs = [(al, be) for al in fa for be in fb
                      if al.length_class == "long" and be.length_class == "long"
                      and rs.sum_is_root(al, be)]
        if not (laced and long_pairs):
            raise CaseHypothesisError("no summable long pair in the fibers")
        assert _long_roots_single_weyl_orbit(rs), \
            "long roots are not a single Weyl orbit"
        unit_abs = {1}
    else:
        raise RelcalcError("unknown case %r" % (case,))

    witnesses = {}
    for gamma in target:
        found = None
        for al in fa:
            for be in fb:
                if not rs.sum_is_root(al, be) or rs.sum(al, be) != gamma:
                    continue
                c = table.bilinear_constant(al, be)
                if c and abs(c) in unit_abs:
                    if case == "d" and gamma.length_class == "long" and not (
                            al.length_class == "long" and be.length_class == "long"):
                        continue
                    found = (al, be, c)
                    break
            if found:
                break
        if found is None:
            raise AssertionError(
                "no unit hit for %s (falsifies surjectivity case %s)" % (gamma, case))
        al, be, c = found
        # re-verify the witness by direct evaluation
        value = table.evaluate(1, 1, {al: 1}, {be: 1})
        assert {g: v for g, v in value.items() if v} == {gamma: c}
        witnesses[gamma] = found
    return {"A": A, "B": B, "case": case, "witnesses": witnesses,
            "status": "pass"}


def applicable_surjectivity_cases(rrs, cb, A, B, units=frozenset({1, -1})):
    """Which of the four hypotheses hold for (A, B); may be empty."""
    out = []
    for case in "abcd":
        try:
            check_N11_surjectivity(rrs, cb, A, B, case, units)
            out.append(case)
        except CaseHypothesisError:
            continue
    return out


# -- linear spanning oracles ---------------------------------------------


SPAN_PRIMES = (2, 3, 5)


def _span_verdict(rows, n):
    """Whether the rows span the n-dimensional target over Q and each F_p."""
    full = {"Q": len(row_reduce(rows, n)[1]) == n}
    for p in SPAN_PRIMES:
        full["F%d" % p] = len(row_reduce(rows, n, p)[1]) == n
    return {"fields": {k: "full" if v else "deficient" for k, v in full.items()},
            "status": "pass" if all(full.values()) else "fail"}


def _probe_vectors(basis, rng, n_random):
    """Basis vectors, pairwise sums (polarization), and random vectors."""
    probes = [{b: 1} for b in basis]
    for x, y in itertools.combinations(basis, 2):
        probes.append({x: 1, y: 1})
    for _ in range(n_random):
        probes.append({b: rng.randint(-3, 3) for b in basis})
    return probes


def check_spanning_lemma2_2(rrs, cb, A, B, seed=0, n_random=100):
    """im N_AB11 + im N_{A-B,2B,11} + sum_v im N_{A-B,B,12}(-, v) fills V_{A+B}.

    Applies when A-B and A+B are both relative roots and the component is
    not G2; checked over the rationals and over F_2, F_3, F_5.
    """
    _require_split(rrs)
    diff = RelativeRoot(tuple(a - b for a, b in zip(A.coords, B.coords)))
    if diff not in rrs or (A + B) not in rrs:
        raise RelcalcError("need both A-B and A+B relative roots")
    if classify_relative_type(rrs)[0] == "G" or rrs.rs.type.series == "G":
        raise RelcalcError("excluded for G2")
    target = rrs.fiber(A + B)
    col = {g: k for k, g in enumerate(target)}
    rng = random.Random(seed)

    def as_row(valdict):
        row = [0] * len(target)
        for g, v in valdict.items():
            if v:
                row[col[g]] = v
        return row

    rows = []
    t11 = compute_relative_commutator_maps(rrs, cb, A, B)
    for al in rrs.fiber(A):
        for be in rrs.fiber(B):
            rows.append(as_row(t11.evaluate(1, 1, {al: 1}, {be: 1})))
    twoB = B.scaled(2)
    if twoB in rrs:
        tmid = compute_relative_commutator_maps(rrs, cb, diff, twoB)
        for al in rrs.fiber(diff):
            for be in rrs.fiber(twoB):
                rows.append(as_row(tmid.evaluate(1, 1, {al: 1}, {be: 1})))
    t12 = compute_relative_commutator_maps(rrs, cb, diff, B)
    for v in _probe_vectors(rrs.fiber(B), rng, n_random):
        for al in rrs.fiber(diff):
            rows.append(as_row(t12.evaluate(1, 2, {al: 1}, v)))

    n = len(target)
    return {"A": A, "B": B, "dim": n, **_span_verdict(rows, n)}


def check_spanning_lemma3(l, seed=0, n_random=100):
    """The C_l half-split span identity on V_{A1+A2} + V_{2A1+A2}.

    For C_l with J = {alpha_i, alpha_l}, 2i = l: the images of
    (0, N_{A1,A1+A2,1,1}) and of f_v = (N_{A1,A2,1,1}(v,-), N_{A1,A2,2,1}(v,-))
    over v in V_{A1} span the direct sum, over Q and F_2, F_3, F_5.
    """
    from .chevalley import build_chevalley_basis
    from .folding import build_relative_system, parse_folding_spec
    if l < 4 or l % 2:
        raise RelcalcError("need an even l >= 4")
    i = l // 2
    rrs = build_relative_system(
        parse_folding_spec("C%d levi=%d,%d" % (l, i, l)))
    cb = build_chevalley_basis(rrs.rs)
    A1, A2 = RelativeRoot((1, 0)), RelativeRoot((0, 1))
    mid, top = A1 + A2, A1.scaled(2) + A2
    f_mid, f_top = rrs.fiber(mid), rrs.fiber(top)
    n = len(f_mid) + len(f_top)
    col = {g: k for k, g in enumerate(f_mid)}
    col.update({g: len(f_mid) + k for k, g in enumerate(f_top)})
    rng = random.Random(seed)

    _verify_lemma3_fiber_structure(rrs, f_mid, f_top)

    def as_row(val_mid, val_top):
        row = [0] * n
        for g, v in val_mid.items():
            if v:
                row[col[g]] = v
        for g, v in val_top.items():
            if v:
                row[col[g]] = v
        return row

    rows = []
    t_a1mid = compute_relative_commutator_maps(rrs, cb, A1, mid)
    for al in rrs.fiber(A1):
        for be in f_mid:
            rows.append(as_row({}, t_a1mid.evaluate(1, 1, {al: 1}, {be: 1})))
    t_a12 = compute_relative_commutator_maps(rrs, cb, A1, A2)
    for v in _probe_vectors(rrs.fiber(A1), rng, n_random):
        for be in rrs.fiber(A2):
            rows.append(as_row(t_a12.evaluate(1, 1, v, {be: 1}),
                               t_a12.evaluate(2, 1, v, {be: 1})))

    return {"l": l, "dim": n, **_span_verdict(rows, n)}


def _verify_lemma3_fiber_structure(rrs, f_mid, f_top):
    """The three fiber cases behind the span identity, asserted directly."""
    rs = rrs.rs
    A1 = RelativeRoot((1, 0))
    alpha_l = rs.simple_roots[rs.rank - 1]
    for gamma in f_top:
        if gamma.length_class == "short":
            hits = [(al, be) for al in rrs.fiber(A1) for be in f_mid
                    if al.length_class == "short" and be.length_class == "short"
                    and rs.sum_is_root(al, be) and rs.sum(al, be) == gamma]
            assert hits, "short top root %s lacks a short+short split" % gamma
        else:
            hits = [(al, be) for al in rrs.fiber(A1)
                    for be in rrs.fiber(RelativeRoot((0, 1)))
                    if be != alpha_l and tuple(
                        2 * a + b for a, b in zip(al.coords, be.coords)
                    ) == gamma.coords]
            assert hits, "long top root %s is not 2*alpha+beta" % gamma
    for gamma in f_mid:
        assert gamma.length_class == "short"
