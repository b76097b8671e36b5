"""Relative root subschemes and their commutator maps, split realization.

For a trivial-Gamma folding the module V_A attached to a relative root A
is free on the fiber of A, and X_A(v) is the ordered product of the
elementary root elements over the fiber (lexicographic root order).  The
generalized Chevalley commutator formula

    [X_A(u), X_B(v)] = prod_{i,j>0} X_{iA+jB}(N_{ABij}(u, v))

is computed symbolically and the polynomial maps N_{ABij} are extracted
by ``collect`` along the ordered slots of the fibers of iA + jB, whose
residual check proves the table; every table is also re-verified by
recomposition and by structural homogeneity and fiber-grading checks.
Every root of these words lies in the half-space f > 0 of
``_relative_cone``, so each product carries the one column h_f (see
``relroots.chevalley``).  On top of the tables sit the surjectivity and spanning
verifications used by the perfectness argument: unit-coefficient witnesses for
N_{AB11}, and exact linear-span oracles over the rationals and small prime
fields.  Each check returns its witness alone and fails only by raising:
``RelcalcError`` outside its hypothesis, else ``VerificationError``.  A witness
alpha + beta = gamma is found by ``chevalley.unit_split`` from the integer
structure constant N_{alpha,beta}, not from the table; evaluating the table at
u_alpha = v_beta = 1 then re-checks it: that value is the table's coefficient
of u_alpha v_beta in each (1,1) entry, read off the packed terms, so the table
is an oracle independent of the search.

The spanning checks read each image's span off the table's coefficients
(``_image_rows``).  A map g from K^m to K^n, K = Q or F_p, is the sum of
c_M M over its monomials M, with c_M in K^n.  Distinct monomials are
linearly independent functions on K^m: over Q always, and over F_p once
each exponent e >= 1 is read as ((e - 1) mod (p - 1)) + 1, the rule x^p = x
(R. Lidl and H. Niederreiter, *Finite Fields*, section 7.1; N. Alon,
"Combinatorial Nullstellensatz", Lemma 2.1).  So a linear form vanishes on
the image of g exactly when it vanishes on every c_M, once the monomials
that are one function over F_p share their c_M: the c_M span the image.
The arguments of different tables are independent, so the rows of several
tables span the sum of their images.

Written by position (u_k the k-th root of fiber(A), v_k of fiber(B), each
entry keyed by the position of its root in S: fiber(A), fiber(B), then the
table's slots, as ``_pair_blocks`` orders them), a table is a function of
its pair's configuration key: the owner and size of each block of S, and
every (p, q, r, N_pq) with S[p] + S[q] a root, r its position in S or a
flag outside S.  Every factor, divided power and collected slot of the
table lies in the span of the e_gamma, gamma in S, on which ad e_alpha
acts by the N_pq, and the Cartan term alpha(h_f) moves only the column
h_f, not the group element; so the collected coefficients are fixed by the
commutator constants among S (Steinberg, *Lectures on Chevalley Groups*,
section 3 and Lemma 17).

A Chevalley basis is fixed only up to the signs e_gamma -> eps_gamma
e_gamma (R. W. Carter, *Simple Groups of Lie Type*, Prop. 4.2.2), which
take N_pq to eps_p eps_q eps_r N_pq.  So if two keys agree up to the
signs of their N_pq, and some eps in {+1, -1}^S carries the one's N_pq
onto the other's for every bracket inside S, their tables are related by
the same gauge: N'(u, v)_gamma = eps_gamma N(eps.u, eps.v)_gamma, with
eps.u the vector of the eps_k u_k.  A bracket that lands outside S joins
two roots of fiber(A), or two of fiber(B), and collecting [X_A(u),
X_B(v)] on S never moves one such root past the other, so there only
|N_pq| is kept.  Such keys form a gauge class, and a unit witness of one
table is one of the other, with its sign changed by eps.  Lemma 2 case
(a) therefore runs the direct check on the first pair of each class and
re-checks its witnesses, by position and gauge, at every pair of the
class (``check_case_a``).

Two maps on the pairs need no table at all.  Swap: [X_B(v), X_A(u)] =
[X_A(u), X_B(v)]^-1, and N_{beta,alpha} = -N_{alpha,beta}, so N_{BA11}(v,
u) = -N_{AB11}(u, v).  Negation: the Chevalley basis is chosen with
N_{-alpha,-beta} = -N_{alpha,beta}, so that e_alpha -> -e_{-alpha} is an
automorphism, the Chevalley involution (Carter, Thm 4.2.1; Steinberg,
section 3); ``chevalley`` builds its constants that way.  A unit witness
(gamma, alpha, beta, c) of the pair (A, B) is therefore (gamma, beta,
alpha, -c) of (B, A), (-gamma, -alpha, -beta, -c) of (-A, -B) and (-gamma,
-beta, -alpha, c) of (-B, -A).  In case (a), A and B are not collinear
and A + B is a relative root, of nonzero level, so these four pairs are
distinct, and exactly one of them has A < B and A + B of positive level:
``check_case_a`` keys that one and re-checks the witnesses of all four
(``_images``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add, sub

from .chevalley import (collect, commutator_factors, cone_weights, invert_factors,
                        product_of_root_elements, unit_split)
from .folding import classify_relative_type
from .polyring import PolyElem, VarRegistry, _decode, row_reduce
from .rootcore import VerificationError, collinear, multiples, require, root_str, splits


class RelcalcError(ValueError):
    pass


class CaseHypothesisError(RelcalcError, VerificationError):
    """The named surjectivity case's hypothesis fails for this pair.

    Also a VerificationError: a case that relies on the hypothesis fails.
    """


@dataclass(frozen=True)
class RelativeRoot:
    """The argument type of the public functions below: a relative root's
    coordinate tuple, which each of them reads once, printed by
    ``root_str``.  Inside, a relative root is the tuple itself."""

    coords: tuple


def _require_split(rrs):
    if len(rrs.spec.gamma) != 1:
        raise RelcalcError(
            "relative root subschemes are only realized for trivial gamma")


def relative_factors(rrs, a, coords):
    """Elementary factor word for X_a(v), fiber in lexicographic order."""
    return [(alpha, coords[alpha]) for alpha in rrs.fiber(a)]


def _relative_cone(rrs, a, b):
    """Weights of f = g o proj, g = ``cone_weights(a, b)`` on relative coordinates.

    f is positive on the fiber of every ia + jb (i, j >= 0, i + j > 0), so
    every word of an N-map table lies in one half-space.
    """
    g = cone_weights(a, b) + (0,)  # g[rank] = 0 for the nodes outside J
    return tuple([g[k] for k in rrs.orbit_index])


@dataclass
class NMapTable:
    """Coordinate polynomials of the maps N_{ABij} for one pair (A, B).

    ``entries[(i, j)]`` maps each fiber root of iA+jB to a polynomial in
    the registry variables u0..u{m-1} (coordinates on V_A) and v0..
    (coordinates on V_B).
    """

    registry: VarRegistry
    u_index: dict  # root (coordinate tuple) in fiber(A) -> registry variable position
    v_index: dict
    entries: dict  # (i,j) -> {root: PolyElem}

    def pairs(self):
        return sorted(self.entries, key=lambda ij: (ij[0] + ij[1], ij[0]))


def compute_relative_commutator_maps(rrs, cb, A, B) -> NMapTable:
    _require_split(rrs)
    a, b = A.coords, B.coords
    if a not in rrs or b not in rrs:
        raise RelcalcError("A and B must be relative roots")
    if collinear(a, b):
        raise RelcalcError("commutator maps need non-collinear A, B "
                           "(mA = -kB or proportional rays rejected)")
    fa, fb = rrs.fiber(a), rrs.fiber(b)
    names = ["u%d" % k for k in range(len(fa))] + ["v%d" % k for k in range(len(fb))]
    reg = VarRegistry(names)
    u_index = {alpha: k for k, alpha in enumerate(fa)}
    v_index = {beta: len(fa) + k for k, beta in enumerate(fb)}
    x = [PolyElem(reg, {unit: 1}, _canonical=True) for unit in reg.units]  # the variables
    word = commutator_factors(zip(fa, x), zip(fb, x[len(fa):]))
    U = product_of_root_elements(cb, reg, word, _relative_cone(rrs, a, b))

    slots, owner = _table_slots(rrs, a, b)
    table = NMapTable(reg, u_index, v_index, _collect_recomposed(
        cb, U, slots, owner, "recomposed product differs from the commutator"))
    _verify_table(table)
    return table


def _pair_blocks(rrs, a, b):
    """S, the slots of the pair (a, b), as (owner, fiber) blocks in order:
    ((1, 0), fiber(a)), ((0, 1), fiber(b)), then ((i, j), fiber(ia + jb))
    for each (i, j) of ``rootcore.multiples``."""
    fibers, by_code = rrs.fibers, rrs.by_code
    ka, kb = rrs.codes[a], rrs.codes[b]
    return [((1, 0), fibers[a]), ((0, 1), fibers[b])] + [
        ((i, j), fibers[by_code[i * ka + j * kb]]) for i, j in multiples(a, b, rrs)]


def _slots(blocks):
    """The slots of (owner, fiber) blocks, in order, and the owner of each."""
    slots, owner = [], {}
    for o, fiber in blocks:
        for gamma in fiber:
            slots.append(gamma)
            owner[gamma] = o
    return slots, owner


def _table_slots(rrs, a, b):
    """The slots of the relative roots ia + jb, each owned by its (i, j),
    in the order of ``_pair_blocks``."""
    return _slots(_pair_blocks(rrs, a, b)[2:])


def _collect_recomposed(cb, U, slots, owner, failure):
    """``collect`` U along the slots, check that the product of the
    coefficients in slot order is U (the oracle), and return them grouped
    by the owner of their slot."""
    coeffs = collect(cb, U, slots)
    require(product_of_root_elements(cb, U.registry, list(coeffs.items()), U.cone) == U,
            failure)
    grouped = {}
    for gamma, p in coeffs.items():
        grouped.setdefault(owner[gamma], {})[gamma] = p
    return grouped


def _verify_table(table):
    n = len(table.registry.names)
    n_u = len(table.u_index)
    # the root of each variable, in registry order
    roots = [None] * n
    for root, k in itertools.chain(table.u_index.items(), table.v_index.items()):
        roots[k] = root
    for (i, j), ent in table.entries.items():
        for gamma, p in ent.items():
            for key, coeff in p.terms.items():
                exp, w = _decode(key, n)
                require(not w, "N_{%d%d} is not a polynomial", i, j)
                # PolyElem keeps an integral coefficient as an int
                require(type(coeff) is int, "non-integer N_{%d%d}", i, j)
                du, dv = sum(exp[:n_u]), sum(exp[n_u:])
                # homogeneity: degree i in u, degree j in v
                require((du, dv) == (i, j),
                        "N_{%d%d} monomial of degree (%d,%d)", i, j, du, dv)
                # fiber grading: underlying roots sum to gamma
                total = [0] * len(gamma)
                for k, e in enumerate(exp):
                    if e:
                        for pos, c in enumerate(roots[k]):
                            total[pos] += e * c
                require(tuple(total) == gamma,
                        "monomial roots do not sum to the target fiber root")


# -- sum formula ---------------------------------------------------------


def check_sum_formula(rrs, cb, A):
    """X_A(u+u') = X_A(u) X_A(u') prod_{i>1} X_{iA}(u_i); returns {i: u_i}."""
    _require_split(rrs)
    a = A.coords
    fiber = rrs.fiber(a)
    names = (["u%d" % k for k in range(len(fiber))]
             + ["w%d" % k for k in range(len(fiber))])
    reg = VarRegistry(names)
    u = {alpha: reg.var("u%d" % k) for k, alpha in enumerate(fiber)}
    w = {alpha: reg.var("w%d" % k) for k, alpha in enumerate(fiber)}
    lhs_factors = relative_factors(rrs, a, {alpha: u[alpha] + w[alpha] for alpha in fiber})
    base = relative_factors(rrs, a, u) + relative_factors(rrs, a, w)
    # residual = (X_A(u)X_A(u'))^-1 X_A(u+u'), supported on multiples iA, i >= 2
    residual = product_of_root_elements(cb, reg, invert_factors(base) + lhs_factors,
                                        _relative_cone(rrs, a, a))
    slots, owner = _slots([(k, rrs.fiber(tuple(k * x for x in a)))
                           for k in sorted({i + j for i, j in multiples(a, a, rrs)})])
    return _collect_recomposed(cb, residual, slots, owner,
                               "recomposed sum formula differs from its residual")


# -- surjectivity of N_AB11 (four unit-coefficient cases) ----------------


def check_N11_surjectivity(rrs, cb, A, B, case, units=frozenset({1, -1})):
    """Unit-coefficient witnesses that N_AB11 covers every target basis
    vector, as {gamma: (alpha, beta, N_{alpha,beta})}.

    ``case`` selects which hypothesis justifies invertibility:
      a -- every |N_{al,be}|, al in fiber(A), be in fiber(B), al + be a
           root, lies in ``units``;
      b -- A != B and A - B is not a relative root;
      c -- the target fiber consists of short roots (doubly laced type);
      d -- the fibers of A and B contain long roots summing to a root.
    """
    _require_split(rrs)
    a, b = A.coords, B.coords
    target = rrs.fibers.get(tuple(map(add, a, b)))
    if target is None:
        raise RelcalcError("A+B is not a relative root")
    rs = rrs.rs
    fa, fb = rrs.fiber(a), rrs.fiber(b)
    laced = rs.type.series in ("B", "C", "F")
    unit_abs = {abs(x) for x in units}

    if case == "a":
        hit = {abs(cb.struct_const(al, be)) for al in fa for be in fb
               if rs.sum_is_root(al, be)}
        if not hit <= unit_abs:
            raise CaseHypothesisError(
                "constants %s of %s, %s not all invertible for the supplied units"
                % (sorted(hit), root_str(a), root_str(b)))
    elif case == "b":
        if a == b or tuple(map(sub, a, b)) in rrs:
            raise CaseHypothesisError("need A != B and A-B not a relative root")
        unit_abs = {1}
    elif case == "c":
        if not (laced and rs.long_roots.isdisjoint(target)):
            raise CaseHypothesisError(
                "target fiber must be all short in a doubly laced type")
        unit_abs = {1}
    elif case == "d":
        long_pairs = [(al, be) for al in fa for be in fb
                      if al in rs.long_roots and be in rs.long_roots
                      and rs.sum_is_root(al, be)]
        if not (laced and long_pairs):
            raise CaseHypothesisError("no summable long pair in the fibers")
        # simple reflections act transitively on the long roots
        require(rs.orbit({min(rs.long_roots)}) == rs.long_roots,
                "long roots are not a single Weyl orbit")
        longs = [al for al in fa if al in rs.long_roots]
        long_seconds = rs.long_roots.intersection(fb)
        unit_abs = {1}
    else:
        raise RelcalcError("unknown case %r" % (case,))
    table = compute_relative_commutator_maps(rrs, cb, A, B)

    # N_AB11 at u_al = v_be = 1, others 0: _verify_table checked that each
    # (1,1) term is some u_al v_be with an integer coefficient
    var_keys = table.registry.units
    entries11 = table.entries.get((1, 1), {})
    seconds = set(fb)
    witnesses = {}
    for gamma in target:
        firsts, among = fa, seconds
        if case == "d" and gamma in rs.long_roots:
            firsts, among = longs, long_seconds
        found = unit_split(cb, gamma, firsts, among, units=unit_abs)
        require(found, "no unit hit for %s (falsifies surjectivity case %s)",
                gamma, case)
        al, be, c = found
        # re-verify the witness by the table's coefficients of u_al v_be
        key = var_keys[table.u_index[al]] + var_keys[table.v_index[be]]
        value = {g: p.terms[key] for g, p in entries11.items() if key in p.terms}
        require(value == {gamma: c},
                "witness %s + %s does not evaluate to %+d on %s", al, be, c, gamma)
        witnesses[gamma] = found
    return witnesses


def applicable_surjectivity_cases(rrs, cb, A, B):
    """Which of the four hypotheses hold for (A, B); may be empty."""
    out = []
    for case in "abcd":
        try:
            check_N11_surjectivity(rrs, cb, A, B, case)
            out.append(case)
        except CaseHypothesisError:
            continue
    return out


# -- case (a) by gauge class of the structure-constant configuration ----


def _case_a_key(cb, blocks):
    """The configuration key of a pair with the ``_pair_blocks`` ``blocks``
    and S, its slots in order.  The key is (unsigned, signs): ``unsigned``
    holds, as bytes, the owner and size of each block, then every (p, q,
    r, |N_pq|, |N_qp|) with p < q and S[p] + S[q] a root, r its position
    in S or len(S) outside S; ``signs`` has bit c set where the c-th
    bracket inside S has N_pq < 0, and bit m + c where its N_qp < 0, m
    the count of those brackets.  S holds distinct roots, at most 240 up
    to rank 8, so every position, size and count is a byte."""
    brackets = cb.brackets
    slots = [gamma for _, fiber in blocks for gamma in fiber]
    pos = {gamma: p for p, gamma in enumerate(slots)}
    outside = len(slots)
    key = [len(blocks)]
    for (i, j), fiber in blocks:
        key += (i, j, len(fiber))
    lower = upper = m = 0
    for p, alpha in enumerate(slots):
        row = brackets[alpha]
        for q in range(p + 1, outside):
            hit = row.get(slots[q])
            if hit:  # then S[q] + S[p] is the same root
                r, n, back = pos.get(hit[0], outside), hit[1], brackets[slots[q]][alpha][1]
                if r < outside:
                    lower |= (n < 0) << m
                    upper |= (back < 0) << m
                    m += 1
                key += (p, q, r, -n if n < 0 else n, -back if back < 0 else back)
    return (bytes(key), lower | upper << m), slots


def _inside_brackets(unsigned):
    """The size of S and the brackets (p, q, r, |N_pq|) inside S of an
    unsigned key, in the order of the bits of its signs."""
    head = 1 + 3 * unsigned[0]
    n = sum(unsigned[3:head:3])
    inside = [five for five in zip(*[iter(unsigned[head:])] * 5) if five[2] < n]
    return n, ([(p, q, r, x) for p, q, r, x, _ in inside]
               + [(q, p, r, y) for p, q, r, _, y in inside])


@dataclass
class GaugeClasses:
    """Lemma 2 case (a) for one suite run, read by ``check_case_a``.  A
    gauge eps is a bit set with bit k set where eps_k = -1, k a position
    in S.  A class record is [the signs of its first key, the gauge that
    reduces them, its witnesses or None], each witness ((gamma, alpha,
    beta) positions in S, N in the signs of the first key)."""

    keys: dict = field(default_factory=dict)  # key -> (class record, gauge)
    solves: dict = field(default_factory=dict)  # unsigned key -> (p < q mask, gauge rows)
    records: dict = field(default_factory=dict)  # (unsigned key, reduced signs) -> class record


def _bits(row):
    """A row of 0s and 1s as a bit set."""
    return sum(1 << k for k, x in enumerate(row) if x)


def _gauge_class(classes, key):
    """The class record of a configuration key and its gauge eps, with N_pq
    = eps_p eps_q eps_r N0_pq for every bracket inside S, N0 the brackets
    of the class's first key (module docstring).

    The class is the unsigned key and the signs of its inside brackets
    with p < q, a vector over F_2, reduced modulo the gauge rows: row k
    has a 1 at each such bracket with k among p, q and r.  ``row_reduce``
    solves the rows of an unsigned key once, with an identity block that
    records which gauge makes each reduced row."""
    unsigned, signs = key
    solve = classes.solves.get(unsigned)
    if solve is None:
        n, inside = _inside_brackets(unsigned)
        m = len(inside) // 2  # the brackets with p < q come first
        rows = [[0] * m + [k == col for col in range(n)] for k in range(n)]
        for c, (p, q, r, _) in enumerate(inside[:m]):
            rows[p][c] = rows[q][c] = rows[r][c] = 1
        mat, pivots = row_reduce(rows, m, 2)
        solve = classes.solves[unsigned] = ((1 << m) - 1, [
            (c, _bits(row[:m]), _bits(row[m:])) for c, row in zip(pivots, mat)])
    mask, rows = solve
    reduced, gauge = signs & mask, 0
    for c, row, made_by in rows:
        if reduced >> c & 1:
            reduced ^= row
            gauge ^= made_by
    record = classes.records.setdefault((unsigned, reduced), [signs, gauge, None])
    return record, gauge ^ record[1]


def _regauged(witnesses, gauge):
    """Positional witnesses (gamma, alpha, beta, N) with N taken to
    eps_gamma eps_alpha eps_beta N; the map is its own inverse."""
    return [(g, p, q, -c if (gauge >> g ^ gauge >> p ^ gauge >> q) & 1 else c)
            for g, p, q, c in witnesses]


def _images(a, b, witnesses, neg):
    """The pair (a, b) with its witnesses (gamma, alpha, beta, N), then
    the pairs (b, a), (-a, -b) and (-b, -a), each with the witnesses mapped
    to it by swap and negation (module docstring); ``neg`` maps each root
    and relative root to its negative."""
    swapped = [(g, be, al, -c) for g, al, be, c in witnesses]
    negated = [(neg[g], neg[al], neg[be], -c) for g, al, be, c in witnesses]
    return [((a, b), witnesses), ((b, a), swapped), ((neg[a], neg[b]), negated),
            ((neg[b], neg[a]), [(g, be, al, -c) for g, al, be, c in negated])]


def check_case_a(rrs, cb, classes):
    """Case (a) on every pair (A, B) of relative roots, not collinear, with
    A + B a relative root.

    The keyed path runs on the one pair of each orbit under swap and
    negation with A < B and A + B of positive level, in
    ``itertools.product`` order (module docstring).  A new configuration
    key gets its class record and gauge eps from ``_gauge_class``
    (``classes``, a ``GaugeClasses``, lasts one suite run), and the sign of
    every bracket inside S is checked against the record's under eps.  The
    first pair of a class runs the direct check and, unless it fails,
    stores its witnesses in the record; every keyed pair reads them back at
    its slots under its gauge.  The keyed pair and its three images
    (``_images``) re-check their witnesses alike: the roots in the pair's
    fibers, the bracket in ``cb.brackets`` and ``struct_const``, and the
    targets covering the fiber of the pair's sum.
    """
    codes, by_code, fibers, brackets = rrs.codes, rrs.by_code, rrs.fibers, cb.brackets
    # one negation map for the roots and the relative roots, as negation
    # does not depend on which a tuple is
    neg = {x: tuple([-t for t in x]) for x in itertools.chain(brackets, fibers)}
    level = {a: sum(a) for a in fibers}
    pairs = 0
    for a, b in itertools.product(fibers, repeat=2):
        # a + b is a relative root only if its code is one; its blocks decide
        if (a >= b or level[a] + level[b] <= 0 or codes[a] + codes[b] not in by_code
                or collinear(a, b)):
            continue
        blocks = _pair_blocks(rrs, a, b)
        if len(blocks) < 3 or blocks[2][0] != (1, 1):
            continue
        pairs += 4
        key, slots = _case_a_key(cb, blocks)
        entry = classes.keys.get(key)
        if entry is None:
            record, gauge = _gauge_class(classes, key)
            unsigned, signs = key
            flips = signs ^ record[0]  # the signs that differ from the class's first key
            for c, (p, q, r, n) in enumerate(_inside_brackets(unsigned)[1]):
                require(not (flips >> c ^ gauge >> p ^ gauge >> q ^ gauge >> r) & 1,
                        "gauge fails on %s + %s -> %+d", slots[p], slots[q],
                        -n if signs >> c & 1 else n)
            entry = classes.keys[key] = record, gauge
        record, gauge = entry
        if record[2] is None:
            found = check_N11_surjectivity(rrs, cb, RelativeRoot(a), RelativeRoot(b), "a")
            pos = {gamma: p for p, gamma in enumerate(slots)}
            record[2] = _regauged([(pos[gamma], pos[al], pos[be], c)
                                   for gamma, (al, be, c) in found.items()], gauge)
        witnesses = [(slots[g], slots[p], slots[q], c)
                     for g, p, q, c in _regauged(record[2], gauge)]
        for (x, y), mapped in _images(a, b, witnesses, neg):
            fx, fy, total = fibers[x], fibers[y], tuple(map(add, x, y))
            for gamma, al, be, c in mapped:
                require(al in fx and be in fy and brackets[al].get(be) == (gamma, c)
                        and cb.struct_const(al, be) == c,
                        "mapped witness %s + %s -> %+d fails on %s at (%s, %s)",
                        al, be, c, gamma, x, y)
            require(tuple(sorted([gamma for gamma, _, _, _ in mapped])) == fibers[total],
                    "mapped witnesses do not cover the fiber of %s at (%s, %s)", total, x, y)
    return {"pairs_checked": pairs}


# -- linear spanning oracles ---------------------------------------------


SPAN_PRIMES = (2, 3, 5)


def _image_rows(images, p):
    """One row per monomial of the joint map of each (table, maps, col) of
    ``images``: its coefficient on root g in column ``col[g]``.  Over F_p
    each exponent e >= 1 is read as ((e - 1) mod (p - 1)) + 1, so the
    monomials that are one function over F_p share a row (module docstring);
    over Q (``p`` None) the packed key is the monomial."""
    rows = []
    for table, maps, col in images:
        n = len(table.registry.names)
        by_monomial = {}
        for ij in maps:
            for g, poly in table.entries.get(ij, {}).items():
                for key, c in poly.terms.items():
                    if p is not None:
                        key = tuple([e and (e - 1) % (p - 1) + 1 for e in _decode(key, n)[0]])
                    by_monomial.setdefault(key, [0] * len(col))[col[g]] += c
        rows += by_monomial.values()
    return rows


def _span_verdict(images, n):
    """The verdict of each field, Q and each F_p, by name: "full" where
    the images of the (table, maps, col) triples span the n-dimensional
    target, else "deficient", which fails the check."""
    full = {"Q": len(row_reduce(_image_rows(images, None), n)[1]) == n}
    for p in SPAN_PRIMES:
        full["F%d" % p] = len(row_reduce(_image_rows(images, p), n, p)[1]) == n
    fields = {k: "full" if v else "deficient" for k, v in sorted(full.items())}
    require(all(full.values()), "image does not span the target: %s", fields)
    return fields


def check_spanning_lemma2_2(rrs, cb, A, B):
    """im N_AB11 + im N_{A-B,2B,11} + sum_v im N_{A-B,B,12}(-, v) fills V_{A+B}.

    Applies when A-B and A+B are both relative roots and the component is
    not G2; checked over the rationals and over F_2, F_3, F_5, and returns
    the field verdicts of ``_span_verdict``.
    """
    _require_split(rrs)
    a, b = A.coords, B.coords
    diff, total = tuple(map(sub, a, b)), tuple(map(add, a, b))
    if diff not in rrs or total not in rrs:
        raise RelcalcError("need both A-B and A+B relative roots")
    if classify_relative_type(rrs)[0] == "G" or rrs.rs.type.series == "G":
        raise RelcalcError("excluded for G2")
    col = {g: k for k, g in enumerate(rrs.fiber(total))}

    D = RelativeRoot(diff)
    images = [(compute_relative_commutator_maps(rrs, cb, A, B), [(1, 1)], col)]
    two_b = tuple(2 * x for x in b)
    if two_b in rrs:
        images.append((compute_relative_commutator_maps(rrs, cb, D, RelativeRoot(two_b)),
                       [(1, 1)], col))
    images.append((compute_relative_commutator_maps(rrs, cb, D, B), [(1, 2)], col))
    return _span_verdict(images, len(col))


def check_spanning_lemma3(rrs, cb):
    """The C_l half-split span identity on V_{A1+A2} + V_{2A1+A2}.

    For C_l (Gamma trivial) with J = {alpha_i, alpha_l}, 2i = l >= 4: the images of
    (0, N_{A1,A1+A2,1,1}) and of f_v = (N_{A1,A2,1,1}(v,-), N_{A1,A2,2,1}(v,-))
    over v in V_{A1} span the direct sum, over Q and F_2, F_3, F_5; returns
    the field verdicts of ``_span_verdict``.
    """
    spec, l = rrs.spec, rrs.rs.rank
    if (spec.root_type.series, spec.levi, l % 2) != ("C", (l // 2 - 1, l - 1), 0) or l < 4:
        raise RelcalcError("need the half-split folding C_l levi=l/2,l with an even l >= 4")
    A1, A2, mid = RelativeRoot((1, 0)), RelativeRoot((0, 1)), RelativeRoot((1, 1))
    f_mid, f_top = rrs.fiber((1, 1)), rrs.fiber((2, 1))
    col = {g: k for k, g in enumerate(f_mid + f_top)}

    _verify_lemma3_fiber_structure(rrs, f_mid, f_top)

    images = [(compute_relative_commutator_maps(rrs, cb, A1, mid), [(1, 1)], col),
              (compute_relative_commutator_maps(rrs, cb, A1, A2), [(1, 1), (2, 1)], col)]
    return _span_verdict(images, len(col))


def _verify_lemma3_fiber_structure(rrs, f_mid, f_top):
    """The three fiber cases behind the span identity, checked directly."""
    rs = rrs.rs
    f_a1 = rrs.fiber((1, 0))
    short_a1 = [al for al in f_a1 if al not in rs.long_roots]
    short_mid = set(f_mid) - rs.long_roots
    a2_but_l = set(rrs.fiber((0, 1))) - {rs.simple_roots[rs.rank - 1]}
    for gamma in f_top:
        if gamma not in rs.long_roots:
            require(any(splits(gamma, short_a1, short_mid, ((1, 1),))),
                    "short top root %s lacks a short+short split", gamma)
        else:
            require(any(splits(gamma, f_a1, a2_but_l, ((2, 1),))),
                    "long top root %s is not 2*alpha+beta", gamma)
    for gamma in f_mid:
        require(gamma not in rs.long_roots, "middle root %s is not short", gamma)
