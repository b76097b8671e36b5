"""Machine verification of the decomposition catalog and the explicit
commutator identities behind the perfectness argument.

Three families of checks live here:

* a catalog sweep asserting that every relative root in a rank >= 2
  relative system decomposes as B + C with the sign/level clauses
  (verified by the independent checker, never by the construction);
* the explicit C2 and G2 polynomial identities that express X_A(Z^k v)
  through commutators, over the ring localized at eps^2 - eps.  The
  source formulas carry an unstated sign normalization, so the verifier
  searches the (at most 2^5) sign flips of the commutator arguments and
  records the successful assignment as the witness;
* the B_l / C_l / F4 case schemas: long-root commutator splits in the
  D4-like long subsystem, long-pair fiber witnesses, and the chain
  constructions for the BC2 and half-split C2 foldings, assembled from
  explicit unit-coefficient factors and re-verified as exact matrix
  identities.

Every matrix identity compares products on one column h_f (see
``relroots.chevalley``), so each word lies in a half-space: the positive
words under the height form, and each F4 long split under
``cone_weights`` of its pair.  The C2 long identity nests the commutator
[x_{A1+A2}(s), x_{-A2}(t)]; it enters the word as its collected normal
form on A1 and 2A1+A2, which keeps the whole word positive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .chevalley import (
    adjoint_root_element,
    build_chevalley_basis,
    collect,
    collected_commutator,
    commutator_factors,
    cone_weights,
    invert_factors,
    product_of_root_elements,
    unit_split,
)
from .folding import (
    build_relative_system,
    decompose_relative_roots,
    enumerate_foldings,
    parse_folding_spec,
)
from .polyring import VarRegistry
from .rootcore import (
    RootType,
    VerificationError,
    build_root_system,
    require,
    root_str,
    splits,
)


@dataclass
class VerificationCase:
    id: str
    spec: str
    params: dict = field(default_factory=dict)
    status: str = "pass"  # pass | fail | skipped
    witness: object = None

    def to_json(self):
        return {"id": self.id, "spec": self.spec, "params": self.params,
                "status": self.status, "witness": self.witness}


def run_case(cid, spec, body, params=None):
    """Run one case: its witness is ``body()``.

    A check that does not hold inside the body (an ``AssertionError``;
    every failed check in relroots raises a ``VerificationError``) makes
    the case a fail whose witness is the failing check's message.  Any
    other exception propagates, so bad parameters still abort the run.
    """
    case = VerificationCase(id=cid, spec=spec, params=params or {})
    try:
        case.witness = body()
    except AssertionError as exc:
        case.status = "fail"
        case.witness = str(exc)
    return case


# -- decomposition catalog ------------------------------------------------


class _Names(dict):
    """Coordinate tuple -> its ``root_str``, printed on first use."""

    def __missing__(self, coords):
        name = self[coords] = root_str(coords)
        return name


def verify_lemma1_catalog(max_rank=6):
    """Decompose every relative root of every folding.

    ``decompose_relative_roots`` returns only splits that passed the
    independent checker.  Its verdict depends on the folding only through
    the set of relative coordinates, so the foldings that share a set share
    one verdict map for this call: the checker runs once per distinct
    (coordinate set, A, B, C), and a failed verdict fails every case that
    cites it, with the checker's message.  Each relative root is printed
    once per call, in one map of names.
    """
    cases, verdicts = [], {}  # frozenset(rrs.fibers) -> {(a, b, c): verdict}
    names = _Names()
    for spec in enumerate_foldings(max_rank):
        rrs = build_relative_system(spec)
        cid = "lemma1/%s" % spec
        if rrs.rank < 2:
            cases.append(VerificationCase(id=cid, spec=str(spec), status="skipped",
                                          witness="rank-1 component"))
            continue
        shared = verdicts.setdefault(frozenset(rrs.fibers), {})
        cases.append(run_case(cid, str(spec), lambda: [
            "%s = %s + %s" % (names[a], names[b], names[c])
            for a, b, c in decompose_relative_roots(rrs, shared)]))
    return cases


# -- sign-searched identity verification ---------------------------------


# the least k at which each explicit identity is stated
IDENTITY_MIN_K = {"c2_long": 5, "g2_long": 2, "g2_short": 3}


def check_identity_params(eps=None, **ks):
    """Raise ValueError unless each named identity (a key of IDENTITY_MIN_K)
    holds at its k and eps, when bound, keeps eps**2 - eps invertible.

    A k of None is not checked.  The identity functions call this first,
    and ``relroots verify`` calls it before any suite starts.
    """
    for name, k in ks.items():
        least = IDENTITY_MIN_K[name]
        if k is not None and k < least:
            raise ValueError("the %s-root identity needs k >= %d"
                             % (name.split("_")[1], least))
    if eps is not None and Fraction(eps) in (0, 1):
        raise ValueError("eps binding makes eps**2 - eps vanish")


def _registry(eps_binding):
    """The ring of an identity: the registry, Z, v, eps, (eps**2 - eps)**-1
    and the label of the eps binding."""
    if eps_binding is None:
        reg = VarRegistry(["Z", "v", "eps"])
        eps, inv, label = reg.var("eps"), reg.eps_unit_inverse(), "symbolic"
    else:
        reg, c = VarRegistry(["Z", "v"]), Fraction(eps_binding)
        eps, inv, label = reg.const(c), reg.const(1 / (c * c - c)), str(eps_binding)
    return reg, reg.var("Z"), reg.var("v"), eps, inv, label


def _sign_search(slots, build, check,
                 failure="no sign assignment satisfies the identity"):
    """Try all +-1 assignments of the named slots; return the first hit, a
    {slot name: +1 / -1} dict, with what ``build`` made of it, or raise
    VerificationError(failure)."""
    require(len(slots) <= 6, "a sign search over %d slots is too large", len(slots))
    for values in itertools.product((1, -1), repeat=len(slots)):
        signs = dict(zip(slots, values))
        built = build(signs)
        if check(built):
            return signs, built
    raise VerificationError(failure)


def _signed_identity(cb, reg, root, k, height, slots, build):
    """The witness of an identity for x_root(Z^k v): the first signs of
    ``slots`` for which ``build`` gives the matrix of x_root(Z^k v)."""
    target = adjoint_root_element(cb, root, reg.var("Z", k) * reg.var("v"), height)
    return {"signs": _sign_search(slots, build, lambda m: m == target)[0]}


def verify_C2_identities(k, eps_binding=None):
    """The split-C2 long and short decompositions of X_A(Z^k v)."""
    check_identity_params(eps_binding, c2_long=k)
    rs = build_root_system(RootType("C", 2))
    cb = build_chevalley_basis(rs)
    a1, a2 = rs.simple_roots
    a12 = rs.root_from_coords((1, 1))
    a21 = rs.root_from_coords((2, 1))
    minus_a2 = rs.root_from_coords((0, -1))
    reg, Z, v, eps, inv, eps_str = _registry(eps_binding)
    height = (1, 1)

    def g1(s, t):
        return commutator_factors([(a1, s)], [(a2, t)])

    # the inner commutator [x_{A1+A2}(+-Z), x_{-A2}(+-Z eps)], collected,
    # has factors on A1 and 2A1+A2; it is built once per pair of its signs
    inner = {}

    def build_long(signs):
        st = signs["g2.s"], signs["g2.t"]
        if st not in inner:
            inner[st] = collected_commutator(cb, reg, (a12, Z.scale(st[0])),
                                             (minus_a2, (Z * eps).scale(st[1])))
        word = (g1(reg.var("Z", 2).scale(signs["g1.s"]),
                   (reg.var("Z", k - 4) * eps * inv * v).scale(-signs["g1.t"]))
                + commutator_factors(
                    [(a2, (reg.var("Z", k - 4) * inv * v).scale(-signs["g2.u"]))],
                    inner[st]))
        return product_of_root_elements(cb, reg, word, height)

    def build_short(signs):
        word = (g1(Z.scale(signs["g1.s"]),
                   (reg.var("Z", k - 1) * v).scale(signs["g1.t"]))
                + [(a21, (reg.var("Z", k + 1) * v).scale(-signs["x.t"]))])
        return product_of_root_elements(cb, reg, word, height)

    return [
        run_case("c2/long/k=%d/eps=%s" % (k, eps_str), "C2",
                 lambda: _signed_identity(cb, reg, a21, k, height,
                                          ["g1.s", "g1.t", "g2.s", "g2.t", "g2.u"],
                                          build_long),
                 {"k": k, "eps": eps_str, "root": "2A1+A2"}),
        run_case("c2/short/k=%d/eps=%s" % (k, eps_str), "C2",
                 lambda: _signed_identity(cb, reg, a12, k, height, ["g1.s", "g1.t", "x.t"],
                                          build_short),
                 {"k": k, "eps": eps_str, "root": "A1+A2"}),
    ]


def verify_G2_identities(k_long=2, k_short=3, eps_binding=None):
    """The split-G2 long commutator identity and the short-root shape."""
    check_identity_params(eps_binding, g2_long=k_long, g2_short=k_short)
    rs = build_root_system(RootType("G", 2))
    cb = build_chevalley_basis(rs)
    a1, a2 = rs.simple_roots
    r21 = rs.root_from_coords((2, 1))
    r31 = rs.root_from_coords((3, 1))
    r32 = rs.root_from_coords((3, 2))
    reg, Z, v, eps, inv, eps_str = _registry(eps_binding)
    height = (1, 1)

    def build_long(signs):
        word = commutator_factors(
            [(a2, (Z * v).scale(signs["s"]))],
            [(r31, reg.var("Z", k_long - 1).scale(signs["t"]))])
        return product_of_root_elements(cb, reg, word, height)

    long_case = run_case("g2/long/k=%d/eps=%s" % (k_long, eps_str), "G2",
                         lambda: _signed_identity(cb, reg, r32, k_long, height, ["s", "t"],
                                                  build_long),
                         {"k": k_long, "eps": eps_str, "root": "3A1+2A2"})

    # short root: collect the two-commutator left side to normal form and
    # check its shape: support {2A1+A2, 3A1+A2, 3A1+2A2}, leading Z^k v,
    # trailing factors on long roots only
    zk2 = reg.var("Z", k_short - 2)
    slots = cb.pos_roots

    def build_short(signs):
        first = commutator_factors(
            [(a1, (Z * eps).scale(signs["s1"]))],
            [(a2, (zk2 * inv * v).scale(-signs["t1"]))])
        second = commutator_factors(
            [(a1, Z.scale(signs["s2"]))],
            [(a2, (zk2 * eps * inv * v).scale(-signs["t2"]))])
        word = invert_factors(first) + second
        U = product_of_root_elements(cb, reg, word, height)
        return collect(cb, U, slots)

    want_lead = reg.var("Z", k_short) * v

    def check_short(coeffs):
        if not set(coeffs) <= {(2, 1), (3, 1), (3, 2)}:
            return False
        return coeffs.get(r21) == want_lead

    def short_witness():
        signs, coeffs = _sign_search(["s1", "t1", "s2", "t2"], build_short, check_short,
                                     "no sign assignment produces the stated shape")
        trailing = sorted(r for r in coeffs if r != r21)
        require(rs.long_roots.issuperset(trailing), "trailing factors on non-long roots")
        return {
            "signs": signs,
            "support": sorted(str(list(r)) for r in coeffs),
            "trailing_long_roots": [str(list(c)) for c in trailing],
        }

    short_case = run_case(
        "g2/short/k=%d/eps=%s" % (k_short, eps_str), "G2", short_witness,
        {"k": k_short, "eps": eps_str, "root": "2A1+A2"})
    return [long_case, short_case]


# -- case schemas ---------------------------------------------------------


def verify_case_schemas(case, l=None, k=None):
    if case == "F4_long":
        return _schema_f4_long(k or 2)
    if case == "Bl_pairs":
        return _schema_bl_pairs(l or 3)
    if case == "Cl_BC2":
        return _schema_cl_bc2(l or 3, k or 4)
    if case == "Cl_C2":
        return _schema_cl_c2(l or 4, k or 3)
    raise ValueError("unknown case schema %r" % (case,))


def _schema_f4_long(k):
    """Every long F4 root splits as a clean commutator of two long roots
    (for long B, C with B + C a root, |2B + C|^2 is three times the long
    length, so 2B + C is never a root)."""
    rs = build_root_system(RootType("F", 4))
    cb = build_chevalley_basis(rs)
    reg = VarRegistry(["Z", "v"])
    Z, v = reg.var("Z"), reg.var("v")
    longs = [r for r in rs.roots if r in rs.long_roots]

    def witness(A):
        got = unit_split(cb, A, longs, rs.long_roots)
        require(got, "no unit long pair for %s", A)
        B, C, n = got
        word = commutator_factors([(B, Z)],
                                  [(C, (reg.var("Z", k - 1) * v).scale(n))])
        cone = cone_weights(B, C)
        lhs = product_of_root_elements(cb, reg, word, cone)
        rhs = adjoint_root_element(cb, A, reg.var("Z", k) * v, cone)
        require(lhs == rhs, "matrix identity failed for %s = %s + %s", A, B, C)
        return {"B": root_str(B), "C": root_str(C), "constant": n}

    return [run_case("f4long/%s/k=%d" % (root_str(A), k), "F4", lambda: witness(A),
                     {"k": k})
            for A in longs]


def _schema_bl_pairs(l):
    """B_l, J={a1,a2}: every relative split admits a summable long pair."""
    if l < 3:
        raise ValueError("need l >= 3")
    rrs = build_relative_system(parse_folding_spec("B%d levi=1,2" % l))
    rs = rrs.rs
    rel_roots = sorted(rrs.fibers)

    def witness(a):
        wit = []
        for b, c, _ in splits(a, rel_roots, rrs.fibers, ((1, 1),)):
            pair = next(((beta, gamma)
                         for beta in rrs.fiber(b) for gamma in rrs.fiber(c)
                         if beta in rs.long_roots and gamma in rs.long_roots
                         and rs.sum_is_root(beta, gamma)), None)
            require(pair, "no long pair for %s = %s + %s", a, b, c)
            wit.append("%s = %s + %s via %s + %s" % tuple(map(root_str, (a, b, c, *pair))))
        return wit

    return [run_case("blpairs/B%d/%s" % (l, root_str(a)), "B%d levi=1,2" % l,
                     lambda: witness(a))
            for a in rel_roots]


def _cancelled_chain(cb, reg, k, v, gamma, hit, canceller):
    """A word for x_gamma(Z^k v), gamma = 2 alpha + beta: the unit (2,1)
    commutator [x_alpha(Z), x_beta(C_21 Z^{k-2} v)], which is
    x_{alpha+beta}(N_{alpha,beta} C_21 Z^{k-1} v) x_gamma(Z^k v), times
    [x_mu(-(N_{alpha,beta} C_21 / n) Z v), x_nu(Z^{k-2})], which cancels
    the factor on alpha + beta = mu + nu.

    (alpha, beta, C_21) is the first unit (2,1) split of gamma over the
    fibers ``hit`` and (mu, nu, n) the first clean unit split of alpha +
    beta over ``canceller``.  Returns the word and (alpha, beta, C_21,
    alpha + beta); the caller's identity check proves it.
    """
    found = unit_split(cb, gamma, *hit, ij=(2, 1))
    require(found, "no unit (2,1) pair for %s", gamma)
    alpha, beta, c21 = found
    byproduct = tuple(a + b for a, b in zip(alpha, beta))
    found = unit_split(cb, byproduct, *canceller, clean=True)
    require(found, "no unit canceller for %s", byproduct)
    mu, nu, n = found
    Z, zk2 = reg.var("Z"), reg.var("Z", k - 2)
    c = -Fraction(cb.struct_const(alpha, beta) * c21, n)
    word = (commutator_factors([(alpha, Z)], [(beta, (zk2 * v).scale(c21))])
            + commutator_factors([(mu, (Z * v).scale(c))], [(nu, zk2)]))
    return word, (alpha, beta, c21, byproduct)


def _schema_cl_bc2(l, k):
    """C_l folded to BC2: fiber shortness plus the two-step long chain."""
    if l < 3:
        raise ValueError("need l >= 3")
    if k < 4:
        raise ValueError("the chain needs k >= 4")
    rrs = build_relative_system(parse_folding_spec("C%d levi=1,2" % l))
    rs = rrs.rs
    cb = build_chevalley_basis(rs)
    a1, a2 = (1, 0), (0, 1)
    spec_str = "C%d levi=1,2" % l
    height = (1,) * l

    # extra-short and short relative roots have all-short fibers
    def shortness():
        # a relative root is long here iff it is twice another relative root
        doubles = {tuple(2 * x for x in d) for d in rrs.fibers}
        bad = [root_str(a) for a in rrs.fibers if a not in doubles
               and not rs.long_roots.isdisjoint(rrs.fiber(a))]
        require(not bad, "non-long relative roots with a non-short fiber: %s",
                ", ".join(bad))
        return "all non-long relative roots have short fibers"

    # chain for the long root A = 2A1 + 2A2 at the stated threshold
    def chain():
        (gamma_A,) = rrs.fiber((2, 2))
        reg = VarRegistry(["Z", "v"])
        v = reg.var("v")
        word, (alpha, beta, c21, byproduct) = _cancelled_chain(
            cb, reg, k, v, gamma_A, (rrs.fiber(a1), rrs.fiber(tuple(2 * x for x in a2))),
            (rrs.fiber(tuple(map(add, a1, a2))), rrs.fiber(a2)))
        total = product_of_root_elements(cb, reg, word, height)
        rhs = adjoint_root_element(cb, gamma_A, reg.var("Z", k) * v, height)
        require(total == rhs, "assembled chain does not reproduce X_A(Z^k v)")
        return {
            "step1": "[x_%s(Z), x_%s(%+d Z^%d v)]" % (root_str(alpha), root_str(beta),
                                                       c21, k - 2),
            "cancellers": [root_str(byproduct)],
        }

    return [run_case("clbc2/C%d/fibers" % l, spec_str, shortness),
            run_case("clbc2/C%d/chain/k=%d" % (l, k), spec_str, chain, {"k": k})]


def _schema_cl_c2(l, k):
    """C_l half-split folding: short and long product formulas, k = 3."""
    if l < 4 or l % 2:
        raise ValueError("need an even l >= 4")
    if k < 3:
        raise ValueError("the long formula needs k >= 3")
    i = l // 2
    rrs = build_relative_system(parse_folding_spec("C%d levi=%d,%d" % (l, i, l)))
    rs = rrs.rs
    cb = build_chevalley_basis(rs)
    a1, a2 = (1, 0), (0, 1)
    spec_str = "C%d levi=%d,%d" % (l, i, l)
    mid = tuple(map(add, a1, a2))
    top = tuple(map(add, mid, a1))
    height = (1,) * l

    def product_formula(a, factors_for):
        """prod_j (commutator word for gamma_j) == prod_j x_{gamma_j}(Z^k v_j)
        over the fiber of a; returns the per-root witness lines."""
        fiber = rrs.fiber(a)
        reg = VarRegistry(["Z"] + ["v%d" % j for j in range(len(fiber))])
        word, wit = [], []
        for j, gamma in enumerate(fiber):
            factors, line = factors_for(reg, j, gamma)
            word += factors
            wit.append(line)
        lhs = product_of_root_elements(cb, reg, word, height)
        rhs_factors = [(gamma, reg.var("Z", k) * reg.var("v%d" % j))
                       for j, gamma in enumerate(fiber)]
        rhs = product_of_root_elements(cb, reg, rhs_factors, height)
        require(lhs == rhs, "product of commutators differs from the target")
        return wit

    def unit_commutator(reg, j, gamma, pair):
        # [x_alpha(n Z v_j), x_beta(Z^{k-1})] for a unit pair (alpha, beta, n)
        alpha, beta, n = pair
        Z, vj = reg.var("Z"), reg.var("v%d" % j)
        return (commutator_factors([(alpha, (Z * vj).scale(n))],
                                   [(beta, reg.var("Z", k - 1))]),
                "%s: [x_%s(%+dZ v%d), x_%s(Z^%d)]"
                % (root_str(gamma), root_str(alpha), n, j, root_str(beta), k - 1))

    # short root A = A1+A2: per-fiber clean commutators
    def short_factors(reg, j, gamma):
        got = unit_split(cb, gamma, rrs.fiber(a1), rrs.fiber(a2), clean=True)
        require(got, "no unit clean pair for %s", gamma)
        return unit_commutator(reg, j, gamma, got)

    # long root A = 2A1+A2 (the source text calls this root C; read as A)
    def long_factors(reg, j, gamma):
        if gamma not in rs.long_roots:
            # reachable from the A1 x (A1+A2) commutator: single-slot cone
            got = unit_split(cb, gamma, rrs.fiber(a1), rrs.fiber(mid))
            require(got, "no unit pair for short %s", gamma)
            return unit_commutator(reg, j, gamma, got)
        # long gamma = 2 alpha + beta: the (2,1) slot of an A1 x A2
        # commutator, its (1,1) byproduct cancelled by a clean A1 x A2 pair
        fibers = (rrs.fiber(a1), rrs.fiber(a2))
        word, (alpha, beta, c21, byproduct) = _cancelled_chain(
            cb, reg, k, reg.var("v%d" % j), gamma, fibers, fibers)
        return word, ("%s: [x_%s(Z), x_%s(%+dZ^%d v%d)] cancelled on %s"
                      % (root_str(gamma), root_str(alpha), root_str(beta), c21, k - 2, j,
                         root_str(byproduct)))

    return [
        run_case("clc2/C%d/short/k=%d" % (l, k), spec_str,
                 lambda: product_formula(mid, short_factors),
                 {"k": k, "root": "A1+A2"}),
        run_case("clc2/C%d/long/k=%d" % (l, k), spec_str,
                 lambda: product_formula(top, long_factors),
                 {"k": k, "root": "2A1+A2",
                  "note": "source text writes C=2A1+A2 for this root; read as A"}),
    ]
