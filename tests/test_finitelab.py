import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import relroots
from relroots import finitelab
from relroots.chevalley import build_chevalley_basis
from relroots.finitelab import (
    CapExceeded,
    GroupClosure,
    _check_one_parameter_law,
    _enumerated_index,
    _extend,
    _exponents,
    _columns,
    _identity_group,
    _inverse,
    _key_dtype,
    _matmul_bound,
    _root_powers,
    _sum_dtype,
    _times,
    adjoint_generators,
    adjoint_order,
    check_witnesses,
    derived_subgroup,
    derived_subgroup_index,
    find_witnesses,
    format_report,
    generate_elementary_group,
    perfect_by_witness,
    perfectness_report,
)
from relroots.rootcore import RootType, VerificationError, build_root_system

from lie_oracles import DEGREES, all_types


def oracle_key(a, p):
    return np.asarray(a, dtype=np.int64).astype(np.min_scalar_type(p - 1)).tobytes()


def bfs_closure(seed_arrays, gen_arrays, p, cap):
    """Oracle: byte-keyed BFS closure of the seeds under right-multiplication,
    one lookup per element times generator."""
    dim = gen_arrays[0].shape[0]
    gens = np.stack(gen_arrays)
    elements = {}
    frontier = []
    for a in seed_arrays:
        k = oracle_key(a, p)
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
                k = oracle_key(a, p)
                if k not in elements:
                    a = a.copy()
                    elements[k] = a
                    frontier.append(a)
            if len(elements) > cap:
                raise CapExceeded("closure exceeded cap %d" % cap)
    return elements


def all_root_elements(t, p):
    """Oracle generators: every x_alpha(c), c in F_p^*, summed term by term."""
    cb = build_chevalley_basis(build_root_system(t))
    out = []
    for root in cb.rs.roots:
        for c in range(1, p):
            mat = np.eye(cb.dim, dtype=np.int64)
            for k, power in enumerate(cb.exp_ad_powers(root), 1):
                for j, col in power.items():
                    for i, v in col.items():
                        mat[i, j] = (mat[i, j] + pow(c, k, p) * v) % p
            out.append(mat)
    return out


def bfs_derived_subgroup(gen_arrays, p, cap):
    """Oracle: BFS closure of the generator commutators, re-run from scratch
    until conjugation by every generator stays inside."""
    dim = gen_arrays[0].shape[0]
    inv = [_inverse(a, p) for a in gen_arrays]
    seeds = {}
    for a, ai in zip(gen_arrays, inv):
        for b, bi in zip(gen_arrays, inv):
            comm = (((a @ b) % p @ ai) % p @ bi) % p
            seeds.setdefault(oracle_key(comm, p), comm)
    seed_arrays = list(seeds.values())
    elements = bfs_closure([np.eye(dim, dtype=np.int64)], seed_arrays, p, cap)
    while True:
        new = []
        for m, mi in zip(gen_arrays, inv):
            for a in seed_arrays:
                conj = ((m @ a) % p @ mi) % p
                if oracle_key(conj, p) not in elements:
                    new.append(conj)
        if not new:
            return elements
        seed_arrays.extend(new)
        elements = bfs_closure(list(elements.values()) + new, seed_arrays, p,
                               cap)


@pytest.fixture(scope="module")
def a2_mod2():
    return generate_elementary_group(RootType.parse("A2"), 2)


@pytest.fixture(scope="module")
def c2_mod2():
    return generate_elementary_group(RootType.parse("C2"), 2)


def test_a2_mod2_perfect(a2_mod2):
    assert a2_mod2.order == 168
    assert derived_subgroup_index(a2_mod2) == 1


def test_c2_mod2_not_perfect(c2_mod2):
    assert c2_mod2.order == 720
    assert derived_subgroup_index(c2_mod2) == 2


def test_g2_mod2_not_perfect():
    g = generate_elementary_group(RootType.parse("G2"), 2)
    assert g.order == 12096
    assert derived_subgroup_index(g) == 2


def test_c2_mod3_perfect():
    g = generate_elementary_group(RootType.parse("C2"), 3)
    assert g.order == 25920
    assert derived_subgroup_index(g) == 1


def test_abelian_group_index_equals_order(monkeypatch):
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    elements = _identity_group(2, 5)
    _extend(elements, [], m, 5, cap=10)
    g = GroupClosure(elements, [m], 5, 2)
    assert g.order == 5
    assert g.root_type is None  # hand-built: no witness search, enumeration

    def no_search(*args):
        raise AssertionError("witness search on a hand-built group")

    monkeypatch.setattr(finitelab, "perfect_by_witness", no_search)
    assert derived_subgroup_index(g) == 5


# acceptance test 7's four groups and the other two benchmark groups:
# (order, derived index)
SIX_GROUPS = {
    ("A2", 2): (168, 1),
    ("C2", 2): (720, 2),
    ("G2", 2): (12096, 2),
    ("C2", 3): (25920, 1),
    ("A3", 2): (20160, 1),
    ("A2", 3): (5616, 1),
}


@pytest.fixture(scope="module")
def six_groups():
    return {key: generate_elementary_group(RootType.parse(key[0]), key[1])
            for key in SIX_GROUPS}


@pytest.mark.parametrize("key", sorted(SIX_GROUPS))
def test_witness_route_agrees_with_enumeration(six_groups, key):
    name, p = key
    t = RootType.parse(name)
    g = six_groups[key]
    order, index = SIX_GROUPS[key]
    assert g.root_type == t and g.order == order == adjoint_order(t, p)
    assert _enumerated_index(g) == index
    resolved = check_witnesses(t, p, find_witnesses(t, p))
    n_roots = len(build_root_system(t).roots)
    # perfect groups are proved so by witnesses; for C2 and G2 over F_2 the
    # search stops short (a failed search proves nothing either way)
    assert (len(resolved) == n_roots) == (index == 1)
    assert len(resolved) == {("C2", 2): 0, ("G2", 2): 6}.get(key, n_roots)
    assert derived_subgroup_index(g) == index


@pytest.mark.parametrize("key", sorted(SIX_GROUPS))
def test_closure_keys_match_bfs_oracle(six_groups, key):
    # Dimino by column-kernel cosets against the BFS oracle, which multiplies
    # every x_alpha(c) in int64 and keys each product on its own
    name, p = key
    g = six_groups[key]
    elements = bfs_closure([np.eye(g.dim, dtype=np.int64)],
                           all_root_elements(RootType.parse(name), p), p,
                           cap=g.order)
    assert set(g.elements) == set(elements)


# (n, p) on both sides of each accumulator boundary: n (p - 1)^2 is
# 240 | 256, 57,132 | 65,712 and 4,293,326,700 | 4,296,959,148
ACCUMULATORS = [(15, 5, np.uint8), (16, 5, np.uint16), (3, 139, np.uint16),
                (3, 149, np.uint32), (3, 37831, np.uint32), (3, 37847, np.uint64)]


@pytest.mark.parametrize("n,p,dtype", ACCUMULATORS)
def test_times_agrees_with_int64_matmul(n, p, dtype):
    assert _sum_dtype(n, p) == dtype
    rng = np.random.default_rng(n * p)
    zero_column = rng.integers(0, p, (n, n))
    zero_column[:, n // 2] = 0
    rights = [rng.integers(0, p, (n, n)), np.full((n, n), p - 1),
              np.eye(n, dtype=np.int64), zero_column]
    for stack in (rng.integers(0, p, (5, n, n)), np.full((4, n, n), p - 1),
                  rng.integers(0, p, (1, n, n))):
        for r in rights:
            got = _times(_columns(stack), r, p)
            assert got.dtype == dtype
            assert np.array_equal(got, _columns(stack @ r % p))
    # every sum reaches n (p - 1)^2, the largest value the dtype must hold
    full = np.full((1, n, n), p - 1)
    assert np.iinfo(dtype).max >= n * (p - 1) ** 2
    assert np.array_equal(_times(_columns(full), np.full((n, n), p - 1), p),
                          np.full((n, n), n * (p - 1) ** 2 % p))


@pytest.mark.parametrize("key", sorted(SIX_GROUPS))
def test_order_at_least_p_to_the_2n(six_groups, key):
    # the bound behind the cap early-out: U- U+ has p^(2N) distinct elements
    name, p = key
    n_pos = len(build_root_system(RootType.parse(name)).roots) // 2
    assert six_groups[key].order >= p ** (2 * n_pos)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_order_formula_matches_the_closure_rank_one(p):
    t = RootType.parse("A1")
    assert adjoint_order(t, p) == generate_elementary_group(t, p).order


def test_exponents_from_heights_match_the_degrees():
    types = list(all_types(8))
    assert len(types) == 8 + 7 + 7 + 6 + 3 + 1 + 1
    for t in types:
        degrees = sorted(DEGREES[t.series](t.rank))
        assert sorted(m + 1 for m in _exponents(t)) == degrees, t


def test_perturbed_order_formula_is_a_fail_row(monkeypatch):
    real = finitelab.adjoint_order
    monkeypatch.setattr(finitelab, "adjoint_order", lambda t, p: real(t, p) + 1)
    row, = perfectness_report([(RootType.parse("C2"), 2)])
    assert (row["route"], row["status"]) == ("enumeration", "fail")
    assert row["note"] == "fail: closure order 720 is not the order formula's 721"


def test_witness_rows_build_no_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("closure built for a witness row")

    monkeypatch.setattr(finitelab, "generate_elementary_group", no_closure)
    rows = perfectness_report([(RootType.parse(name), p)
                               for name, p in (("A2", 2), ("C2", 3), ("B3", 2))])
    assert [(r["route"], r["status"], r.get("order")) for r in rows] == [
        ("witness", "pass", 168), ("witness", "pass", 25920),
        ("witness", "pass", None)]  # B3/F_2 has 1,451,520 > 10^6 elements
    lines = format_report(rows).splitlines()
    assert lines[1].split()[:5] == ["A2", "2", "witness", "168", "1"]
    assert lines[2].split()[:5] == ["C2", "3", "witness", "25920", "1"]
    assert lines[3].split()[:5] == ["B3", "2", "witness", "-", "1"]


@pytest.mark.parametrize("name,p", [("A2", 1), ("A2", 4), ("C2", 9)])
def test_composite_modulus_is_rejected(name, p):
    t = RootType.parse(name)
    with pytest.raises(ValueError, match="not prime"):
        perfect_by_witness(t, p)
    with pytest.raises(ValueError, match="not prime"):
        generate_elementary_group(t, p)


def test_rank_one_has_no_witness():
    assert find_witnesses(RootType.parse("A1"), 5) == []
    g = generate_elementary_group(RootType.parse("A1"), 5)
    assert derived_subgroup_index(g) == 1  # SL2(F_5) / center, by enumeration


def test_witness_tables_are_read_once_per_pair(monkeypatch):
    calls = []
    real = finitelab.commutator_constants

    def spy(cb, beta, gamma):
        calls.append((beta, gamma))
        return real(cb, beta, gamma)

    monkeypatch.setattr(finitelab, "commutator_constants", spy)
    witnesses = find_witnesses(RootType.parse("C3"), 2)  # three rounds
    assert len(witnesses) == 18
    assert len(calls) == len(set(calls))


def corrupt(witnesses, p, how):
    """(position, witness) of the first witness that can be corrupted:
    C_ij + 1 on its own entry (still nonzero mod p), or its first other
    factor that is nonzero mod p dropped."""
    for k, w in enumerate(witnesses):
        others = [kl for kl, c in w.table.items() if kl != w.ij and c % p]
        if how == "constant" and (w.table[w.ij] + 1) % p:
            return k, replace(w, table={**w.table, w.ij: w.table[w.ij] + 1})
        if how == "dropped" and others:
            return k, replace(w, table={kl: c for kl, c in w.table.items()
                                        if kl != others[0]})
    raise AssertionError("no witness to corrupt")


@pytest.mark.parametrize("how", ["constant", "dropped"])
def test_corrupted_witness_fails_the_recheck(how):
    t, p = RootType.parse("C2"), 3
    witnesses = find_witnesses(t, p)
    k, bad = corrupt(witnesses, p, how)
    witnesses[k] = bad
    with pytest.raises(VerificationError, match="not the product of its table"):
        check_witnesses(t, p, witnesses)


def test_witness_out_of_order_fails_the_recheck():
    t, p = RootType.parse("C3"), 2
    witnesses = find_witnesses(t, p)
    with pytest.raises(VerificationError, match="not resolved before it"):
        check_witnesses(t, p, witnesses[::-1])


# lists of A2 witnesses over F_3 that pass every check but the one on the
# root each witness names: its factors and its matrices are right
WRONG_ROOT = {
    "repeated": "ws[:1] + ws[:1]",
    "not-a-combination": "[replace(ws[0], root=ws[1].root)]",
}
WRONG_ROOT_CHILD = """
from dataclasses import replace
from relroots.finitelab import check_witnesses, find_witnesses
from relroots.rootcore import RootType
t, p = RootType.parse("A2"), 3
ws = find_witnesses(t, p)
check_witnesses(t, p, %s)
"""


@pytest.mark.parametrize("how", sorted(WRONG_ROOT))
def test_witness_for_a_wrong_root_fails_under_optimized_mode(how):
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_ROOT_CHILD % WRONG_ROOT[how]],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "VerificationError: witness for" in proc.stderr and " with constant " in proc.stderr


@pytest.mark.parametrize("how", ["constant", "dropped"])
def test_corrupted_witness_is_a_fail_row(monkeypatch, how):
    t, p = RootType.parse("C2"), 3
    _, bad = corrupt(find_witnesses(t, p), p, how)
    real = finitelab.commutator_constants

    def corrupted(cb, beta, gamma):
        if (beta, gamma) == (bad.beta, bad.gamma):
            return bad.table
        return real(cb, beta, gamma)

    monkeypatch.setattr(finitelab, "commutator_constants", corrupted)
    row, = perfectness_report([(t, p)])
    assert row["status"] == "fail"
    assert row["note"].startswith("fail: witness for")
    assert "fail: witness for" in format_report([row])


def test_witness_route_checks_the_one_parameter_law(monkeypatch):
    real = finitelab._root_powers

    def broken(cb, coords, p):
        powers = real(cb, coords, p)
        powers[2] = (powers[2] + powers[1]) % p
        return powers

    monkeypatch.setattr(finitelab, "_root_powers", broken)
    with pytest.raises(VerificationError, match="one-parameter law"):
        perfect_by_witness(RootType.parse("A2"), 5)


def test_law_check_hands_back_every_requested_element():
    # the x(c) the F4 law check hands back over F_101 are sum c^k N_k mod p
    cb = build_chevalley_basis(build_root_system(RootType.parse("F4")))
    p = 101
    powers = _root_powers(cb, cb.rs.roots[0], p)
    kept = _check_one_parameter_law(powers, p, range(p))
    assert sorted(kept) == list(range(p))
    for c, x in kept.items():
        expected = sum(pow(c, k, p) * n.astype(np.int64) for k, n in enumerate(powers)) % p
        assert x.dtype == powers.dtype and np.array_equal(x, expected), c
    assert _check_one_parameter_law(powers, p) == {}


@pytest.mark.parametrize("name", ["A2", "G2"])
def test_law_check_takes_as_many_products_at_every_prime(name, monkeypatch):
    # the check multiplies the divided powers N_i N_j, not x(a) for every a
    # in F_p: one product per power, at p = 5 as at p = 1000003
    cb = build_chevalley_basis(build_root_system(RootType.parse(name)))
    real, calls = finitelab._times, []

    def counted(cols, r, p):
        calls.append(p)
        return real(cols, r, p)

    monkeypatch.setattr(finitelab, "_times", counted)
    counts = []
    for p in (5, 1000003):
        calls.clear()
        for root in cb.rs.roots:
            _check_one_parameter_law(_root_powers(cb, root, p), p)
        counts.append(len(calls))
    assert counts[0] == counts[1] == sum(len(cb.exp_ad_powers(r)) for r in cb.rs.roots)


def test_closure_idempotent(a2_mod2):
    # the BFS oracle run on every element adds nothing
    again = bfs_closure(list(a2_mod2.elements.values()),
                        a2_mod2.generators, 2,
                        cap=2 * a2_mod2.order + 1)
    assert set(again) == set(a2_mod2.elements)


@pytest.mark.parametrize("name,p", [("A2", 2), ("C2", 2), ("A2", 3), ("A1", 5)])
def test_dimino_matches_bfs_oracle(name, p):
    t = RootType.parse(name)
    g = generate_elementary_group(t, p)
    gens = all_root_elements(t, p)
    elements = bfs_closure([np.eye(g.dim, dtype=np.int64)], gens, p, cap=10 ** 5)
    assert set(g.elements) == set(elements)
    assert set(derived_subgroup(g)) == set(bfs_derived_subgroup(gens, p, 10 ** 5))


def test_fq_matrix_inverse(a2_mod2):
    for arr in list(a2_mod2.elements.values())[:20]:
        m = arr.astype(np.int64)
        prod = m @ _inverse(m, 2) % 2
        assert np.array_equal(prod, np.eye(a2_mod2.dim, dtype=np.int64))


def test_generator_dedup_and_membership(a2_mod2):
    gens = adjoint_generators(RootType.parse("A2"), 2)
    assert len({oracle_key(g, 2) for g in gens}) == len(gens)
    for g in gens:
        assert oracle_key(g, 2) in a2_mod2.elements


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        generate_elementary_group(RootType.parse("A3"), 3, cap=100)


def test_report_catalog(a2_mod2):
    rows = perfectness_report([
        (RootType.parse("A2"), 2),
        (RootType.parse("C2"), 2),
        (RootType.parse("A1"), 2),
        (RootType.parse("B3"), 2),
    ], cap=10 ** 5)
    # G2/F_2 has no witness route and 2^12 <= 1000 < 12096: the closure is
    # grown and stops at the cap
    rows += perfectness_report([(RootType.parse("G2"), 2)], cap=1000)
    by_type = {(r["type"], r["p"]): r for r in rows}
    assert by_type[("A2", 2)]["verdict"] == "matches prediction"
    assert by_type[("A2", 2)]["route"] == "witness"
    assert by_type[("A2", 2)]["order"] == 168
    assert by_type[("C2", 2)]["derived_index"] == 2
    assert by_type[("C2", 2)]["verdict"] == "matches prediction"
    assert by_type[("C2", 2)]["route"] == "enumeration"
    assert by_type[("A1", 2)]["verdict"].startswith("out-of-hypothesis")
    # 2^18 > 10^5: witnessed perfect, the closure skipped for the order
    b3 = by_type[("B3", 2)]
    assert (b3["route"], b3["derived_index"], b3["verdict"]) == (
        "witness", 1, "matches prediction")
    assert "order" not in b3
    g2 = by_type[("G2", 2)]
    assert (g2["route"], g2["note"]) == ("enumeration", "skipped: cap")
    text = format_report(rows)
    assert "skipped: cap" in text and "matches prediction" in text
    assert text.splitlines()[0].split() == ["type", "p", "route", "order", "index",
                                            "verdict"]
    assert text.splitlines()[4].split()[:5] == ["B3", "2", "witness", "-", "1"]


def test_keys_distinguish_residues_above_255():
    def key(a):
        return np.array(a, dtype=np.int64).astype(_key_dtype(257)).tobytes()

    assert key([[256]]) != key([[0]])
    elements = _identity_group(1, 257)
    _extend(elements, [], np.array([[256]], dtype=np.int64), 257, cap=10)
    assert set(elements) == {key([[1]]), key([[256]])}


def test_unipotent_closure_over_f257():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    elements = _identity_group(2, 257)
    _extend(elements, [], m, 257, cap=1000)
    assert len(elements) == 257


def test_cap_boundary_c2_f2(monkeypatch):
    sizes = []

    def spy(elements, *args):
        try:
            return _extend(elements, *args)
        finally:
            sizes.append(len(elements))

    monkeypatch.setattr(finitelab, "_extend", spy)
    assert generate_elementary_group(RootType.parse("C2"), 2, cap=720).order == 720
    assert max(sizes) == 720
    sizes.clear()
    with pytest.raises(CapExceeded):
        generate_elementary_group(RootType.parse("C2"), 2, cap=719)
    assert sizes and max(sizes) <= 719


def test_one_generator_per_root():
    t = RootType.parse("A2")
    gens = adjoint_generators(t, 3)
    assert len(gens) == len(build_root_system(t).roots)
    x1 = {oracle_key(a, 3) for a in all_root_elements(t, 3)[::2]}  # c = 1
    assert {oracle_key(m, 3) for m in gens} == x1


def test_one_parameter_law_violation_raises(monkeypatch):
    real = finitelab._root_powers

    def broken(cb, coords, p):
        powers = real(cb, coords, p)
        if len(powers) > 2:  # perturb (ad e)^2 / 2: x(a) x(1) != x(a + 1)
            powers[2] = (powers[2] + powers[1]) % p
        else:
            powers[1] = (2 * powers[1]) % p
        return powers

    monkeypatch.setattr(finitelab, "_root_powers", broken)
    with pytest.raises(VerificationError):
        adjoint_generators(RootType.parse("A1"), 211)


def test_p_over_cap_raises_before_building(monkeypatch):
    def fail(*args):
        raise AssertionError("generators built")

    monkeypatch.setattr(finitelab, "adjoint_generators", fail)
    with pytest.raises(CapExceeded):
        generate_elementary_group(RootType.parse("A1"), 100003, cap=1000)


def test_cap_early_out_at_p_to_the_2n(monkeypatch):
    built = []
    real = finitelab.adjoint_generators

    def spy(t, p):
        built.append(t)
        return real(t, p)

    monkeypatch.setattr(finitelab, "adjoint_generators", spy)
    a2 = RootType.parse("A2")
    with pytest.raises(CapExceeded, match=r"p\^\(2N\)"):
        generate_elementary_group(a2, 2, cap=2 ** 6 - 1)
    assert built == []
    with pytest.raises(CapExceeded):  # 2^6 <= cap < 168: grown, then stopped
        generate_elementary_group(a2, 2, cap=2 ** 6)
    assert built == [a2]
    built.clear()
    with pytest.raises(CapExceeded):  # 2^72 elements at least
        generate_elementary_group(RootType.parse("E6"), 2)
    assert built == []


def test_fq_matrix_rejects_int64_overflow():
    # 3 (p - 1)^2 >= 2^63 > 2 (p - 1)^2 for p = 2^31 - 1
    _matmul_bound(2, 2 ** 31 - 1)
    with pytest.raises(ValueError, match="overflow int64"):
        _matmul_bound(3, 2 ** 31 - 1)


WRONG_ORDER = """
import numpy as np
from relroots.finitelab import GroupClosure, _extend, _identity_group, \
    derived_subgroup_index
# S3 as permutation matrices over F_5; its derived subgroup A3 has order 3
gens = [np.array(m, dtype=np.int64) for m in
        ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
elements = _identity_group(3, 5)
for m in gens:
    _extend(elements, [], m, 5, cap=6)
elements.popitem()  # claims order 5
derived_subgroup_index(GroupClosure(elements, gens, 5, 3))
"""


def test_divisibility_check_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_ORDER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "VerificationError: subgroup order 3 does not divide" in proc.stderr


WRONG_KERNEL = """
import numpy as np
from relroots import finitelab
from relroots.rootcore import RootType
real = finitelab._times

def dropped(cols, r, p):
    # drop the last nonzero of r on a stack of one matrix: every product of
    # the witness re-check and a closure's first coset, but no one-parameter
    # law check, whose stack holds p matrices and would catch it first
    if cols.shape[1] == len(cols):
        r = r.copy()
        r.flat[np.flatnonzero(r)[-1]] = 0
    return real(cols, r, p)

finitelab._times = dropped
rows = finitelab.perfectness_report([(RootType.parse(t), 2) for t in ("C2", "A3")])
for row in rows:
    print(row["status"], row["note"])
"""


def test_wrong_kernel_is_a_fail_row_in_optimized_mode():
    src = os.path.dirname(os.path.dirname(relroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_KERNEL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    c2, a3 = proc.stdout.splitlines()
    assert c2.startswith("fail fail: closure order ")
    assert c2.endswith(" is not the order formula's 720")
    assert a3.startswith("fail fail: witness for ")
    assert a3.endswith("is not the product of its table mod 2")
