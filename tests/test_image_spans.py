"""Exact image spans, and no random draw in relroots.

``relcalc._image_rows`` reads a span off the coefficients of the maps: one
row per monomial, with exponents read by the rule x^p = x over F_p.  The
brute-force oracle evaluates the maps (``eval_oracle.evaluate``) with each
argument of degree > 1 ranging over all of F_p^m, and shows that the ranks
agree.  An argument of degree 1 ranges over its basis, which spans it.  The
hand-made maps x -> (x, x^2) and x -> (x, x^3) pin the exponent rule: the
first is deficient over F_2 only, the second over F_2 and F_3.  The Lemma 3
fiber checks are shown to fire on perturbed fibers under ``python -O``, and
an AST scan shows that no module of relroots can draw a random number, so
every verdict is a function of its inputs.
"""

import ast
import itertools
import json
import os
import subprocess
import sys

import pytest
from eval_oracle import evaluate

import relroots
from relroots.chevalley import build_chevalley_basis
from relroots.folding import build_relative_system, parse_folding_spec
from relroots.polyring import VarRegistry, row_reduce
from relroots.relcalc import (NMapTable, RelativeRoot, _image_rows, _span_verdict,
                              compute_relative_commutator_maps)
from relroots.rootcore import VerificationError

SRC = os.path.dirname(relroots.__file__)


def brute_force_rank(images, p):
    """The rank over F_p of the values of the (table, maps, col) triples of
    ``images``, each argument of degree > 1 over all of F_p^m and each of
    degree 1 over its basis."""
    image, n = [], len(images[0][2])
    for table, maps, col in images:
        args = []
        for index, degree in ((table.u_index, max(i for i, _ in maps)),
                              (table.v_index, max(j for _, j in maps))):
            if degree == 1:
                args.append([{k: 1} for k in index.values()])
            else:
                args.append([dict(zip(index.values(), xs))
                             for xs in itertools.product(range(p), repeat=len(index))])
        for u, v in itertools.product(*args):
            row = [0] * n
            for ij in maps:
                for g, poly in table.entries.get(ij, {}).items():
                    row[col[g]] = evaluate(poly, {**u, **v})
            image.append(row)
    return len(row_reduce(image, n, p)[1])


def rank(images, p):
    return len(row_reduce(_image_rows(images, p), len(images[0][2]), p)[1])


@pytest.fixture(scope="module")
def c4_pair():
    rrs = build_relative_system(parse_folding_spec("C4 levi=2,4"))
    table = compute_relative_commutator_maps(rrs, build_chevalley_basis(rrs.rs),
                                             RelativeRoot((1, 0)), RelativeRoot((0, 1)))
    col = {g: k for k, g in enumerate(rrs.fiber((1, 1)) + rrs.fiber((2, 1)))}
    return rrs.fiber((1, 0)), rrs.fiber((0, 1)), table, col


@pytest.mark.parametrize("p", [2, 3, 5])
def test_probe_rows_span_the_whole_image_over_F_p(c4_pair, p):
    fa, fb, table, col = c4_pair
    assert (len(fa), len(fb), len(col)) == (4, 3, 7)
    ranks = []
    for maps in ([(1, 1)], [(2, 1)], [(1, 1), (2, 1)]):
        images = [(table, maps, col)]
        ranks.append(rank(images, p))
        assert ranks[-1] == brute_force_rank(images, p), maps
    # one map alone falls short of V_{A1+A2} + V_{2A1+A2}; the two together fill it
    assert ranks == [4, 3, 7]


@pytest.fixture(scope="module")
def c3_spanning_tables():
    """The three tables of the lemma2/spanning case, A = (1,1), B = (0,1)."""
    rrs = build_relative_system(parse_folding_spec("C3 levi=1,2"))
    cb = build_chevalley_basis(rrs.rs)
    col = {g: k for k, g in enumerate(rrs.fiber((1, 2)))}
    return [(compute_relative_commutator_maps(rrs, cb, RelativeRoot(a), RelativeRoot(b)),
             maps, col)
            for a, b, maps in (((1, 1), (0, 1), [(1, 1)]), ((1, 0), (0, 2), [(1, 1)]),
                               ((1, 0), (0, 1), [(1, 2)]))]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coefficient_rows_match_brute_force_on_the_spanning_case(c3_spanning_tables, p):
    images = c3_spanning_tables
    assert all(t.entries.get(maps[0]) for t, maps, _ in images)
    for one in images:
        assert rank([one], p) == brute_force_rank([one], p)
    assert rank(images, p) == brute_force_rank(images, p) == len(images[0][2])


def _power_map(k):
    """The table of x -> (N_11(x, 1), N_k1(x, 1)) = (x, x^k)."""
    reg = VarRegistry(["u0", "v0"])
    u, v = reg.var("u0"), reg.var("v0")
    power = v
    for _ in range(k):
        power = power * u
    return NMapTable(reg, {(1, 0): 0}, {(0, 1): 1},
                     {(1, 1): {(1, 1): u * v}, (k, 1): {(k, 1): power}})


@pytest.mark.parametrize("k,deficient", [(2, {"F2"}), (3, {"F2", "F3"})], ids=["square", "cube"])
def test_power_maps_follow_the_exponent_rule(k, deficient):
    table = _power_map(k)
    images = [(table, [(1, 1), (k, 1)], {(1, 1): 0, (k, 1): 1})]
    assert _image_rows(images, None) == [[1, 0], [0, 1]]
    # over F_p, x^k = x when k = 1 mod (p - 1): the image is the line through (1, 1)
    for p in (2, 3, 5):
        assert _image_rows(images, p) == ([[1, 1]] if "F%d" % p in deficient
                                          else [[1, 0], [0, 1]])
        assert rank(images, p) == brute_force_rank(images, p)
    fields = {f: "deficient" if f in deficient else "full" for f in ("F2", "F3", "F5", "Q")}
    with pytest.raises(VerificationError) as info:
        _span_verdict(images, 2)
    assert str(info.value) == "image does not span the target: %s" % fields
    with pytest.raises(VerificationError, match="'Q': 'deficient'"):
        _span_verdict([(table, [(1, 1)], images[0][2])], 2)


def test_images_of_separate_tables_add_up():
    # (x, 0) and (0, y^2) with independent x, y span K^2 over every field,
    # although u v and u^2 v are one function over F_2
    col = {(1, 1): 0, (2, 1): 1}
    images = [(_power_map(2), [(1, 1)], col), (_power_map(2), [(2, 1)], col)]
    for p in (None, 2, 3, 5):
        assert _image_rows(images, p) == [[1, 0], [0, 1]]
    assert _span_verdict(images, 2) == {"F2": "full", "F3": "full", "F5": "full", "Q": "full"}


PERTURBED_FIBERS = """
import json

from relroots.folding import build_relative_system, parse_folding_spec
from relroots.relcalc import _verify_lemma3_fiber_structure
from relroots.rootcore import VerificationError

rrs = build_relative_system(parse_folding_spec("C4 levi=2,4"))
f_mid, f_top = rrs.fiber((1, 1)), rrs.fiber((2, 1))
alpha_l = rrs.rs.simple_roots[-1]  # long, and in the fiber of A2


def outcome(mid, top):
    try:
        _verify_lemma3_fiber_structure(rrs, mid, top)
    except VerificationError as exc:
        return str(exc)
    return "pass"


print(json.dumps({
    "fibers": outcome(f_mid, f_top),
    "short_top": outcome(f_mid, f_top + f_mid[:1]),
    "long_top": outcome(f_mid, f_top + (alpha_l,)),
    "long_mid": outcome(f_mid + (alpha_l,), f_top),
}))
"""


def test_lemma3_fiber_checks_fire_under_optimized_mode():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", PERTURBED_FIBERS],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "fibers": "pass",
        "short_top": "short top root (0,1,1,1) lacks a short+short split",
        "long_top": "long top root (0,0,0,1) is not 2*alpha+beta",
        "long_mid": "middle root (0,0,0,1) is not short",
    }


RANDOM_MODULES = ("random", "secrets", "numpy.random")


def _is_random(name):
    return any(name == m or name.startswith(m + ".") for m in RANDOM_MODULES)


def _random_uses(tree):
    """The random sources a module imports, or reaches as ``numpy.random``."""
    numpy_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or alias.name)
                if _is_random(alias.name):
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            full = [node.module + "." + a.name for a in node.names]
            yield from [node.module] if _is_random(node.module) else filter(_is_random, full)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            yield "%s.random" % node.value.id


def test_no_module_draws_a_random_number():
    uses = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                found = sorted(set(_random_uses(ast.parse(fh.read()))))
            if found:
                uses[name] = found
    assert uses == {}
    # the scan itself sees each form
    assert sorted(set(_random_uses(ast.parse(
        "import random\nfrom secrets import token_hex\nimport numpy as np\n"
        "from numpy import random as r\nx = np.random.default_rng()\n")))) == [
        "np.random", "numpy.random", "random", "secrets"]
