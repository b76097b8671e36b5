"""Exact image spans, and no random draw in relroots.

The probe rows of ``relcalc._image_rows`` are values of the maps, so their
span lies in the span of the image; the brute-force oracle enumerates the
whole first argument over F_p and shows the ranks agree, so the spans are
equal.  The maps are linear in the second argument (``_verify_table``), so
its basis stands for all of it.  The hand-made map v -> (v, v^2) needs the
negated-basis probe over Q and F_3 and spans nothing more than the line
(1, 1) over F_2.  The Lemma 3 fiber checks are shown to fire on perturbed
fibers under ``python -O``, and an AST scan shows that no module of
relroots can draw a random number, so every verdict is a function of its
inputs.
"""

import ast
import itertools
import json
import os
import subprocess
import sys

import pytest

import relroots
from relroots.chevalley import build_chevalley_basis
from relroots.folding import build_relative_system, parse_folding_spec
from relroots.polyring import VarRegistry, row_reduce
from relroots.relcalc import (NMapTable, RelativeRoot, _image_rows, _span_verdict,
                              compute_relative_commutator_maps)

SRC = os.path.dirname(relroots.__file__)


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
        image = []
        for values in itertools.product(range(p), repeat=len(fa)):
            u = dict(zip(fa, values))
            for be in fb:
                row = [0] * len(col)
                for i, j in maps:
                    for g, x in table.evaluate(i, j, u, {be: 1}).items():
                        row[col[g]] = x
                image.append(row)
        rank = len(row_reduce(image, len(col), p)[1])
        assert len(row_reduce(_image_rows(table, maps, col), len(col), p)[1]) == rank, maps
        ranks.append(rank)
    # one map alone falls short of V_{A1+A2} + V_{2A1+A2}; the two together fill it
    assert ranks == [4, 3, 7]


def test_square_map_needs_the_negated_basis():
    reg = VarRegistry(["u0", "v0"])
    u, v = reg.var("u0"), reg.var("v0")
    # f(x) = N_11(x, 1), N_21(x, 1) = (x, x^2)
    table = NMapTable(reg, {(1, 0): 0}, {(0, 1): 1},
                      {(1, 1): {(1, 1): u * v}, (2, 1): {(2, 1): u * u * v}})
    rows = _image_rows(table, [(1, 1), (2, 1)], {(1, 1): 0, (2, 1): 1})
    assert rows == [[1, 1], [-1, 1]]
    # over F_2, x^2 = x: the image is the line through (1, 1)
    assert _span_verdict(rows, 2)["fields"] == {
        "Q": "full", "F2": "deficient", "F3": "full", "F5": "full"}
    assert _span_verdict(rows[:1], 2)["fields"]["Q"] == "deficient"


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
