"""Every public function, class and method of ``src/relroots`` has a caller
in ``src/relroots``, except the ones allowed below, each with its reason.

A reference is a name (``f``, or ``module.f``) for a function or class and
an attribute (``x.f``) for a method, anywhere in ``src/relroots`` outside
the definition itself; imports and docstrings do not count.
"""

import ast
import os

import relroots

ALLOWED = {
    "relcalc.check_sum_formula":
        "only tests call it until the sum formula becomes a verify case",
    "finitelab.derived_subgroup_index":
        "the benchmark's finite_boundary workload calls it",
    "chevalley.UnipotentMatrix.cols":
        "the benchmark's tracer reads it",
}


def _unreferenced():
    src = os.path.dirname(relroots.__file__)
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    defs = []  # (module, node, name, qualified name, is a method)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node, node.name, node.name, False))
            if isinstance(node, ast.ClassDef):
                defs += [(module, sub, sub.name, "%s.%s" % (node.name, sub.name), True)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)]
    refs = []  # (module, line, identifier, is an attribute)
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.append((module, n.lineno, n.id, False))
            elif isinstance(n, ast.Attribute):
                refs.append((module, n.lineno, n.attr, True))
    out = set()
    for module, node, name, qualified, method in defs:
        if name.startswith("_"):
            continue
        if not any(ident == name and (attr or not method)
                   and not (where == module and node.lineno <= line <= node.end_lineno)
                   for where, line, ident, attr in refs):
            out.add("%s.%s" % (module, qualified))
    return out


def test_every_public_api_has_a_caller_in_src():
    assert _unreferenced() == set(ALLOWED)
