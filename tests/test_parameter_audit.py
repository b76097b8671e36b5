"""Every parameter with a default in ``src/relroots`` is passed by some call
in ``src/relroots`` or ``perfbench/``, except the ones allowed below, each
with its reason.

A call passes a parameter if it names it as a keyword, reaches its position
with positional arguments, or spreads ``*args`` or ``**kwargs``.  A call is
matched to a definition by name (``f(...)`` or ``x.f(...)``, and ``C(...)``
for ``C.__init__``), so a method's receiver takes no position.
"""

import ast
import os

import relroots

ALLOWED = {
    "check_N11_surjectivity.units":
        "the unit set of R: tests run case (a) with {1, 2} and {7}; "
        "relroots itself only works over a ring whose units are +-1 (see ROADMAP item 6)",
}

SRC = os.path.dirname(relroots.__file__)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench")


def _trees(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield ast.parse(fh.read())


def _defaulted(tree):
    """(qualified name, called name, parameter, positional index or None) of
    each parameter with a default; a method's index does not count its
    receiver (a static method has none), and ``C.__init__`` is called as ``C``."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = owner.get(id(f))
        qualified = f.name if cls is None else "%s.%s" % (cls, f.name)
        called = cls if f.name == "__init__" else f.name
        receiver = cls is not None and not any(
            getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield qualified, called, arg.arg, k - receiver
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield qualified, called, arg.arg, None


def _passes(call, parameter, index):
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def _unpassed():
    src_trees = list(_trees(SRC))
    calls = {}  # called name -> [ast.Call]
    for tree in src_trees + list(_trees(PERFBENCH)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return {"%s.%s" % (qualified, parameter)
            for tree in src_trees for qualified, called, parameter, index in _defaulted(tree)
            if not any(_passes(c, parameter, index) for c in calls.get(called, ()))}


def test_every_defaulted_parameter_is_passed_by_a_caller():
    assert _unpassed() == set(ALLOWED)
