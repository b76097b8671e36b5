"""A relative root is its coordinate tuple everywhere in ``src/relroots``
but at relcalc's entry points.

``relcalc.RelativeRoot`` stays only as the argument type of relcalc's public
functions: the benchmark's tracer reads ``A.coords`` off the arguments of
``compute_relative_commutator_maps``.  So it is a dataclass with the single
field ``coords``, only ``relcalc`` (which defines it) and ``cli`` (which
builds it for relcalc) name it, and ``folding`` and ``theoremlab`` work on
the tuples alone.  The scan is by AST, so docstrings and comments do not
count.
"""

import ast
import dataclasses
import os

import relroots
from relroots.relcalc import RelativeRoot


def _trees():
    src = os.path.dirname(relroots.__file__)
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def _names(tree):
    """Every identifier of ``tree``: names, attributes, imported names and
    the names of definitions."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in n.names)
        elif isinstance(n, (ast.ClassDef, ast.FunctionDef)):
            yield n.name


def test_relative_root_is_named_only_in_relcalc_and_cli():
    trees = _trees()
    assert {m for m, tree in trees.items() if "RelativeRoot" in _names(tree)} == {
        "relcalc", "cli"}
    # and ``RelativeRootSystem.rel_roots``, the old set of wrapped relative
    # roots, is gone
    assert not [n for tree in trees.values() for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr == "rel_roots"]


def test_relative_root_is_a_dataclass_with_the_single_field_coords():
    (cls,) = [n for n in _trees()["relcalc"].body
              if isinstance(n, ast.ClassDef) and n.name == "RelativeRoot"]
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    assert [d.id for d in decorators] == ["dataclass"]
    assert [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)] == ["coords"]
    # and no methods: reports print a relative root's coords by ``root_str``
    assert not [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    assert [f.name for f in dataclasses.fields(RelativeRoot)] == ["coords"]


def test_folding_and_theoremlab_neither_import_nor_build_it():
    trees = _trees()
    for module in ("folding", "theoremlab"):
        tree = trees[module]
        imported = [alias.name.rsplit(".", 1)[-1] for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names]
        assert "RelativeRoot" not in imported, module
        built = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and getattr(n.func, "id", getattr(n.func, "attr", None)) == "RelativeRoot"]
        assert not built, module
