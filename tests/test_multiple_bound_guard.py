"""No module of ``src/relroots`` bounds multiples by a constant.

``rootcore.multiples`` derives its bounds on i and j from the system it is
given, roots and relative roots alike.  The constants it replaced,
``MULTIPLE_BOUND`` and ``MULTIPLE_PAIRS`` (i + j <= 6), rest on a theorem
about root systems that relative roots break: in the relative system of
F4 with J = {2, 4}, 3*(-3,-2) + 4*(2,1) = (-1,-2) is a relative root.  So
no module may name either constant again.  The scan is by AST, so
docstrings and comments do not count.
"""

import ast
import pathlib

import relroots

CONSTANTS = {"MULTIPLE_BOUND", "MULTIPLE_PAIRS"}


def _named(tree):
    """The names of ``CONSTANTS`` that ``tree`` uses, imports or binds."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {part for alias in node.names
                      for part in (alias.name.rsplit(".", 1)[-1], alias.asname)}
    return found & CONSTANTS


def test_no_module_names_a_multiple_bound():
    src = pathlib.Path(relroots.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert "rootcore" in {path.stem for path in modules}
    users = {path.stem for path in modules if _named(ast.parse(path.read_text()))}
    assert users == set()


def test_the_guard_sees_every_form():
    forms = ["from .rootcore import MULTIPLE_BOUND",
             "from .rootcore import MULTIPLE_PAIRS as pairs",
             "bound = rootcore.MULTIPLE_BOUND",
             "for i, j in MULTIPLE_PAIRS: pass",
             "MULTIPLE_BOUND = 6"]
    assert [_named(ast.parse(form)) for form in forms] == [
        {"MULTIPLE_BOUND"}, {"MULTIPLE_PAIRS"}, {"MULTIPLE_BOUND"}, {"MULTIPLE_PAIRS"},
        {"MULTIPLE_BOUND"}]
    assert _named(ast.parse('"""MULTIPLE_BOUND in a docstring"""')) == set()
