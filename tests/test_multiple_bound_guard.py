"""The bound on the multiples of roots stays in ``rootcore``.

``rootcore.MULTIPLE_BOUND`` and ``MULTIPLE_PAIRS`` rest on a theorem about
root systems: no i*a + j*b with i + j > 5 is a root.  Relative roots have
no such bound (``RelativeRootSystem.multiples`` derives theirs from the
system), so no other module of ``src/relroots`` may name either constant.
The scan is by AST, so docstrings and comments do not count.
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


def test_only_rootcore_names_the_root_multiple_bound():
    src = pathlib.Path(relroots.__file__).parent
    users = {path.stem for path in sorted(src.glob("*.py"))
             if _named(ast.parse(path.read_text()))}
    assert users == {"rootcore"}


def test_the_guard_sees_every_form():
    forms = ["from .rootcore import MULTIPLE_BOUND",
             "from .rootcore import MULTIPLE_PAIRS as pairs",
             "bound = rootcore.MULTIPLE_BOUND",
             "for i, j in MULTIPLE_PAIRS: pass"]
    assert [_named(ast.parse(form)) for form in forms] == [
        {"MULTIPLE_BOUND"}, {"MULTIPLE_PAIRS"}, {"MULTIPLE_BOUND"}, {"MULTIPLE_PAIRS"}]
    assert _named(ast.parse('"""MULTIPLE_BOUND in a docstring"""')) == set()
