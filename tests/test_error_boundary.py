"""One error boundary: every failed check is a VerificationError, which
``python -O`` keeps, and ``cli.main`` alone turns errors into exit codes.

An AST scan shows that no module of relroots checks with ``assert`` or
raises a bare ``AssertionError``, and that ``cli`` handles errors only in
``main``, in its two argument parsers and around writing the report.
"""

import ast
import pathlib

import pytest

import relroots
from relroots.chevalley import CollectionError
from relroots.folding import DecompositionError
from relroots.relcalc import CaseHypothesisError
from relroots.rootcore import VerificationError


def _trees():
    src = pathlib.Path(relroots.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _bare_checks(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield "assert", node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield "raise AssertionError", node.lineno


def test_no_check_vanishes_under_optimized_mode():
    found = {"%s:%d: %s" % (module, line, what)
             for module, tree in _trees().items() for what, line in _bare_checks(tree)}
    assert found == set()


def test_the_guard_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\n")
    assert [what for what, _ in _bare_checks(tree)] == [
        "assert", "raise AssertionError", "raise AssertionError"]


@pytest.mark.parametrize("cls", [CollectionError, DecompositionError, CaseHypothesisError])
def test_every_failed_check_is_a_verification_error(cls):
    assert issubclass(cls, VerificationError)


def test_cli_handles_errors_only_at_its_boundary():
    handlers = set()
    for node in ast.walk(_trees()["cli"]):
        if isinstance(node, ast.FunctionDef):
            handlers |= {(node.name, ast.unparse(h.type)) for sub in ast.walk(node)
                         if isinstance(sub, ast.Try) for h in sub.handlers}
    assert handlers == {
        ("_fraction", "(ValueError, ZeroDivisionError)"),
        ("_parse_rel", "ValueError"),
        ("cmd_verify", "OSError"),
        ("main", "VerificationError"),
        ("main", "ValueError"),
    }
