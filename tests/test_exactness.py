"""The package computes without floating point: no float or complex
literal, and no use of the names float or complex, in any module."""

import ast
from pathlib import Path

import chiral

FORBIDDEN_NAMES = {"float", "complex"}


def inexact_nodes(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            yield node.lineno, node.id


def test_no_float_or_complex_in_the_package():
    modules = sorted(Path(chiral.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = ["%s:%d: %s" % (path.name, line, what)
             for path in modules
             for line, what in inexact_nodes(path.read_text())]
    assert found == []


def test_the_walk_sees_literals_and_names():
    assert sorted(inexact_nodes(
        "x = 0.5\ny = 2j\nz = float(1)\nw = complex\n")) == [
        (1, "0.5"), (2, "2j"), (3, "float"), (4, "complex")]
