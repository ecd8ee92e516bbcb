"""Every name a module imports is read by that module, unless its line
says `# noqa: F401` (a deliberate re-export)."""

import ast
from pathlib import Path

import chiral


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    yield alias.lineno, name


def test_every_import_is_read():
    modules = sorted(p for p in Path(chiral.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) >= 10
    found = ["%s:%d: %s" % (path.name, line, name)
             for path in modules
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_walk_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import (comb,\n"
              "                  factorial)\n"
              "from json import dumps  # noqa: F401 (re-exported)\n"
              "from sys import argv as args\n"
              "def f():\n"
              "    from re import sub\n"
              "    return comb(args, 2)\n")
    assert sorted(unused_imports(source)) == [(2, "os"), (4, "factorial"), (8, "sub")]
