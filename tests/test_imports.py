"""Every name a module or test file imports is read by that file, unless
its line says `# noqa: F401` (a deliberate re-export), every top-level
function or class of the package is read by some package module or
exported by `chiral/__init__`, and every public method of a package
class is read by some package module, so no test-only code lives in
`src`."""

import ast
import os
import subprocess
import sys
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


def _reads(node, own):
    """The names node reads, by name or as an attribute, other than own."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        else:
            continue
        if name not in own:
            yield name


def unread_definitions(sources, exported):
    """(module, name) of every top-level def or class in sources (module
    -> source), and (module, "Class.method") of every public method of
    such a class, that no module reads, by name or as an attribute,
    outside its own body, and that is not in exported.  A method is
    read by its bare name: exporting its class does not export it."""
    defined = []  # (module, name as shown, name as read)
    read = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                read.update(_reads(node, ()))
                continue
            defined.append((module, node.name, node.name))
            if not isinstance(node, ast.ClassDef):
                read.update(_reads(node, (node.name,)))
                continue
            for part in (*node.decorator_list, *node.bases, *node.body):
                own = (node.name,)
                if (isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not part.name.startswith("_")):
                    own += (part.name,)
                    defined.append((module, "%s.%s" % (node.name, part.name),
                                    part.name))
                read.update(_reads(part, own))
    return sorted((module, shown) for module, shown, name in defined
                  if name not in read and shown not in exported)


def test_every_import_is_read():
    # the package's modules and the test files
    modules = sorted(p for p in Path(chiral.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) >= 9 and len(tests) >= 13
    found = ["%s:%d: %s" % (path.name, line, name)
             for path in modules + tests
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


def test_every_definition_is_read_or_exported():
    package = Path(chiral.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in ast.parse(sources["__init__.py"]).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert unread_definitions(sources, exported) == []


def test_the_walk_sees_unread_definitions():
    sources = {"a.py": ("def used():\n"
                        "    return 1\n"
                        "def recursive(n):\n"
                        "    return recursive(n - 1) if n else used()\n"
                        "class Exported:\n"
                        "    pass\n"),
               "b.py": ("import a\n"
                        "def dead():\n"
                        "    return a.used()\n")}
    assert unread_definitions(sources, {"Exported"}) == [
        ("a.py", "recursive"), ("b.py", "dead")]


def test_the_walk_sees_unread_public_methods():
    # a method counts as read only by its own name, from outside its own
    # body: neither exporting its class nor a recursive call keeps it
    sources = {"a.py": ("class Exported:\n"
                        "    def used(self):\n"
                        "        return self._private()\n"
                        "    def _private(self):\n"
                        "        return 1\n"
                        "    def recursive(self, n):\n"
                        "        return self.recursive(n - 1) if n else 0\n"
                        "    @staticmethod\n"
                        "    def unread():\n"
                        "        return Exported()\n"
                        "    alias = used\n"
                        "    def aliased(self):\n"
                        "        return 2\n"
                        "    twice = aliased\n"),
               "b.py": ("from a import Exported\n"
                        "def main():\n"
                        "    return Exported().alias()\n")}
    assert unread_definitions(sources, {"Exported", "main"}) == [
        ("a.py", "Exported.recursive"), ("a.py", "Exported.unread")]


def test_every_name_the_layer_tracer_rebinds_exists():
    # perfbench/layertrace.py times each layer by rebinding the names one
    # layer imported from another; install() fails on a name that is gone.
    # The child writes no bytecode, so perfbench/ is left as it is
    root = Path(__file__).resolve().parent.parent
    src = Path(chiral.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "perfbench"), str(src)]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import layertrace; layertrace.install(layertrace.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
