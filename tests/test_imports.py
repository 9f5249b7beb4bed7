"""Every name a ``wrep`` module imports is read in that module: an import
left behind when its last use goes fails here.  ``__init__`` is left out,
since it imports to re-export.

Every function and class the package defines is read by the program or
the benchmark: a definition that only the tests reach fails here, so it
goes, or moves to the tests' own oracles."""

import ast
import re
from pathlib import Path

import pytest

import wrep

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wrep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unread_imports(source):
    """The names bound by the imports of ``source`` that no expression
    reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def _read_names(tree, strings=False):
    """The names ``tree`` reads as a name or an attribute and, with
    ``strings``, the words of its string constants (docstrings included)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(re.findall(r"\w+", node.value))
    return read


def unread_definitions(sources, others=(), exported=()):
    """The functions and classes defined in ``sources`` (a package's
    modules) that none of them reads, that ``others`` (the benchmark's
    modules) reads in no name, attribute or word of a string, and that are
    not ``exported``, in order of definition; double-underscore methods
    are left out, since Python calls them."""
    trees = [ast.parse(source) for source in sources]
    read = set(exported).union(*(_read_names(tree) for tree in trees),
                               *(_read_names(ast.parse(source), True) for source in others))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for tree in trees
            for node in sorted((node for node in ast.walk(tree) if isinstance(node, defs)),
                               key=lambda node: node.lineno)
            if not re.fullmatch(r"__\w+__", node.name) and node.name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "import os\nfrom math import gcd, lcm\nimport os.path as osp\nprint(lcm(2, 3))\n"
    assert unread_imports(source) == ["os", "gcd", "osp"]


def test_every_definition_is_read_by_the_program_or_the_benchmark():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_definitions(sources, [p.read_text() for p in BENCH], wrep.__all__) == []


def test_an_unread_definition_is_found():
    source = (
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def peek(self):\n"
        "        '''Not read by helper() or anyone.'''\n"
        "    def traced(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Box()\n"
        "def api():\n"
        "    pass\n"
        "def main():\n"
        "    pass\n"
        "main()\n"
    )
    bench = "SPANS = ('Box.traced',)\n"
    assert unread_definitions([source]) == ["peek", "traced", "helper", "api"]
    assert unread_definitions([source], [bench], ["api"]) == ["peek", "helper"]
