"""Every name a ``wrep`` module imports is read in that module: an import
left behind when its last use goes fails here.  ``__init__`` is left out,
since it imports to re-export."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wrep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "import os\nfrom math import gcd, lcm\nimport os.path as osp\nprint(lcm(2, 3))\n"
    assert unread_imports(source) == ["os", "gcd", "osp"]
