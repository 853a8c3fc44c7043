"""Every name a package module imports is used: ``ast`` finds each name an
import binds and each name the module loads, and none may be bound only.
``__init__.py`` is exempt, as its imports are the public re-exports, and
so is ``from __future__ import ...``, which binds nothing."""

import ast
from pathlib import Path

import strongcolor

PACKAGE_DIR = Path(strongcolor.__file__).resolve().parent


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - loaded


def test_every_imported_name_is_used():
    sources = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert len(sources) >= 10
    unused = {(path.name, name) for path in sources for name in _unused_imports(path)}
    assert unused == set()


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from os import path, sep\nimport json.decoder\nprint(sep)\n")
    assert _unused_imports(module) == {"path", "json"}
