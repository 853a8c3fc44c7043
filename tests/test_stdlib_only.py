"""The package is stdlib-only at run time: every absolute import in
``src/strongcolor`` names a standard-library module (Python >= 3.10,
where ``sys.stdlib_module_names`` exists)."""

import ast
import sys
from pathlib import Path

import strongcolor

PACKAGE_DIR = Path(strongcolor.__file__).resolve().parent


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) >= 10
    outside = {
        (path.name, name)
        for path in sources
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert outside == set()
