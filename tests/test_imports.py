"""Every name a module of the package imports is used in that module, and
importing the CLI loads no more than a serial run needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "concordant"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> dict[str, int]:
    """Imported name -> line of its import, for each name the module never
    reads; `from __future__` binds nothing."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(path)\n")
    assert _unused_imports(tree) == {"math": 1, "sep": 2}


def test_cli_leaves_the_process_machinery_unimported():
    # only a run with more than one worker opens a pool, and it imports
    # multiprocessing then
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    script = "import sys, concordant.cli; sys.exit('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
