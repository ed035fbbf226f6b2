"""fibcat needs nothing beyond the Python standard library, and a fresh
``import fibcat`` loads none of its submodules."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_imports_are_stdlib_only():
    sources = sorted((ROOT / "src" / "fibcat").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "fibcat", \
                    f"{path.name}:{node.lineno} imports {name}"


def test_no_declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE), \
        "pyproject.toml must declare dependencies = []"


def _fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that finds fibcat in src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('fibcat.'))"


def test_import_loads_no_submodule():
    out = _fresh(f"""
import sys
import fibcat
print({LOADED})
fibcat.Theory().constants()
print({LOADED})
""")
    assert out.splitlines() == ["[]", "['fibcat.scalars']"]


def test_every_public_name_is_its_home_modules():
    # each name resolves, on first use, to the object its module defines
    out = _fresh("""
import importlib
import fibcat
for module, names in fibcat._EXPORTS.items():
    home = importlib.import_module(f"fibcat.{module}")
    for name in names:
        assert getattr(fibcat, name) is getattr(home, name), name
        assert name in vars(fibcat), name
print(sorted(fibcat._HOME) == fibcat.__all__)
""")
    assert out == "True\n"


def test_star_import_and_dir_cover_all():
    out = _fresh("""
import fibcat
print(sorted(set(fibcat.__all__) - set(dir(fibcat))))
namespace = {}
exec("from fibcat import *", namespace)
print(sorted(set(fibcat.__all__) - set(namespace)))
print(len(fibcat.__all__) == len(set(fibcat.__all__)))
""")
    assert out.splitlines() == ["[]", "[]", "True"]


def test_unknown_name_raises_and_submodules_import():
    out = _fresh("""
import sys
import fibcat
try:
    fibcat.nonexistent
except AttributeError as exc:
    print(exc)
from fibcat import category
print(category is sys.modules["fibcat.category"])
""")
    assert out.splitlines() == ["module 'fibcat' has no attribute 'nonexistent'", "True"]
