"""Every module in the package imports cleanly and exports what it says."""

import ast
import importlib
import pkgutil
import re
import sys
import tomllib
from pathlib import Path

import pytest

import repro


def _all_modules():
    out = []
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(module.name)
    return sorted(out)


@pytest.mark.parametrize("name", _all_modules())
def test_module_imports(name):
    module = importlib.import_module(name)
    for exported in getattr(module, "__all__", []):
        assert hasattr(module, exported), f"{name}.__all__ lists missing {exported!r}"


def test_package_version():
    assert repro.__version__ == "1.0.0"


def test_every_public_module_has_docstring():
    for name in _all_modules():
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"


def test_third_party_imports_are_declared_dependencies():
    """What ``pyproject.toml`` promises is what runs: every third-party
    package imported anywhere under ``src/repro`` (lazy imports included)
    is a declared dependency."""
    root = Path(repro.__file__).parent
    pyproject = root.parents[1] / "pyproject.toml"
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    }
    imported = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro", "__future__"}
    assert third_party - declared == set()
