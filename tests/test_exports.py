import ast
import importlib
from pathlib import Path

import pytest

import quadexp

PACKAGE_INIT = Path(quadexp.__file__)


def _package_imports():
    """Module name -> names quadexp/__init__.py imports from it."""
    tree = ast.parse(PACKAGE_INIT.read_text())
    return {
        node.module: {alias.name for alias in node.names}
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


@pytest.mark.parametrize("module", ["model", "measures", "lie", "solvers", "fock"])
def test_package_reexports_each_module_all(module):
    exported = set(importlib.import_module(f"quadexp.{module}").__all__)
    assert _package_imports()[module] == exported
