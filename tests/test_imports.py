"""Import hygiene: every name a module of the package imports is used in it."""

import ast
import pathlib

import pytest

import suq2

PACKAGE = pathlib.Path(suq2.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that ``source`` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import PoleError, ZeroDivisorError as ZDE\n"
        "def f():\n"
        "    from .render import render_word\n"
        "    return np.zeros(1), os.sep, render_word\n"
    )
    assert unused_imports(source) == ["PoleError", "ZDE"]
