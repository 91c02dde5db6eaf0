"""Import hygiene: every name a module of the package imports is used in it,
every private helper it defines is used somewhere in the package, and the
modules form one chain.

The layering rule: the modules are ordered as ``LAYERS``, and a module
imports a sibling only from earlier in the chain, so there is no import
cycle.  Every import, of a sibling or of any other module, sits at module
top, so none hides inside a function.  ``numeric`` comes first because it
imports no sibling.  The one function-level import is ``cli``'s lazy
``numeric``, which keeps numpy off the cold path; it is named in
``LAZY_IMPORTS``.
"""

import ast
import pathlib

import pytest

import suq2

PACKAGE = pathlib.Path(suq2.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

LAYERS = (
    "numeric",
    "errors",
    "scalars",
    "render",
    "algebra",
    "braided",
    "parser",
    "repcalc",
    "morphisms",
    "checks",
    "cli",
    "__main__",
)
LAZY_IMPORTS = {("cli", "numeric")}

PUBLIC_NAMES = """
AlgMatrix ConfluenceReport Element GenMorphism GradedSpace
Generator NotInvariantError ParseError PoleError Presentation
PresentationMismatchError QUBIT RewriteLimitError RewriteRule Scalar
UnverifiedMorphismError ZeroDivisorError cancellation_witness compose
confluence_check constraint_derivation corep_check delta_su delta_uq2 embed
equal_on_generators free_presentation fundamental_matrix grading_flip
identity_morphism invariant_vector_check iota1 iota2 matrix_apply matrix_embed parse
phi_symmetry q_inverse_iso rep_tensor rho_scale su_to_uq2 suq2_presentation
tensor_morphism torus_presentation twisted_tensor uq2_from_su2_rep uq2_presentation
zpower_matrix
""".split()


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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dead_helpers(sources):
    """The private functions and classes of ``sources`` whose name is never read.

    ``sources`` maps module names to their text.  A definition counts as
    read when its name is read, as a name or an attribute, anywhere in the
    sources; a definition itself is no read, and docstrings never count.
    An override that calls ``super()``'s method of the same name is read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds) and _is_private(node.name) and node.name not in reads
    ]


def _imports(node, in_function=False):
    """``(module, relative?, inside a function?)`` for every import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((a.name.split(".")[0], False, in_function) for a in child.names)
        elif isinstance(child, ast.ImportFrom):
            if child.module:  # from x import ... or from .x import ...
                yield child.module.split(".")[0], bool(child.level), in_function
            else:  # from . import x, y
                yield from ((a.name, True, in_function) for a in child.names)
        nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _imports(child, in_function or nested)


def layering_violations(module, source):
    """One line per import of ``module`` that breaks the layering rule."""
    name = module.removesuffix(".py")
    below = LAYERS[: LAYERS.index(name)]
    out = []
    for imported, relative, in_function in _imports(ast.parse(source)):
        if in_function:
            if (name, imported) not in LAZY_IMPORTS:
                out.append(f"{name} imports {imported} inside a function")
        elif relative and imported not in below:
            out.append(f"{name} imports {imported}, which is not below it")
    return out


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


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == sorted(m.removesuffix(".py") for m in MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_earlier_layers_at_top(module):
    assert layering_violations(module, (PACKAGE / module).read_text()) == []


def test_layering_detector():
    source = (
        "from .errors import PoleError\n"
        "from .morphisms import compose\n"
        "def f():\n"
        "    from .render import render_word\n"
        "    return render_word\n"
    )
    assert layering_violations("algebra.py", source) == [
        "algebra imports morphisms, which is not below it",
        "algebra imports render inside a function",
    ]
    lazy = "def f():\n    from . import numeric\n"
    assert layering_violations("cli.py", lazy) == []
    assert layering_violations("checks.py", lazy) == ["checks imports numeric inside a function"]
    absolute = "import numpy as np\ndef f():\n    import numpy as np\n    from math import inf\n"
    assert layering_violations("cli.py", absolute) == [
        "cli imports numpy inside a function",
        "cli imports math inside a function",
    ]
    assert layering_violations("numeric.py", "from .scalars import Scalar\n") == [
        "numeric imports scalars, which is not below it"
    ]


def test_public_names_are_unchanged():
    assert suq2.__all__ == PUBLIC_NAMES
    assert all(hasattr(suq2, name) for name in PUBLIC_NAMES)


def test_every_private_helper_is_read_in_the_package():
    sources = {module: (PACKAGE / module).read_text() for module in MODULES}
    sources["__init__.py"] = (PACKAGE / "__init__.py").read_text()
    assert dead_helpers(sources) == []


def test_dead_helper_detector():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _named_in_a_docstring():\n"
            "    \"\"\"_named_in_a_docstring\"\"\"\n"
            "class _Box:\n"
            "    def _method(self):\n"
            "        return self._other()\n"
            "    def _other(self):\n"
            "        return 0\n"
            "    def __repr__(self):\n"
            "        return ''\n"
        ),
        "b.py": "from .a import _used\nx = _used()\n_Box()\n",
    }
    assert dead_helpers(sources) == [
        "a.py:_named_in_a_docstring",
        "a.py:_method",
    ]
