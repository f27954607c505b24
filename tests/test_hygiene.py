"""Import hygiene: no unused imports, no undeclared third-party modules.

Both checks read the AST of every module under ``src/`` and ``tests/``.  An
import counts as used when its bound name appears anywhere in the module as
a name (attribute chains start with one).  Package ``__init__.py`` files are
exempt from the unused check, since their imports are the re-exports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "shadowlab"


def _modules(*dirs):
    return sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))


def _bindings(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused_imports(source):
    """(name, line) of every import whose name the module never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in _bindings(tree) if name not in used]


def _absolute_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _declared_dependencies():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower().replace("-", "_")
            for d in deps}


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _modules("src", "tests") if path.name != "__init__.py"
             for name, line in _unused_imports(path.read_text())]
    assert found == []


def test_third_party_imports_under_src_are_declared():
    declared = _declared_dependencies()
    undeclared = set()
    for path in _modules("src"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for root in _absolute_roots(tree):
            if root != PACKAGE and root not in sys.stdlib_module_names \
                    and root not in declared:
                undeclared.add(f"{path.relative_to(ROOT)}: {root}")
    assert sorted(undeclared) == []


def test_the_checks_see_what_they_should():
    probe = ("from __future__ import annotations\nimport os\n"
             "import numpy as np\nfrom typing import Optional\n"
             "from .b import c\nimport x.y\n\n"
             "def f() -> Optional[int]:\n    import json\n"
             "    return np.zeros(x.y.n)\n")
    assert _unused_imports(probe) == [("os", 2), ("c", 5), ("json", 9)]
    assert sorted(_absolute_roots(ast.parse(probe))) \
        == ["__future__", "json", "numpy", "os", "typing", "x"]
