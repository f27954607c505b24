"""Code hygiene: no unused imports, no undeclared third-party modules, no
unused dependency, and no definition that the program never names.

The import checks read the AST of every module under ``src/`` and
``tests/``.  An import counts as used when its bound name appears anywhere
in the module as a name (attribute chains start with one).  Every
``[project] dependencies`` entry must be the root of an absolute import
under ``src/``, so a dependency the code stops using cannot stay declared.  Package
``__init__.py`` files are exempt from the unused check, since their imports
are the re-exports.

The reach check reads ``src/`` and ``perfbench/``: every top-level function
or class and every non-dunder method under ``src/`` must be named, as a name
or an attribute, somewhere outside its own definition.  Imports and tests do
not count, so a definition that only its tests or an export keep alive
fails.  The knob check reads the same sources: every defaulted parameter
of a top-level function or a method under ``src/`` must be passed, by
position or by keyword, in some call under ``src/`` or ``perfbench/`` to
a function, method or class of that name, so a knob that only tests set
fails.  A tracer's ``t.call(name, fn, ...)`` or ``t.timed(name, fn, ...)``
counts as a call of ``fn`` with the arguments that follow it.

The export check reads ``src/shadowlab/__init__.py``: every name it
imports must be used from the top level somewhere in ``tests/``,
``perfbench/`` or the README, as ``shadowlab.<name>`` or in a
``from shadowlab import`` line.  It searches text, since code run in a
fresh interpreter names its imports inside a string.
"""

import ast
import re
import sys
from collections import Counter
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


def _definitions(tree):
    """(qualified name, node) of every top-level function or class and of
    every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item


def _names(tree):
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _unreached(sources, checked):
    """``label: name`` of each definition in the ``checked`` sources that no
    source names outside that definition; ``sources`` maps label to code."""
    trees = {label: ast.parse(code) for label, code in sources.items()}
    named = sum(map(_names, trees.values()), Counter())
    return [f"{label}: {name}" for label in checked
            for name, node in _definitions(trees[label])
            if named[node.name] == _names(node)[node.name]]


def _defaulted(tree):
    """(qualified name, call name, parameter, argument index) of every
    defaulted parameter of a top-level function or a method; the index
    skips ``self`` and is None for a keyword-only parameter, and
    ``__init__`` is called by its class's name."""
    functions = [(node.name, node.name, node, 0) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(f"{cls.name}.{item.name}",
                   cls.name if item.name == "__init__" else item.name, item, 1)
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for item in cls.body if isinstance(item, ast.FunctionDef)]
    for qualified, called, node, skip in functions:
        args = node.args.posonlyargs + node.args.args
        for i in range(len(args) - len(node.args.defaults), len(args)):
            yield qualified, called, args[i].arg, i - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualified, called, arg.arg, None


def _callee(node):
    """The name a call expression's function goes by, or None."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return getattr(node, "id", None) or node.attr
    return None


def _unpassed_defaults(sources, checked):
    """``label: name(parameter)`` of each defaulted parameter in the
    ``checked`` sources that no call in ``sources`` passes; a ``*`` or
    ``**`` argument counts as passing every parameter it could fill.  A
    tracer's ``t.call(name, fn, *args, **kwargs)`` or ``t.timed(...)``
    also counts as a call of ``fn`` with the arguments after ``fn``."""
    trees = {label: ast.parse(code) for label, code in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _callee(node.func) is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positional = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(_callee(node.func), []).append((positional, keywords))
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("call", "timed") and len(node.args) >= 2 \
                    and _callee(node.args[1]) is not None:
                calls.setdefault(_callee(node.args[1]), []).append(
                    (positional - 2, keywords))
    return [f"{label}: {qualified}({param})" for label in checked
            for qualified, called, param, index in _defaulted(trees[label])
            if not any(param in keywords or None in keywords
                       or (index is not None and index < positional)
                       for positional, keywords in calls.get(called, ()))]


def _unused_exports(init_source, text):
    """Names the package ``__init__`` imports that ``text`` never uses from
    the top level."""
    imported = " ".join(re.findall(r"from shadowlab import (\([^)]*\)|.*)", text))
    return [name for name, _ in _bindings(ast.parse(init_source))
            if not re.search(rf"\bshadowlab\.{name}\b", text)
            and not re.search(rf"\b{name}\b", imported)]


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


def _src_import_roots():
    """(module path, absolute import root) for every import under ``src/``."""
    for path in _modules("src"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for root in _absolute_roots(tree):
            yield path.relative_to(ROOT), root


def test_third_party_imports_under_src_are_declared():
    declared = _declared_dependencies()
    undeclared = {f"{path}: {root}" for path, root in _src_import_roots()
                  if root != PACKAGE and root not in sys.stdlib_module_names
                  and root not in declared}
    assert sorted(undeclared) == []


def test_every_declared_dependency_is_imported_under_src():
    imported = {root for _, root in _src_import_roots()}
    assert sorted(_declared_dependencies() - imported) == []


def test_every_src_definition_is_reached_from_src_or_perfbench():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in _modules("src", "perfbench")}
    checked = [label for label in sources if label.startswith("src")]
    assert _unreached(sources, checked) == []


def test_every_defaulted_parameter_is_passed_from_src_or_perfbench():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in _modules("src", "perfbench")}
    checked = [label for label in sources if label.startswith("src")]
    assert _unpassed_defaults(sources, checked) == []


def test_every_top_level_export_is_used_from_the_top_level():
    own = Path(__file__).resolve()
    texts = [path.read_text() for path in _modules("tests", "perfbench")
             if path != own]
    texts.append((ROOT / "README.md").read_text())
    init = ROOT / "src" / PACKAGE / "__init__.py"
    assert _unused_exports(init.read_text(), "\n".join(texts)) == []


def test_the_checks_see_what_they_should():
    probe = ("from __future__ import annotations\nimport os\n"
             "import numpy as np\nfrom typing import Optional\n"
             "from .b import c\nimport x.y\n\n"
             "def f() -> Optional[int]:\n    import json\n"
             "    return np.zeros(x.y.n)\n")
    assert _unused_imports(probe) == [("os", 2), ("c", 5), ("json", 9)]
    assert sorted(_absolute_roots(ast.parse(probe))) \
        == ["__future__", "json", "numpy", "os", "typing", "x"]
    probe = {"a.py": "import b\n\n"
                     "def used():\n    return 1\n\n"
                     "def only_itself(n):\n    return only_itself(n - 1)\n\n"
                     "class Box:\n    def __init__(self):\n        self.v = used()\n\n"
                     "    def read(self):\n        return Box()\n\n"
                     "    def dead(self):\n        return b.read\n",
             "b.py": "from a import only_itself, Box\n\nx = Box().v\n"}
    assert _unreached(probe, ["a.py"]) == ["a.py: only_itself", "a.py: Box.dead"]
    assert _unreached(probe, ["b.py"]) == []
    probe = {"a.py": "def f(x, y=1, *, z=2, w=3):\n    return x\n\n"
                     "class Box:\n    def __init__(self, v, knob=0):\n"
                     "        self.v = v\n\n"
                     "    def read(self, at=None, scale=1):\n        return at\n",
             "b.py": "from a import f, Box\n\nf(1, 2, w=4)\n"
                     "Box(1).read(None)\nf(*[1], **{})\n"}
    assert _unpassed_defaults(probe, ["a.py"]) \
        == ["a.py: Box.__init__(knob)", "a.py: Box.read(scale)"]
    probe["b.py"] = probe["b.py"].replace("f(*[1], **{})", "f(*[1])")
    assert _unpassed_defaults(probe, ["a.py"]) == [
        "a.py: f(z)", "a.py: Box.__init__(knob)", "a.py: Box.read(scale)"]
    probe = {"a.py": "def g(x, y=1, z=2, *, k=0, w=1):\n    return x\n\n"
                     "def h(x, y=1):\n    return x\n\n"
                     "def fill(x, prefix=None):\n    return x\n",
             "b.py": "from a import g, h, fill\n\n"
                     "t.call('s.g', g, 1, 2, k=3)\nt.timed('s.g', g, 1, w=2)\n"
                     "t.call('s.h', h, 1)\nt.count('s.h', h, 1, 2)\n"
                     "t.call('s.fill', mod.fill, 1, prefix=0)\n"}
    assert _unpassed_defaults(probe, ["a.py"]) == ["a.py: g(z)", "a.py: h(y)"]
    init = ("from .a import (one, two,\n    three)\nfrom .b import four, five\n"
            "__version__ = '1'\n")
    text = ("import shadowlab\nshadowlab.one()\n"
            "from shadowlab import (\n    two,\n)\nfrom shadowlab import four\n"
            "shadowlab.threefold()\n")
    assert _unused_exports(init, text) == ["three", "five"]
