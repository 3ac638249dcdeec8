"""Source hygiene checks that need no linter: every name a ``ptpp`` module
imports is used in it, or exported through ``__all__``; every private
module-level name is read somewhere in the package; and the package reads
only the ``scipy`` names listed here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptpp"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``; an ``as`` name binds itself.
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name (a ``_name``
    function, class or assignment target, tuple targets included) that no
    module reads, as a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.extend((module, name.id) for target in targets
                               for name in ast.walk(target)
                               if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted({f"{module}:{name}" for module, name in defined
                   if name.startswith("_") and not name.startswith("__")
                   and name not in read})


def scipy_names(source: str) -> set[str]:
    """Every dotted ``scipy.*`` name the source reads, in its longest form:
    attribute chains off ``scipy`` or an alias of a ``scipy`` module, and
    names taken by ``from scipy... import``."""
    tree = ast.parse(source)
    roots = {"scipy": "scipy"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update((alias.asname, alias.name) for alias in node.names
                         if alias.asname and alias.name.startswith("scipy"))
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "scipy"):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            names.add(".".join([roots[node.id], *reversed(parts)]))
    return names


class TestScipySurface:
    """The ``scipy`` functions the package calls: the list a numpy port of
    the filter path has to cover."""

    def test_package_reads_exactly_these(self):
        found = set()
        for path in PACKAGE.glob("*.py"):
            found |= scipy_names(path.read_text(encoding="utf-8"))
        assert found == {"scipy.signal.butter", "scipy.signal.sosfilt"}

    @pytest.mark.parametrize("source,names", [
        ("import scipy.signal\nscipy.signal.butter(1).shape\n",
         {"scipy.signal.butter"}),
        ("import scipy.signal as ss\nss.sosfilt\n", {"scipy.signal.sosfilt"}),
        ("from scipy.signal import lfilter\n", {"scipy.signal.lfilter"}),
        ("import numpy as np\nnp.signal.x\n", set()),
    ])
    def test_finds_what_is_read(self, source, names):
        assert scipy_names(source) == names


class TestUnusedImports:
    @pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                             ids=lambda path: path.name)
    def test_every_import_is_used(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []

    @pytest.mark.parametrize("source,unused", [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("import numpy as np\nimport numpy\nnp.zeros\n", ["numpy"]),
        ("from a import b as c, d\nd()\n", ["c"]),
        ("from __future__ import annotations\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("def f():\n    import json\n", ["json"]),
    ])
    def test_finds_what_is_unused(self, source, unused):
        assert unused_imports(source) == unused


class TestUnreadPrivateNames:
    def test_every_private_name_is_read(self):
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in sorted(PACKAGE.glob("*.py"))}
        assert unread_private_names(sources) == []

    @pytest.mark.parametrize("sources,unread", [
        ({"a": "def _f():\n    pass\n"}, ["a:_f"]),
        ({"a": "def _f():\n    pass\n_f()\n"}, []),
        ({"a": "class _K:\n    pass\nx: _K\n"}, []),
        ({"a": "_A, (_B, c) = 1, (2, 3)\nprint(_A)\n"}, ["a:_B"]),
        ({"a": "_X: int = 1\n_X = 2\n"}, ["a:_X"]),
        ({"a": "_X = 1\nimport m\nm._X\n"}, []),
        ({"a": "def f():\n    _local = 1\n", "b": "__all__ = []\n"}, []),
        ({"a": "def _g():\n    pass\n", "b": "from a import _g\n_g()\n"},
         []),
    ])
    def test_finds_what_is_unread(self, sources, unread):
        assert unread_private_names(sources) == unread
