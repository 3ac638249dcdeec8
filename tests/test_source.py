"""Source hygiene checks that need no linter: every name a ``ptpp`` module
imports is used in it, or exported through ``__all__``."""

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
