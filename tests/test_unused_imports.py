"""No module of char1 imports a name at module level that it never reads.

A stdlib ``ast`` pass: every name bound by a top-level ``import`` or
``from ... import`` must be loaded somewhere in the same module, in code or
in an annotation.  ``from __future__`` imports bind nothing."""

import ast
import os

import pytest

import char1

SRC = os.path.dirname(char1.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each module-level import binding that no expression
    of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_read(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == [(2, "os"), (3, "b")]
