"""No private name of char1 is left behind when its last reader goes.

A stdlib ``ast`` pass over every module of ``src/char1``: each private
module-level function, class and constant, and each private method of a
class, must be read somewhere in the package, as a name, an attribute, an
imported name or a string equal to it.  Dunder names are not private."""

import ast
import os

import char1

SRC = os.path.dirname(char1.__file__)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each private module-level function, class and
    constant, and each private method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef)]
    return [(line, name) for line, name in out if _private(name)]


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names, attributes, imported
    names and string constants."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Each private definition in the modules ``sources`` (name -> source
    text) that none of them reads, as "module:line name"."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return [f"{module}:{line} {name}" for module, tree in sorted(trees.items())
            for line, name in _defined(tree) if name not in read]


def test_every_private_name_is_read():
    sources = {}
    for module in sorted(os.listdir(SRC)):
        if module.endswith(".py"):
            with open(os.path.join(SRC, module), encoding="utf-8") as fh:
                sources[module] = fh.read()
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": ("_K = 1\n_UNUSED = 2\n\ndef _helper():\n    return _K\n\n"
                 "def _dead():\n    pass\n\nclass _Box:\n    def _m(self):\n        pass\n\n"
                 "    def _n(self):\n        pass\n\n    def __repr__(self):\n        return ''\n"),
        "b.py": "from a import _helper\n\nx = getattr(object(), '_Box')\ny = x._m\n",
    }
    assert unread_private_names(sources) == ["a.py:2 _UNUSED", "a.py:7 _dead", "a.py:14 _n"]
