"""No module of the package imports a name it never uses, no private
top-level name is left that nothing in the package uses, and no public
top-level function or class is left that nothing in the package, its tests
or its benchmark uses: code that loses its last user should take its
imports with it, and go itself."""
import ast
from pathlib import Path

import pytest

import repcount

PACKAGE = Path(repcount.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def unused_imports(source: str, init: bool = False) -> list[str]:
    """The names a module's source imports and never uses, in import order;
    __future__ imports are skipped. A package's __init__ (init) uses exactly
    the names its __all__ lists."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    if init:
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
        return [name for name in imported if name not in exported]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import pi, tau as turn\nprint(sys.argv, os.sep, turn)\n")
    assert unused_imports(source) == ["pi"]
    assert unused_imports("from .a import b, c\n__all__ = ['b']\n", init=True) == ["c"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, init=path.name == "__init__.py") == []


def _unread(defined: list[tuple[str, str, ast.AST]], trees) -> list[str]:
    """The "module:name" of each (module, name, its definition) that no
    code of the trees reads, as a loaded name or a taken attribute; a read
    inside the name's own definition does not count."""
    reads = []  # (name, the node that reads it)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, node))
    unused = []
    for module, name, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        if not any(read == name and id(node) not in own for read, node in reads):
            unused.append(f"{module}:{name}")
    return unused


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names (a leading underscore, not a dunder) that
    the modules define and that no code of the modules reads, as
    "module:name"; a read inside the name's own definition does not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []  # (module, name, its definition)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return _unread(defined, trees.values())


def test_the_check_finds_an_unused_private_name():
    sources = {"a": "_KEPT = 1\n_left = 2\ndef _recursive(n):\n    return _recursive(n - 1)\n"
                    "class _Used:\n    pass\n__all__ = []\n",
               "b": "from .a import _KEPT, _Used\nprint(_KEPT, _Used)\n"}
    assert unused_private_names(sources) == ["a:_left", "a:_recursive"]


def test_no_private_name_is_left_unused():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def unused_public_names(sources: dict[str, str], users: list[str]) -> list[str]:
    """The public top-level functions and classes that the modules define
    and that no code of the modules or of the users (other sources, such as
    tests) reads, as "module:name"; a read inside the name's own definition
    does not count, nor does an import or a string naming it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = [(module, node.name, node) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    return _unread(defined, [*trees.values(), *map(ast.parse, users)])


def test_the_check_finds_an_unused_public_name():
    sources = {"a": "def kept():\n    pass\ndef left():\n    return left()\nclass Used:\n"
                    "    pass\nclass Named:\n    pass\n__all__ = ['Named']\n_private = 1\n",
               "b": "from .a import kept, Named\nkept()\n"}
    users = ["from a import Used\nUsed.method()\n"]
    assert unused_public_names(sources, users) == ["a:left", "a:Named"]


def test_no_public_name_is_left_unused():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text(encoding="utf-8")
             for folder in ("tests", "bench") for path in sorted((REPO / folder).glob("*.py"))]
    assert unused_public_names(sources, users) == []
