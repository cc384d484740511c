"""No module of the package imports a name it never uses: code that loses
its last user should take its import with it."""
import ast
from pathlib import Path

import pytest

import repcount

PACKAGE = Path(repcount.__file__).parent


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
