"""No module of the package imports a name it never uses, no private
top-level name or private method is left that nothing in the package uses,
no public top-level function or class is left that nothing in the package,
its tests or its benchmark uses, no dataclass field that none of them
reads, and no defaulted parameter that none of them passes: code that loses
its last user should take its imports with it, and go itself."""
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
    """The label of each (label, name, its definition) that no code of the
    trees reads, as a loaded name or a taken attribute; a read inside the
    name's own definition does not count."""
    reads = []  # (name, the node that reads it)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, node))
    unused = []
    for label, name, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        if not any(read == name and id(node) not in own for read, node in reads):
            unused.append(label)
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
            defined += [(f"{module}:{name}", name, node) for name in names
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
    defined = [(f"{module}:{node.name}", node.name, node)
               for module, tree in trees.items() for node in tree.body
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


def unused_private_methods(sources: dict[str, str]) -> list[str]:
    """The private methods (a leading underscore, not a dunder) of the
    modules' top-level classes that no code of the modules reads, as
    "module:Class.method"; a read inside the method's own definition does
    not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = [(f"{module}:{cls.name}.{node.name}", node.name, node)
               for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    return _unread(defined, trees.values())


def test_the_check_finds_an_unused_private_method():
    sources = {"a": "class A:\n    def __init__(self):\n        self._used()\n"
                    "    def _used(self):\n        pass\n"
                    "    def _recursive(self):\n        return self._recursive()\n"
                    "    def _left(self):\n        pass\n",
               "b": "from .a import A\nA()._outside()\nclass B:\n    def _outside(self):\n"
                    "        pass\n"}
    assert unused_private_methods(sources) == ["a:A._recursive", "a:A._left"]


def test_no_private_method_is_left_unused():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_methods(sources) == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether the class is decorated by dataclass, called or not, by its
    name or as dataclasses.dataclass."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(sources: dict[str, str], users: list[str]) -> list[str]:
    """The fields of the modules' top-level dataclasses that no code of the
    modules or of the users reads as an attribute, as "module:Class.field";
    a field that is only written, or only named by a keyword, is unread."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, users)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}:{cls.name}.{node.target.id}"
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls) for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in read]


def test_the_check_finds_an_unread_dataclass_field():
    sources = {"a": "import dataclasses\nfrom dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\nclass A:\n    kept: int\n    written: int\n"
                    "    keyword: int\n@dataclasses.dataclass\nclass B:\n    left: int\n    by_user: int\n"
                    "class Plain:\n    ignored: int\n",
               "b": "from .a import A\na = A(1, 2, keyword=3)\na.written = a.kept\n"}
    users = ["print(b.by_user)\n"]
    assert unread_dataclass_fields(sources, users) == ["a:A.written", "a:A.keyword", "a:B.left"]


def test_no_dataclass_field_is_left_unread():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text(encoding="utf-8")
             for folder in ("tests", "bench") for path in sorted((REPO / folder).glob("*.py"))]
    assert unread_dataclass_fields(sources, users) == []


def _defaulted(args: ast.arguments, bound: int) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter of a signature whose
    first `bound` parameters (self, cls) are bound by the call; a
    keyword-only one has position None."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return ([(k - bound, a.arg) for k, a in enumerate(positional) if k >= first]
            + [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def idle_parameters(sources: dict[str, str], users: list[str]) -> list[str]:
    """The defaulted parameters of the modules' top-level functions, of the
    methods of their top-level classes and of their public classes'
    constructors (__init__, or a dataclass's fields) that no call in the
    modules or the users passes, by position or by keyword, as
    "module:name(parameter)". A call is matched by the name it calls; one
    with *args or **kwargs passes every parameter."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []  # (label, the name a call calls it by, its defaulted parameters)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((f"{module}:{node.name}", node.name, _defaulted(node.args, 0)))
            if not isinstance(node, ast.ClassDef):
                continue
            public = not node.name.startswith("_")
            if public and _is_dataclass(node):
                fields = [f for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                defined.append((f"{module}:{node.name}", node.name,
                                [(k, f.target.id) for k, f in enumerate(fields)
                                 if f.value is not None]))
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                bound = 0 if any(getattr(d, "id", None) == "staticmethod"
                                 for d in method.decorator_list) else 1
                if method.name == "__init__" and public:
                    defined.append((f"{module}:{node.name}", node.name,
                                    _defaulted(method.args, bound)))
                elif not method.name.startswith("__"):
                    defined.append((f"{module}:{node.name}.{method.name}", method.name,
                                    _defaulted(method.args, bound)))
    calls = {}  # called name -> [(positional arguments, keywords)]
    for tree in [*trees.values(), *map(ast.parse, users)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    passed = (float("inf"), None)  # None: every keyword
                else:
                    passed = (len(node.args), {k.arg for k in node.keywords})
                calls.setdefault(name, []).append(passed)
    return [f"{label}({param})" for label, name, params in defined for position, param in params
            if not any((position is not None and position < n) or keywords is None
                       or param in keywords for n, keywords in calls.get(name, []))]


def test_the_check_finds_an_idle_parameter():
    sources = {"a": "from dataclasses import dataclass, field\n"
                    "def f(x, by_position=1, by_keyword=2, *, idle=3, keyword_only=4):\n"
                    "    pass\n"
                    "class A:\n    def __init__(self, starred=1):\n        pass\n"
                    "    def method(self, x, by_position=1):\n        pass\n"
                    "    @staticmethod\n    def static(by_position=1, idle=2):\n        pass\n"
                    "@dataclass\nclass D:\n    needed: int\n    passed: int = 0\n"
                    "    idle: list = field(default_factory=list)\n"
                    "class _Private:\n    def __init__(self, unchecked=1):\n        pass\n",
               "b": "from .a import A, f\nf(0, 1, by_keyword=2)\nA(*[1])\nA().method(0, 1)\n"}
    users = ["from a import D, f\nf(0, keyword_only=1)\nA.static(0)\nD(needed=1, passed=2)\n"]
    assert idle_parameters(sources, users) == ["a:f(idle)", "a:A.static(idle)", "a:D(idle)"]


def test_no_defaulted_parameter_is_left_idle():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text(encoding="utf-8")
             for folder in ("tests", "bench") for path in sorted((REPO / folder).glob("*.py"))]
    assert idle_parameters(sources, users) == []
