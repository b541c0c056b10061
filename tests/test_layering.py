"""The import graph between the modules of `friendbias`, the package
definitions that the CLI and the README quick start reach, the dataclass
fields the package reads, and the BLAS-backed numpy routines it must not
call, all read from the source with ast, function-local imports included.
Importing the package would not show them: `friendbias/__init__` imports
every module."""

import ast
import re
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "friendbias"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}
README = PACKAGE.parents[1] / "README.md"


def _source_module(node: ast.ImportFrom):
    """The package module an ImportFrom reads: "" for the package itself
    (`from . import x`, `from friendbias import x`), None outside it."""
    module = node.module or ""
    if node.level == 0:
        head, _, module = module.partition(".")
        if head != "friendbias":
            return None
    return module.split(".")[0]


def imported_modules(source: str) -> set:
    """The package modules that `source`, a module of the package, imports
    anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("friendbias."))
        elif isinstance(node, ast.ImportFrom):
            module = _source_module(node)
            if module:                      # from .x import y
                found.add(module)
            elif module == "":              # from . import x, y
                found.update(a.name for a in node.names)
    return found & MODULES


def import_graph() -> dict:
    return {name: imported_modules((PACKAGE / f"{name}.py").read_text())
            for name in MODULES}


def test_reader_sees_every_form_of_import():
    source = ("import numpy\nimport friendbias.measures\n"
              "from . import kernels, not_a_module\n"
              "from friendbias import oracle\n"
              "from .graph_core import Graph\n"
              "def f():\n    from .generators import realize\n")
    assert imported_modules(source) == {"measures", "kernels", "oracle",
                                        "graph_core", "generators"}


def test_import_graph_is_acyclic():
    graph = import_graph()
    # static_order raises graphlib.CycleError, naming the cycle, if any
    assert set(TopologicalSorter(graph).static_order()) == MODULES


def test_kernels_import_neither_generators_nor_cli():
    assert not import_graph()["kernels"] & {"generators", "cli"}



class _Namespace:
    """A module's top-level definitions and what its imports bind."""

    def __init__(self, source: str):
        tree = ast.parse(source)
        self.defs = {}      # name -> def, class or assignment node
        self.bound = {}     # name -> a module, or (module, name) imported
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        self.defs[t.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _source_module(node)
                for a in node.names if module is not None else ():
                    name = a.asname or a.name
                    if module:
                        self.bound[name] = (module, a.name)
                    elif a.name in MODULES:
                        self.bound[name] = a.name


def _namespaces() -> dict:
    return {name: _Namespace((PACKAGE / f"{name}.py").read_text())
            for name in MODULES}


def _resolve(spaces: dict, module: str, name: str):
    """(module, name) of the definition `name` denotes in `module`, following
    imports, or None."""
    space = spaces[module]
    if name in space.defs:
        return module, name
    target = space.bound.get(name)
    return _resolve(spaces, *target) if isinstance(target, tuple) else None


def quick_start_roots(spaces: dict) -> set:
    """The definitions the README's quick-start block imports."""
    text = README.read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```",
                      text, re.S).group(1)
    roots = set()
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.ImportFrom):
            module = _source_module(node)
            assert module is not None, "the quick start imports from friendbias"
            for a in node.names:
                roots.add(_resolve(spaces, module or "__init__", a.name))
    assert None not in roots, "a quick-start name is not defined in src/"
    return roots


def reached(spaces: dict, roots) -> set:
    """Every definition reached from `roots` through the Name and
    module.Attribute references in the bodies of reached definitions; a
    reached class brings all its methods."""
    todo, seen = list(roots), set()
    while todo:
        key = todo.pop()
        if key is None or key in seen:
            continue
        seen.add(key)
        module, name = key
        space = spaces[module]
        for node in ast.walk(space.defs[name]):
            if isinstance(node, ast.Name):
                todo.append(_resolve(spaces, module, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and isinstance(space.bound.get(node.value.id), str)):
                todo.append(_resolve(spaces, space.bound[node.value.id],
                                     node.attr))
    return seen


def test_reachability_follows_names_attributes_and_imports():
    # two made-up sources under real module names, which `from . import`
    # needs to bind
    spaces = {
        "cli": _Namespace("from . import kernels\n"
                          "from .kernels import g as h\n"
                          "TABLE = {'x': h}\n"
                          "def main():\n    return TABLE, kernels.f\n"
                          "def unused():\n    pass\n"),
        "kernels": _Namespace("class C:\n    def m(self):\n        return k()\n"
                              "def f():\n    return C\n"
                              "def g():\n    pass\n"
                              "def k():\n    pass\n"),
    }
    assert reached(spaces, [("cli", "main")]) == {
        ("cli", "main"), ("cli", "TABLE"), ("kernels", "f"), ("kernels", "g"),
        ("kernels", "C"), ("kernels", "k")}


def test_package_holds_only_what_the_cli_and_quick_start_reach():
    spaces = _namespaces()
    seen = reached(spaces, {("cli", "main")} | quick_start_roots(spaces))
    unreached = sorted(
        f"{module}.{name}" for module, space in spaces.items()
        for name, node in space.defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("_") and (module, name) not in seen)
    assert unreached == [], f"only tests reach {unreached}"


def test_tree_limits_import_only_measures():
    assert import_graph()["tree_limits"] == {"measures"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def unread_fields(sources) -> list:
    """`Class.field` for every annotated field of a dataclass in `sources`
    whose name is never the attribute of a load (`x.field`) in them.

    The check goes by name alone: a field counts as read when any object's
    attribute of that name is read. So it cannot see an unread field that
    shares its name with a read attribute of another class, such as a
    `kind` or `meta` field."""
    trees = [ast.parse(source) for source in sources]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{node.name}.{stmt.target.id}"
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in loaded)


def test_field_reader_sees_loads_not_stores():
    # two made-up sources: one reads a field, the other only stores one
    sources = [
        "import dataclasses\nfrom dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    read: int\n    stored: int = 0\n"
        "@dataclasses.dataclass(eq=False)\nclass B:\n"
        "    other: list = field(default_factory=list)\n"
        "class NotData:\n    plain: int\n",
        "def f(a, b):\n    a.stored = b.read\n    return a.plain\n",
    ]
    assert unread_fields(sources) == ["A.stored", "B.other"]


def test_every_dataclass_field_is_read_in_src():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    unread = unread_fields(sources)
    assert unread == [], f"fields stored but never read: {unread}"


# numpy routines that may run on BLAS, whose sums split over its threads
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def blas_uses(source: str) -> list:
    """(line, name) of every use in `source` of a routine in BLAS_NAMES, as
    an attribute (`np.dot`, `x.dot`) or an imported name, and of the `@`
    operator, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[-1] for a in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names += node.module.split(".")
            found += [(node.lineno, name) for name in names
                      if name in BLAS_NAMES]
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
    return sorted(found)


def test_blas_reader_sees_every_form_of_use():
    source = ("import numpy as np\nimport numpy.linalg\n"
              "from numpy import einsum, sum\nfrom numpy.linalg import norm\n"
              "inner = 1\n"
              "a = np.dot(x, y) + x.dot(y) + (x @ y)\n"
              "b = np.inner(x, y) + np.tensordot(x, y) + np.vdot(x, y)\n"
              "x @= y\nc = np.matmul(x, y) + np.linalg.norm(x)\n"
              "d = (x * y).sum() + np.sum(x) + np.add.reduce(x)\n")
    assert blas_uses(source) == [
        (2, "linalg"), (3, "einsum"), (4, "linalg"), (6, "@"), (6, "dot"),
        (6, "dot"), (7, "inner"), (7, "tensordot"), (7, "vdot"), (8, "@"),
        (9, "linalg"), (9, "matmul")]


def test_no_reduction_in_src_runs_on_blas():
    found = {name: blas_uses((PACKAGE / f"{name}.py").read_text())
             for name in sorted(MODULES)}
    assert {name: uses for name, uses in found.items() if uses} == {}


def _is_os_call(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os")


def _ends_in_exit(stmt) -> bool:
    """Whether `stmt`, the last of a branch, ends the process through
    os._exit whatever the statements before it do."""
    if isinstance(stmt, ast.Try):
        return bool(stmt.finalbody) and _ends_in_exit(stmt.finalbody[-1])
    return isinstance(stmt, ast.Expr) and _is_os_call(stmt.value, "_exit")


def _is_child_test(test, pid: str) -> bool:
    """`pid == 0` or `not pid`."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return isinstance(test.operand, ast.Name) and test.operand.id == pid
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == pid and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == 0)


def fork_uses(source: str) -> list:
    """(line, ok) for every use of os.fork in `source`, in line order: ok
    when it is `pid = os.fork()` and every branch under `pid == 0` or `not
    pid` in the same function ends in os._exit, of which there is one at
    least. Any other use (`from os import fork`, `f = os.fork`, a fork whose
    result is not named) cannot be followed, so it is not ok."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        nested = {id(n) for sub in ast.walk(scope) if sub is not scope
                  and isinstance(sub, ast.FunctionDef) for n in ast.walk(sub)}
        nodes = [n for n in ast.walk(scope) if id(n) not in nested]
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(node.lineno, False) for a in node.names
                          if a.name == "fork"]
            if not (isinstance(node, ast.Attribute) and node.attr == "fork"):
                continue
            pid = next((a.targets[0].id for a in nodes
                        if isinstance(a, ast.Assign)
                        and getattr(a.value, "func", None) is node
                        and isinstance(a.targets[0], ast.Name)), None)
            branches = [n.body[-1] for n in nodes if isinstance(n, ast.If)
                        and pid and _is_child_test(n.test, pid)]
            found.append((node.lineno, bool(branches)
                          and all(map(_ends_in_exit, branches))))
    return sorted(found)


def test_fork_reader_follows_the_child_branch():
    source = ("import os\nfrom os import fork\n"
              "def good():\n    pid = os.fork()\n    if pid == 0:\n"
              "        try:\n            work()\n        finally:\n"
              "            os._exit(1)\n    return pid\n"
              "def bare():\n    pid = os.fork()\n    if not pid:\n"
              "        os._exit(0)\n"
              "def returns():\n    pid = os.fork()\n    if pid == 0:\n"
              "        work()\n"
              "def unnamed():\n    os.fork()\n"
              "def unchecked():\n    pid = os.fork()\n    return pid\n"
              "def late():\n    pid = os.fork()\n    if pid == 0:\n"
              "        try:\n            os._exit(0)\n        except OSError:\n"
              "            pass\n")
    assert fork_uses(source) == [(2, False), (4, True), (12, True),
                                 (16, False), (20, False), (22, False),
                                 (25, False)]


def test_only_the_writer_forks_and_every_child_leaves_by_os_exit():
    found = {name: fork_uses((PACKAGE / f"{name}.py").read_text())
             for name in sorted(MODULES)}
    assert {name for name, uses in found.items() if uses} == {"cli"}
    assert all(ok for _, ok in found["cli"]), found["cli"]
