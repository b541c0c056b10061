"""The import graph between the modules of `friendbias`, read from their
source with ast, function-local imports included. Importing the package
would not show it: `friendbias/__init__` imports every module."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "friendbias"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def imported_modules(source: str) -> set:
    """The package modules that `source`, a module of the package, imports
    anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("friendbias."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "friendbias":
                    continue
                module = module.partition(".")[2]
            if module:                      # from .x import y
                found.add(module.split(".")[0])
            else:                           # from . import x, y
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
