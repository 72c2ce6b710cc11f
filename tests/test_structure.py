"""Structural checks over the package source."""

import ast
import inspect
from pathlib import Path

import pytest

from a2fpn import fusion, mgc, nn_ops, pyramid, tensor_core, train

PACKAGE = Path(fusion.__file__).resolve().parent
# the benchmark drives the package's public entry points (forward_a2fpn_bwd
# is one that no module of the package calls)
BENCHMARK = PACKAGE.parent.parent / "perfbench"
# the checks and their references: naming a function there keeps nothing alive
CHECK_MODULES = ("verify", "oracles")


def _names_used(tree):
    """Every identifier the module reads as a name or an attribute, except
    inside the def of a function or class of that name (its own body)."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def _public_definitions(module):
    """The public functions and classes the module defines."""
    return [name for name, obj in vars(module).items()
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__ and not name.startswith("_")]


@pytest.mark.parametrize("module", [tensor_core, nn_ops, fusion, mgc, pyramid, train],
                         ids=lambda m: m.__name__)
def test_every_public_primitive_is_run_by_the_package(module):
    # a public function or type that only the checks use is dead code with a test attached
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARK.glob("*.py")):
        if path.stem not in CHECK_MODULES:
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert not [name for name in _public_definitions(module) if name not in used]
