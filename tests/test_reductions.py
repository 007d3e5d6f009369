"""Every reduction an export or an oracle depends on is spelled in `filters`.

`filters` binds the package's two dots, `dot` and `vecdot`, and states
the one-element rule, `row_reduction`; every other module imports them.
This guard parses each module of the package and fails on any other
spelling of a reduction: an attribute named after one (`np.dot`,
`v.dot`, `np.convolve`, ...), such a name imported from anywhere but
`filters`, or the `@` operator. Parsing rather than searching the text
keeps decorators from reading as `@`. The one exception is
`adaptation.wiener_solve`, library API that no export reads.
"""

import ast
from pathlib import Path

import pytest

import ancsim

SOURCES = sorted(Path(ancsim.__file__).parent.glob("*.py"))
REDUCTIONS = {"dot", "vdot", "vecdot", "inner", "einsum", "matmul", "tensordot", "convolve"}
OWNER = "filters.py"
EXCEPTIONS = {("adaptation.py", "wiener_solve")}


def spellings(source: str):
    """(line, function, text) of every reduction spelled in `source`,
    `function` being the innermost def it sits in, or None."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in REDUCTIONS:
            found.append((node.lineno, function, f".{node.attr}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, function, "@"))
        elif isinstance(node, ast.ImportFrom) and node.module != "filters":
            found.extend((node.lineno, function, f"import {a.name}")
                         for a in node.names if a.name in REDUCTIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_guard_sees_every_spelling_and_no_decorator():
    planted = """
import numpy as np
from numpy import vdot
from .filters import dot, vecdot


@property
def f(a, b):
    a @= b
    return a @ b, np.dot(a, b), a.dot(b), np.linalg.matmul(a, b), np.convolve(a, b)
"""
    assert spellings(planted) == [
        (3, None, "import vdot"), (9, "f", "@"), (10, "f", "@"), (10, "f", ".dot"),
        (10, "f", ".dot"), (10, "f", ".matmul"), (10, "f", ".convolve")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_but_filters_spells_a_reduction(path):
    if path.name == OWNER:
        return
    stray = [(line, function, text) for line, function, text in spellings(path.read_text())
             if (path.name, function) not in EXCEPTIONS]
    assert stray == [], f"{path.name} spells reductions of its own; bind `filters`' names"


def test_each_exception_still_spells_a_reduction():
    # an exception whose reductions have gone would let the guard rot
    for name, function in EXCEPTIONS:
        found = spellings((Path(ancsim.__file__).parent / name).read_text())
        assert any(f == function for _, f, _ in found), (name, function)
