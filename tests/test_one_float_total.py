"""Floats are added in one place, ``metrics.running_total``.

Python 3.12 made the builtin ``sum()`` of floats compensated, so a float
``sum()`` can give other bytes on 3.11 than on 3.12+. The builtin may only add
integers: the sites below are those integer sums. The sources are read with
``ast`` only.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rankfit"
# (module, innermost enclosing function) of each builtin sum() of integers
_INTEGER_SUMS = [
    ("engine.py", "degraded_calls"),
    ("engine.py", "score_run"),  # degraded calls
    ("metrics.py", "recall_at_k"),  # positives
    ("metrics.py", "recall_at_k"),  # positives in the top k
]


def _sum_calls(source: str) -> list[tuple[str | None, int]]:
    """(innermost enclosing function or None, line) of each call of the builtin ``sum`` in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_builtin_sum_adds_only_integers():
    calls = [(path.name, scope) for path in sorted(SRC.glob("*.py")) for scope, _ in _sum_calls(path.read_text(encoding="utf-8"))]
    assert calls == _INTEGER_SUMS


@pytest.mark.parametrize(
    "source,expected",
    [
        ("def f(xs):\n    return sum(xs)\n", [("f", 2)]),
        ("class A:\n    def m(self):\n        return sum(x for x in self.xs)\n", [("m", 3)]),
        ("total = sum([1, 2])\n", [(None, 1)]),
        ("def f(a):\n    return a.sum(axis=1)\n", []),
        ("import numpy as np\ndef f(a):\n    return np.sum(a)\n", []),
    ],
)
def test_the_scan_finds_every_builtin_sum(source, expected):
    assert _sum_calls(source) == expected
