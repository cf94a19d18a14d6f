"""JSON from outside the program is decoded in one place, ``core.parse_json``.

``json.loads`` raises RecursionError on text nested about 1,000 deep, which
no reader's ``except`` clause expects; ``parse_json`` raises the
JSONDecodeError they do expect instead. So no other function in
``src/rankfit`` may call the json module's decoders. The sources are read
with ``ast`` only.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rankfit"
_DECODERS = {"load", "loads"}


def _decoder_uses(source: str) -> list[tuple[str | None, int]]:
    """(innermost enclosing function or None, line) of each ``json.load(s)`` use or import in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr in _DECODERS and isinstance(node.value, ast.Name) and node.value.id == "json":
            found.append((scope, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((scope, node.lineno) for alias in node.names if alias.name in _DECODERS | {"*"})
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_json_loads_appears_only_in_parse_json():
    uses = [(path.name, scope) for path in sorted(SRC.glob("*.py")) for scope, _ in _decoder_uses(path.read_text(encoding="utf-8"))]
    assert uses == [("core.py", "parse_json")]


@pytest.mark.parametrize(
    "source,expected",
    [
        ("import json\ndef read(t):\n    return json.loads(t)\n", [("read", 3)]),
        ("import json\nclass A:\n    def m(self, fh):\n        return json.load(fh)\n", [("m", 4)]),
        ("from json import loads\n", [(None, 1)]),
        ("import json\nreader = json.loads\n", [(None, 2)]),
        ("import json\ndef write(o):\n    return json.dumps(o)\n", []),
    ],
)
def test_the_scan_finds_every_kind_of_use(source, expected):
    assert _decoder_uses(source) == expected
