"""Guard: no architecture model accounts its own cost.

Latency, messages and bytes are read off the captured trace by
``_traced_operation`` (and folded by ``OperationResult.merge``).  This
walks the AST of every ``repro.distributed`` module and fails on an
assignment (plain or augmented) to a ``.latency_ms`` / ``.messages`` /
``.bytes`` attribute anywhere else, so hand accounting cannot creep back
beside the one definition.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import repro.distributed

PACKAGE = Path(repro.distributed.__file__).resolve().parent
COST_FIELDS = {"latency_ms", "messages", "bytes"}
#: the only functions that may touch cost fields, by qualified name
ALLOWED = {"OperationResult.merge", "_traced_operation.wrapper"}


def violations(source: str, filename: str = "<source>") -> List[str]:
    """Every write to a cost field outside ``ALLOWED``, as ``file:line: scope writes .field``."""
    found: List[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr in COST_FIELDS
            and scope not in ALLOWED
        ):
            found.append(f"{filename}:{node.lineno}: {scope or '<module>'} writes .{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_no_model_accounts_its_own_cost():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9  # base + seven models + __init__
    found: List[str] = []
    for path in modules:
        found += violations(path.read_text(encoding="utf-8"), path.name)
    assert not found, "hand cost accounting in repro.distributed:\n" + "\n".join(found)


def test_the_guard_catches_seeded_hand_accounting():
    seeded = (
        "class Model:\n"
        "    def publish(self, tuple_set, origin_site):\n"
        "        message = self.network.send(origin_site, 'w', 64, 'publish')\n"
        "        result.latency_ms += message.latency_ms\n"
        "        result.messages += 1\n"
        "        result.bytes = 64\n"
        "        return result\n"
    )
    assert violations(seeded, "seeded.py") == [
        "seeded.py:4: Model.publish writes .latency_ms",
        "seeded.py:5: Model.publish writes .messages",
        "seeded.py:6: Model.publish writes .bytes",
    ]
