"""No name a module of ``src/`` imports and then never reads.

An import whose name the module never loads is a dependency nobody
follows: it costs import time, hides the real dependency graph and
survives every refactor that removed its last use.  The check walks each
module's AST: a name bound by ``import`` / ``from ... import`` counts as
used once any ``Name`` node loads it (an attribute access such as
``typing.cast`` loads ``typing``) or the module's ``__all__`` lists it.
Package ``__init__`` modules import to re-export and ``from __future__``
imports switch on compiler features, so both are skipped; an import kept
for its side effect says so with ruff's ``# noqa: F401`` marker.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports():
    """``path:line: name`` of every imported name its module never loads."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    return found


def test_every_imported_name_in_src_is_used():
    unused = unused_imports()
    assert not unused, "imported in src/ but never used:\n" + "\n".join(unused)
