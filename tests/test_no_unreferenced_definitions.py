"""No definition in ``src/`` that no production code names.

A ``def`` or ``class`` whose name appears nowhere in the production
sources (``src/``, ``benchmarks/``, ``examples/``) but in its own
definition is code only its tests keep alive.  The check is crude by
design: every identifier token of every production file is counted once,
in one ``Counter``, and a name used anywhere -- a call, an attribute, a
string, a comment -- counts as a use.  A name defined in several places
is flagged only when nothing but those definitions names it.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRODUCTION = ("src", "benchmarks", "examples")
#: benchmark output, not code anybody runs
SKIPPED = ROOT / "benchmarks" / "layers" / "out"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITION = re.compile(r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+([A-Za-z_][A-Za-z0-9_]*)", re.M)

#: called by the machinery, never by name: asyncio's protocol callbacks
_CALLBACKS = {
    "connection_made",
    "connection_lost",
    "data_received",
    "eof_received",
    "pause_writing",
    "resume_writing",
    "datagram_received",
    "error_received",
    "get_buffer",
    "buffer_updated",
}
#: dispatched by prefix: the daemon's op handlers, the connect() schemes
_PREFIXES = ("_handle_", "_connect_")

ALLOWED = {
    "exclude_removed": "public DSL surface: the builder's one way to a query that skips removed sets",
    "find_row": "a test helper on a result type (ExperimentResult)",
    "get_readings": "the store's read of a data set's readings, the PASS verb the P4 removal tests check",
    "entry_count": "the attribute index's size and its build-everything switch, the checkpoint suites' oracle",
    "distinct_values": "the attribute index's sorted value view, the index property suites' oracle",
    "shard_backends": "goes with sharding, which a benchmark change must drop first (ROADMAP item 2)",
}


def _production_sources():
    for top in PRODUCTION:
        for path in sorted((ROOT / top).rglob("*.py")):
            if SKIPPED not in path.parents:
                yield path


def _exempt(name: str) -> bool:
    return (
        (name.startswith("__") and name.endswith("__"))
        or name.startswith(_PREFIXES)
        or name in _CALLBACKS
        or name in ALLOWED
    )


def unreferenced_definitions():
    """``path:line: name`` of every definition in ``src/`` nothing else names."""
    uses: Counter = Counter()
    definitions = []
    for path in _production_sources():
        text = path.read_text(encoding="utf-8")
        uses.update(_IDENTIFIER.findall(text))
        if path.is_relative_to(ROOT / "src"):
            for match in _DEFINITION.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                definitions.append((match.group(1), f"{path.relative_to(ROOT)}:{line}"))
    defined = Counter(name for name, _ in definitions)
    return [
        f"{where}: {name}"
        for name, where in definitions
        if uses[name] <= defined[name] and not _exempt(name)
    ]


def test_every_definition_in_src_is_named_by_production_code():
    unreferenced = unreferenced_definitions()
    assert not unreferenced, "defined in src/ but named by no production code:\n" + "\n".join(unreferenced)


def test_every_allowed_name_is_still_defined_and_still_unreferenced():
    """An allow-list entry whose definition went, or that production code now names, is stale."""
    uses: Counter = Counter()
    for path in _production_sources():
        uses.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    stale = sorted(name for name in ALLOWED if uses[name] != 1)
    assert not stale, f"allow-list entries to drop: {stale}"
