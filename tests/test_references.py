"""References resolve: a path the docs, the CI workflow or the verify skill
quotes names a file that exists (and a ``path.py::Name`` a definition in
it), and a stats block the docs print has the keys the live one has.

Deleting or renaming a script without its doc line fails here, so "where
is that number from" cannot point at nothing; removing a stats key without
its doc line fails here too.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
CI = REPO / ".github" / "workflows" / "ci.yml"
SOURCES = sorted((REPO / "docs").rglob("*.md")) + [CI, REPO / ".claude" / "skills" / "verify" / "SKILL.md"]

#: a repo path: one of the five top-level directories, then anything path-like
QUOTED = re.compile(r"(?<![\w/.-])(?:benchmarks|tests|src|docs|examples)/[\w./-]*")
#: what may follow a quoted ``.py`` path: ``::A`` or ``::A::B``
MEMBER = re.compile(r"::(\w+)(?:::(\w+))?")


def defines(path: Path, names: list) -> bool:
    """True when ``path`` defines ``names[0]`` at top level and each next name inside the one before.

    Read with ``ast``, never imported: a class or a function, as pytest collects them.
    """
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        found = next((node for node in scope if isinstance(node, kinds) and node.name == name), None)
        if found is None:
            return False
        scope = found.body
    return True


def dangling_paths(text: str) -> list:
    missing = []
    for match in QUOTED.finditer(text):
        path = match.group(0)
        if text[match.end() : match.end() + 1] in ("*", "<", "{", "$"):
            path = path.rsplit("/", 1)[0]  # a pattern (``out/layers-seed<N>.json``): its directory must exist
        path = path.rstrip("./-")  # the sentence's own full stop
        member = MEMBER.match(text, match.end()) if path.endswith(".py") else None
        if not (REPO / path).exists():
            missing.append(path)
        elif member and not defines(REPO / path, [name for name in member.groups() if name]):
            missing.append(path + member.group(0))
    return missing


def dangling_commands(workflow: str) -> list:
    """Files named by ``python <script>`` / ``python -m pytest <path> ...`` in ``run:`` lines."""
    missing = []
    for line in workflow.splitlines():
        if not line.strip().startswith("run:"):
            continue
        words = shlex.split(line.split("run:", 1)[1])
        for index, word in enumerate(words):
            if word not in ("python", "python3"):
                continue
            rest = words[index + 1 :]
            if rest[:2] == ["-m", "pytest"]:
                named = [arg for arg in rest[2:] if not arg.startswith("-")]
            else:
                named = [arg for arg in rest[:1] if arg.endswith(".py")]
            missing += [arg for arg in named if not (REPO / arg.split("::")[0]).exists()]
    return missing


def test_the_checker_bites_on_a_seeded_dangling_path():
    text = "see `benchmarks/gone_script.py`, tests/api/test_client_matrix.py::TestBatchedPublish and docs/*.md."
    assert dangling_paths(text) == ["benchmarks/gone_script.py"]
    assert dangling_paths("spans go to `benchmarks/layers/out/spans-<workload>.json`") == []
    members = (
        "tests/test_references.py::defines, tests/test_references.py::gone_function, "
        "tests/api/test_client_matrix.py::TestBatchedPublish::test_gone and "
        "tests/test_properties.py::TestIndexCheckpointProperties[interval]."
    )
    assert dangling_paths(members) == [
        "tests/test_references.py::gone_function",
        "tests/api/test_client_matrix.py::TestBatchedPublish::test_gone",
    ]
    workflow = "  run: PYTHONPATH=src python -m pytest tests/obs tests/gone -q\n  run: python scripts/gone.py --quick\n"
    assert dangling_commands(workflow) == ["tests/gone", "scripts/gone.py"]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: str(path.relative_to(REPO)))
def test_every_quoted_path_exists(source):
    text = source.read_text(encoding="utf-8")
    assert dangling_paths(text) == []
    if source == CI:
        assert dangling_commands(text) == []


def documented_block(text: str, heading: str) -> dict:
    """The dict literal printed as ``# `` comment lines in the first code block under ``heading``."""
    section = text.split(heading, 1)[1]
    block = section.split("```", 2)[1]
    lines = [line.strip()[1:] for line in block.splitlines() if line.strip().startswith("#")]
    body = "\n".join(lines)
    return ast.literal_eval(body[body.index("{") : body.rindex("}") + 1])


def test_the_block_reader_bites_on_a_seeded_example():
    text = '## Block\n\n```python\nstats()\n# {\n#   "a": 1,\n#   "b": {"c": 2},\n# }\n```\n'
    assert documented_block(text, "## Block") == {"a": 1, "b": {"c": 2}}


def test_the_documented_feedback_block_has_the_live_keys():
    documented = documented_block((REPO / "docs" / "ADAPTIVE.md").read_text(encoding="utf-8"), "## Reading the feedback block")
    with repro.connect("memory://") as client:
        live = client.stats()["planner"]["feedback"]
    assert set(documented) == set(live)
    assert set(documented["result_cache"]) == set(live["result_cache"])
