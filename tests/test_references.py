"""References resolve: a path the docs, the CI workflow or the verify skill
quotes names a file that exists.

Deleting or renaming a script without its doc line fails here, so "where
is that number from" cannot point at nothing.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CI = REPO / ".github" / "workflows" / "ci.yml"
SOURCES = sorted((REPO / "docs").rglob("*.md")) + [CI, REPO / ".claude" / "skills" / "verify" / "SKILL.md"]

#: a repo path: one of the five top-level directories, then anything path-like
QUOTED = re.compile(r"(?<![\w/.-])(?:benchmarks|tests|src|docs|examples)/[\w./-]*")


def dangling_paths(text: str) -> list:
    missing = []
    for match in QUOTED.finditer(text):
        path = match.group(0)
        if text[match.end() : match.end() + 1] in ("*", "<", "{", "$"):
            path = path.rsplit("/", 1)[0]  # a pattern (``out/layers-seed<N>.json``): its directory must exist
        path = path.rstrip("./-")  # the sentence's own full stop
        if not (REPO / path).exists():
            missing.append(path)
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
    workflow = "  run: PYTHONPATH=src python -m pytest tests/obs tests/gone -q\n  run: python scripts/gone.py --quick\n"
    assert dangling_commands(workflow) == ["tests/gone", "scripts/gone.py"]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: str(path.relative_to(REPO)))
def test_every_quoted_path_exists(source):
    text = source.read_text(encoding="utf-8")
    assert dangling_paths(text) == []
    if source == CI:
        assert dangling_commands(text) == []
