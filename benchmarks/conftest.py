"""The host stamp every benchmark artifact carries.

This file keeps its old name and place although it no longer holds a
pytest fixture: ``benchmarks/layers/run.py`` loads it *by path* for the
stamp (``git_sha`` included), ``BENCHMARK.json`` forbids a PR that
measures itself from editing ``benchmarks/layers/``, and
``benchmarks/pairs.py`` imports the same function -- so the stamp has one
definition, here.  It imports nothing outside the standard library.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _git_sha() -> str:
    """The short commit SHA of the benched tree, or "unknown" outside git."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_environment() -> dict:
    """Enough to tell a code regression apart from an interpreter, OS or
    hardware change when two artifacts are compared."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }
