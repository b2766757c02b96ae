"""Capture the text of the paper tables the architecture models feed.

``capture()`` is what ``repro experiments E5 E6 ... E14`` prints: the
ten Section IV experiments whose every cell comes from a model's
answers and measured costs (E1-E4 stay out -- they print wall-clock
columns).  ``fixtures/experiments_E5_E14.txt`` is this output at the
commit *before* cost was derived from the captured trace; the golden
test in ``test_experiments.py`` holds every later commit to it, byte
for byte.

Run ``PYTHONPATH=src python tests/eval/report_capture.py`` to print the
report, ``--write`` to regenerate the fixture (the capture goes through
the CLI entry point only, so it runs unchanged on older checkouts).
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

from repro.cli import main

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "experiments_E5_E14.txt"
EXPERIMENT_IDS = [f"E{number}" for number in range(5, 15)]


def capture() -> str:
    """The report text, exactly as the CLI writes it to stdout."""
    out = io.StringIO()
    assert main(["experiments", *EXPERIMENT_IDS], out=out) == 0
    return out.getvalue()


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        FIXTURE.write_text(capture(), encoding="utf-8")
    else:
        sys.stdout.write(capture())
