"""Locate the program under test for the scripts of ``benchmarks/layers``.

The benchmark is run as plain files from the root of a checkout, so each
entry point imports this module first: it puts the checkout's ``src/`` on
``sys.path`` and fails (an ImportError: non-zero exit, nothing on stdout) when
the checkout holds no program to measure.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
#: everything a run leaves behind (span dumps, temp stores) lands here
OUT = HERE / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"benchmarks/layers: no program to measure ({SRC}/repro is missing)")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
