"""The one loader of the benchmark artifact writer.

``write_bench_json`` lives in ``conftest.py``, next to the pytest
fixture that shares it.  The ``bench_*.py`` files run both as plain
scripts and under pytest -- where the name ``conftest`` may already be
another directory's module -- so they reach the writer through this
module, which loads that file by path, once per process.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_MODULE_NAME = "repro_bench_results"


def write_bench_json(area: str, payload: dict) -> Path:
    """``conftest.write_bench_json``: persist ``results/BENCH_<area>.json``."""
    module = sys.modules.get(_MODULE_NAME)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            _MODULE_NAME, Path(__file__).resolve().with_name("conftest.py")
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[_MODULE_NAME] = module
        spec.loader.exec_module(module)
    return module.write_bench_json(area, payload)
