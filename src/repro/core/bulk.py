"""Bulk-load discipline: build large live structures with the collector paused.

Opening a store, or building a closure's labels, allocates tens of
thousands of containers that all stay reachable.  The cyclic collector
counts allocations, so it runs hundreds of passes over them, and each
full pass walks the whole heap of the opening process, with nothing to
free.  Reference counting still frees the temporaries; only cycle
detection waits until the load is over.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off, then put it back as it was.

    A caller who had the collector disabled keeps it disabled; one who had
    it enabled has it enabled again however the block exits.  Nothing is
    frozen and no threshold moves.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
