"""Open-time checks of a checkpointed index section.

An adopted index checkpoint (``docs/STORAGE.md``, "Open path") names each
record by its position in the backend's record order.  The attribute,
temporal and spatial indexes check their sections whole when the store
opens -- ``min`` / ``max`` / ``sum`` over flat lists, no Python loop per
bucket -- and build each one on its first probe.  So a check raises what
the build would have raised on the same state, and a build of a checked
section raises nothing.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["check_positions"]


def check_positions(positions: Sequence, count: int) -> None:
    """Raise unless every one of ``positions`` indexes a list of ``count`` names.

    ``ValueError`` for a negative position (indexing would not raise: it
    would name the wrong record), ``TypeError`` for one that is no
    integer, ``IndexError`` for one past the end.
    """
    if not positions:
        return
    if min(positions) < 0:
        raise ValueError("negative position")
    # (min passed, so every entry is a number; a float or a nan makes the sum one)
    if not isinstance(sum(positions), int):
        raise TypeError("list indices must be integers or slices, not float")
    if max(positions) >= count:
        raise IndexError("list index out of range")
