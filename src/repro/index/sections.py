"""The index checkpoint's container, and the open-time checks of its sections.

An adopted index checkpoint (``docs/STORAGE.md``, "Open path") names each
record by its position in the backend's record order.  Its body is one
JSON header line and, after it, packed little-endian columns: ``int64``
positions and counts, ``float64`` coordinates.  :func:`pack` turns a state
whose leaves may be :class:`array.array` columns into that body;
:func:`read_header` and :func:`read_columns` turn it back, refusing (with
``ValueError``) a body whose columns do not fill it exactly.

The attribute, temporal and spatial indexes check their sections whole
when the store opens -- ``min`` / ``max`` / ``sum`` over columns, no
Python loop per bucket -- and build each one on its first probe.  So a
check raises what the build would have raised on the same state, and a
build of a checked section raises nothing.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Any, List, Optional, Tuple

__all__ = ["BYTE_ORDER", "check_positions", "column", "pack", "read_columns", "read_header"]

#: this host's byte order; on a little-endian one a column is its own memory
BYTE_ORDER = sys.byteorder
#: the column types a checkpoint holds (``int64``, ``float64``) and their widths, in
#: the order their columns follow the header (integers beside integers compress better)
_WIDTHS = {"q": 8, "d": 8}


def _header_of(node: dict, path: List[str], columns: List[Tuple[List[str], array]]) -> dict:
    """``node`` without its arrays, which go to ``columns`` with their key paths.

    (A module function, not a closure over ``columns``: a nested function
    that calls itself is a reference cycle, and would keep every column
    alive until the cyclic collector runs.)
    """
    header = {}
    for key, value in node.items():
        if isinstance(value, array):
            columns.append(([*path, key], value))
        else:
            header[key] = _header_of(value, [*path, key], columns) if isinstance(value, dict) else value
    return header


def pack(state: dict) -> bytes:
    """``state`` as one header line and its columns, ready to compress.

    Every :class:`array.array` under a dict of ``state`` leaves the header
    for the columns; the header's ``columns`` lists each one's key path,
    type code and length, in the order the columns follow the line: the
    ``int64`` ones, then the ``float64`` ones.
    """
    columns: List[Tuple[List[str], array]] = []
    header = _header_of(state, [], columns)
    columns.sort(key=lambda entry: list(_WIDTHS).index(entry[1].typecode))
    header["columns"] = [[path, values.typecode, len(values)] for path, values in columns]
    body = [json.dumps(header, separators=(",", ":")).encode("utf-8"), b"\n"]
    for _, values in columns:
        if BYTE_ORDER == "little":
            body.append(values.tobytes())
        else:
            body.append(struct.pack(f"<{len(values)}{values.typecode}", *values))
    return b"".join(body)


def read_header(body: bytes) -> Tuple[Any, Optional[memoryview]]:
    """The parsed header line of ``body`` and the bytes after it.

    ``None`` for the bytes when there is no line break: a body written
    before the columns (``format`` 1, zlib over JSON) is all header.
    Raises ``ValueError`` on a header that is not JSON.
    """
    end = body.find(b"\n")
    if end < 0:
        return json.loads(body), None
    return json.loads(body[:end]), memoryview(body)[end + 1:]


def read_columns(header: dict, data: Optional[memoryview]) -> dict:
    """``header`` with its ``columns`` read from ``data`` and put where :func:`pack` took them.

    Raises ``ValueError`` unless the columns fill ``data`` exactly, each of
    a known type (``None`` data: no columns at all), and what a header
    that no :func:`pack` wrote raises on the way (``TypeError``,
    ``LookupError``, ``AttributeError``).
    """
    if data is None:
        raise ValueError("no columns after the header")
    listed = header.pop("columns")
    offset = 0
    for path, code, length in listed:
        width = _WIDTHS.get(code)
        if width is None:
            raise ValueError(f"unknown column type {code!r}")
        if not (isinstance(length, int) and length >= 0):
            raise ValueError(f"column length {length!r}")
        end = offset + width * length
        if end > len(data):
            raise ValueError(f"column {'.'.join(map(str, path))} shorter than its header says")
        if BYTE_ORDER == "little":
            values = array(code)
            values.frombytes(data[offset:end])
        else:
            values = array(code, struct.unpack(f"<{length}{code}", data[offset:end]))
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = values
        offset = end
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} bytes after the last column")
    return header


def column(values: Any, code: str) -> array:
    """``values`` when it is a column of type ``code``; ``TypeError`` otherwise."""
    if not (isinstance(values, array) and values.typecode == code):
        raise TypeError(f"expected a column of type {code!r}, got {type(values).__name__}")
    return values


def check_positions(positions: Any, count: int) -> array:
    """``positions`` when it is an ``int64`` column that indexes a list of ``count`` names.

    ``TypeError`` for anything but such a column, ``ValueError`` for a
    negative position (indexing would not raise: it would name the wrong
    record), ``IndexError`` for one past the end.
    """
    positions = column(positions, "q")
    # One pass: read unsigned, a negative position is past any count.
    if positions and max(memoryview(positions).cast("B").cast("Q")) >= count:
        if min(positions) < 0:
            raise ValueError("negative position")
        raise IndexError("list index out of range")
    return positions
