"""Append-only arrays that grow into bounded spare capacity.

Live ingestion adds a few rows at a time to matrices holding thousands.
Concatenating copies every stored row on every append; :func:`append_rows`
instead writes the new rows into spare room behind the stored ones and
copies only when that room runs out, reallocating with about one eighth of
the rows spare.  A run of small appends then costs amortized O(appended
rows) each.

The grown array is a plain leading-slice view of its buffer, so kernels,
readers and pickles see exactly the used rows: pickling a view serializes
only its own elements, so spare capacity never reaches a spool or a
snapshot.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _span(array: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    """``array[start:stop]`` along ``axis`` (a view)."""
    index = [slice(None)] * array.ndim
    index[axis] = slice(start, stop)
    return array[tuple(index)]


def append_rows(
    used: np.ndarray, spare: Optional[np.ndarray], rows: np.ndarray, axis: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.concatenate([used, rows], axis)``, written into ``spare`` when it has room.

    ``spare`` is the buffer a previous call returned alongside ``used``.  It
    is written only while ``used`` is still its leading slice, so a caller
    that has since replaced ``used`` (a refit, a restore) never appends
    behind stale rows.  Otherwise, or when the buffer is full or of a
    narrower dtype, a new buffer with room for about ``total // 8`` more
    rows is allocated and ``used`` copied into it.  Elements of ``used``
    are never rewritten, so views a reader took earlier stay valid.

    Returns ``(grown, buffer)``: the grown view, bitwise equal to the
    concatenation, and the buffer to pass back on the next call.
    """
    axis = axis % used.ndim
    count = used.shape[axis]
    total = count + rows.shape[axis]
    dtype = np.result_type(used, rows)
    if (
        spare is None
        or used.base is not spare
        or used.__array_interface__["data"][0] != spare.__array_interface__["data"][0]
        or spare.shape[axis] < total
        or spare.dtype != dtype
    ):
        shape = list(used.shape)
        shape[axis] = total + total // 8
        spare = np.empty(shape, dtype=dtype)
        _span(spare, axis, 0, count)[...] = used
    _span(spare, axis, count, total)[...] = rows
    return _span(spare, axis, 0, total), spare
