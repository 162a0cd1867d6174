"""Append-only flat numpy buffers.

A streaming session retains one record per ingested vote and per column
for as long as it lives.  Kept as Python lists or as one small numpy
array per column, each record costs tens of bytes of object overhead;
an :class:`AppendArray` keeps them in one contiguous typed array that
grows geometrically, so a record costs its ``itemsize`` plus amortised
slack.

Entries are never rewritten once appended.  :meth:`AppendArray.view`
therefore hands out the filled prefix *without copying*: a later append
either writes past the end of every view already handed out or moves
future writes to a fresh, larger buffer, and neither touches a viewed
byte.  Snapshots and materialisations read the store directly.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

#: Capacity grows by this factor when full (amortised O(1) appends; the
#: unfilled tail is at most a fifth of the buffer).
GROWTH = 1.25

#: Smallest capacity ever allocated.
MIN_CAPACITY = 16


class AppendArray:
    """A one-dimensional, append-only, growable numpy array.

    Parameters
    ----------
    dtype:
        Element type; appended values are cast to it.
    initial:
        Optional starting contents, copied into the buffer (the caller's
        array is never aliased, so it may be mutated afterwards).

    Examples
    --------
    >>> history = AppendArray(np.int64, [0])
    >>> history.append(3)
    >>> history.extend([5, 8])
    >>> history.view().tolist(), len(history)
    ([0, 3, 5, 8], 4)
    """

    __slots__ = ("_buffer", "_size")

    def __init__(self, dtype, initial: Optional[Iterable] = None) -> None:
        values = np.asarray([] if initial is None else initial).ravel()
        self._buffer = np.empty(max(values.size, MIN_CAPACITY), dtype=dtype)
        self._buffer[: values.size] = values
        self._size = int(values.size)

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed > self._buffer.size:
            grown = np.empty(
                max(needed, int(self._buffer.size * GROWTH)), dtype=self._buffer.dtype
            )
            grown[: self._size] = self._buffer[: self._size]
            self._buffer = grown

    def append(self, value) -> None:
        """Append one value."""
        self._reserve(1)
        self._buffer[self._size] = value
        self._size += 1

    def extend(self, values) -> None:
        """Append every value of a sequence or array, in order."""
        count = len(values)
        self._reserve(count)
        self._buffer[self._size : self._size + count] = values
        self._size += count

    def view(self) -> np.ndarray:
        """The filled prefix as a read-only array, without copying."""
        prefix = self._buffer[: self._size]
        prefix.flags.writeable = False
        return prefix
