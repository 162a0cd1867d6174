"""The append-only buffer behind retained votes and majority histories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.buffers import MIN_CAPACITY, AppendArray


def test_appends_keep_order_and_cast_to_the_dtype():
    buffer = AppendArray(np.uint16, [1, 2])
    buffer.append(3)
    buffer.extend([4, 5])
    buffer.extend(np.array([6], dtype=np.int64))
    buffer.extend([])
    assert len(buffer) == 6
    assert buffer.view().dtype == np.uint16
    assert buffer.view().tolist() == [1, 2, 3, 4, 5, 6]


def test_views_never_change_after_later_appends_and_growth():
    buffer = AppendArray(np.int64)
    views = []
    for value in range(50 * MIN_CAPACITY):  # many growths
        buffer.append(value)
        if value % 7 == 0:
            views.append((buffer.view(), value + 1))
    for view, size in views:
        assert view.tolist() == list(range(size))


def test_views_are_read_only():
    view = AppendArray(np.int8, [1, 0]).view()
    with pytest.raises(ValueError):
        view[0] = 0


def test_initial_contents_are_copied_not_aliased():
    source = np.array([7, 8, 9], dtype=np.int64)
    buffer = AppendArray(np.int64, source)
    source[0] = 0
    assert buffer.view().tolist() == [7, 8, 9]
