"""Switch counting and the SWITCH remaining-switch estimator (Section 4).

The paper reformulates the quality-estimation problem: instead of asking
"how many errors does the dataset contain?" it asks "how many of the
current majority-consensus decisions will still *switch* before reaching
the ground truth?" (Problem 2).  Switches are far more robust to false
positives than raw positive votes, because a single stray vote rarely flips
a consensus that already has support.

Per item, the vote sequence is scanned with the paper's conventions:

* every item starts with the default label *clean*;
* after each vote the consensus label is recomputed: a strict positive
  majority means *dirty*, a strict negative majority means *clean*, and a
  **tie** flips the label away from its current value (the paper's
  "assume a switch happens every time there is a tie");
* every change of the consensus label is a switch — this covers both the
  first positive vote (Equation 7, part ii) and every tie (Equation 7,
  part i);
* a vote that does not change the consensus *rediscovers* the current
  switch (singleton → doubleton → ...), defining the f'-statistics;
* votes before an item's first switch are no-ops: they contribute neither
  to the f'-statistics nor to the adjusted observation count ``n_switch``.

The only place this deviates from a literal reading of Equation 7 is the
vote immediately after a tie: when that vote restores the pre-tie
majority, the consensus label changes again and we count a switch even
though no new tie occurred.  Tracking the consensus directly keeps the
final per-item labels consistent with the majority vote, which is what
both the rediscovery bookkeeping and the total-error correction of
Section 4.3 rely on.

The total number of remaining switches is then estimated with the same
sample-coverage machinery as Chao92 (Equation 8), and split into positive
(clean→dirty) and negative (dirty→clean) switches for the total-error
correction of Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core import _scan_kernels
from repro.core.backend import ArrayBackend, resolve_backend
from repro.core.base import EstimateResult, StateEstimatorMixin
from repro.core.chao92 import (
    _pair_sum,
    _skew_from_stats,
    chao92_components_from_stats,
    chao92_estimate,
)
from repro.core.fstatistics import (
    Fingerprint,
    IncrementalFingerprint,
    fingerprint_from_counts,
)
from repro.crowd.response_matrix import ResponseMatrix

#: Direction labels for switches.
POSITIVE = "positive"  # consensus flips clean -> dirty
NEGATIVE = "negative"  # consensus flips dirty -> clean


def _seen_count_dtype(num_columns: int) -> type:
    """Dtype of the cumulative seen-vote table (bounded by the column count).

    int16 halves the memory traffic of the scan's largest table, but a
    row's cumulative count can reach ``num_columns`` — promote to int32
    once that no longer fits, instead of wrapping silently (pinned at the
    boundary by ``tests/test_backend.py``).
    """
    return np.int16 if num_columns < np.iinfo(np.int16).max else np.int32


def _margin_cumsum_dtype(num_votes: int) -> type:
    """Dtype of the *global* margin accumulator of the vectorised compaction.

    Per-row margins are bounded by the column count, but the vectorised
    formulation subtracts a row base from one global running sum whose
    magnitude is bounded only by the total vote count ``V = R * N * K`` —
    promote to int64 before ``V`` can exceed the int32 range (the fused
    numba kernel has no global accumulator and needs no promotion).
    """
    return np.int64 if num_votes > np.iinfo(np.int32).max else np.int32


def _seen_cumsum(seen_by_column: np.ndarray, dtype: type) -> np.ndarray:
    """(N, K) running seen-vote count per row, from a ``(K, N)`` seen mask.

    Built with one vector add per column over all rows at once: numpy's
    ``cumsum`` pays several nanoseconds per element on either axis, while
    ``K`` contiguous adds of length ``N`` stream at memory speed (~6x
    faster on a 50000 x 200 stack).  Each column costs one ufunc call
    (~1-3 us), so a single 40,000-column row takes ~0.1 s; the scan's
    inputs are tall (items x permutations rows), not wide.  Returned as
    the transposed view, so it is indexed ``[row, column]`` like the
    matrix it counts.
    """
    counts = seen_by_column.astype(dtype)
    for column in range(1, counts.shape[0]):
        np.add(counts[column], counts[column - 1], out=counts[column])
    return counts.T


def _seen_votes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and ±1 margin delta of every seen vote, row-major order.

    One ``flatnonzero`` over a row-major seen mask yields each seen vote
    as a flat index; ``divmod`` by the column count splits it into row
    and column, and a flat gather reads the vote (+1 dirty, -1 clean).
    The row-major copy and the mask are temporaries of this call.
    """
    rows_major = np.ascontiguousarray(values)
    flat = np.flatnonzero(rows_major != UNSEEN)
    deltas = (rows_major.ravel()[flat] == DIRTY).astype(np.int32)
    deltas *= 2
    deltas -= 1
    rows, cols = np.divmod(flat, values.shape[1])
    return rows, cols, deltas


@dataclass(frozen=True)
class SwitchEvent:
    """One observed consensus switch on one item.

    Attributes
    ----------
    item_id:
        The item whose consensus switched.
    direction:
        ``"positive"`` (clean→dirty) or ``"negative"`` (dirty→clean).
    vote_index:
        1-based position within the item's own vote sequence at which the
        switch occurred.
    rediscoveries:
        How many times the switch was observed: 1 for the switch-causing
        vote plus one per subsequent non-switching vote (this is the
        occurrence count that feeds the f'-statistics).
    """

    item_id: int
    direction: str
    vote_index: int
    rediscoveries: int


@dataclass
class SwitchStatistics:
    """All switch-derived statistics of a response-matrix prefix.

    Attributes
    ----------
    events:
        Every observed switch event, in scan order.
    num_switches:
        ``switch(I)`` — the total number of observed switches (Equation 7).
    items_with_switches:
        ``c_switch`` — the number of items with at least one switch.
    n_switch:
        The adjusted observation count: all votes minus the per-item no-op
        votes preceding the first switch.
    total_votes:
        The unadjusted total number of votes in the prefix.
    final_consensus:
        Mapping from item id to its consensus label after the scan
        (0 = clean, 1 = dirty), using the paper's default-clean /
        tie-switches convention.
    """

    events: List[SwitchEvent] = field(default_factory=list)
    num_switches: int = 0
    items_with_switches: int = 0
    n_switch: int = 0
    total_votes: int = 0
    final_consensus: Dict[int, int] = field(default_factory=dict)

    # -- convenience filters ------------------------------------------- #
    def events_by_direction(self, direction: str) -> List[SwitchEvent]:
        """Return the switch events of one direction."""
        return [event for event in self.events if event.direction == direction]

    def num_switches_by_direction(self, direction: str) -> int:
        """Observed switch count restricted to one direction."""
        return len(self.events_by_direction(direction))

    def items_with_direction(self, direction: str) -> int:
        """Number of items with at least one switch of the given direction."""
        return len({event.item_id for event in self.events if event.direction == direction})

    def fingerprint(self, direction: Optional[str] = None) -> Fingerprint:
        """Build the f'-statistics fingerprint over switch rediscovery counts.

        Parameters
        ----------
        direction:
            Restrict to ``"positive"`` or ``"negative"`` switches; ``None``
            uses every switch.  The observation count is always the full
            ``n_switch`` (the adjusted vote count), matching the paper's
            choice to "simply count all votes as n".
        """
        events = self.events if direction is None else self.events_by_direction(direction)
        counts = [event.rediscoveries for event in events]
        fingerprint = fingerprint_from_counts(counts, num_observations=self.n_switch)
        return fingerprint


class _SwitchScan:
    """Vectorised switch bookkeeping for every item and every prefix.

    The sequential recurrence of the per-item scan collapses into closed
    form on the cumulative margins ``m_t = n_t^+ - n_t^-``: a strict
    majority fixes the consensus to ``sign(m_t)`` regardless of history,
    and a tie (``m_t = 0``) can only follow a seen vote with ``m = ±1``,
    so the tie-flip target is ``1`` iff the previous column's margin was
    negative.  Events are detected on the compacted stream of *seen* votes
    (row-major order, matching the order the sequential scan emitted
    them), so the per-event work is O(votes).  The only full ``N x K``
    passes build the cumulative seen-count table (int16 or int32, bounded
    by the column count; one vector add per column over a column-major
    seen mask, see :func:`_seen_cumsum`) and find the seen votes (one
    flat ``flatnonzero`` over a row-major mask, see :func:`_seen_votes`).
    ``values`` may come in either memory layout; the batch engine hands
    in a column-major stack, which the seen-count pass reads as is.

    Rows are independent, which is what lets the cross-permutation batch
    engine scan ``R`` stacked permutations as one ``(R * N) x K`` array.

    All event arrays are aligned and sorted in row-major scan order (item
    row, then column) — the same order the sequential scan emitted events.

    The backend (default: the numpy reference, or whatever
    ``REPRO_BACKEND`` names) only chooses the compaction: the vectorised
    NumPy formulation, or the fused loop of
    :mod:`repro.core._scan_kernels` when its ``compiled_scans`` flag is
    set (the numba backend).  Both produce bit-identical event arrays
    (all-integer arithmetic, pinned by the parity suite).
    """

    def __init__(
        self,
        values: np.ndarray,
        backend: Union[ArrayBackend, str, None] = None,
    ):
        backend = resolve_backend(backend)
        self.backend = backend
        num_columns = values.shape[1]
        self.num_columns = int(num_columns)
        #: (N, K) cumulative count of seen (non-UNSEEN) votes per item.
        self.seen_cum = _seen_cumsum(
            np.ascontiguousarray(values.T) != UNSEEN, _seen_count_dtype(num_columns)
        )
        self._values = values
        empty = np.zeros(0, dtype=np.int64)
        #: (V,) row / column of every seen vote, in row-major scan order.
        self.vote_rows = empty
        self.vote_cols = empty
        #: (V,) per-vote change of the majority count (-1, 0 or +1); the
        #: batch engine folds these per column into majority histories.
        self.vote_majority_delta = np.zeros(0, dtype=np.int8)
        self.event_rows = empty
        self.event_cols = empty
        self.event_states = empty
        self.event_vote_index = empty
        self.event_next_col = empty
        if num_columns == 0:
            return
        compacted = self._compact_host(backend, values)
        if compacted is None:
            return
        seen_rows, seen_cols, votes_state, is_event, majority_delta = compacted
        self.vote_rows = seen_rows
        self.vote_cols = seen_cols
        self.vote_majority_delta = majority_delta
        self.event_rows = seen_rows[is_event]
        self.event_cols = seen_cols[is_event]
        self.event_states = votes_state[is_event].astype(np.int64)
        self.event_vote_index = self.seen_cum[
            self.event_rows, self.event_cols
        ].astype(np.int64)
        num_events = self.event_rows.size
        event_next_col = np.full(num_events, num_columns, dtype=np.int64)
        if num_events > 1:
            same_item = self.event_rows[:-1] == self.event_rows[1:]
            event_next_col[:-1][same_item] = self.event_cols[1:][same_item]
        self.event_next_col = event_next_col

    def _compact_host(self, backend: ArrayBackend, values: np.ndarray):
        """Per-vote states/events over the seen-vote stream (vectorised or fused).

        Everything runs on the compacted stream of seen votes (O(votes),
        not O(N x K)).  The vectorised path derives the per-vote margin
        from a segmented cumulative sum: a global cumsum of the ±1 deltas
        minus each row's base offset (the cumulative value just before
        the row's first vote).  A row's votes start at the running total
        of the per-row vote counts (the last column of ``seen_cum``); rows
        without votes own no slice of the stream and are skipped.  The
        fused kernel keeps one scalar margin per row run instead — no
        global accumulator, no temporaries.
        """
        seen_rows, seen_cols, deltas = _seen_votes(values)
        if seen_rows.size == 0:
            return None
        if backend.compiled_scans:
            votes_state, is_event, majority_delta = _scan_kernels.compact_events(
                seen_rows, deltas
            )
            return seen_rows, seen_cols, votes_state, is_event, majority_delta
        margin_at_vote = np.cumsum(deltas, dtype=_margin_cumsum_dtype(deltas.size))
        row_counts = self.seen_cum[:, -1]
        row_counts = row_counts[row_counts > 0]
        starts = np.cumsum(row_counts, dtype=np.int64) - row_counts
        margin_at_vote -= np.repeat(
            margin_at_vote[starts] - deltas[starts], row_counts
        )
        previous_margin = margin_at_vote - deltas
        # A tie can only follow a margin of ±1, so the flip target is dirty
        # iff the margin before this vote was negative.
        votes_state = (margin_at_vote > 0) | (
            (margin_at_vote == 0) & (previous_margin < 0)
        )
        is_dirty = margin_at_vote > 0
        majority_delta = is_dirty.astype(np.int8) - (previous_margin > 0)
        previous_state = np.zeros_like(votes_state)
        previous_state[1:] = votes_state[:-1]
        # The first seen vote of each row compares against the default
        # clean state, not against the previous row's last vote.
        previous_state[starts] = False
        is_event = votes_state != previous_state
        return seen_rows, seen_cols, votes_state, is_event, majority_delta

    @cached_property
    def state(self) -> np.ndarray:
        """(N, K) consensus label after each column (tie-flip convention).

        Unseen columns carry the last seen state forward (items start
        clean).  Only the materialised-statistics path reads this (for the
        per-prefix ``final_consensus``); the estimator hot paths never
        trigger the full-matrix reconstruction.
        """
        values = self._values
        if self.num_columns == 0:
            return np.zeros((values.shape[0], 0), dtype=np.int8)
        margin = np.cumsum(
            (values == DIRTY).astype(np.int8) - (values == CLEAN),
            axis=1,
            dtype=np.int32,
        )
        tie_to_dirty = np.zeros(margin.shape, dtype=bool)
        tie_to_dirty[:, 1:] = margin[:, :-1] < 0
        state_at_vote = np.where(margin > 0, True, np.where(margin < 0, False, tie_to_dirty))
        columns = np.arange(self.num_columns, dtype=np.int32)
        last_seen = np.maximum.accumulate(
            np.where(values != UNSEEN, columns, np.int32(-1)), axis=1
        )
        return np.where(
            last_seen >= 0,
            np.take_along_axis(state_at_vote, np.maximum(last_seen, 0), axis=1),
            False,
        ).astype(np.int8)

    def rediscoveries(self, upto: int, active: np.ndarray) -> np.ndarray:
        """Occurrence counts of the ``active`` events within the first ``upto`` columns.

        An event is rediscovered by every seen vote from its switch vote up
        to (excluding) the item's next switch, truncated at the prefix end.
        ``active`` may be a boolean mask or an integer index array over the
        event arrays.
        """
        rows = self.event_rows[active]
        last_col = np.minimum(self.event_next_col[active], upto) - 1
        return (
            self.seen_cum[rows, last_col] - self.event_vote_index[active] + 1
        )


def _distinct_sorted(values: np.ndarray) -> int:
    """Distinct-value count of an ascending-sorted array (O(E), no hashing).

    The event-row arrays of a scan are emitted in row-major order, so the
    runs of equal values are contiguous — counting run boundaries replaces
    the hash-based ``np.unique`` the sweep hot path used to pay for.
    """
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values[1:] != values[:-1])) + 1


def _statistics_at(
    matrix: ResponseMatrix, scan: _SwitchScan, upto: int
) -> SwitchStatistics:
    """Materialise the :class:`SwitchStatistics` of one prefix from a scan."""
    stats = SwitchStatistics()
    item_ids = matrix.item_ids
    if upto == 0:
        stats.final_consensus = {item: 0 for item in item_ids}
        return stats
    active = scan.event_cols < upto
    rediscoveries = scan.rediscoveries(upto, active)
    directions = np.where(scan.event_states[active] == 1, POSITIVE, NEGATIVE)
    stats.events = [
        SwitchEvent(
            item_id=item_ids[row],
            direction=direction,
            vote_index=int(vote_index),
            rediscoveries=int(count),
        )
        for row, direction, vote_index, count in zip(
            scan.event_rows[active],
            (str(d) for d in directions),
            scan.event_vote_index[active],
            rediscoveries,
        )
    ]
    stats.num_switches = len(stats.events)
    stats.items_with_switches = _distinct_sorted(scan.event_rows[active])
    stats.n_switch = int(rediscoveries.sum())
    stats.total_votes = int(scan.seen_cum[:, upto - 1].sum(dtype=np.int64))
    final_states = scan.state[:, upto - 1]
    stats.final_consensus = {
        item: int(label) for item, label in zip(item_ids, final_states)
    }
    return stats


def switch_statistics(matrix: ResponseMatrix, upto: Optional[int] = None) -> SwitchStatistics:
    """Compute all switch statistics of a response-matrix prefix.

    Parameters
    ----------
    matrix:
        The worker-response matrix.
    upto:
        Use only the first ``upto`` columns (``None`` = all).
    """
    upto = matrix.resolve_upto(upto)
    scan = _SwitchScan(matrix.values[:, :upto])
    return _statistics_at(matrix, scan, upto)


def switch_statistics_sweep(
    matrix: ResponseMatrix, checkpoints: Sequence[int]
) -> List[SwitchStatistics]:
    """Switch statistics at every checkpoint prefix from one matrix scan.

    Equivalent to ``[switch_statistics(matrix, cp) for cp in checkpoints]``
    but the matrix is scanned once; each checkpoint then only re-slices the
    precomputed event arrays (cost proportional to the number of switch
    events, not to ``N x K``).
    """
    resolved = [matrix.resolve_upto(checkpoint) for checkpoint in checkpoints]
    scan = _SwitchScan(matrix.values)
    return [_statistics_at(matrix, scan, upto) for upto in resolved]


def _fingerprint_from_rediscoveries(
    rediscoveries: np.ndarray, n_switch: int
) -> Fingerprint:
    """Fingerprint over event occurrence counts, straight from the array.

    Produces the same :class:`Fingerprint` as
    ``fingerprint_from_counts(rediscoveries.tolist(), num_observations=n_switch)``
    without materialising a Python list (rediscovery counts are >= 1 by
    construction, so no zero-filtering is needed).
    """
    if rediscoveries.size == 0:
        return Fingerprint(frequencies={}, num_observations=n_switch)
    bins = np.bincount(rediscoveries)
    frequencies = {
        int(j): int(count) for j, count in enumerate(bins) if j >= 1 and count
    }
    return Fingerprint(frequencies=frequencies, num_observations=n_switch)


class _EstimationSwitchStats:
    """Array-backed stand-in for :class:`SwitchStatistics` in the sweep hot path.

    Exposes exactly the interface the switch estimators consume
    (``fingerprint``, the direction filters and the scalar counts) while
    keeping events as NumPy arrays — no per-event objects, so a sweep over
    many checkpoints stays proportional to the event count in C, not in
    Python.  All quantities are integers identical to the materialised
    statistics, so every downstream estimate is bit-identical.
    """

    __slots__ = (
        "num_switches",
        "items_with_switches",
        "n_switch",
        "total_votes",
        "_rediscoveries",
        "_states",
        "_rows",
        "_positive_mask",
        "_negative_mask",
    )

    def __init__(
        self,
        rediscoveries: np.ndarray,
        states: np.ndarray,
        rows: np.ndarray,
        total_votes: int,
    ):
        self._rediscoveries = rediscoveries
        self._states = states
        self._rows = rows
        self._positive_mask: Optional[np.ndarray] = None
        self._negative_mask: Optional[np.ndarray] = None
        self.num_switches = int(rediscoveries.size)
        self.items_with_switches = _distinct_sorted(rows)
        self.n_switch = int(rediscoveries.sum())
        self.total_votes = total_votes

    def _direction_mask(self, direction: str) -> np.ndarray:
        # The SWITCH total-error estimator reads both directions several
        # times per evaluation; one cached comparison serves them all.
        if direction == POSITIVE:
            if self._positive_mask is None:
                self._positive_mask = self._states == 1
            return self._positive_mask
        if self._negative_mask is None:
            self._negative_mask = self._states == 0
        return self._negative_mask

    def num_switches_by_direction(self, direction: str) -> int:
        """Observed switch count restricted to one direction."""
        return int(self._direction_mask(direction).sum())

    def items_with_direction(self, direction: str) -> int:
        """Number of items with at least one switch of the given direction."""
        return _distinct_sorted(self._rows[self._direction_mask(direction)])

    def fingerprint(self, direction: Optional[str] = None) -> Fingerprint:
        """f'-statistics over rediscovery counts (see :class:`SwitchStatistics`)."""
        counts = (
            self._rediscoveries
            if direction is None
            else self._rediscoveries[self._direction_mask(direction)]
        )
        return _fingerprint_from_rediscoveries(counts, self.n_switch)


class _SwitchSweepCells:
    """Switch sufficient statistics for every checkpoint of one permutation.

    One vectorised ``(events x checkpoints)`` pass replaces the per-cell
    event slicing the batched switch estimators would otherwise pay
    ``m`` times: rediscovery counts are truncated against every checkpoint
    at once, and the distinct-item counts become ``searchsorted`` lookups
    over the per-item first-switch columns (an item has an active switch at
    checkpoint ``upto`` iff its first switch of that direction happened
    before column ``upto``).

    Every exposed array is indexed by checkpoint and holds exact integers
    identical to the per-cell :class:`_EstimationSwitchStats`; the direction
    keys are ``None`` (all switches), :data:`POSITIVE` and :data:`NEGATIVE`.
    """

    __slots__ = ("n_switch", "total_votes", "counts", "singletons", "pair_sums", "items")

    def __init__(
        self,
        scan: _SwitchScan,
        low: int,
        high: int,
        resolved: Sequence[int],
        total_votes: np.ndarray,
    ):
        if scan.backend.compiled_scans:
            self.total_votes = total_votes
            self._from_kernel(scan, low, high, resolved)
            return
        checkpoints = np.asarray(resolved, dtype=np.int64)[None, :]
        rows = scan.event_rows[low:high]
        cols = scan.event_cols[low:high]
        vote_index = scan.event_vote_index[low:high]
        next_col = scan.event_next_col[low:high]
        positive = scan.event_states[low:high] == 1
        #: (m,) unadjusted vote totals per checkpoint.
        self.total_votes = total_votes
        active = cols[:, None] < checkpoints  # (E, m)
        last_col = np.minimum(next_col[:, None], checkpoints) - 1
        # Rediscovery counts truncated at each checkpoint; the ``upto = 0``
        # column gathers wrap to the last column but are masked out by
        # ``active`` (no event can precede column 0).
        rediscoveries = np.where(
            active,
            scan.seen_cum[rows[:, None], last_col] - vote_index[:, None] + 1,
            0,
        )
        #: (m,) adjusted observation count ``n_switch`` per checkpoint.
        self.n_switch = rediscoveries.sum(axis=0, dtype=np.int64)
        masks = {
            None: active,
            POSITIVE: active & positive[:, None],
            NEGATIVE: active & ~positive[:, None],
        }
        #: direction -> (m,) observed switch counts.
        self.counts = {}
        #: direction -> (m,) singleton (f'_1) counts.
        self.singletons = {}
        #: direction -> (m,) skew pair sums ``sum_e r_e (r_e - 1)``.
        self.pair_sums = {}
        #: direction -> (m,) distinct items with at least one switch.
        self.items = {}
        for direction, mask in masks.items():
            masked = np.where(mask, rediscoveries, 0)
            self.counts[direction] = mask.sum(axis=0, dtype=np.int64)
            self.singletons[direction] = (masked == 1).sum(axis=0, dtype=np.int64)
            self.pair_sums[direction] = (masked * (masked - 1)).sum(axis=0, dtype=np.int64)
        for direction, event_filter in (
            (None, slice(None)),
            (POSITIVE, positive),
            (NEGATIVE, ~positive),
        ):
            first = _first_columns_per_row(rows[event_filter], cols[event_filter])
            self.items[direction] = np.searchsorted(first, checkpoints[0], side="left")

    def _from_kernel(
        self, scan: _SwitchScan, low: int, high: int, resolved: Sequence[int]
    ) -> None:
        """Fill the per-checkpoint tables from the fused scan kernel.

        One compiled loop over the active (event, checkpoint) pairs
        replaces the ~10 dense ``(events x checkpoints)`` temporaries of
        the vectorised formulation; the kernel's integers are identical
        by construction (see :mod:`repro.core._scan_kernels`).
        """
        n_switch, counts, singletons, pair_sums, items = _scan_kernels.sweep_cells(
            scan.event_rows[low:high],
            scan.event_cols[low:high],
            scan.event_vote_index[low:high],
            scan.event_next_col[low:high],
            scan.event_states[low:high] == 1,
            scan.seen_cum,
            np.asarray(resolved, dtype=np.int64),
        )
        self.n_switch = n_switch
        directions = (None, POSITIVE, NEGATIVE)
        self.counts = {d: counts[i] for i, d in enumerate(directions)}
        self.singletons = {d: singletons[i] for i, d in enumerate(directions)}
        self.pair_sums = {d: pair_sums[i] for i, d in enumerate(directions)}
        self.items = {d: items[i] for i, d in enumerate(directions)}


def _first_columns_per_row(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sorted first-event columns per distinct row of a row-major event list.

    ``rows`` is ascending and each row's events are in column order, so the
    first event of each run is that row's earliest switch.
    """
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    first = np.empty(rows.shape, dtype=bool)
    first[0] = True
    first[1:] = rows[1:] != rows[:-1]
    return np.sort(cols[first])


class IncrementalSwitchState:
    """Streaming counterpart of the vectorised switch scan.

    Consumes one vote at a time (:meth:`observe`) and maintains every
    switch-derived quantity the estimators read — event counts, the
    adjusted observation count ``n_switch`` and the f'-statistics over
    rediscovery counts — under exactly the scan conventions documented at
    the top of this module.  Each vote costs O(1): the open event of the
    voted item either gains a rediscovery (one fingerprint reclassify) or
    is frozen in place while a new class-1 event opens.

    The object satisfies the same statistics interface as
    :class:`SwitchStatistics` / :class:`_EstimationSwitchStats`, so the
    switch estimators consume it directly; after ``j`` ingested columns
    every exposed quantity is bit-identical to
    ``switch_statistics(matrix, j)``.
    """

    def __init__(self, num_items: int):
        self._margin = np.zeros(num_items, dtype=np.int64)
        self._consensus = np.zeros(num_items, dtype=np.int8)
        #: rediscovery count of each item's open (most recent) event; 0 = no
        #: event yet, in which case further votes are pre-first-switch no-ops.
        self._open_rediscoveries = np.zeros(num_items, dtype=np.int64)
        self._open_positive = np.zeros(num_items, dtype=bool)
        self._has_direction = {
            POSITIVE: np.zeros(num_items, dtype=bool),
            NEGATIVE: np.zeros(num_items, dtype=bool),
        }
        self.num_switches = 0
        self.items_with_switches = 0
        self.n_switch = 0
        self.total_votes = 0
        self._switches_by_direction = {POSITIVE: 0, NEGATIVE: 0}
        self._items_by_direction = {POSITIVE: 0, NEGATIVE: 0}
        self._fingerprints = {
            None: IncrementalFingerprint(),
            POSITIVE: IncrementalFingerprint(),
            NEGATIVE: IncrementalFingerprint(),
        }

    def observe(self, row: int, vote: int) -> None:
        """Ingest one vote (``DIRTY`` or ``CLEAN``) on item row ``row``."""
        if vote == DIRTY:
            delta = 1
        elif vote == CLEAN:
            delta = -1
        else:
            raise ValidationError(f"votes must be DIRTY or CLEAN, got {vote!r}")
        self.total_votes += 1
        previous_margin = int(self._margin[row])
        margin = previous_margin + delta
        self._margin[row] = margin
        if margin > 0:
            new_state = 1
        elif margin < 0:
            new_state = 0
        else:
            # Tie: flip away from the current label.  A tie can only follow
            # a margin of +/-1, so the flip target is the sign opposite of
            # the previous margin (the closed form of the vectorised scan).
            new_state = 1 if previous_margin < 0 else 0
        if new_state != int(self._consensus[row]):
            self._consensus[row] = new_state
            direction = POSITIVE if new_state == 1 else NEGATIVE
            self.num_switches += 1
            self._switches_by_direction[direction] += 1
            if self._open_rediscoveries[row] == 0:
                self.items_with_switches += 1
            if not self._has_direction[direction][row]:
                self._has_direction[direction][row] = True
                self._items_by_direction[direction] += 1
            # The previous open event (if any) freezes at its current
            # rediscovery count; a fresh singleton event opens.
            self._open_rediscoveries[row] = 1
            self._open_positive[row] = new_state == 1
            self._fingerprints[None].reclassify(0, 1)
            self._fingerprints[direction].reclassify(0, 1)
            self.n_switch += 1
        elif self._open_rediscoveries[row] > 0:
            count = int(self._open_rediscoveries[row])
            self._open_rediscoveries[row] = count + 1
            direction = POSITIVE if self._open_positive[row] else NEGATIVE
            self._fingerprints[None].reclassify(count, count + 1)
            self._fingerprints[direction].reclassify(count, count + 1)
            self.n_switch += 1
        # else: vote before the item's first switch — a no-op by Equation 7.

    # -- the statistics interface the estimators consume ----------------- #
    def num_switches_by_direction(self, direction: str) -> int:
        """Observed switch count restricted to one direction."""
        return self._switches_by_direction[direction]

    def items_with_direction(self, direction: str) -> int:
        """Number of items with at least one switch of the given direction."""
        return self._items_by_direction[direction]

    def fingerprint(self, direction: Optional[str] = None) -> Fingerprint:
        """f'-statistics over rediscovery counts (see :class:`SwitchStatistics`)."""
        return self._fingerprints[direction].snapshot(num_observations=self.n_switch)

    def final_consensus(self, item_ids: Sequence[int]) -> Dict[int, int]:
        """Consensus label per item id, under the scan's tie-flip convention."""
        return {item: int(label) for item, label in zip(item_ids, self._consensus)}

    # -- snapshot codec --------------------------------------------------- #
    def to_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Serialise the tracker into npz-able arrays plus JSON-safe metadata.

        The frozen events behind the f'-statistics are not reconstructible
        from the per-item arrays alone, so the three fingerprint tables are
        carried explicitly.  :meth:`from_arrays` restores a tracker whose
        every exposed statistic — and every *future* statistic after more
        votes — is bit-identical to one that never stopped.
        """
        arrays = {
            "margin": self._margin.copy(),
            "consensus": self._consensus.copy(),
            "open_rediscoveries": self._open_rediscoveries.copy(),
            "open_positive": self._open_positive.copy(),
            "has_positive": self._has_direction[POSITIVE].copy(),
            "has_negative": self._has_direction[NEGATIVE].copy(),
        }
        meta: Dict[str, object] = {
            "num_switches": int(self.num_switches),
            "items_with_switches": int(self.items_with_switches),
            "n_switch": int(self.n_switch),
            "total_votes": int(self.total_votes),
            "switches_by_direction": {
                POSITIVE: int(self._switches_by_direction[POSITIVE]),
                NEGATIVE: int(self._switches_by_direction[NEGATIVE]),
            },
            "items_by_direction": {
                POSITIVE: int(self._items_by_direction[POSITIVE]),
                NEGATIVE: int(self._items_by_direction[NEGATIVE]),
            },
            "fingerprints": {
                "all": self._fingerprints[None].state_dict(),
                POSITIVE: self._fingerprints[POSITIVE].state_dict(),
                NEGATIVE: self._fingerprints[NEGATIVE].state_dict(),
            },
        }
        return arrays, meta

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "IncrementalSwitchState":
        """Rebuild a tracker from :meth:`to_arrays` output."""
        margin = np.asarray(arrays["margin"], dtype=np.int64)
        state = cls(int(margin.shape[0]))
        state._margin = margin.copy()
        state._consensus = np.asarray(arrays["consensus"], dtype=np.int8).copy()
        state._open_rediscoveries = np.asarray(
            arrays["open_rediscoveries"], dtype=np.int64
        ).copy()
        state._open_positive = np.asarray(arrays["open_positive"], dtype=bool).copy()
        state._has_direction = {
            POSITIVE: np.asarray(arrays["has_positive"], dtype=bool).copy(),
            NEGATIVE: np.asarray(arrays["has_negative"], dtype=bool).copy(),
        }
        shapes = {value.shape for value in state._has_direction.values()}
        shapes.update(
            (state._consensus.shape, state._open_rediscoveries.shape, state._open_positive.shape)
        )
        if shapes != {margin.shape}:
            raise ValidationError("switch-state arrays must share one item dimension")
        state.num_switches = int(meta["num_switches"])
        state.items_with_switches = int(meta["items_with_switches"])
        state.n_switch = int(meta["n_switch"])
        state.total_votes = int(meta["total_votes"])
        state._switches_by_direction = {
            POSITIVE: int(meta["switches_by_direction"][POSITIVE]),
            NEGATIVE: int(meta["switches_by_direction"][NEGATIVE]),
        }
        state._items_by_direction = {
            POSITIVE: int(meta["items_by_direction"][POSITIVE]),
            NEGATIVE: int(meta["items_by_direction"][NEGATIVE]),
        }
        fingerprints = meta["fingerprints"]
        state._fingerprints = {
            None: IncrementalFingerprint.from_state_dict(fingerprints["all"]),
            POSITIVE: IncrementalFingerprint.from_state_dict(fingerprints[POSITIVE]),
            NEGATIVE: IncrementalFingerprint.from_state_dict(fingerprints[NEGATIVE]),
        }
        return state


def _estimation_sweep(
    matrix: ResponseMatrix, checkpoints: Sequence[int]
) -> List[_EstimationSwitchStats]:
    """Array-backed switch statistics per checkpoint, for the estimators."""
    resolved = [matrix.resolve_upto(checkpoint) for checkpoint in checkpoints]
    scan = _SwitchScan(matrix.values)
    stats = []
    for upto in resolved:
        active = scan.event_cols < upto
        stats.append(
            _EstimationSwitchStats(
                rediscoveries=scan.rediscoveries(upto, active),
                states=scan.event_states[active],
                rows=scan.event_rows[active],
                total_votes=int(scan.seen_cum[:, upto - 1].sum(dtype=np.int64)) if upto else 0,
            )
        )
    return stats


def count_switches(matrix: ResponseMatrix, upto: Optional[int] = None) -> int:
    """``switch(I)`` — the total number of observed consensus switches (Equation 7)."""
    return switch_statistics(matrix, upto).num_switches


def estimate_total_switches(
    stats: SwitchStatistics,
    *,
    direction: Optional[str] = None,
    use_skew_correction: bool = True,
) -> float:
    """Estimate the total number of switches as ``K -> inf`` (Equation 8).

    Parameters
    ----------
    stats:
        Switch statistics of the observed prefix.
    direction:
        Estimate only ``"positive"`` or only ``"negative"`` switches, or
        every switch when ``None``.
    use_skew_correction:
        Include the coefficient-of-variation correction term.

    Returns
    -------
    float
        The estimated total number of switches of the requested direction.
        Falls back to the observed count when the sample coverage is zero.
    """
    fingerprint = stats.fingerprint(direction)
    if direction is None:
        distinct = stats.items_with_switches
    else:
        distinct = stats.items_with_direction(direction)
    return chao92_estimate(
        fingerprint,
        distinct=distinct,
        use_skew_correction=use_skew_correction,
    )


def estimate_remaining_switches(
    stats: SwitchStatistics,
    *,
    direction: Optional[str] = None,
    use_skew_correction: bool = True,
) -> float:
    """``xi`` — the estimated number of switches still to come.

    ``xi = D_switch - switch(I)`` restricted to the requested direction,
    clipped at zero.
    """
    total = estimate_total_switches(
        stats, direction=direction, use_skew_correction=use_skew_correction
    )
    if direction is None:
        observed = stats.num_switches
    else:
        observed = stats.num_switches_by_direction(direction)
    return max(0.0, float(total) - float(observed))


@dataclass
class SwitchEstimator(StateEstimatorMixin):
    """Matrix-level remaining-switch estimator (Problem 2 / Equation 8).

    The ``estimate`` field of the result is the estimated **total** number
    of switches; ``observed`` is ``switch(I)``; ``remaining`` is the
    expected number of consensus decisions that will still change.

    Parameters
    ----------
    direction:
        Restrict the estimation to ``"positive"`` or ``"negative"``
        switches (``None`` estimates all switches).
    use_skew_correction:
        Include the coefficient-of-variation correction.
    name:
        Registry / report name.
    """

    direction: Optional[str] = None
    use_skew_correction: bool = True
    name: str = "switch"

    def _result_from_stats(
        self,
        *,
        n_switch: int,
        total_votes: int,
        observed: int,
        distinct: int,
        singletons: int,
        pair_sum: int,
        items_with_switches: int,
    ) -> EstimateResult:
        total, coverage, gamma_squared = chao92_components_from_stats(
            distinct=distinct,
            num_observations=n_switch,
            singletons=singletons,
            pair_sum=pair_sum,
            use_skew_correction=self.use_skew_correction,
        )
        if self.direction is not None and self.use_skew_correction:
            # The diagnostic gamma is always reported against the full
            # items-with-switches count, even for directional estimators.
            gamma_squared = _skew_from_stats(
                items_with_switches, n_switch, coverage, pair_sum
            )
        return EstimateResult(
            estimate=float(total),
            observed=float(observed),
            details={
                "n_switch": float(n_switch),
                "total_votes": float(total_votes),
                "coverage": coverage,
                "singletons": float(singletons),
                "items_with_switches": float(items_with_switches),
                "gamma_squared": gamma_squared,
            },
        )

    def _result(self, stats) -> EstimateResult:
        # ``stats`` is a SwitchStatistics, its array-backed sweep stand-in,
        # or the live IncrementalSwitchState of a streaming session.
        fingerprint = stats.fingerprint(self.direction)
        if self.direction is None:
            observed = stats.num_switches
            distinct = stats.items_with_switches
        else:
            observed = stats.num_switches_by_direction(self.direction)
            distinct = stats.items_with_direction(self.direction)
        return self._result_from_stats(
            n_switch=stats.n_switch,
            total_votes=stats.total_votes,
            observed=observed,
            distinct=distinct,
            singletons=fingerprint.singletons,
            pair_sum=_pair_sum(fingerprint) if self.use_skew_correction else 0,
            items_with_switches=stats.items_with_switches,
        )

    def estimate_state(self, state) -> EstimateResult:
        """Estimate the total number of consensus switches."""
        return self._result(state.switch_stats())

    def estimate_sweep_batch(self, batch) -> List[List[EstimateResult]]:
        """Cross-permutation sweep over the batch's single switch scan.

        All ``R`` permutations share one :class:`_SwitchScan` (rows are
        independent, so the stacked ``(R * N, K)`` array is scanned once);
        the per-checkpoint sufficient statistics then come from each
        permutation's vectorised :class:`_SwitchSweepCells`, and the final
        arithmetic reuses the exact scalar code path — every estimate is
        bit-identical to the serial sweep.
        """
        direction = self.direction
        results = []
        for p in range(batch.num_permutations):
            cells = batch.switch_sweep_cells(p)
            results.append(
                [
                    self._result_from_stats(
                        n_switch=int(cells.n_switch[j]),
                        total_votes=int(cells.total_votes[j]),
                        observed=int(cells.counts[direction][j]),
                        distinct=int(cells.items[direction][j]),
                        singletons=int(cells.singletons[direction][j]),
                        pair_sum=int(cells.pair_sums[direction][j]),
                        items_with_switches=int(cells.items[None][j]),
                    )
                    for j in range(batch.num_checkpoints)
                ]
            )
        return results
