"""Tests of the cross-permutation tensor sweep engine.

The central contract: for any matrix, any checkpoint set and any number of
permutations, :class:`~repro.core.state.PermutationBatch` estimates are
**exactly** (bitwise) equal to the serial per-permutation sweep — for
every registered estimator, including the degenerate matrices (all-clean,
all-unseen, single column) where the species arithmetic hits its guard
branches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core.backend import available_backends
from repro.core.base import EstimateResult, batch_estimates, sweep_estimates
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import PermutationBatch
from repro.core.switch import (
    _margin_cumsum_dtype,
    _seen_count_dtype,
    _SwitchScan,
    switch_statistics,
)
from repro.crowd.consensus import majority_count_history
from repro.crowd.response_matrix import ResponseMatrix

#: Every backend importable on this machine (always at least numpy).  The
#: whole equivalence suite runs once per backend: the serial sweep is the
#: numpy reference, so each parameterization is a bit-identity check.
BACKENDS = available_backends()


def _assert_batch_matches_serial(matrix, orders, checkpoints, names=None, backend=None):
    """Exact equality of the batched and serial sweeps for all estimators."""
    batch = PermutationBatch(matrix, orders, checkpoints, backend=backend)
    for name in names or available_estimators():
        estimator = get_estimator(name)
        batched = batch_estimates(estimator, batch)
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            serial = estimator.estimate_sweep(permuted, checkpoints)
            assert len(batched[p]) == len(serial)
            for got, want in zip(batched[p], serial):
                assert got.estimate == want.estimate, (name, p)
                assert got.observed == want.observed, (name, p)
                assert got.details == want.details, (name, p)


@pytest.mark.parametrize("backend", BACKENDS)
class TestPropertyEquivalence:
    @given(
        num_items=st.integers(min_value=1, max_value=10),
        num_columns=st.integers(min_value=0, max_value=12),
        num_permutations=st.sampled_from([1, 3, 10]),
        matrix_seed=st.integers(min_value=0, max_value=2**31 - 1),
        checkpoint_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25)
    def test_batch_equals_serial_sweep(
        self,
        backend,
        num_items,
        num_columns,
        num_permutations,
        matrix_seed,
        checkpoint_seed,
    ):
        rng = np.random.default_rng(matrix_seed)
        votes = rng.choice(
            [UNSEEN, CLEAN, DIRTY],
            size=(num_items, num_columns),
            p=[0.4, 0.25, 0.35],
        ).astype(np.int8)
        matrix = ResponseMatrix.from_array(votes)
        cp_rng = np.random.default_rng(checkpoint_seed)
        # Random checkpoints including 0 and oversized values (they clamp).
        checkpoints = sorted(
            {0, num_columns, num_columns + 3}
            | {int(c) for c in cp_rng.integers(0, num_columns + 2, size=4)}
        )
        orders = [None] + [
            [int(i) for i in cp_rng.permutation(num_columns)]
            for _ in range(num_permutations - 1)
        ]
        _assert_batch_matches_serial(matrix, orders, checkpoints, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDegenerateMatrices:
    CHECKPOINTS = [0, 1, 2, 5, 8]

    def _orders(self, num_columns, count=3, seed=7):
        rng = np.random.default_rng(seed)
        return [None] + [
            [int(i) for i in rng.permutation(num_columns)] for _ in range(count - 1)
        ]

    def test_all_clean_matrix(self, backend):
        votes = np.full((6, 8), CLEAN, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(8), self.CHECKPOINTS, backend=backend
        )

    def test_all_unseen_matrix(self, backend):
        votes = np.full((6, 8), UNSEEN, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(8), self.CHECKPOINTS, backend=backend
        )

    def test_all_dirty_matrix(self, backend):
        votes = np.full((6, 8), DIRTY, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(8), self.CHECKPOINTS, backend=backend
        )

    def test_single_column(self, backend):
        votes = np.array([[DIRTY], [CLEAN], [UNSEEN], [DIRTY]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(matrix, [None, [0], [0]], [0, 1], backend=backend)

    def test_single_item(self, backend):
        votes = np.array([[DIRTY, CLEAN, DIRTY, UNSEEN]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(4), [0, 1, 2, 4], backend=backend
        )

    def test_zero_columns(self, backend):
        matrix = ResponseMatrix.from_array(np.zeros((3, 0), dtype=np.int8))
        _assert_batch_matches_serial(matrix, [None, [], []], [0], backend=backend)


class TestBatchInternals:
    @pytest.fixture
    def matrix(self):
        rng = np.random.default_rng(23)
        votes = rng.choice(
            [UNSEEN, CLEAN, DIRTY], size=(30, 12), p=[0.5, 0.2, 0.3]
        ).astype(np.int8)
        return ResponseMatrix.from_array(votes)

    @pytest.fixture
    def orders(self, matrix):
        rng = np.random.default_rng(29)
        return [None, [int(i) for i in rng.permutation(matrix.num_columns)]]

    def test_invalid_order_rejected(self, matrix):
        with pytest.raises(ValidationError, match="permutation"):
            PermutationBatch(matrix, [[0, 0, 1]], [3])
        with pytest.raises(ValidationError, match="permutation"):
            PermutationBatch(matrix, [list(range(matrix.num_columns - 1))], [3])

    def test_empty_orders_rejected(self, matrix):
        with pytest.raises(ValidationError, match="at least one"):
            PermutationBatch(matrix, [], [3])

    def test_identity_permutation_reuses_matrix(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [4, 8])
        assert batch.permuted_matrix(0) is matrix
        permuted = batch.permuted_matrix(1)
        assert permuted is not matrix
        assert permuted.num_columns == matrix.num_columns

    def test_states_are_cached_and_shared(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [4, 8])
        states = batch.states(1)
        assert batch.states(1) is states
        assert len(states) == 2
        # The lazy fingerprint is shared between estimators reading it.
        assert states[0].positive_fingerprint() is states[0].positive_fingerprint()

    def test_switch_stats_match_per_permutation_scan(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [3, 7, 12])
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            for j, checkpoint in enumerate([3, 7, 12]):
                cell = batch.switch_stats(p, j)
                reference = switch_statistics(permuted, checkpoint)
                assert cell.num_switches == reference.num_switches
                assert cell.items_with_switches == reference.items_with_switches
                assert cell.n_switch == reference.n_switch
                assert cell.total_votes == reference.total_votes
                assert (
                    cell.fingerprint().frequencies
                    == reference.fingerprint().frequencies
                )

    def test_majority_history_matches_per_permutation(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [6])
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            expected = majority_count_history(permuted)
            assert batch.majority_history[p].tolist() == expected.tolist()

    def test_sweep_estimates_states_path_matches(self, matrix, orders):
        """The generic EstimationState protocol path agrees with sweep_estimates."""
        checkpoints = [2, 6, 12]
        batch = PermutationBatch(matrix, orders, checkpoints)
        estimator = get_estimator("switch_total")
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            expected = sweep_estimates(estimator, permuted, checkpoints)
            got = [estimator.estimate_state(state) for state in batch.states(p)]
            for a, b in zip(got, expected):
                assert a.estimate == b.estimate
                assert a.details == b.details

    def test_estimate_only_estimator_falls_back(self, matrix, orders):
        """Third-party estimators without batch support still work."""

        class EstimateOnly:
            name = "estimate_only"

            def estimate(self, m, upto=None):
                return EstimateResult(
                    estimate=float(m.resolve_upto(upto)), observed=0.0
                )

        batch = PermutationBatch(matrix, orders, [3, 12])
        results = batch_estimates(EstimateOnly(), batch)
        assert [r.estimate for r in results[0]] == [3.0, 12.0]
        assert [r.estimate for r in results[1]] == [3.0, 12.0]


def _random_votes(num_items, num_columns, seed, empty_rows=()):
    rng = np.random.default_rng(seed)
    votes = rng.choice(
        [UNSEEN, CLEAN, DIRTY], size=(num_items, num_columns), p=[0.5, 0.2, 0.3]
    ).astype(np.int8)
    votes[list(empty_rows)] = UNSEEN
    return votes


def _random_orders(num_columns, count, seed):
    rng = np.random.default_rng(seed)
    return [None] + [
        [int(i) for i in rng.permutation(num_columns)] for _ in range(count - 1)
    ]


class TestCountTableOracle:
    """The ``(R, m, N)`` tables equal the counts of each permuted matrix."""

    def _assert_tables_match(self, matrix, orders, checkpoints):
        batch = PermutationBatch(matrix, orders, checkpoints)
        shape = (len(orders), len(checkpoints), matrix.num_items)
        for table in (batch.positive_table, batch.negative_table):
            assert table.shape == shape
            assert table.dtype == np.int32
            assert table.flags.c_contiguous
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            for j, checkpoint in enumerate(checkpoints):
                np.testing.assert_array_equal(
                    batch.positive_table[p, j], permuted.positive_counts(checkpoint)
                )
                np.testing.assert_array_equal(
                    batch.negative_table[p, j], permuted.negative_counts(checkpoint)
                )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unsorted_duplicate_zero_and_overlong_checkpoints(self, seed):
        matrix = ResponseMatrix.from_array(_random_votes(40, 15, seed, empty_rows=[3]))
        orders = _random_orders(15, 4, seed + 100)
        self._assert_tables_match(matrix, orders, [9, 0, 15, 4, 9, 21, 1, 0])

    def test_none_orders_mixed_with_explicit_ones(self):
        matrix = ResponseMatrix.from_array(_random_votes(25, 10, 7))
        rng = np.random.default_rng(8)
        explicit = [int(i) for i in rng.permutation(10)]
        orders = [explicit, None, list(range(10)), None, explicit[::-1]]
        self._assert_tables_match(matrix, orders, [3, 10, 6])

    def test_no_checkpoints(self):
        matrix = ResponseMatrix.from_array(_random_votes(6, 5, 9))
        self._assert_tables_match(matrix, _random_orders(5, 3, 9), [])

    def test_zero_columns(self):
        matrix = ResponseMatrix.from_array(np.zeros((4, 0), dtype=np.int8))
        self._assert_tables_match(matrix, [None, [], None], [0, 2, 0])

    def test_all_unseen_matrix(self):
        matrix = ResponseMatrix.from_array(np.full((7, 9), UNSEEN, dtype=np.int8))
        self._assert_tables_match(matrix, _random_orders(9, 3, 4), [0, 5, 9, 12])


def _reference_scan(values):
    """The vectorised switch compaction as formulated before flat indexing.

    Kept inline as an independent oracle: a 2-D ``np.nonzero`` over the
    seen mask, a 2-D fancy-index gather of the votes, and each row's
    margin base found with a ``maximum.accumulate`` search.
    """
    num_columns = values.shape[1]
    seen = values != UNSEEN
    seen_cum = np.cumsum(seen, axis=1, dtype=_seen_count_dtype(num_columns))
    seen_rows, seen_cols = np.nonzero(seen)
    deltas = np.where(values[seen_rows, seen_cols] == DIRTY, np.int32(1), np.int32(-1))
    cumulative = np.cumsum(deltas, dtype=_margin_cumsum_dtype(deltas.size))
    positions = np.arange(deltas.size, dtype=np.int64)
    new_row = np.empty(deltas.shape, dtype=bool)
    new_row[:1] = True
    new_row[1:] = seen_rows[1:] != seen_rows[:-1]
    row_base = (cumulative - deltas)[
        np.maximum.accumulate(np.where(new_row, positions, 0))
    ]
    margin_at_vote = cumulative - row_base
    previous_margin = margin_at_vote - deltas
    votes_state = (margin_at_vote > 0) | (
        (margin_at_vote == 0) & (previous_margin < 0)
    )
    majority_delta = (margin_at_vote > 0).astype(np.int8) - (previous_margin > 0)
    previous_state = np.zeros_like(votes_state)
    previous_state[1:] = votes_state[:-1]
    previous_state[new_row] = False
    is_event = votes_state != previous_state
    event_rows = seen_rows[is_event]
    event_cols = seen_cols[is_event]
    event_next_col = np.full(event_rows.size, num_columns, dtype=np.int64)
    if event_rows.size > 1:
        same_item = event_rows[:-1] == event_rows[1:]
        event_next_col[:-1][same_item] = event_cols[1:][same_item]
    return {
        "seen_cum": seen_cum,
        "vote_rows": seen_rows,
        "vote_cols": seen_cols,
        "vote_majority_delta": majority_delta,
        "event_rows": event_rows,
        "event_cols": event_cols,
        "event_states": votes_state[is_event].astype(np.int64),
        "event_vote_index": seen_cum[event_rows, event_cols].astype(np.int64),
        "event_next_col": event_next_col,
    }


class TestSwitchScanOracle:
    """The flat-indexed compaction equals the 2-D reference formulation."""

    def _assert_scan_matches(self, matrix, orders):
        stack = np.concatenate(
            [
                (matrix if order is None else matrix.permute_columns(order)).values
                for order in orders
            ]
        )
        expected = _reference_scan(stack)
        batch = PermutationBatch(matrix, orders, [matrix.num_columns])
        for scan in (batch._scan, _SwitchScan(stack)):
            for name, want in expected.items():
                np.testing.assert_array_equal(getattr(scan, name), want, err_msg=name)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_stacks_with_voteless_rows(self, seed):
        rng = np.random.default_rng(seed)
        num_items = int(rng.integers(2, 30))
        num_columns = int(rng.integers(1, 25))
        empty_rows = rng.choice(num_items, size=num_items // 3 + 1, replace=False)
        votes = _random_votes(num_items, num_columns, seed, empty_rows=empty_rows)
        matrix = ResponseMatrix.from_array(votes)
        orders = _random_orders(num_columns, int(rng.integers(2, 6)), seed + 50)
        self._assert_scan_matches(matrix, orders)

    def test_leading_and_trailing_voteless_rows(self):
        votes = _random_votes(12, 8, 21, empty_rows=[0, 1, 6, 10, 11])
        self._assert_scan_matches(
            ResponseMatrix.from_array(votes), _random_orders(8, 3, 22)
        )

    def test_all_unseen_stack(self):
        votes = np.full((5, 6), UNSEEN, dtype=np.int8)
        self._assert_scan_matches(
            ResponseMatrix.from_array(votes), _random_orders(6, 3, 23)
        )
