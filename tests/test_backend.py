"""Tests of the array-backend seam (registry, ops, kernels, dtypes).

Four layers, cheapest first:

* registry semantics — registration, env/default resolution, and the
  one-line ``ConfigurationError`` hygiene for unknown/unavailable names;
* per-op semantics — every seam operation compared against the NumPy
  reference for each backend available on this machine;
* compiled-kernel logic — the :mod:`repro.core._scan_kernels` loops are
  plain Python when Numba is absent, so their logic is pinned here against
  the vectorised formulation without needing Numba installed;
* dtype audit — the ``seen_cum`` int16/int32 promotion, the margin
  cumsum int32/int64 promotion and the count-table product's
  float32/float64 promotion, including a real scan past the int16
  boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core import backend as backend_module
from repro.core.backend import (
    BACKEND_ENV_VAR,
    ArrayBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    unregister_backend,
)
from repro.core.base import batch_estimates
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import PermutationBatch, _count_product_dtype
from repro.core.switch import (
    _SwitchScan,
    _margin_cumsum_dtype,
    _seen_count_dtype,
)
from repro.crowd.response_matrix import ResponseMatrix


def _random_matrix(num_items, num_columns, seed=11):
    rng = np.random.default_rng(seed)
    votes = rng.choice(
        [UNSEEN, CLEAN, DIRTY], size=(num_items, num_columns), p=[0.5, 0.2, 0.3]
    ).astype(np.int8)
    return ResponseMatrix.from_array(votes)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"numpy", "numba"} <= set(registered_backends())

    def test_numpy_always_available_and_default(self):
        assert "numpy" in available_backends()
        assert get_backend().name == "numpy"
        assert get_backend("numpy") is get_backend("numpy")  # cached instance

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"

    def test_env_var_unknown_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ConfigurationError, match=BACKEND_ENV_VAR):
            get_backend()

    def test_unknown_backend_lists_registered_and_available(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("not-a-backend")
        message = str(excinfo.value)
        assert "registered:" in message
        assert "available here:" in message
        assert "\n" not in message  # one-line CLI hygiene

    def test_unavailable_backend_lists_available(self):
        missing = sorted(set(registered_backends()) - set(available_backends()))
        if not missing:
            pytest.skip("every registered backend is available on this machine")
        with pytest.raises(ConfigurationError, match="available here:"):
            get_backend(missing[0])

    def test_register_unregister_roundtrip(self):
        class Custom(NumpyBackend):
            name = "custom-test"

        register_backend("custom-test", Custom)
        try:
            assert "custom-test" in registered_backends()
            assert get_backend("custom-test").name == "custom-test"
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend("custom-test", Custom)
            register_backend("custom-test", Custom, overwrite=True)
        finally:
            unregister_backend("custom-test")
        assert "custom-test" not in registered_backends()

    def test_reference_backend_cannot_be_removed(self):
        with pytest.raises(ConfigurationError, match="numpy"):
            unregister_backend("numpy")

    def test_resolve_backend_accepts_instance_name_and_none(self):
        instance = get_backend("numpy")
        assert resolve_backend(instance) is instance
        assert resolve_backend("numpy") is instance
        assert resolve_backend(None).name == "numpy"


@pytest.mark.parametrize("name", available_backends())
class TestOpSemantics:
    """Each seam op must reproduce the NumPy reference bit-for-bit."""

    @pytest.fixture
    def xp(self, name):
        return get_backend(name)

    def _roundtrip(self, xp, values):
        return xp.asnumpy(xp.asarray(values))

    def test_asarray_asnumpy_roundtrip(self, xp):
        values = np.array([[1, -2], [3, 0]], dtype=np.int32)
        out = self._roundtrip(xp, values)
        assert out.tolist() == values.tolist()
        assert out.dtype == values.dtype

    def test_bincount_with_weights(self, xp):
        values = np.array([0, 2, 2, 1, 0], dtype=np.int64)
        weights = np.array([1, -1, 1, 1, -1], dtype=np.int8)
        got = xp.asnumpy(
            xp.bincount(xp.asarray(values), weights=xp.asarray(weights), minlength=5)
        )
        want = np.bincount(values, weights=weights, minlength=5)
        assert np.asarray(got, dtype=np.float64).tolist() == want.tolist()


class _CompiledScansNumpy(NumpyBackend):
    """NumPy storage with ``compiled_scans`` forced on.

    Routes the scan hot path through :mod:`repro.core._scan_kernels`,
    which fall back to plain-Python loops when Numba is absent — so the
    kernel *logic* is testable on every machine, compiled or not.
    """

    name = "numpy-compiled-scans"
    compiled_scans = True


class TestScanKernelLogic:
    """The fused loops must match the vectorised formulation exactly."""

    def _assert_equal_estimates(self, matrix, orders, checkpoints):
        vectorised = PermutationBatch(matrix, orders, checkpoints)
        fused = PermutationBatch(
            matrix, orders, checkpoints, backend=_CompiledScansNumpy()
        )
        for name in available_estimators():
            estimator = get_estimator(name)
            got = batch_estimates(estimator, fused)
            want = batch_estimates(estimator, vectorised)
            for p in range(len(orders)):
                for a, b in zip(got[p], want[p]):
                    assert a.estimate == b.estimate, (name, p)
                    assert a.observed == b.observed, (name, p)
                    assert a.details == b.details, (name, p)

    def test_random_matrix(self):
        matrix = _random_matrix(25, 14)
        rng = np.random.default_rng(5)
        orders = [None, [int(i) for i in rng.permutation(14)]]
        self._assert_equal_estimates(matrix, orders, [0, 3, 7, 14])

    def test_degenerate_matrices(self):
        for fill in (CLEAN, DIRTY, UNSEEN):
            matrix = ResponseMatrix.from_array(np.full((5, 6), fill, dtype=np.int8))
            self._assert_equal_estimates(matrix, [None], [0, 2, 6])

    def test_zero_columns(self):
        matrix = ResponseMatrix.from_array(np.zeros((4, 0), dtype=np.int8))
        self._assert_equal_estimates(matrix, [None], [0])

    def test_scan_internals_match(self):
        matrix = _random_matrix(40, 9, seed=31)
        reference = _SwitchScan(matrix.values)
        fused = _SwitchScan(matrix.values, backend=_CompiledScansNumpy())
        np.testing.assert_array_equal(fused.seen_cum, reference.seen_cum)
        np.testing.assert_array_equal(fused.event_rows, reference.event_rows)
        np.testing.assert_array_equal(fused.event_cols, reference.event_cols)
        np.testing.assert_array_equal(fused.event_states, reference.event_states)
        np.testing.assert_array_equal(
            fused.event_vote_index, reference.event_vote_index
        )
        np.testing.assert_array_equal(fused.event_next_col, reference.event_next_col)
        np.testing.assert_array_equal(
            fused.vote_majority_delta, reference.vote_majority_delta
        )


class TestDtypeAudit:
    """Overflow guards on the scan hot path (satellite: dtype audit)."""

    def test_seen_count_dtype_boundary(self):
        boundary = int(np.iinfo(np.int16).max)  # 32767
        assert _seen_count_dtype(boundary - 1) == np.int16
        assert _seen_count_dtype(boundary) == np.int32
        assert _seen_count_dtype(boundary + 1) == np.int32

    def test_count_product_dtype_boundary(self):
        # float32 holds every integer below 2**24 exactly; a count table
        # over 2**24 or more columns must run its product in float64.
        boundary = 2**24
        assert np.float32(boundary - 1) != np.float32(boundary - 2)
        assert np.float32(boundary + 1) == np.float32(boundary)
        assert _count_product_dtype(boundary - 1) == np.float32
        assert _count_product_dtype(boundary) == np.float64
        assert _count_product_dtype(boundary + 1) == np.float64

    def test_margin_cumsum_dtype_boundary(self):
        boundary = int(np.iinfo(np.int32).max)
        assert _margin_cumsum_dtype(boundary) == np.int32
        assert _margin_cumsum_dtype(boundary + 1) == np.int64

    def test_seen_cum_survives_int16_overflow(self):
        # One item, 40k columns, every vote seen: the running seen count
        # tops out at 40000 > int16 max.  With an int16 table this would
        # wrap negative; the promotion keeps it exact.
        num_columns = 40_000
        values = np.full((1, num_columns), DIRTY, dtype=np.int8)
        scan = _SwitchScan(values)
        assert scan.seen_cum.dtype == np.int32
        assert int(scan.seen_cum[0, -1]) == num_columns

    def test_narrow_matrix_keeps_int16(self):
        values = np.full((3, 16), DIRTY, dtype=np.int8)
        scan = _SwitchScan(values)
        assert scan.seen_cum.dtype == np.int16
        assert int(scan.seen_cum[0, -1]) == 16


class TestRunnerConfigValidation:
    def test_bad_backend_rejected_eagerly(self):
        from repro.experiments.runner import RunnerConfig

        with pytest.raises(ConfigurationError, match="unknown backend"):
            RunnerConfig(backend="not-a-backend")

    def test_unavailable_backend_rejected_eagerly(self):
        from repro.experiments.runner import RunnerConfig

        missing = sorted(set(registered_backends()) - set(available_backends()))
        if not missing:
            pytest.skip("every registered backend is available on this machine")
        with pytest.raises(ConfigurationError, match="available here:"):
            RunnerConfig(backend=missing[0])

    def test_metadata_records_backend(self):
        from repro.experiments.runner import EstimationRunner, RunnerConfig

        matrix = _random_matrix(12, 8)
        runner = EstimationRunner(
            ["voting"], RunnerConfig(num_permutations=2, num_checkpoints=3)
        )
        result = runner.run(matrix)
        assert result.metadata["backend"] == "numpy"
