"""The array-namespace seam behind the ``(R, N, K)`` tensor kernels.

The cross-permutation sweep engine (:class:`~repro.core.state.PermutationBatch`
and the :class:`~repro.core.switch._SwitchScan` it drives) is, at heart, a
short list of bulk array operations: cumulative sums over the vote tensor,
segment sums into checkpoint count tables, compaction of the seen-vote
stream, ``bincount`` folds of per-vote majority deltas, sorted-run /
``searchsorted`` lookups over event arrays.  Welding those calls to
``np.*`` caps the engine at whatever NumPy achieves on one CPU.

This module puts the ~15 operations the hot path actually uses behind a
minimal :class:`ArrayBackend` seam so the same kernel code runs on:

* **numpy** — the always-available reference backend (bit-identity is
  defined against it);
* **numba** — NumPy arrays plus :mod:`numba`-compiled fused scan loops
  for the two remaining sequential passes (event compaction and the
  per-checkpoint sweep-cell walk, see
  :mod:`repro.core._scan_kernels`); registers only when Numba imports.

**Bit-identity is the contract**: every operation a backend implements is
integer-exact (cumulative counts, scatter adds, sorted lookups), so a
backend either reproduces the NumPy reference bit-for-bit or it is a bug.
The parity suite (``tests/test_backend_parity.py``) pins this per
registered backend, and ``repro bench`` refuses to record an entry for a
backend whose estimates differ from the reference.

Selection
---------
``get_backend(None)`` resolves, in order: the ``REPRO_BACKEND``
environment variable, then ``"numpy"``.  ``RunnerConfig(backend=...)``
and ``repro bench --backend ...`` pass names through the same resolver.
Unknown or unavailable names raise
:class:`~repro.common.exceptions.ConfigurationError` with the list of
backends usable on this machine.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.common.exceptions import ConfigurationError

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The name every bit-identity contract is defined against.
REFERENCE_BACKEND = "numpy"


class ArrayBackend:
    """The minimal array namespace the ``(R, N, K)`` hot path consumes.

    Subclasses provide one device/library binding each.  Operations take
    and return backend-native arrays (except :meth:`asnumpy`, the escape
    hatch back to host NumPy); dtypes are named with NumPy dtype objects,
    which each backend maps to its own dtype system.  Every operation is
    integer-exact — a backend must reproduce the NumPy reference
    bit-for-bit (pinned by ``tests/test_backend_parity.py``).

    Two capability flags steer the kernels:

    * :attr:`compiled_scans` — the backend wants the fused
      :mod:`repro.core._scan_kernels` loops instead of the vectorised
      NumPy formulation (the numba backend);
    * :attr:`device` — a short human-readable device label recorded in
      benchmark entries.
    """

    #: Registry name of the backend.
    name: str = "abstract"
    #: Device label recorded in benchmark entries.
    device: str = "cpu"
    #: Whether the compiled scan kernels should replace the vectorised
    #: NumPy scan formulation on this backend.
    compiled_scans: bool = False

    # -- array construction / movement --------------------------------- #
    def asarray(self, values, dtype=None):
        """Bring an array (host or native) onto this backend."""
        raise NotImplementedError

    def asnumpy(self, values) -> np.ndarray:
        """The escape hatch: a host ``np.ndarray`` view/copy of ``values``."""
        raise NotImplementedError

    def zeros(self, shape, dtype):
        raise NotImplementedError

    def full(self, shape, fill_value, dtype):
        raise NotImplementedError

    def arange(self, stop, dtype):
        raise NotImplementedError

    def astype(self, values, dtype):
        """Cast, copying only when the dtype actually changes."""
        raise NotImplementedError

    # -- the hot-path reductions and scans ------------------------------ #
    def cumsum(self, values, axis=None, dtype=None):
        """Cumulative sum (the segmented-margin / ``seen_cum`` workhorse)."""
        raise NotImplementedError

    def sum(self, values, axis=None, dtype=None):
        """Reduction behind the ``(R, m, N)`` checkpoint count tables."""
        raise NotImplementedError

    def maximum_accumulate(self, values):
        """Running maximum along the last axis (row-base propagation)."""
        raise NotImplementedError

    def where(self, condition, a, b):
        raise NotImplementedError

    def nonzero(self, values) -> Tuple:
        """Row-major coordinates of the nonzero entries (seen-vote compaction)."""
        raise NotImplementedError

    def bincount(self, values, weights=None, minlength=0):
        """The majority-history fold (scatter-add of per-vote deltas)."""
        raise NotImplementedError

    def segment_sum(self, values, segments, num_segments):
        """``add.at``-style scatter: sum ``values`` into ``num_segments`` bins.

        The generalised scatter op of the seam; ``bincount`` is its
        weights form, kept separate because libraries optimise them
        differently.
        """
        raise NotImplementedError

    def searchsorted(self, sorted_values, queries, side="left"):
        raise NotImplementedError

    def argsort_stable(self, values):
        """Stable ascending argsort (event reordering must preserve ties)."""
        raise NotImplementedError

    def sort(self, values):
        raise NotImplementedError

    def ascontiguous(self, values):
        """C-contiguous layout (the stacked tensor feeds axis-1 cumsums)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r} device={self.device!r}>"


class NumpyBackend(ArrayBackend):
    """The reference backend: plain NumPy on the host CPU."""

    name = "numpy"
    device = "cpu"
    compiled_scans = False

    def asarray(self, values, dtype=None):
        return np.asarray(values, dtype=dtype)

    def asnumpy(self, values) -> np.ndarray:
        return np.asarray(values)

    def zeros(self, shape, dtype):
        return np.zeros(shape, dtype=dtype)

    def full(self, shape, fill_value, dtype):
        return np.full(shape, fill_value, dtype=dtype)

    def arange(self, stop, dtype):
        return np.arange(stop, dtype=dtype)

    def astype(self, values, dtype):
        return values.astype(dtype, copy=False)

    def cumsum(self, values, axis=None, dtype=None):
        return np.cumsum(values, axis=axis, dtype=dtype)

    def sum(self, values, axis=None, dtype=None):
        return values.sum(axis=axis, dtype=dtype)

    def maximum_accumulate(self, values):
        return np.maximum.accumulate(values)

    def where(self, condition, a, b):
        return np.where(condition, a, b)

    def nonzero(self, values):
        return np.nonzero(values)

    def bincount(self, values, weights=None, minlength=0):
        return np.bincount(values, weights=weights, minlength=minlength)

    def segment_sum(self, values, segments, num_segments):
        out = np.zeros(num_segments, dtype=values.dtype)
        np.add.at(out, segments, values)
        return out

    def searchsorted(self, sorted_values, queries, side="left"):
        return np.searchsorted(sorted_values, queries, side=side)

    def argsort_stable(self, values):
        return np.argsort(values, kind="stable")

    def sort(self, values):
        return np.sort(values)

    def ascontiguous(self, values):
        return np.ascontiguousarray(values)


class NumbaBackend(NumpyBackend):
    """NumPy arrays + Numba-compiled fused scan loops.

    Array storage and every bulk vectorised op are inherited unchanged
    from the reference backend; what changes is that the two remaining
    sequential scan passes — event compaction and the per-checkpoint
    sweep-cell walk — run as ``@njit`` loops
    (:mod:`repro.core._scan_kernels`) instead of chains of vectorised
    NumPy temporaries.  The loops compute the identical integers, so the
    backend is bit-identical to the reference by construction.
    """

    name = "numba"
    device = "cpu"
    compiled_scans = True

    def __init__(self) -> None:
        from repro.core import _scan_kernels

        if not _scan_kernels.numba_available():
            raise ConfigurationError(
                "backend 'numba' needs the numba package, which is not "
                "installed on this machine"
            )


#: name -> constructor; construction raises ``ConfigurationError`` when the
#: backing library is missing (that is what "registered but unavailable"
#: means for the optional numba backend).
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
}

#: Constructed-backend cache (backends are stateless; one instance each).
_INSTANCES: Dict[str, ArrayBackend] = {}


def register_backend(
    name: str, factory: Callable[[], ArrayBackend], *, overwrite: bool = False
) -> None:
    """Register a third-party :class:`ArrayBackend` factory under ``name``.

    The factory must raise :class:`ConfigurationError` when its backing
    library is unavailable — that is how :func:`available_backends`
    probes usability.
    """
    if name in _FACTORIES and not overwrite:
        raise ConfigurationError(
            f"backend {name!r} is already registered "
            f"(registered: {', '.join(registered_backends())}); "
            "pass overwrite=True to replace it"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    if name == REFERENCE_BACKEND:
        raise ConfigurationError("the numpy reference backend cannot be removed")
    _FACTORIES.pop(name, None)
    _INSTANCES.pop(name, None)


def registered_backends() -> List[str]:
    """Every registered backend name, available on this machine or not."""
    return sorted(_FACTORIES)


def available_backends() -> List[str]:
    """The registered backends that actually construct on this machine."""
    usable = []
    for name in registered_backends():
        try:
            _instance(name)
        except ConfigurationError:
            continue
        usable.append(name)
    return usable


def _instance(name: str) -> ArrayBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _FACTORIES[name]()
        _INSTANCES[name] = backend
    return backend


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """Resolve a backend by name, env var or default.

    ``None`` consults the ``REPRO_BACKEND`` environment variable and
    falls back to the numpy reference.  Unknown names and registered-but
    -unavailable backends both raise
    :class:`~repro.common.exceptions.ConfigurationError` whose one-line
    message lists the backends usable on this machine.
    """
    source = "requested"
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or REFERENCE_BACKEND
        source = f"{BACKEND_ENV_VAR} names" if name != REFERENCE_BACKEND else "default"
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown backend {name!r} ({source}); registered: "
            f"{', '.join(registered_backends())}; available here: "
            f"{', '.join(available_backends())}"
        )
    try:
        return _instance(name)
    except ConfigurationError as error:
        raise ConfigurationError(
            f"{error} (available here: {', '.join(available_backends())})"
        ) from None


def resolve_backend(
    backend: Union[ArrayBackend, str, None]
) -> ArrayBackend:
    """Accept an instance, a name or ``None`` and return an instance."""
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)
