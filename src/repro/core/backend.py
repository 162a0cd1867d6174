"""The array-namespace seam behind the ``(R, N, K)`` tensor kernels.

The cross-permutation sweep engine (:class:`~repro.core.state.PermutationBatch`
and the :class:`~repro.core.switch._SwitchScan` it drives) runs its bulk
array work — the count-table product, the seen-count table and the
seen-vote compaction — in host NumPy.  What still varies per backend is
narrow: the ``bincount`` fold of per-vote majority deltas into majority
histories, and whether the two sequential scan passes run as the
vectorised NumPy formulation or as compiled loops.  This module keeps
exactly that behind a minimal :class:`ArrayBackend` seam (``asarray``,
``asnumpy``, ``bincount`` and one capability flag), so the same kernel
code runs on:

* **numpy** — the always-available reference backend (bit-identity is
  defined against it);
* **numba** — NumPy arrays plus :mod:`numba`-compiled fused scan loops
  for the two remaining sequential passes (event compaction and the
  per-checkpoint sweep-cell walk, see
  :mod:`repro.core._scan_kernels`); registers only when Numba imports.

**Bit-identity is the contract**: every operation a backend implements is
integer-exact, so a backend either reproduces the NumPy reference
bit-for-bit or it is a bug.  The parity suite
(``tests/test_backend_parity.py``) pins this per registered backend, and
``repro bench`` refuses to record an entry for a backend whose estimates
differ from the reference.

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
from typing import Callable, Dict, List, Optional, Union

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

    # -- the majority-history fold --------------------------------------- #
    def bincount(self, values, weights=None, minlength=0):
        """The majority-history fold (scatter-add of per-vote deltas)."""
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

    def bincount(self, values, weights=None, minlength=0):
        return np.bincount(values, weights=weights, minlength=minlength)


class NumbaBackend(NumpyBackend):
    """NumPy arrays + Numba-compiled fused scan loops.

    Array storage and the ``bincount`` fold are inherited unchanged from
    the reference backend; what changes is that the two remaining
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
