"""Array-namespace layer: one device-portable codepath for the fused backend.

The fused backend's hot loops are a handful of array primitives — a stacked
float64 matmul, last-axis sorts (of the key vector and of per-group rank
rows), ``searchsorted`` membership probes, gathers and boolean comparisons.  This module resolves a *device spec* (``numpy``,
``torch``, ``torch:cpu``, ``torch:cuda``, ``cupy``) to an
:class:`ArrayNamespace` exposing exactly those primitives, so the evaluation
kernels are written once and run unchanged on every registered namespace.

Exactness contract
    Every kernel value is an integer.  The stamp matmul runs in float64 and is
    gated by the compiled evaluator's per-row magnitude bound (partial sums below
    ``2**53`` are exactly representable, so any BLAS summation order yields the
    same integers); rows above the bound fall back to the exact host int64
    path.  The volume kernels are integer-only.  Device results therefore come
    back to the host bit-identical to the numpy path.

Registration and probing
    Namespaces register through :func:`register_namespace`; an unavailable one
    (library not installed, no device) is *reported* by
    :func:`namespace_probes` and raises a capability error listing the
    available namespaces only when actually selected — never at import time.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import ExplorationError

#: Device specs accepted by ``--device`` (a ``:suffix`` selects the library's
#: device, e.g. ``torch:cpu``); ``cpu`` is an alias for ``numpy``.
NAMESPACE_NAMES = ("numpy", "torch", "cupy")

_ALIASES = {"cpu": "numpy", "np": "numpy"}


class ArrayNamespace:
    """The small common array API the evaluation kernels are written against.

    ``dtype`` arguments are the strings ``"bool" | "int32" | "int64" |
    "float64"`` so adapters map them to their library's dtype objects.
    Methods that return counts or indices for *control flow* return host
    values; everything else may stay device-resident until :meth:`to_host`.
    """

    name: str = "abstract"
    #: Human-readable device the namespace computes on (``cpu``, ``cuda:0``).
    device: str = "cpu"
    #: True for the host numpy namespace: callers may then skip uploads
    #: entirely and operate on the host arrays in place.
    is_numpy: bool = False

    # -- transfer ---------------------------------------------------------------
    def asarray(self, array: np.ndarray, dtype: str | None = None) -> Any:
        raise NotImplementedError

    def to_host(self, array: Any) -> np.ndarray:
        raise NotImplementedError

    # -- compute ----------------------------------------------------------------
    def matmul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def sort2d(self, a: Any) -> Any:
        """Sort along the last axis; may sort in place and return ``a``."""
        raise NotImplementedError

    def searchsorted(self, sorted_a: Any, values: Any) -> Any:
        raise NotImplementedError

    def take_clip(self, a: Any, indices: Any) -> Any:
        """``a[clip(indices, 0, len(a) - 1)]`` (numpy ``take(mode="clip")``)."""
        raise NotImplementedError

    def zeros(self, length: int, dtype: str) -> Any:
        raise NotImplementedError

    def astype(self, a: Any, dtype: str) -> Any:
        raise NotImplementedError

    def flatnonzero(self, mask: Any) -> Any:
        raise NotImplementedError

    def count_nonzero(self, mask: Any) -> int:
        raise NotImplementedError

    def int_scalar(self, value: int, narrow: bool) -> Any:
        """An integer scalar that keeps ``array op scalar`` in the array dtype."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}:{self.device}>"


class NumpyNamespace(ArrayNamespace):
    """Host numpy: the reference namespace every other one must match."""

    name = "numpy"
    device = "cpu"
    is_numpy = True

    _DTYPES = {"bool": np.bool_, "int32": np.int32, "int64": np.int64,
               "float64": np.float64}

    def asarray(self, array, dtype=None):
        if dtype is None:
            return np.asarray(array)
        return np.asarray(array, dtype=self._DTYPES[dtype])

    def to_host(self, array):
        return array

    def matmul(self, a, b):
        return a @ b

    def sort2d(self, a):
        a.sort(axis=-1)
        return a

    def searchsorted(self, sorted_a, values):
        return np.searchsorted(sorted_a, values)

    def take_clip(self, a, indices):
        return np.take(a, indices, mode="clip")

    def zeros(self, length, dtype):
        return np.zeros(length, dtype=self._DTYPES[dtype])

    def astype(self, a, dtype):
        return a.astype(self._DTYPES[dtype])

    def flatnonzero(self, mask):
        return np.flatnonzero(mask)

    def count_nonzero(self, mask):
        return int(np.count_nonzero(mask))

    def int_scalar(self, value, narrow):
        return np.int32(value) if narrow else np.int64(value)


class TorchNamespace(ArrayNamespace):
    """PyTorch on ``cuda`` when available, else CPU (``torch:cpu`` forces it).

    Integer kernels and the magnitude-gated float64 matmul are exact on any
    torch device, so results are bit-identical to numpy once copied back.
    """

    name = "torch"
    is_numpy = False

    def __init__(self, device: str | None = None):
        import torch

        self._torch = torch
        if device is None or device == "":
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self._device = torch.device(device)
        self.device = str(self._device)
        self._dtypes = {"bool": torch.bool, "int32": torch.int32,
                        "int64": torch.int64, "float64": torch.float64}

    def asarray(self, array, dtype=None):
        tensor = self._torch.from_numpy(np.ascontiguousarray(array))
        if dtype is not None:
            tensor = tensor.to(self._dtypes[dtype])
        return tensor.to(self._device)

    def to_host(self, array):
        return array.detach().cpu().numpy()

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def sort2d(self, a):
        return self._torch.sort(a, dim=-1).values

    def searchsorted(self, sorted_a, values):
        return self._torch.searchsorted(sorted_a, values)

    def take_clip(self, a, indices):
        return a[indices.clamp(0, a.numel() - 1)]

    def zeros(self, length, dtype):
        return self._torch.zeros(length, dtype=self._dtypes[dtype],
                                 device=self._device)

    def astype(self, a, dtype):
        return a.to(self._dtypes[dtype])

    def flatnonzero(self, mask):
        return self._torch.nonzero(mask).flatten()

    def count_nonzero(self, mask):
        return int(self._torch.count_nonzero(mask))

    def int_scalar(self, value, narrow):
        return int(value)


class CupyNamespace(ArrayNamespace):
    """CuPy: numpy semantics on a CUDA device, so adapters are one-liners."""

    name = "cupy"
    is_numpy = False

    def __init__(self, device: str | None = None):
        import cupy

        self._cupy = cupy
        if device:
            cupy.cuda.Device(int(device.removeprefix("cuda:") or 0)).use()
        self.device = f"cuda:{cupy.cuda.runtime.getDevice()}"
        self._dtypes = {"bool": cupy.bool_, "int32": cupy.int32,
                        "int64": cupy.int64, "float64": cupy.float64}

    def asarray(self, array, dtype=None):
        if dtype is None:
            return self._cupy.asarray(array)
        return self._cupy.asarray(array, dtype=self._dtypes[dtype])

    def to_host(self, array):
        return self._cupy.asnumpy(array)

    def matmul(self, a, b):
        return a @ b

    def sort2d(self, a):
        a.sort(axis=-1)
        return a

    def searchsorted(self, sorted_a, values):
        return self._cupy.searchsorted(sorted_a, values)

    def take_clip(self, a, indices):
        return self._cupy.take(a, indices, mode="clip")

    def zeros(self, length, dtype):
        return self._cupy.zeros(length, dtype=self._dtypes[dtype])

    def astype(self, a, dtype):
        return a.astype(self._dtypes[dtype])

    def flatnonzero(self, mask):
        return self._cupy.flatnonzero(mask)

    def count_nonzero(self, mask):
        return int(self._cupy.count_nonzero(mask))

    def int_scalar(self, value, narrow):
        return self._cupy.int32(value) if narrow else self._cupy.int64(value)


# -- registry and capability probing ------------------------------------------------

#: name -> factory(device_suffix_or_None) -> ArrayNamespace
_REGISTRY: dict[str, Callable[[str | None], ArrayNamespace]] = {}
#: Probe results, cached per process: name -> (available, detail).
_PROBES: dict[str, tuple[bool, str]] = {}
#: Resolved singletons, keyed (name, device suffix).
_INSTANCES: dict[tuple[str, str], ArrayNamespace] = {}


def register_namespace(name: str, factory: Callable[[str | None], ArrayNamespace]) -> None:
    """Register (or replace) an array namespace under ``name``.

    Registration is cheap and never imports the backing library; the factory
    runs — and may fail with an informative error — only when the namespace is
    probed or selected.
    """
    _REGISTRY[str(name)] = factory
    _PROBES.pop(name, None)
    for key in [key for key in _INSTANCES if key[0] == name]:
        del _INSTANCES[key]


register_namespace("numpy", lambda device: NumpyNamespace())
register_namespace("torch", lambda device: TorchNamespace(device))
register_namespace("cupy", lambda device: CupyNamespace(device))


def _smoke_test(xp: ArrayNamespace) -> None:
    """One tiny end-to-end pass over the API; raises when the device is broken."""
    a = xp.asarray(np.array([[1.0, 2.0], [3.0, 4.0]]))
    product = xp.to_host(xp.astype(xp.matmul(a, a), "int64"))
    if not np.array_equal(product, np.array([[7, 10], [15, 22]], dtype=np.int64)):
        raise ExplorationError(f"namespace {xp.name!r} failed the exactness smoke test")
    keys = xp.asarray(np.array([0, 2, 4, 6], dtype=np.int64))
    positions = xp.to_host(xp.searchsorted(keys, xp.asarray(np.array([3, 4], dtype=np.int64))))
    if list(positions) != [2, 2]:
        raise ExplorationError(f"namespace {xp.name!r} failed the searchsorted smoke test")


def probe_namespace(name: str) -> tuple[bool, str]:
    """``(available, detail)`` for one registered namespace, cached.

    ``detail`` is a short human-readable string: the library version and
    device when available, the import/device error when not.
    """
    cached = _PROBES.get(name)
    if cached is not None:
        return cached
    factory = _REGISTRY.get(name)
    if factory is None:
        result = (False, "not registered")
    else:
        try:
            xp = factory(None)
            _smoke_test(xp)
        except Exception as error:  # noqa: BLE001 - any import/device failure
            result = (False, f"unavailable: {error}")
        else:
            try:
                version = getattr(__import__(name), "__version__", "?")
            except ImportError:  # a custom namespace not backed by a module
                version = "?"
            result = (True, f"{name} {version} ({xp.device})")
    _PROBES[name] = result
    return result


def namespace_probes() -> dict[str, tuple[bool, str]]:
    """Probe every registered namespace; never raises."""
    return {name: probe_namespace(name) for name in _REGISTRY}


def available_namespaces() -> list[str]:
    """Names of the namespaces that probe as usable on this machine."""
    return [name for name, (ok, _) in namespace_probes().items() if ok]


def resolve_namespace(spec: str | None) -> ArrayNamespace:
    """Resolve a ``--device`` spec to a live :class:`ArrayNamespace`.

    Accepts ``name`` or ``name:device`` (``torch:cpu``, ``torch:cuda:1``).
    Unavailable or unknown namespaces raise a capability error that lists
    what *is* available, so callers can route work elsewhere.
    """
    spec = (spec or "numpy").strip().lower()
    name, _, device = spec.partition(":")
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        raise ExplorationError(
            f"unknown device {spec!r}; registered namespaces: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    key = (name, device)
    instance = _INSTANCES.get(key)
    if instance is not None:
        return instance
    ok, detail = probe_namespace(name)
    if not ok:
        raise ExplorationError(
            f"array namespace {name!r} is {detail}; available namespaces: "
            f"{', '.join(available_namespaces()) or 'none'}"
        )
    try:
        instance = _REGISTRY[name](device or None)
    except Exception as error:  # noqa: BLE001 - e.g. an explicit cuda suffix on a CPU box
        raise ExplorationError(
            f"device {spec!r} could not be initialised ({error}); available "
            f"namespaces: {', '.join(available_namespaces()) or 'none'}"
        ) from error
    _INSTANCES[key] = instance
    return instance


__all__ = [
    "ArrayNamespace",
    "CupyNamespace",
    "NAMESPACE_NAMES",
    "NumpyNamespace",
    "TorchNamespace",
    "available_namespaces",
    "namespace_probes",
    "probe_namespace",
    "register_namespace",
    "resolve_namespace",
]
