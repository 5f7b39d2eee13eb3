"""Pluggable evaluation backends for :class:`repro.core.engine.EvaluationEngine`.

Two backends share the engine's ``evaluate_batch`` contract and produce
bit-identical reports; they differ only in how the per-candidate hot path is
computed:

``interp``
    The oracle: interpreted expression trees per candidate and the group-major
    sort/adjacency volume kernel.  Baseline for the benchmarks.
``fused``
    The compiled backend (:mod:`repro.core.backends.fused`): the whole batch's
    deduplicated stamp coefficient rows stack into one matmul per cached
    domain chunk, every tensor's volumes are counted by one kernel — one
    global sort of group-major keys over (PE, element) groups padded to a
    uniform width, and shifted-slice membership windows — and candidates
    whose (PE, time-rank) columns are *content-identical* to an already
    evaluated candidate replay its report (verified by exact array
    comparison).

``auto`` is the default and resolves to ``fused`` at engine construction, so
``engine.backend_name`` always names the backend that actually runs.

``fused`` evaluates through the engine's array namespace
(:mod:`repro.core.xp`, selected by the engine's ``device=`` knob): the
stacked-coefficient matmul and the fused volume kernel run on numpy, torch or
cupy through one codepath, with reports bit-identical across namespaces by
contract.  ``interp`` is host-only and rejects non-numpy devices at engine
construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends.base import EngineBackend, InterpBackend
from repro.core.backends.fused import FusedBackend
from repro.core.xp import available_namespaces, namespace_probes, resolve_namespace
from repro.errors import ExplorationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import EvaluationEngine

#: Valid values for the ``backend=`` engine/explorer/CLI option.
BACKEND_NAMES = ("auto", "interp", "fused")


def make_backend(name: str, engine: "EvaluationEngine") -> EngineBackend:
    """Instantiate the backend ``name`` for one engine (``auto`` is ``fused``)."""
    if name == "interp":
        return InterpBackend(engine)
    if name in ("fused", "auto"):
        return FusedBackend(engine)
    raise ExplorationError(
        f"unknown backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "BACKEND_NAMES",
    "EngineBackend",
    "FusedBackend",
    "InterpBackend",
    "available_namespaces",
    "make_backend",
    "namespace_probes",
    "resolve_namespace",
]
