"""Backend contract for the evaluation engine.

A backend decides *how* the per-candidate hot path of a sweep is computed:

* how the dataflow's space/time stamp columns are evaluated over the cached
  relation chunks (interpreted expression trees candidate by candidate vs
  compiled coefficient matrices stacked per batch), and
* which exact membership kernel counts the Table II volumes (the group-major
  sort/adjacency kernel vs the fused kernel, which sorts group-major keys
  over (PE, element) groups padded to one width).

Every backend is *exact*: reports are bit-identical across backends, so the
choice is purely a performance decision.  Backends that cannot handle a case
(the fused kernel stops at temporal intervals above 8) return ``None`` from
:meth:`EngineBackend.volume_metrics` and the engine falls back to its
reference kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.arch.pe_array import PEArray
from repro.core.dataflow import Dataflow
from repro.core.volumes import VolumeMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import EvaluationEngine, OpRelations


class BatchStampProvider:
    """Per-batch stamp source handed to the engine by ``prepare_batch``.

    ``stamps_for(position)`` returns the ``(pe_lin, t_rank)`` columns of the
    candidate at ``position`` in the prepared list, raising
    :class:`repro.errors.DataflowError` for candidates that map instances
    outside the PE array — the same contract as
    :meth:`repro.core.engine.RelationMaterializer.stamps`.
    """

    def stamps_for(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class EngineBackend:
    """Stamp evaluation and volume kernels for one :class:`EvaluationEngine`.

    Device contract: backends that compute through the engine's array
    namespace (``engine.xp``, see :mod:`repro.core.xp`) must keep reports
    bit-identical to the host namespace — integer-exact arithmetic on the
    device, host-side assembly of every report field — and account any
    host<->device copies into the engine's ``transfer`` stage timer.
    Host-only backends simply ignore ``engine.xp``; the engine rejects
    non-numpy devices for :class:`InterpBackend` up front.
    """

    name = "base"

    def __init__(self, engine: "EvaluationEngine"):
        self.engine = engine

    # -- stamp evaluation -------------------------------------------------------

    def stamps(
        self,
        relations: "OpRelations",
        dataflow: Dataflow,
        pe_array: PEArray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate one candidate's (PE, time-rank) columns over cached relations."""
        raise NotImplementedError

    def prepare_batch(
        self,
        relations: "OpRelations",
        dataflows: Sequence[Dataflow],
        pe_array: PEArray,
    ) -> BatchStampProvider | None:
        """Optionally precompute stamps for a whole batch of candidates.

        Returning ``None`` means the engine evaluates candidate by candidate
        through :meth:`stamps` (the interpreted behaviour).
        """
        return None

    # -- spacetime-content memoisation -------------------------------------------

    def spacetime_report(self, dataflow, pe_lin, t_rank):
        """A finished report for this exact (PE, time-rank) map, or ``None``.

        Structurally distinct candidates can assign identical spacetime
        stamps; backends that fingerprint the stamp *content* (see
        :class:`repro.core.backends.fused.FusedBackend`) replay the finished
        report instead of recounting.  The default keeps no such memo.
        """
        return None

    def spacetime_remember(self, dataflow, pe_lin, t_rank, report) -> None:
        """Record a finished report for :meth:`spacetime_report` lookups."""

    # -- utilization -------------------------------------------------------------

    def utilization(
        self, pe_lin: np.ndarray, t_rank: np.ndarray, num_pes: int
    ):
        """Utilization metrics over cached relations, or ``None`` to use the
        reference :func:`repro.core.utilization.compute_utilization`.

        The default is the dense-histogram kernel of the PR 1 engine; the
        fused backend adds an injective shortcut on top.
        """
        from repro.core.engine import _utilization_dense

        return _utilization_dense(pe_lin, t_rank, num_pes)

    # -- volume kernels ---------------------------------------------------------

    def volume_metrics(
        self,
        tensor: str,
        dataflow: Dataflow,
        pe_lin: np.ndarray,
        t_rank: np.ndarray,
        relations: "OpRelations",
        *,
        assume_unique: bool,
        rank_span: int | None = None,
    ) -> VolumeMetrics | None:
        """Exact Table II metrics, or ``None`` to use the reference kernel.

        ``rank_span`` optionally forwards the (already computed) number of
        distinct time ranks so kernels skip re-deriving ``t_rank.max()``.
        """
        raise NotImplementedError

    def volume_metrics_many(
        self,
        tensors: Sequence[str],
        dataflow: Dataflow,
        pe_lin: np.ndarray,
        t_rank: np.ndarray,
        relations: "OpRelations",
        *,
        assume_unique: bool,
        rank_span: int | None = None,
    ) -> dict[str, VolumeMetrics | None]:
        """Volume metrics for several tensors of one candidate.

        The default evaluates tensors one by one; backends may override to
        batch (the fused backend runs the per-tensor kernels — pure numpy
        whose heavy ops release the GIL — on a shared thread pool).
        """
        return {
            tensor: self.volume_metrics(
                tensor,
                dataflow,
                pe_lin,
                t_rank,
                relations,
                assume_unique=assume_unique,
                rank_span=rank_span,
            )
            for tensor in tensors
        }


class InterpBackend(EngineBackend):
    """The PR 1 hot path: interpreted stamp expressions, group-major kernel.

    Stamps go through :meth:`RelationMaterializer.stamps` (one
    ``AffExpr.evaluate_vec`` tree walk per expression per candidate) and
    volumes through the group-major sort/adjacency kernel.  This backend is
    the baseline the fused backend is benchmarked against.
    """

    name = "interp"

    def stamps(self, relations, dataflow, pe_array):
        return self.engine.materializer.stamps(relations, dataflow, pe_array)

    def volume_metrics(
        self, tensor, dataflow, pe_lin, t_rank, relations, *, assume_unique,
        rank_span=None,
    ):
        from repro.core.engine import _grouped_volume_metrics

        metrics = _grouped_volume_metrics(
            tensor,
            pe_lin,
            t_rank,
            relations.tensors[tensor],
            self.engine._predecessor_table,
            self.engine.arch.pe_array.size,
            spatial_interval=self.engine._spacetime.spatial_interval,
            temporal_interval=self.engine.temporal_interval,
            assume_unique=assume_unique,
        )
        return metrics
