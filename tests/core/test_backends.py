"""Tests for the pluggable evaluation backends (repro.core.backends)."""

import numpy as np
import pytest

from repro.core import Dataflow
from repro.core.analyzer import TenetAnalyzer
from repro.core.backends import BACKEND_NAMES, make_backend
from repro.core.backends.affine import CompiledExprSet, CompiledEvaluator, lower_expr
from repro.core.backends.fused import build_group_layout
from repro.core.engine import (
    EvaluationEngine,
    RelationCache,
    RelationMaterializer,
    dataflow_signature,
)
from repro.dse.pruning import pruned_candidates
from repro.errors import DataflowError, ExplorationError
from repro.experiments.common import make_arch
from repro.isl.expr import var
from repro.tensor.kernels import conv1d, conv2d, depthwise_conv2d, gemm, jacobi2d, mmc, mttkrp


def report_dict(report):
    data = report.as_dict()
    data.pop("analysis_seconds")
    data["notes"] = list(report.notes)
    return data


def _torch_available() -> bool:
    try:
        import torch  # noqa: F401
    except ImportError:
        return False
    return True


#: The namespace axis of the bit-identity matrix: numpy always runs; the
#: torch-CPU leg runs whenever torch is importable (the CI device-matrix job)
#: and is skipped, not failed, on hosts without it.
NAMESPACE_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param(
        "torch:cpu",
        id="torch-cpu",
        marks=pytest.mark.skipif(not _torch_available(), reason="torch not installed"),
    ),
]


def small_candidates(op, pe_dims=(4, 4), count=6):
    return list(pruned_candidates(op, pe_dims=pe_dims, allow_packing=True,
                                  max_candidates=count))


def nested_quasi_dataflow(op, rows=4, cols=4):
    """A dataflow whose last time stamp wraps a floordiv inside a mod."""
    i, j, k = (var(dim) for dim in op.loop_dims)
    folded = (i // rows + j) % 5
    return Dataflow.from_exprs(
        "nested", op.domain.space,
        [i % rows, j % cols], [k, i // rows, j // cols, folded],
    )


def collapsing_dataflow(op):
    """A non-injective dataflow: many instances share each (PE, stamp)."""
    dims = op.loop_dims
    first, second, last = dims[0], dims[1], dims[-1]
    return Dataflow.from_exprs(
        "collapse", op.domain.space,
        [f"{first} mod 4", f"{second} mod 4"], [f"{last} mod 2"],
    )


def tensor_evaluations(op, engine, candidates):
    """Per-tensor volume evaluations of ``candidates`` fresh evaluations."""
    tensors = len({access.tensor for access in op.accesses})
    return tensors * (candidates - engine.stats["spacetime_hits"])


class TestExprLowering:
    def test_linear_row_of_affine_expr(self):
        expr = 2 * var("i") - 3 * var("j") + 7
        coeffs, const = expr.linear_row(("i", "j", "k"))
        assert coeffs == (2, -3, 0)
        assert const == 7

    def test_linear_row_rejects_unknown_variable(self):
        from repro.errors import SpaceError

        with pytest.raises(SpaceError):
            (2 * var("x")).linear_row(("i", "j"))

    def test_lower_affine(self):
        base, const, derived = lower_expr(
            var("i") + 2 * var("k") - 1, ("i", "j", "k")
        )
        assert base == (1, 0, 2)
        assert const == -1
        assert derived == []

    def test_lower_mod_and_floordiv_to_derived_columns(self):
        lowered = lower_expr(var("i") % 4 + var("j") // 8, ("i", "j"))
        assert lowered is not None
        _, _, derived = lowered
        kinds = sorted(column.kind for _, column in derived)
        assert kinds == ["floordiv", "mod"]

    def test_nested_quasi_does_not_lower(self):
        nested = (var("i") // 4 + var("j")) % 5
        assert lower_expr(nested, ("i", "j")) is None

    def test_unknown_variable_does_not_lower(self):
        assert lower_expr(var("x") + var("i"), ("i", "j")) is None

    def test_dataflow_stamp_rows(self):
        op = gemm(8, 8, 8)
        dataflow = Dataflow.from_exprs(
            "d", op.domain.space, ["i mod 4", "j mod 4"], ["k", "i"]
        )
        pe_rows, time_rows = dataflow.stamp_rows()
        assert pe_rows == [None, None]  # mod terms are not plain affine rows
        assert time_rows == [((0, 0, 1), 0), ((1, 0, 0), 0)]
        assert not dataflow.is_affine
        affine = Dataflow.from_exprs("a", op.domain.space, ["i", "j"], ["k"])
        assert affine.is_affine

    def test_compiled_rows_match_interpreter(self):
        op = gemm(12, 12, 12)
        materializer = RelationMaterializer(op, cache=RelationCache())
        relations = materializer.relations(10**6)
        exprs = [
            var("i") + 2 * var("j") - var("k"),
            var("i") % 4 + var("j") // 8 - 2,
            (var("k") % 5) * 3 + var("i"),
        ]
        compiled = CompiledExprSet(op.loop_dims, relations.inclusive_bounds)
        plans = [compiled.add(e) for e in exprs]
        evaluator = CompiledEvaluator(compiled, relations.domain, relations.total)
        values = evaluator.evaluate_rows([i for kind, i in plans if kind == "row"])
        for expr, (kind, index) in zip(exprs, plans):
            assert kind == "row"
            np.testing.assert_array_equal(values[index], expr.evaluate_vec(relations.domain))

    def test_identical_expressions_share_one_row(self):
        op = gemm(8, 8, 8)
        relations = RelationMaterializer(op, cache=RelationCache()).relations(10**6)
        compiled = CompiledExprSet(op.loop_dims, relations.inclusive_bounds)
        first = compiled.add(var("i") + var("k") // 4)
        second = compiled.add(var("i") + var("k") // 4)
        assert first == second
        assert len(compiled.rows) == 1


class TestBackendStamps:
    @pytest.mark.parametrize("backend", ["fused", "auto"])
    def test_stamps_match_interpreter(self, backend):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        relations = engine.materializer.relations(10**7)
        for candidate in small_candidates(op) + [nested_quasi_dataflow(op)]:
            bound = candidate.bind(op)
            pe_ref, rank_ref = engine.materializer.stamps(relations, bound, arch.pe_array)
            pe_new, rank_new = engine.backend.stamps(relations, bound, arch.pe_array)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_batched_stamps_match_per_candidate(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        candidates = small_candidates(op, count=8)
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        for position, candidate in enumerate(candidates):
            pe_ref, rank_ref = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            pe_new, rank_new = provider.stamps_for(position)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_small_windows_still_match(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**6)
        candidates = small_candidates(op, count=6)
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        provider._rows_per_window = 1  # force window thrash
        for position, candidate in enumerate(candidates):
            pe_ref, rank_ref = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            pe_new, rank_new = provider.stamps_for(position)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_pe_memo_eviction_between_batches_replans(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**6)
        candidates = small_candidates(op, count=3)
        warmup = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        for position in range(len(candidates)):
            warmup.stamps_for(position)
        # The second provider records no PE plans (all signatures memoised);
        # evicting the memo in between forces the replan path.
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        engine.backend._pe_memo.clear()
        for position, candidate in enumerate(candidates):
            pe_ref, rank_ref = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            pe_new, rank_new = provider.stamps_for(position)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_out_of_range_candidate_raises_for_each_candidate(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        bad = Dataflow.from_exprs("bad", op.domain.space, ["i", "j"], ["k"])
        bad_twin = Dataflow.from_exprs("bad-twin", op.domain.space, ["i", "j"], ["k"])
        provider = engine.backend.prepare_batch(relations, [bad, bad_twin], arch.pe_array)
        with pytest.raises(DataflowError, match="bad"):
            provider.stamps_for(0)
        # The failure is memoised per space signature but re-raised per candidate.
        with pytest.raises(DataflowError, match="bad-twin"):
            provider.stamps_for(1)

    def test_fallback_exprs_are_counted(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        engine.evaluate(nested_quasi_dataflow(op))
        assert engine.stats["stamp_fallback_exprs"] > 0


class TestBackendReports:
    @pytest.mark.parametrize("make_op", [
        lambda: gemm(16, 16, 16),
        lambda: conv2d(6, 6, 5, 5, 3, 3),
    ], ids=["gemm", "conv2d"])
    @pytest.mark.parametrize("interconnect", ["2d-systolic", "mesh", "multicast"])
    @pytest.mark.parametrize("backend", ["interp", "fused", "auto"])
    @pytest.mark.parametrize("device", NAMESPACE_PARAMS)
    def test_backend_reports_equal_analyzer(self, make_op, interconnect, backend, device):
        if backend == "interp" and device != "numpy":
            pytest.skip("interp is host-only (rejected at engine construction)")
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend=backend, device=device
        )
        for candidate in small_candidates(op):
            reference = TenetAnalyzer(op, candidate, arch).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    @pytest.mark.parametrize("backend", ["fused", "auto"])
    @pytest.mark.parametrize("device", NAMESPACE_PARAMS)
    def test_nested_quasi_reports_equal_analyzer(self, backend, device):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        candidate = nested_quasi_dataflow(op)
        reference = TenetAnalyzer(op, candidate, arch).analyze()
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend=backend, device=device
        )
        assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    @pytest.mark.parametrize("backend", ["interp", "fused", "auto"])
    def test_non_injective_reports_equal_analyzer(self, backend):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        collapsing = Dataflow.from_exprs(
            "collapse", op.domain.space, ["i mod 4", "j mod 4"], ["k mod 4"]
        )
        reference = TenetAnalyzer(op, collapsing, arch).analyze()
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        assert report_dict(reference) == report_dict(engine.evaluate(collapsing))

    def test_batch_matches_across_backends(self):
        op = conv2d(4, 4, 6, 6, 3, 3)
        arch = make_arch(pe_dims=(4, 4))
        candidates = small_candidates(op, count=8)
        batches = {}
        for backend in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
            batches[backend] = engine.evaluate_batch(candidates)
        reference = batches["interp"].reports
        assert reference
        for backend in ("auto", "fused"):
            assert len(batches[backend].reports) == len(reference)
            for a, b in zip(reference, batches[backend].reports):
                assert report_dict(a) == report_dict(b)


class TestLayout:
    def _op_with_duplicate_reference(self):
        """GEMM variant whose output is referenced twice (read then write)."""
        from repro.tensor.access import AccessMode, TensorAccess
        from repro.tensor.operation import TensorOp

        base = gemm(8, 8, 8)
        update = next(a for a in base.accesses if a.tensor == "Y")
        accesses = [a for a in base.accesses if a.tensor != "Y"]
        accesses.append(TensorAccess("Y", AccessMode.READ, update.relation))
        accesses.append(TensorAccess("Y", AccessMode.WRITE, update.relation))
        return TensorOp("gemm-dup", base.domain, accesses)

    def test_identical_references_collapse(self):
        op = self._op_with_duplicate_reference()
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        relations = engine.materializer.relations(10**6)
        candidate = small_candidates(op)[0].bind(op)
        pe_lin, _ = engine.materializer.stamps(relations, candidate, arch.pe_array)
        assert relations.tensors["Y"].references == 2
        layout = build_group_layout(
            pe_lin, relations.tensors["Y"], engine._predecessor_table,
            engine._spacetime.spatial_interval,
        )
        assert layout.references == 1
        assert layout.pairs == pe_lin.size

    def test_duplicate_reference_reports_equal_analyzer(self):
        op = self._op_with_duplicate_reference()
        arch = make_arch(pe_dims=(4, 4))
        for backend in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
            for candidate in small_candidates(op, count=3):
                reference = TenetAnalyzer(op, candidate, arch).analyze()
                assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    def test_distinct_references_are_kept(self):
        from repro.tensor.kernels import jacobi2d

        op = jacobi2d(10, 10)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        relations = engine.materializer.relations(10**6)
        candidate = small_candidates(op, count=1)[0].bind(op)
        pe_lin, _ = engine.materializer.stamps(relations, candidate, arch.pe_array)
        tensor = next(t for t, rel in relations.tensors.items() if rel.references > 1)
        layout = build_group_layout(
            pe_lin, relations.tensors[tensor], engine._predecessor_table,
            engine._spacetime.spatial_interval,
        )
        assert layout.references == relations.tensors[tensor].references

    def _ragged_setup(self):
        # 10 = 4 + 4 + 2: the boundary PE tiles hold fewer pairs per
        # (PE, element) group, so their blocks are padded to the widest one.
        op = gemm(10, 10, 10)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        relations = engine.materializer.relations(10**6)
        i, j, k = (var(dim) for dim in op.loop_dims)
        candidate = Dataflow.from_exprs(
            "ragged", op.domain.space, [i % 4, j % 4], [k, i // 4, j // 4]
        ).bind(op)
        return engine, relations, candidate

    def test_ragged_blocks_are_padded(self):
        engine, relations, candidate = self._ragged_setup()
        pe_lin, _ = engine.materializer.stamps(relations, candidate, engine.arch.pe_array)
        layout = build_group_layout(
            pe_lin, relations.tensors["A"], engine._predecessor_table,
            engine._spacetime.spatial_interval,
        )
        assert layout.pairs == pe_lin.size
        pads = layout.group_of.size - layout.pairs
        assert pads == layout.group_count * layout.block - layout.pairs > 0
        # Every group holds exactly ``block`` slots: its pairs plus its pads.
        slots = np.bincount(layout.group_of, minlength=layout.group_count)
        assert (slots == layout.block).all()
        for per_group in (*layout.slot_valid, *layout.slot_delta):
            assert per_group.shape == (layout.group_count,)

    def test_bitmap_and_unique_branches_build_identical_layouts(self):
        # Element keys only span 0..40; a footprint of 2**24 encodes the very
        # same (PE, element) groups in the same order, but with keys too wide
        # for the presence bitmap, so the np.unique fallback numbers them.
        from repro.core.engine import TensorRelations

        rng = np.random.default_rng(5)
        length = 3000
        pe_lin = rng.integers(0, 16, size=length)
        references = [rng.integers(0, 40, size=length) for _ in range(2)]
        pe = np.arange(16)
        predecessor_table = np.stack(
            [np.where(pe % 4 > 0, pe - 1, -1), np.where(pe >= 4, pe - 4, -1)], axis=1
        )
        layouts = []
        for footprint in (40, 1 << 24):
            relations = TensorRelations(
                raw_keys=references,
                dense_keys=np.concatenate(references),
                extent=footprint,
                footprint=footprint,
            )
            layouts.append(build_group_layout(pe_lin, relations, predecessor_table, 1))
        wide_keys = 15 * (1 << 24)
        assert wide_keys > max(4 * 2 * length, 1 << 22)  # forces the fallback
        bitmap, unique = layouts
        np.testing.assert_array_equal(bitmap.group_of, unique.group_of)
        assert (bitmap.group_count, bitmap.block, bitmap.pairs, bitmap.references) == (
            unique.group_count, unique.block, unique.pairs, unique.references,
        )
        assert bitmap.group_of.size > bitmap.pairs  # ragged: pads were appended
        for a, b in zip(bitmap.slot_valid + bitmap.slot_delta,
                        unique.slot_valid + unique.slot_delta):
            np.testing.assert_array_equal(a, b)
        assert bitmap.slot_delta_const == unique.slot_delta_const
        assert bitmap.slot_any == unique.slot_any == [True, True]

    @pytest.mark.parametrize("case", ["ragged", "multi-reference", "non-injective"])
    def test_int64_keys_count_like_int32_keys(self, case):
        from repro.core.backends.fused import fused_group_volume_metrics

        if case == "ragged":
            engine, relations, candidate = self._ragged_setup()
        else:
            op = jacobi2d(10, 10) if case == "multi-reference" else gemm(8, 8, 8)
            engine = EvaluationEngine(op, make_arch(pe_dims=(4, 4)), cache=RelationCache())
            relations = engine.materializer.relations(10**6)
            candidate = (
                small_candidates(op, count=1)[0] if case == "multi-reference"
                else collapsing_dataflow(op)
            ).bind(op)
        pe_lin, t_rank = engine.materializer.stamps(
            relations, candidate, engine.arch.pe_array
        )
        span = int(t_rank.max()) + 1
        injective = case != "non-injective"
        if not injective:
            assert np.unique(pe_lin * span + t_rank).size < pe_lin.size
        for tensor, tensor_relations in relations.tensors.items():
            layout = build_group_layout(
                pe_lin, tensor_relations, engine._predecessor_table,
                engine._spacetime.spatial_interval,
            )
            counts = []
            for rank_span in (span, 1 << 29):
                # 1 << 29 pushes 2 * (groups + 1) * stride past int32.
                assert (2 * (layout.group_count + 1) * (rank_span + 1) < (1 << 31)) == (
                    rank_span == span
                )
                counts.append(fused_group_volume_metrics(
                    tensor, layout, t_rank,
                    spatial_interval=engine._spacetime.spatial_interval,
                    temporal_interval=engine.temporal_interval,
                    footprint=tensor_relations.footprint,
                    rank_span=rank_span,
                    rank32=t_rank.astype(np.int32),
                    assume_unique=injective,
                ))
            assert counts[0] is not None
            assert counts[0] == counts[1], tensor
        if case == "multi-reference":
            assert max(rel.references for rel in relations.tensors.values()) > 1

    def test_layout_memo_is_shared_across_candidates(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        candidates = small_candidates(op, count=6)
        engine.evaluate_batch(candidates)
        distinct_pe_signatures = {
            tuple(str(e) for e in c.pe_exprs) for c in candidates
        }
        # One layout per (space signature, tensor), not per candidate.
        assert len(engine.backend._layout_memo) <= len(distinct_pe_signatures) * 3
        assert engine.stats["layout_builds"] == len(engine.backend._layout_memo)


class TestFusedBackend:
    def test_fused_kernel_engages_on_uniform_layouts(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4), interconnect="2d-systolic")
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        candidates = small_candidates(op)
        for candidate in candidates:
            assert report_dict(reference.evaluate(candidate)) == report_dict(
                engine.evaluate(candidate)
            )
        assert engine.stats["fused_path"] == tensor_evaluations(
            op, engine, len(candidates)
        )
        assert engine.stats["reference_path"] == 0

    def test_fused_counts_multi_reference_layouts(self):
        # jacobi2d's stencil input has five distinct references, so the
        # fused kernel checks its blocks for repeated (group, rank) pairs;
        # the single-reference output skips that check.  Both tensors stay
        # on the fused kernel, bit-identically.
        op = jacobi2d(10, 10)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        candidates = small_candidates(op, count=3)
        for candidate in candidates:
            assert report_dict(reference.evaluate(candidate)) == report_dict(
                engine.evaluate(candidate)
            )
        assert engine.stats["fused_path"] == tensor_evaluations(
            op, engine, len(candidates)
        )
        assert engine.stats["reference_path"] == 0

    def test_fused_wide_interval_falls_back_to_reference(self):
        # The fused kernel is limited to temporal intervals <= 8; wider
        # intervals go to the engine's reference kernel.
        op = gemm(12, 12, 12)
        arch = make_arch(pe_dims=(4, 4))
        candidate = small_candidates(op)[0]
        reference = TenetAnalyzer(op, candidate, arch, temporal_interval=11).analyze()
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend="fused", temporal_interval=11
        )
        assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        assert engine.stats["fused_path"] == 0
        assert engine.stats["reference_path"] == tensor_evaluations(op, engine, 1)

    def test_spacetime_memo_replays_identical_stamp_content(self):
        # Shifting every time expression by a constant changes the structural
        # signature but not the rank order, so the second candidate's report
        # must come from the spacetime memo, renamed but otherwise identical.
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        base = Dataflow.from_exprs(
            "base", op.domain.space, [i % 4, j % 4], [k, i // 4, j // 4]
        )
        shifted = Dataflow.from_exprs(
            "shifted", op.domain.space, [i % 4, j % 4], [k + 3, i // 4, j // 4]
        )
        assert dataflow_signature(base) != dataflow_signature(shifted)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        first = engine.evaluate(base)
        second = engine.evaluate(shifted)
        assert engine.stats["spacetime_hits"] == 1
        assert second.dataflow == "shifted"
        a, b = report_dict(first), report_dict(second)
        assert a.pop("dataflow") == "base" and b.pop("dataflow") == "shifted"
        assert a == b
        # The replayed report is still bit-identical to a fresh analysis.
        fresh = TenetAnalyzer(op, shifted, arch).analyze()
        c = report_dict(fresh)
        c.pop("dataflow")
        assert b == c

    def test_spacetime_memo_does_not_override_pruning(self):
        # Under early termination the memo is consulted only *after* the
        # lower-bound check: a candidate whose bound already loses must be
        # recorded as pruned (as interp would), never replayed as a
        # report just because its spacetime map was evaluated earlier.
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        serial = Dataflow.from_exprs(
            "serial", op.domain.space, [i % 4, j % 4], [i, j, k]
        )
        serial_twin = Dataflow.from_exprs(
            "serial-twin", op.domain.space, [i % 4, j % 4], [i, j, k + 1]
        )
        fast = Dataflow.from_exprs(
            "fast", op.domain.space, [i % 4, j % 4], [k, i // 4, j // 4]
        )
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        batch = engine.evaluate_batch(
            [serial, fast, serial_twin],
            objective="latency", early_termination=True,
        )
        by_name = {outcome.name: outcome for outcome in batch.outcomes}
        assert by_name["serial"].report is not None
        assert by_name["fast"].report is not None
        # The twin shares serial's exact spacetime map (memoised), but its
        # compute-delay bound exceeds fast's latency: pruned, not replayed.
        assert by_name["serial-twin"].pruned
        assert engine.stats["spacetime_hits"] == 0

    def test_spacetime_memo_skipped_under_validation(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        base = Dataflow.from_exprs(
            "base", op.domain.space, [i % 4, j % 4], [k, i // 4, j // 4]
        )
        shifted = Dataflow.from_exprs(
            "shifted", op.domain.space, [i % 4, j % 4], [k + 3, i // 4, j // 4]
        )
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend="fused", validate=True
        )
        engine.evaluate(base)
        engine.evaluate(shifted)
        assert engine.stats["spacetime_hits"] == 0

    def test_fused_batch_matches_analyzer_across_interconnects(self):
        op = gemm(16, 16, 16)
        for interconnect in ("2d-systolic", "mesh", "multicast"):
            arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
            candidates = small_candidates(op, count=6)
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
            batch = engine.evaluate_batch(candidates)
            assert len(batch.reports) == len(candidates)
            for candidate, report in zip(candidates, batch.reports):
                reference = TenetAnalyzer(op, candidate, arch).analyze()
                assert report_dict(reference) == report_dict(report)

    def test_fused_provider_stacks_whole_batch_into_one_window(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        candidates = small_candidates(op, count=12)
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        provider._ensure_window(0)
        # One stacked evaluation covers every candidate.
        assert provider._window == (0, len(candidates))


class TestKernelChain:
    """The fused backend's per-tensor kernel over every library kernel.

    Every tensor evaluation — uniform or ragged blocks, one or several
    references, injective or not — takes the fused windowed kernel, except
    temporal intervals above 8, which take the engine's reference kernel;
    both reproduce the analyzer.
    """

    #: Every library kernel family, at sizes whose PE tiles leave ragged
    #: boundary blocks.
    KERNELS = {
        "gemm": lambda: gemm(10, 10, 10),
        "conv2d": lambda: conv2d(4, 4, 7, 7, 3, 3),
        "conv1d": lambda: conv1d(12, 3),
        "depthwise": lambda: depthwise_conv2d(4, 6, 6, 3, 3),
        "mttkrp": lambda: mttkrp(6, 6, 6, 6),
        "mmc": lambda: mmc(6, 6, 6, 6),
        "jacobi2d": lambda: jacobi2d(10, 10),
    }

    @pytest.mark.parametrize("interconnect", ["2d-systolic", "mesh", "multicast"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_matches_analyzer(self, kernel, interconnect):
        op = self.KERNELS[kernel]()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        small = small_candidates(op, count=4)
        assert small
        candidates = small + [collapsing_dataflow(op)]
        for candidate in candidates:
            reference = TenetAnalyzer(op, candidate, arch).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        stats = engine.stats
        assert stats["fused_path"] == tensor_evaluations(op, engine, len(candidates))
        assert stats["reference_path"] == 0

    @pytest.mark.parametrize("interval", [1, 2, 4, 7, 8, 9, 11, 16])
    def test_temporal_interval_selects_kernel(self, interval):
        # The fused kernel's adjacency window stops at interval 8.
        op = mmc(6, 6, 6, 6)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend="fused",
            temporal_interval=interval,
        )
        candidates = small_candidates(op, count=3)
        for candidate in candidates:
            reference = TenetAnalyzer(
                op, candidate, arch, temporal_interval=interval
            ).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        stats = engine.stats
        evaluations = tensor_evaluations(op, engine, len(candidates))
        if interval <= 8:
            assert stats["fused_path"] == evaluations
            assert stats["reference_path"] == 0
        else:
            assert stats["fused_path"] == 0
            assert stats["reference_path"] == evaluations


class TestRegistry:
    def test_unknown_backend_rejected(self):
        op = gemm(8, 8, 8)
        with pytest.raises(ExplorationError, match="unknown backend 'gpu'") as info:
            EvaluationEngine(op, make_arch(pe_dims=(4, 4)), backend="gpu")
        assert "available: auto, interp, fused" in str(info.value)

    # "affine" and "bitset" were backends once; they are rejected like any
    # other unknown name.
    @pytest.mark.parametrize("name", ["affine", "bitset"])
    def test_removed_backend_rejected(self, name):
        op = gemm(8, 8, 8)
        with pytest.raises(ExplorationError, match=f"unknown backend '{name}'") as info:
            EvaluationEngine(op, make_arch(pe_dims=(4, 4)), backend=name)
        assert "available: auto, interp, fused" in str(info.value)

    def test_backend_names_constructible(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        assert BACKEND_NAMES == ("auto", "interp", "fused")
        for name in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, backend=name)
            # auto resolves to fused at construction.
            expected = "fused" if name == "auto" else name
            assert engine.backend.name == expected
            assert engine.backend_name == expected


class TestFusedBaseline:
    """The array-API fused backend against the committed pre-refactor reports.

    ``tests/core/data/fused_baseline.json`` was generated by the fused
    backend *before* the array-namespace port; these tests pin the refactor
    to bit-identical output (round-tripped through JSON, exactly like the
    fixture) on every namespace in the matrix.
    """

    CASES = {
        "gemm16": (lambda: gemm(16, 16, 16), "2d-systolic"),
        "gemm12_mesh": (lambda: gemm(12, 12, 12), "mesh"),
        "conv2d": (lambda: conv2d(4, 4, 6, 6, 3, 3), "2d-systolic"),
    }

    @staticmethod
    def _baseline():
        import json
        from pathlib import Path

        path = Path(__file__).parent / "data" / "fused_baseline.json"
        return json.loads(path.read_text())

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("device", NAMESPACE_PARAMS)
    def test_fused_matches_pre_refactor_baseline(self, case, device):
        import json

        make_op, interconnect = self.CASES[case]
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, backend="fused", device=device)
        candidates = pruned_candidates(
            op, pe_dims=(4, 4), allow_packing=True, max_candidates=8
        )
        fresh = {c.name: report_dict(engine.evaluate(c)) for c in candidates}
        assert json.loads(json.dumps(fresh)) == self._baseline()[case]
        assert engine.stats["fused_path"] > 0
