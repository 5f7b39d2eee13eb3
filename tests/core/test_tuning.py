"""Tests for the measurement-driven auto-tuner (repro.core.tuning).

The load-bearing property throughout: tuning may change evaluation *order and
speed* only — never which reports are produced, never the final ranking of a
full sweep, and never the shard/dedupe/resume semantics of the stream.
"""

import json

import pytest

from repro.core.engine import (
    MIN_TASK_CANDIDATES,
    EvaluationEngine,
    RelationCache,
    dataflow_signature,
    parallel_task_chunk,
)
from repro.core.tuning import ScoreRanker, signature_features
from repro.dse.pruning import pruned_candidates
from repro.errors import ExplorationError
from repro.experiments.common import make_arch
from repro.sweep import CandidateSource, SweepSession, load_ranking, render_ranking
from repro.tensor.kernels import gemm


def make_op():
    return gemm(16, 16, 16)


def make_source(op, count=40):
    return CandidateSource(
        lambda: pruned_candidates(
            op, pe_dims=(4, 4), allow_packing=True, max_candidates=count
        ),
        name="pruned",
    )


def make_engine(op, tune="off", **kwargs):
    kwargs.setdefault("cache", RelationCache())
    return EvaluationEngine(op, make_arch(pe_dims=(4, 4)), tune=tune, **kwargs)


def ranking_key(result):
    return [(e.signature, e.name, e.score) for e in result.ranking]


def run_sweep(op, tune="off", engine_kwargs=None, **session_kwargs):
    engine = make_engine(op, tune=tune, **(engine_kwargs or {}))
    session = SweepSession(engine, objective="latency", **session_kwargs)
    try:
        return engine, session.run(make_source(op))
    finally:
        engine.close()


# -- decisions are a pure function of measurements ----------------------------------


class TestTunerDeterminism:
    def test_identical_measurement_sequences_give_identical_decisions(self):
        op = make_op()
        measurements = [(16, 0.4, 1), (16, 0.9, 2), (16, 0.38, 1)]
        profiles = []
        for _ in range(2):
            engine = make_engine(op, tune="auto")
            for counted, seconds, jobs in measurements:
                engine.tuner.observe_measurement(counted, seconds, jobs=jobs)
            engine.tuner.finalize()
            profiles.append(engine.tuner.profile_dict())
            engine.close()
        assert profiles[0] == profiles[1]
        assert profiles[0]["calibrated"] is True
        # The first batch calibrates; serial batches keep tracking the cost.
        assert profiles[0]["batch_size"] == 8
        assert profiles[0]["per_candidate_seconds"] == round(0.38 / 16, 6)

    def test_batch_size_targets_wall_clock_and_clamps(self):
        op = make_op()
        engine = make_engine(op, tune="auto")
        tuner = engine.tuner
        tuner.observe_measurement(16, 16 * 0.010)
        assert tuner.calibrated
        # 0.25s target / 10ms per candidate = 25 -> rounded down to 24.
        assert tuner.decided_batch_size == 24
        engine.close()

        fast = make_engine(op, tune="auto")
        fast.tuner.observe_measurement(16, 16 * 1e-6)
        assert fast.tuner.decided_batch_size == fast.tuner.max_batch_size
        fast.close()

    def test_ranker_fit_is_insertion_order_independent(self):
        candidates = list(pruned_candidates(make_op(), pe_dims=(4, 4)))
        pairs = [
            (dataflow_signature(c), float(100 + 7 * i))
            for i, c in enumerate(candidates)
        ]
        forward, backward = ScoreRanker(), ScoreRanker()
        forward.seed(pairs)
        backward.seed(reversed(pairs))
        forward.fit()
        backward.fit()
        assert forward.ready and backward.ready
        assert list(forward.coef) == list(backward.coef)

    def test_order_is_a_pure_permutation(self):
        op = make_op()
        candidates = list(pruned_candidates(op, pe_dims=(4, 4)))
        engine = make_engine(op, tune="auto")
        tuner = engine.tuner
        for i, c in enumerate(candidates):
            tuner.observe_score(dataflow_signature(c), float(1000 - 13 * i))
        ordered = tuner.order(candidates)
        assert sorted(dataflow_signature(c) for c in ordered) == sorted(
            dataflow_signature(c) for c in candidates
        )
        # Deterministic: same inputs, same order.
        assert [c.name for c in tuner.order(candidates)] == [
            c.name for c in ordered
        ]
        engine.close()

    def test_signature_features_shape_is_stable(self):
        # The profile's ranker_coef round-trips against this length.
        assert signature_features("").size == signature_features(
            "PE[i%4,j%4]|T[k//2,i+j]"
        ).size


# -- bit-identity: tuned == untuned ------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["auto", "interp", "fused"])
    def test_rankings_identical_tuned_vs_untuned(self, backend):
        op = make_op()
        _, untuned = run_sweep(
            op, tune="off", engine_kwargs={"backend": backend}, batch_size=8
        )
        engine, tuned = run_sweep(
            op, tune="auto", engine_kwargs={"backend": backend}, batch_size=8
        )
        assert ranking_key(tuned) == ranking_key(untuned)
        # Tuning never switches the backend; auto always resolves to fused.
        assert engine.backend_name == ("fused" if backend == "auto" else backend)

    def test_rendered_rankings_byte_identical(self, tmp_path):
        op = make_op()
        for tune, name in (("off", "off.jsonl"), ("auto", "on.jsonl")):
            run_sweep(op, tune=tune, checkpoint=str(tmp_path / name), batch_size=8)
        off = render_ranking(load_ranking([str(tmp_path / "off.jsonl")]))
        on = render_ranking(load_ranking([str(tmp_path / "on.jsonl")]))
        assert off == on

    def test_early_termination_best_is_identical(self):
        op = make_op()
        _, untuned = run_sweep(op, tune="off", early_termination=True, batch_size=8)
        _, tuned = run_sweep(op, tune="auto", early_termination=True, batch_size=8)
        # Reordering can change *which* candidates get pruned, but the best
        # candidate can never be pruned, so rank 1 is identical.
        assert ranking_key(tuned)[0] == ranking_key(untuned)[0]


# -- stream semantics under shard + resume -----------------------------------------


class TestStreamSemantics:
    def test_sharded_tuned_sweeps_merge_to_untuned_ranking(self, tmp_path):
        op = make_op()
        _, full = run_sweep(op, tune="off", batch_size=8)
        paths = []
        for index in range(2):
            path = str(tmp_path / f"shard{index}.jsonl")
            engine = make_engine(op, tune="auto")
            session = SweepSession(
                engine, objective="latency", batch_size=8, checkpoint=path
            )
            result = session.run(make_source(op), shard=(index, 2))
            engine.close()
            assert result.duplicates + result.sharded_out + result.evaluated_count \
                == full.evaluated_count + full.duplicates
            paths.append(path)
        merged = load_ranking(paths)
        assert [(e.signature, e.name, e.score) for e in merged] == ranking_key(full)

    def test_resume_after_partial_run_is_complete_and_duplicate_free(self, tmp_path):
        op = make_op()
        _, full = run_sweep(op, tune="off", batch_size=8)
        path = tmp_path / "resume.jsonl"
        run_sweep(op, tune="auto", checkpoint=str(path), batch_size=8)
        # Keep the header, the first 4 results, and the tuning block —
        # simulating a run killed mid-sweep whose profile survived.
        lines = path.read_text().splitlines()
        kept = [lines[0]] + [
            line for line in lines[1:] if json.loads(line)["kind"] == "result"
        ][:4] + [
            line for line in lines[1:] if json.loads(line)["kind"] == "tuning"
        ]
        path.write_text("\n".join(kept) + "\n")

        engine = make_engine(op, tune="auto")
        session = SweepSession(
            engine,
            objective="latency",
            batch_size=8,
            checkpoint=str(path),
            resume=True,
        )
        result = session.run(make_source(op))
        assert result.skipped == 4
        # Resume adopted the persisted profile instead of re-calibrating.
        assert any("adopted" in d for d in engine.tuner.decisions)
        engine.close()
        assert ranking_key(result) == ranking_key(full)
        # Every candidate appears exactly once across the checkpoint.
        signatures = [
            json.loads(line)["signature"]
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "result"
        ]
        assert len(signatures) == len(set(signatures))


# -- profile persistence ------------------------------------------------------------


class TestProfilePersistence:
    def test_checkpoint_roundtrips_profile(self, tmp_path):
        op = make_op()
        path = str(tmp_path / "ck.jsonl")
        engine, _ = run_sweep(op, tune="auto", checkpoint=path, batch_size=8)
        profile = engine.tuner.profile_dict()
        assert profile["calibrated"] is True
        blocks = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if json.loads(line).get("kind") == "tuning"
        ]
        assert blocks and blocks[-1]["profile"] == json.loads(json.dumps(profile))
        # The profile pins a fresh engine directly (tune=<dict>).
        pinned = make_engine(op, tune=json.loads(json.dumps(profile)))
        assert pinned.tuner.calibrated
        assert pinned.tuner.decided_batch_size == profile["batch_size"]
        pinned.close()

    def test_foreign_profile_is_refused(self):
        engine, _ = run_sweep(make_op(), tune="auto", batch_size=8)
        profile = engine.tuner.profile_dict()
        with pytest.raises(ExplorationError, match="foreign profile"):
            make_engine(gemm(8, 8, 24), tune=profile)

    @pytest.mark.parametrize("old", ["affine", "fused", "bitset"])
    def test_old_profile_backend_keys_are_ignored(self, old):
        # Checkpoints written while the tuner raced backends carry the
        # winner; resuming them must still work, on whatever backend runs.
        engine, _ = run_sweep(make_op(), tune="auto", batch_size=8)
        profile = engine.tuner.profile_dict()
        assert "backend" not in profile
        legacy = dict(profile, backend=old, requested_backend="auto")
        pinned = make_engine(make_op(), tune=legacy)
        assert pinned.backend_name == "fused"
        assert pinned.tuner.calibrated
        assert pinned.tuner.decided_batch_size == profile["batch_size"]
        pinned.close()
        # The identity checks still apply to legacy profiles.
        with pytest.raises(ExplorationError, match="foreign profile"):
            make_engine(gemm(8, 8, 24), tune=legacy)

    def test_newer_profile_version_is_refused(self):
        with pytest.raises(ExplorationError, match="newer"):
            make_engine(make_op(), tune={"version": 99})

    def test_invalid_tune_value_is_refused(self):
        with pytest.raises(ExplorationError, match="tune must be"):
            make_engine(make_op(), tune="aggressive")


# -- the parallel dispatch floor ----------------------------------------------------


class TestParallelDispatch:
    def test_chunk_floor_amortises_small_batches(self):
        # The committed regression case: 40 candidates over jobs=2 used to
        # make 10 tiny 5-candidate tasks; the floor makes 8-candidate tasks.
        assert parallel_task_chunk(40, 2) == MIN_TASK_CANDIDATES
        # Large batches keep the ~4-tasks-per-worker balance.
        assert parallel_task_chunk(1000, 4) == 63
        # The floor never idles a worker: small counts still split evenly.
        assert parallel_task_chunk(10, 2) == 5
        assert parallel_task_chunk(2, 2) == 1

    def test_effective_jobs_goes_serial_when_work_is_too_small(self):
        engine = make_engine(make_op(), tune="auto")
        tuner = engine.tuner
        # Calibration always measures serially.
        assert tuner.effective_jobs(4, 64, pool_warm=False) == 1
        tuner.observe_measurement(16, 16 * 0.001)
        assert tuner.calibrated
        # 64 candidates x 1ms = 64ms of work: under the cold-pool floor,
        # over the warm-pool floor.
        assert tuner.effective_jobs(4, 64, pool_warm=False) == 1
        assert tuner.effective_jobs(4, 64, pool_warm=True) == 4
        assert any("jobs:" in d for d in tuner.decisions)
        engine.close()
