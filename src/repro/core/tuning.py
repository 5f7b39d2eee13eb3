"""Measurement-driven auto-tuning of sweep knobs.

Every throughput knob the engine exposes — batch size, effective worker
count, candidate order — used to be static, chosen once at construction.
:class:`AutoTuner` turns them into *measured* decisions, in the spirit of the
data-driven ISCA retrospectives: observe the first batch of a sweep per
(op, arch, backend, device), then

* pick a batch size that amortises per-batch overhead against the measured
  per-candidate cost,
* decide whether ``jobs>1`` is worth its pool: when a batch carries less
  work than the dispatch overhead it must amortise, the tuner runs it
  serially (the committed ``jobs=2`` 1.9x regression on small batches), and
* order candidate streams **best-first** with :class:`ScoreRanker`, a cheap
  bound-regression over signature features seeded from checkpointed history
  (:func:`repro.sweep.sinks.load_ranking` records), so objective early
  termination prunes sooner.

The contract tuning must never break: decisions only change *order and
speed*, never which reports are produced.  Reordering a full sweep cannot
change its (score, name, signature)-sorted ranking, and under early
termination the true best candidate can never be pruned (its score
lower-bounds every running best) — so the guarantees of an untuned sweep hold
verbatim.

Learned decisions serialise through :meth:`AutoTuner.profile_dict` into the
checkpoint as a ``{"kind": "tuning"}`` block; a resumed sweep adopts the
profile and skips calibration.  A profile is identity-checked against the
engine's (op, arch): adopting a foreign profile is a loud error, not a
silently mistuned sweep.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.engine import arch_signature, dataflow_signature, op_signature
from repro.errors import ExplorationError

PROFILE_VERSION = 1


def _short_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def signature_features(signature: str) -> np.ndarray:
    """Cheap numeric features of a dataflow's structural signature.

    The signature (``PE[...]|T[...]``) is the one candidate descriptor that
    exists for *both* live dataflows and checkpoint-restored history records,
    so the ranker regresses over text-derived features: expression counts,
    operator densities, and stamp-expression lengths.  They only need to
    correlate with the objective well enough to order a stream — prediction
    error costs speed, never correctness.
    """
    pe_text, _, time_text = signature.partition("|T[")
    return np.array(
        [
            1.0,
            float(len(signature)),
            float(len(pe_text)),
            float(len(time_text)),
            float(pe_text.count(",") + 1),
            float(time_text.count(",") + 1),
            float(signature.count("%")),
            float(signature.count("//")),
            float(signature.count("+")),
            float(signature.count("-")),
        ]
    )


class ScoreRanker:
    """Least-squares bound-regression: signature features -> objective score.

    Samples come from checkpointed history (``seed``) and from the sweep's
    own live scores (``observe``); ``fit`` refits lazily over the sample rows
    in sorted-signature order, so the coefficients — and therefore the
    best-first order — are deterministic regardless of arrival order.
    """

    #: Below this many samples a fit would mostly memorise noise.
    min_samples = 8
    #: Sample cap so paper-scale sweeps keep the fit cost and memory bounded.
    max_samples = 4096

    def __init__(self, coef: Sequence[float] | None = None):
        self.coef: np.ndarray | None = (
            np.asarray(coef, dtype=float) if coef is not None else None
        )
        self._scores: dict[str, float] = {}
        self._dirty = False

    @property
    def ready(self) -> bool:
        return self.coef is not None

    def observe(self, signature: str, score: float | None) -> None:
        if score is None or not math.isfinite(score):
            return
        if len(self._scores) >= self.max_samples and signature not in self._scores:
            return
        if self._scores.get(signature) != float(score):
            self._scores[signature] = float(score)
            self._dirty = True

    def seed(self, entries: Iterable[tuple[str, float]]) -> None:
        for signature, score in entries:
            self.observe(signature, score)

    def fit(self) -> None:
        if not self._dirty or len(self._scores) < self.min_samples:
            return
        signatures = sorted(self._scores)
        features = np.array([signature_features(s) for s in signatures])
        # log1p compresses the objectives' dynamic range (latency spans orders
        # of magnitude across serial-vs-parallel candidates); ordering only
        # needs the prediction to be monotone-ish, not calibrated.
        scores = np.log1p(np.maximum([self._scores[s] for s in signatures], 0.0))
        self.coef, *_ = np.linalg.lstsq(features, scores, rcond=None)
        self._dirty = False

    def predict(self, signature: str) -> float:
        assert self.coef is not None, "predict() before fit()"
        return float(signature_features(signature) @ self.coef)


class AutoTuner:
    """Per-engine controller: measure the first batches, then pick the knobs.

    Owned by an :class:`~repro.core.engine.EvaluationEngine` built with
    ``tune="auto"`` (or a pinned profile dict).  The engine consults it at
    every ``evaluate_batch`` (:meth:`effective_jobs`, :meth:`observe_batch`);
    the :class:`~repro.sweep.session.SweepSession` drives the stream-level
    decisions (:meth:`order`, ``decided_batch_size``, history seeding,
    profile persistence).
    """

    #: Calibrated batch sizes target this much wall clock per batch: long
    #: enough to amortise per-batch costs (stamp stacking, pool dispatch),
    #: short enough to bound checkpoint loss and keep best-first windows fresh.
    target_batch_seconds = 0.25
    min_batch_size = 8
    max_batch_size = 1024
    #: A *cold* pool (workers to spawn, relations to map) only pays off when
    #: the batch carries at least this much serial work.
    cold_pool_seconds = 1.5
    #: A warm pool still charges dispatch/result shipping per batch.
    warm_pool_seconds = 0.05
    #: Best-first ordering looks ahead this many batches of stream.
    lookahead = 4
    #: Slice size of the calibration batch: small enough that a short sweep
    #: calibrates early, large enough to amortise per-batch fixed costs out
    #: of the per-candidate measurement.
    calibration_batch_size = 16

    def __init__(self, engine, *, profile: dict | None = None):
        self.op_hash = _short_hash(op_signature(engine.op))
        self.arch_hash = _short_hash(arch_signature(engine.arch))
        self.device = engine.device_name
        self.calibrated = False
        self.decided_batch_size: int | None = None
        self.per_candidate_seconds: float | None = None
        #: Human-readable decision log (``--profile`` and ``stats`` surface it).
        self.decisions: list[str] = []
        self.ranker = ScoreRanker()
        self._jobs_note_logged = False
        if profile is not None:
            self.adopt(profile)

    # -- engine-side hooks --------------------------------------------------------

    def effective_jobs(self, requested: int, batch_len: int, *, pool_warm: bool) -> int:
        """Serial when the batch's measured work cannot amortise the pool."""
        if requested <= 1 or batch_len <= 1:
            return requested
        if not self.calibrated or self.per_candidate_seconds is None:
            # Calibration batches run serially: they are the measurement.
            return 1
        work = self.per_candidate_seconds * batch_len
        floor = self.warm_pool_seconds if pool_warm else self.cold_pool_seconds
        if work < floor:
            if not self._jobs_note_logged:
                self._jobs_note_logged = True
                self.decisions.append(
                    f"jobs: {batch_len} candidates x "
                    f"{self.per_candidate_seconds * 1e3:.2f} ms = {work:.3f}s of "
                    f"work under the {floor:.2f}s "
                    f"{'dispatch' if pool_warm else 'pool spin-up'} floor -> "
                    f"serial (requested jobs={requested})"
                )
            return 1
        return requested

    def observe_batch(self, outcomes, seconds: float, *, jobs: int) -> None:
        """Record one evaluated batch (engines call this after every batch)."""
        counted = sum(
            1 for o in outcomes if o.report is not None and not o.memo_hit
        )
        self.observe_measurement(counted, seconds, jobs=jobs)

    def observe_measurement(self, counted: int, seconds: float, *, jobs: int = 1) -> None:
        """The raw measurement feed; decisions are a pure function of it.

        The first measured batch calibrates.  Later serial batches keep
        updating the per-candidate cost so the jobs floor stays honest on
        long sweeps whose cost drifts.
        """
        if counted <= 0 or seconds <= 0:
            return
        if jobs == 1:
            self.per_candidate_seconds = seconds / counted
        if not self.calibrated:
            self.finalize()

    def finalize(self) -> None:
        """Lock in decisions from whatever has been measured (idempotent)."""
        if self.calibrated:
            # Decisions are locked, but refresh the ranker fit so the
            # persisted profile carries the latest coefficients.
            self.ranker.fit()
            return
        per = self.per_candidate_seconds
        if per is not None and per > 0:
            # Round to a multiple of 8 inside the clamp so decided sizes are
            # stable across small measurement jitter.
            batch = int(self.target_batch_seconds / per)
            batch = max(
                self.min_batch_size,
                min(self.max_batch_size, (batch // 8) * 8 or self.min_batch_size),
            )
            self.decided_batch_size = batch
            self.decisions.append(
                f"batch size: {per * 1e3:.2f} ms/candidate -> {batch} "
                f"(~{self.target_batch_seconds:.2f}s per batch)"
            )
        self.calibrated = True
        # Fit whatever scores were observed so the persisted profile carries
        # ranker coefficients a resumed sweep can order with immediately.
        self.ranker.fit()

    # -- stream-side hooks --------------------------------------------------------

    def seed_history(self, entries: Iterable[tuple[str, float]]) -> None:
        """Seed the best-first ranker from checkpointed (signature, score) pairs."""
        self.ranker.seed(entries)

    def observe_score(self, signature: str, score: float) -> None:
        self.ranker.observe(signature, score)

    def order(self, candidates: list) -> list:
        """Best-first (ascending predicted score) reorder of a stream window.

        A pure permutation: every candidate in, every candidate out, ties kept
        in stream order — so dedupe/shard/resume semantics and the final
        ranking are untouched; only early termination bites sooner.
        """
        self.ranker.fit()
        if not self.ranker.ready or len(candidates) < 2:
            return list(candidates)
        predictions = [
            self.ranker.predict(dataflow_signature(c)) for c in candidates
        ]
        indices = sorted(range(len(candidates)), key=lambda i: (predictions[i], i))
        return [candidates[i] for i in indices]

    # -- profile persistence ------------------------------------------------------

    def profile_dict(self) -> dict:
        """The JSON-serialisable learned profile (checkpoint ``tuning`` block)."""
        return {
            "version": PROFILE_VERSION,
            "op": self.op_hash,
            "arch": self.arch_hash,
            "device": self.device,
            "batch_size": self.decided_batch_size,
            "per_candidate_seconds": (
                round(self.per_candidate_seconds, 6)
                if self.per_candidate_seconds is not None
                else None
            ),
            "ranker_coef": (
                [float(c) for c in self.ranker.coef]
                if self.ranker.coef is not None
                else None
            ),
            "calibrated": self.calibrated,
            "decisions": list(self.decisions),
        }

    def adopt(self, profile: dict) -> None:
        """Apply a persisted profile (checkpoint resume, ``tune=<dict>``).

        Identity-checked: a profile learned for another (op, arch) — or a
        newer profile format — is refused loudly instead of silently
        mistuning the sweep.  The ``backend`` and ``requested_backend`` keys
        of older profiles are ignored: the tuner no longer picks a backend.
        """
        if not isinstance(profile, dict):
            raise ExplorationError(
                f"tuning profile must be a dict, got {type(profile).__name__}"
            )
        version = profile.get("version", PROFILE_VERSION)
        if not isinstance(version, int) or version > PROFILE_VERSION:
            raise ExplorationError(
                f"tuning profile version {version!r} is newer than this "
                f"engine understands ({PROFILE_VERSION}); re-tune with "
                "tune='auto'"
            )
        for key, expected in (("op", self.op_hash), ("arch", self.arch_hash)):
            recorded = profile.get(key)
            if recorded is not None and recorded != expected:
                raise ExplorationError(
                    f"tuning profile was learned for a different sweep "
                    f"({key}={recorded!r}, this engine is {expected!r}); "
                    "refusing to apply a foreign profile — re-tune with "
                    "tune='auto'"
                )
        batch_size = profile.get("batch_size")
        if batch_size is not None:
            self.decided_batch_size = max(1, int(batch_size))
        per = profile.get("per_candidate_seconds")
        if per is not None:
            self.per_candidate_seconds = float(per)
        coef = profile.get("ranker_coef")
        if coef is not None and len(coef) == signature_features("").size:
            self.ranker.coef = np.asarray(coef, dtype=float)
        if profile.get("calibrated", True):
            self.calibrated = True
        self.decisions.append(
            "adopted persisted profile "
            f"(batch_size={self.decided_batch_size}, "
            f"ranker={'seeded' if self.ranker.ready else 'cold'})"
        )
