"""The array-namespace layer: registry, probing, resolution, device plumbing."""

import numpy as np
import pytest

from repro.core import xp as xpmod
from repro.core.engine import EvaluationEngine, RelationCache
from repro.core.xp import (
    NumpyNamespace,
    available_namespaces,
    namespace_probes,
    probe_namespace,
    register_namespace,
    resolve_namespace,
)
from repro.dse.pruning import pruned_candidates
from repro.errors import ExplorationError
from repro.experiments.common import make_arch
from repro.tensor.kernels import gemm

from tests.core.test_backends import report_dict


class FakeDeviceNamespace(NumpyNamespace):
    """Numpy masquerading as a device: every upload/download really copies.

    ``is_numpy`` is False, so the engine takes the device codepath end to end
    — chunk-matrix upload, per-batch coefficient upload, resident layout
    bundles, result download — while the arithmetic stays numpy's.  Tests use
    it to exercise the transfer machinery without torch/cupy installed.
    """

    name = "fake"
    is_numpy = False

    def __init__(self, device=None):
        self.device = device or "fake0"
        self.uploads = 0

    def asarray(self, array, dtype=None):
        self.uploads += 1
        out = np.array(array, copy=True)
        return out.astype(self._DTYPES[dtype]) if dtype else out

    def to_host(self, array):
        return np.array(array, copy=True)


@pytest.fixture
def fake_namespace():
    instances = []

    def factory(device):
        xp = FakeDeviceNamespace(device)
        instances.append(xp)
        return xp

    register_namespace("fake", factory)
    try:
        yield instances
    finally:
        xpmod._REGISTRY.pop("fake", None)
        xpmod._PROBES.pop("fake", None)
        for key in [k for k in xpmod._INSTANCES if k[0] == "fake"]:
            del xpmod._INSTANCES[key]


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_namespaces()
        ok, note = probe_namespace("numpy")
        assert ok and "numpy" in note

    def test_probes_cover_all_builtins(self):
        probes = namespace_probes()
        assert set(probes) >= {"numpy", "torch", "cupy"}
        for ok, note in probes.values():
            assert isinstance(ok, bool) and isinstance(note, str)

    def test_unavailable_namespace_is_reported_not_crashed(self):
        # At most one of torch/cupy is expected in CI; whichever is missing
        # must probe as unavailable with a reason, not raise.
        for name in ("torch", "cupy"):
            ok, note = probe_namespace(name)
            if not ok:
                assert "unavailable" in note

    def test_unknown_namespace_lists_available(self):
        with pytest.raises(ExplorationError, match="numpy"):
            resolve_namespace("tpu")

    def test_unavailable_namespace_error_lists_available(self):
        missing = [n for n in ("torch", "cupy") if not probe_namespace(n)[0]]
        if not missing:
            pytest.skip("both torch and cupy installed")
        with pytest.raises(ExplorationError, match="available"):
            resolve_namespace(missing[0])

    def test_resolve_aliases_and_device_suffix(self):
        assert resolve_namespace("numpy").is_numpy
        assert resolve_namespace("cpu").is_numpy
        assert resolve_namespace("np").is_numpy
        assert resolve_namespace(None).is_numpy

    def test_registered_namespace_resolves_with_device(self, fake_namespace):
        xp = resolve_namespace("fake:fake1")
        assert xp.name == "fake" and xp.device == "fake1"
        assert "fake" in available_namespaces()
        # Singleton per (name, device): the same spec returns the instance.
        assert resolve_namespace("fake:fake1") is xp


class TestEngineDeviceKnob:
    def test_interp_rejects_device(self, fake_namespace):
        op = gemm(8, 8, 8)
        with pytest.raises(ExplorationError, match="interp"):
            EvaluationEngine(op, make_arch(pe_dims=(4, 4)),
                             backend="interp", device="fake")

    def test_unknown_device_rejected_at_construction(self):
        op = gemm(8, 8, 8)
        with pytest.raises(ExplorationError, match="registered namespaces"):
            EvaluationEngine(op, make_arch(pe_dims=(4, 4)), device="tpu")

    @pytest.mark.parametrize("backend", ["fused", "auto"])
    def test_device_reports_bit_identical_to_host(self, backend, fake_namespace):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        candidates = pruned_candidates(
            op, pe_dims=(4, 4), allow_packing=True, max_candidates=8
        )
        host = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        dev = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend,
                               device="fake")
        for candidate in candidates:
            assert report_dict(host.evaluate(candidate)) == report_dict(
                dev.evaluate(candidate)
            )
        assert dev.device_name == "fake"
        assert dev.profile()["transfer"] > 0.0
        assert host.profile()["transfer"] == 0.0

    def test_chunk_matrix_uploaded_once_across_batches(self, fake_namespace):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        candidates = list(pruned_candidates(
            op, pe_dims=(4, 4), allow_packing=True, max_candidates=8
        ))
        engine = EvaluationEngine(op, arch, backend="fused", device="fake")
        engine.evaluate_batch(candidates[:4])
        xp = engine.xp
        assert isinstance(xp, FakeDeviceNamespace)
        first = xp.uploads
        assert first > 0
        engine.evaluate_batch(candidates[4:])
        # The second batch re-uses the resident chunk matrix and layout
        # bundles: new uploads are bounded by the new batch's coefficients
        # and rank columns, far below a from-scratch warm-up.
        assert xp.uploads - first < first

    def test_transfer_stage_in_profile_keys(self):
        op = gemm(8, 8, 8)
        engine = EvaluationEngine(op, make_arch(pe_dims=(4, 4)))
        assert "transfer" in engine.profile()
