"""Property-based differential test: fused reports across array namespaces.

Hypothesis draws random GEMM dataflows over 4x4 PE windows — space-axis
pairs, time-stamp orders, skews into the inner time stamp — at sizes that
tile the window evenly (uniform group blocks) and at 10, which does not
(ragged blocks, padded by the fused kernel).  It asserts the fused backend's
reports are *byte-identical* (JSON-serialised, sorted keys) across every
namespace in the matrix:

* fused on numpy vs the interpreted reference (the pre-existing contract);
* fused on a fake device namespace that really copies on every upload and
  download, so the device codepath is fuzzed even without torch installed;
* fused on torch-CPU whenever torch is importable.

Engines are cached per (operation size, namespace): hypothesis re-draws
candidates, not warm-up work.
"""

import json

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships with the dev env
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.dataflow import Dataflow
from repro.core.engine import EvaluationEngine
from repro.core.xp import register_namespace
from repro.experiments.common import make_arch
from repro.isl.expr import var
from repro.tensor.kernels import gemm

from tests.core.test_backends import _torch_available, report_dict
from tests.core.test_xp import FakeDeviceNamespace

register_namespace("fuzz-fake", lambda device: FakeDeviceNamespace(device))

NAMESPACES = ["numpy", "fuzz-fake"] + (["torch:cpu"] if _torch_available() else [])

PE_DIMS = (4, 4)
_ENGINES: dict[tuple[int, str], EvaluationEngine] = {}


def _engine(size: int, spec: str) -> EvaluationEngine:
    key = (size, spec)
    engine = _ENGINES.get(key)
    if engine is None:
        arch = make_arch(pe_dims=PE_DIMS)
        if spec == "interp":
            engine = EvaluationEngine(gemm(size, size, size), arch, backend="interp")
        else:
            engine = EvaluationEngine(
                gemm(size, size, size), arch, backend="fused", device=spec
            )
        _ENGINES[key] = engine
    return engine


def _candidate(op, first, second, order, skew):
    rows, cols = PE_DIMS
    dims = list(op.loop_dims)
    remaining = [dim for dim in dims if dim not in (first, second)]
    space = [var(first) % rows, var(second) % cols]
    base = [var(remaining[0]), var(first) // rows, var(second) // cols]
    time_exprs = [base[index] for index in order]
    inner = time_exprs[-1]
    if skew & 1:
        inner = inner + space[0]
    if skew & 2:
        inner = inner + space[1]
    time_exprs = time_exprs[:-1] + [inner]
    name = f"({first}{second}-P|{''.join(map(str, order))}s{skew}-T)"
    return Dataflow.from_exprs(name, op.domain.space, space, time_exprs)


axis_pairs = st.sampled_from([("i", "j"), ("i", "k"), ("j", "i"),
                              ("j", "k"), ("k", "i"), ("k", "j")])
orders = st.permutations(range(3))
skews = st.integers(min_value=0, max_value=3)
sizes = st.sampled_from([8, 10, 12])


@given(size=sizes, pair=axis_pairs, order=orders, skew=skews)
@settings(max_examples=30, deadline=None)
def test_fused_reports_byte_identical_across_namespaces(size, pair, order, skew):
    reference_engine = _engine(size, "interp")
    candidate = _candidate(reference_engine.op, pair[0], pair[1], tuple(order), skew)
    reference = json.dumps(
        report_dict(reference_engine.evaluate(candidate)), sort_keys=True
    ).encode()
    for spec in NAMESPACES:
        engine = _engine(size, spec)
        encoded = json.dumps(
            report_dict(engine.evaluate(candidate)), sort_keys=True
        ).encode()
        assert encoded == reference, f"namespace {spec} diverged for {candidate.name}"
