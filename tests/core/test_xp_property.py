"""Property-based differential test: fused reports across array namespaces.

Hypothesis draws random GEMM dataflows over 4x4 PE windows — space-axis
pairs, time-stamp orders, skews into the inner time stamp — at sizes that
tile the window evenly (uniform group blocks) and at 10, which does not
(ragged blocks, padded by the fused kernel).  Two more draws cover the
kernel's repeat handling: Jacobi-2D dataflows (the stencil input has five
distinct references, so keys are formed per reference) and non-injective
GEMM dataflows whose time map drops a loop dimension (repeated (group, rank)
pairs become pads and the blocks are sorted again).  It asserts the fused
backend's reports are *byte-identical* (JSON-serialised, sorted keys) across
every namespace in the matrix:

* fused on numpy vs the interpreted reference (the pre-existing contract);
* fused on a fake device namespace that really copies on every upload and
  download, so the device codepath is fuzzed even without torch installed;
* fused on torch-CPU whenever torch is importable.

Engines are cached per (kernel, operation size, namespace): hypothesis
re-draws candidates, not warm-up work.
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
from repro.tensor.kernels import gemm, jacobi2d

from tests.core.test_backends import _torch_available, report_dict
from tests.core.test_xp import FakeDeviceNamespace

register_namespace("fuzz-fake", lambda device: FakeDeviceNamespace(device))

NAMESPACES = ["numpy", "fuzz-fake"] + (["torch:cpu"] if _torch_available() else [])

PE_DIMS = (4, 4)
_ENGINES: dict[tuple[str, int, str], EvaluationEngine] = {}
_KERNELS = {"gemm": lambda size: gemm(size, size, size),
            "jacobi2d": lambda size: jacobi2d(size, size)}


def _engine(size: int, spec: str, kernel: str = "gemm") -> EvaluationEngine:
    key = (kernel, size, spec)
    engine = _ENGINES.get(key)
    if engine is None:
        arch = make_arch(pe_dims=PE_DIMS)
        op = _KERNELS[kernel](size)
        if spec == "interp":
            engine = EvaluationEngine(op, arch, backend="interp")
        else:
            engine = EvaluationEngine(op, arch, backend="fused", device=spec)
        _ENGINES[key] = engine
    return engine


def _assert_byte_identical(candidate, size, kernel="gemm"):
    reference = json.dumps(
        report_dict(_engine(size, "interp", kernel).evaluate(candidate)), sort_keys=True
    ).encode()
    for spec in NAMESPACES:
        engine = _engine(size, spec, kernel)
        encoded = json.dumps(
            report_dict(engine.evaluate(candidate)), sort_keys=True
        ).encode()
        assert encoded == reference, f"namespace {spec} diverged for {candidate.name}"
        assert engine.stats["reference_path"] == 0
    return reference


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
    op = _engine(size, "interp").op
    _assert_byte_identical(_candidate(op, pair[0], pair[1], tuple(order), skew), size)


@given(size=sizes, pair=axis_pairs, order=orders, skew=skews,
       dropped=st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_non_injective_reports_byte_identical_across_namespaces(
    size, pair, order, skew, dropped
):
    op = _engine(size, "interp").op
    candidate = _candidate(op, pair[0], pair[1], tuple(order), skew)
    # Dropping a time stamp maps several instances to each (PE, stamp).
    time_exprs = [e for index, e in enumerate(candidate.time_exprs) if index != dropped]
    collapsed = Dataflow.from_exprs(
        f"{candidate.name}-drop{dropped}", op.domain.space, candidate.pe_exprs, time_exprs
    )
    assert b"not injective" in _assert_byte_identical(collapsed, size)


@given(size=st.sampled_from([9, 10, 13]), swap=st.booleans(),
       order=st.permutations(range(2)), skew=skews)
@settings(max_examples=20, deadline=None)
def test_jacobi2d_reports_byte_identical_across_namespaces(size, swap, order, skew):
    op = _engine(size, "interp", "jacobi2d").op
    rows, cols = PE_DIMS
    first, second = ("j", "i") if swap else ("i", "j")
    space = [var(first) % rows, var(second) % cols]
    base = [var(first) // rows, var(second) // cols]
    time_exprs = [base[index] for index in order]
    inner = time_exprs[-1]
    if skew & 1:
        inner = inner + space[0]
    if skew & 2:
        inner = inner + space[1]
    time_exprs = time_exprs[:-1] + [inner]
    name = f"({first}{second}-P|{''.join(map(str, order))}s{skew}-T)"
    candidate = Dataflow.from_exprs(name, op.domain.space, space, time_exprs)
    _assert_byte_identical(candidate, size, "jacobi2d")
