"""Reference rankings from the ``interp`` oracle, and checks against them.

The interpreted backend is the repository's reference analyzer: every
report of every other backend must be bit-identical to it.  A reference is
computed once per (source tree, workload) and cached in the checkout's
build directory; every measured run is compared with it.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Iterable, Sequence

from specs import (
    EXPLORE,
    SERVE_COLD,
    SERVE_HOT,
    SERVE_MAX_CANDIDATES,
    SERVE_TOP,
    SERVE_WORKLOAD,
)

#: Bumped when the cached reference layout changes.
FORMAT = 1


def _ranking(kernel: str, sizes: Sequence[int], objectives: Iterable[str],
             max_candidates: int) -> dict[str, list[dict]]:
    """Full interp ranking of the pruned space, per objective."""
    from repro.dse.pruning import pruned_candidates
    from repro.experiments.common import make_arch
    from repro.sweep import SweepSession
    from repro.core.engine import EvaluationEngine
    from repro.tensor.kernels import make_kernel

    op = make_kernel(kernel, list(sizes))
    arch = make_arch(pe_dims=(8, 8), interconnect="2d-systolic", bandwidth_bits=128.0)
    engine = EvaluationEngine(op, arch, backend="interp", max_instances=4_000_000)
    rankings = {}
    try:
        for objective in objectives:
            result = SweepSession(engine, objective=objective).run(
                pruned_candidates(op, pe_dims=(8, 8), allow_packing=True,
                                  max_candidates=max_candidates)
            )
            if result.failures:
                raise RuntimeError(f"oracle failed on {kernel} {sizes}: {result.failures[:3]}")
            rankings[objective] = [
                {
                    "signature": entry.signature,
                    "name": entry.name,
                    "score": entry.score,
                    "latency_cycles": entry.data["latency_cycles"],
                }
                for entry in result.ranking
            ]
    finally:
        engine.close()
    return rankings


def op_key(kernel: str, sizes: Sequence[int], objective: str) -> str:
    return f"{kernel}:{','.join(map(str, sizes))}:{objective}"


def compute(workload: str) -> dict:
    """The reference for one workload (slow: interpreted analyzer)."""
    if workload in EXPLORE:
        spec = EXPLORE[workload]
        ranking = _ranking(spec.kernel, spec.sizes, ["latency"], spec.max_candidates)
        return {"ranking": ranking["latency"]}
    if workload == SERVE_WORKLOAD:
        by_op: dict[tuple, list[str]] = {}
        for kernel, sizes, objective in (*SERVE_HOT, *SERVE_COLD):
            by_op.setdefault((kernel, sizes), []).append(objective)
        tops = {}
        for (kernel, sizes), objectives in by_op.items():
            for objective, ranking in _ranking(
                kernel, sizes, objectives, SERVE_MAX_CANDIDATES
            ).items():
                tops[op_key(kernel, sizes, objective)] = ranking[:SERVE_TOP]
        return {"tops": tops}
    raise KeyError(workload)


def load(workload: str, cache_dir: Path, src_digest: str) -> dict:
    """Cached reference for ``workload`` under this source tree."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"oracle-{FORMAT}-{workload}-{src_digest[:16]}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    reference = compute(workload)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(reference), encoding="utf-8")
    os.replace(partial, path)
    return reference


# -- comparisons ------------------------------------------------------------------

_RANK_LINE = re.compile(r"^\s*(\d+)\.\s+(.+?)\s+latency=(\S+)")


def check_printed(stdout: str, ranking: Sequence[dict], count: int) -> list[str]:
    """Compare the ranking lines ``tenet explore`` printed with the reference.

    The printed form carries the name and the latency rounded to a cycle.
    """
    printed = [m.groups() for m in map(_RANK_LINE.match, stdout.splitlines()) if m]
    expected = ranking[:count]
    problems = []
    if len(printed) != len(expected):
        problems.append(f"printed {len(printed)} ranking lines, expected {len(expected)}")
    for (rank, name, latency), ref in zip(printed, expected):
        want = f"{ref['latency_cycles']:.0f}"
        if name != ref["name"] or latency != want:
            problems.append(
                f"rank {rank}: printed {name} latency={latency}, "
                f"oracle {ref['name']} latency={want}"
            )
    return problems


def check_checkpoint(lines: Iterable[str], ranking: Sequence[dict]) -> list[str]:
    """Every checkpointed result must match the oracle's score and latency."""
    expected = {entry["signature"]: entry for entry in ranking}
    seen: dict[str, tuple] = {}
    problems = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") != "result":
            continue
        if record.get("status") != "ok":
            problems.append(f"{record.get('name')}: status {record.get('status')}")
            continue
        seen[record["signature"]] = (record["score"], record["report"]["latency_cycles"])
    for signature, entry in expected.items():
        got = seen.get(signature)
        want = (entry["score"], entry["latency_cycles"])
        if got is None:
            problems.append(f"{entry['name']}: missing from checkpoint")
        elif got != want:
            problems.append(f"{entry['name']}: (score, latency) {got} != oracle {want}")
    extra = set(seen) - set(expected)
    if extra:
        problems.append(f"{len(extra)} checkpointed signatures the oracle did not produce")
    return problems


def check_top(top: Sequence[dict], expected: Sequence[dict]) -> list[str]:
    """A serve reply's ``top`` list against the oracle's, field for field."""
    problems = []
    if len(top) != len(expected):
        problems.append(f"reply top has {len(top)} entries, expected {len(expected)}")
    for rank, (got, ref) in enumerate(zip(top, expected), start=1):
        mine = (got.get("name"), got.get("score"), got.get("latency_cycles"))
        want = (ref["name"], ref["score"], ref["latency_cycles"])
        if mine != want:
            problems.append(f"rank {rank}: {mine} != oracle {want}")
    return problems
