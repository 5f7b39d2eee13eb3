"""Self-tests of the benchmark's statistics, inputs, oracle checks and provenance."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import oracle  # noqa: E402
import specs  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    assert measure.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 10)
    # 21 samples: the median is the highest value with ten beyond it.
    assert measure.tail([float(v) for v in range(21)]) == pytest.approx((100 * 11 / 21, 10.0, 10))


def test_tail_without_enough_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    # 12 samples: the only value with ten beyond it lies below the median.
    assert measure.tail([float(v) for v in range(12)]) == (100.0, 11.0, 0)


def test_covered_seconds_merges_overlaps_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert measure.covered_seconds(intervals, 0.5, 10.0) == pytest.approx(2.5 + 1.0 + 1.0)


def test_serve_requests_repeat_for_a_seed():
    assert specs.serve_requests(7, 500) == specs.serve_requests(7, 500)
    assert specs.serve_requests(7, 500) != specs.serve_requests(8, 500)


def test_serve_requests_keep_the_cold_share_fixed():
    cold = {json.dumps(specs.request_payload(op)) for op in specs.SERVE_COLD}
    for seed in (1, 2, 3):
        stream = specs.serve_requests(seed, 10 * specs.SERVE_BLOCK)
        for start in range(0, len(stream), specs.SERVE_BLOCK):
            block = stream[start:start + specs.SERVE_BLOCK]
            assert sum(json.dumps(r) in cold for r in block) == specs.SERVE_COLD_PER_BLOCK


RANKING = [
    {"signature": "s1", "name": "(IJ-P | K-T)", "score": 100.0, "latency_cycles": 100.0},
    {"signature": "s2", "name": "(JI-P | K-T)", "score": 250.5, "latency_cycles": 251.0},
]


def checkpoint_lines(ranking):
    lines = [json.dumps({"kind": "meta", "version": 1})]
    for entry in ranking:
        lines.append(json.dumps({
            "kind": "result", "signature": entry["signature"], "name": entry["name"],
            "status": "ok", "score": entry["score"],
            "report": {"latency_cycles": entry["latency_cycles"]},
        }))
    return lines


def test_checkpoint_check_accepts_the_reference():
    assert oracle.check_checkpoint(checkpoint_lines(RANKING), RANKING) == []


def test_checkpoint_check_fails_on_a_perturbed_score():
    perturbed = [dict(RANKING[0]), dict(RANKING[1], score=250.50000000000003)]
    problems = oracle.check_checkpoint(checkpoint_lines(perturbed), RANKING)
    assert len(problems) == 1 and "(JI-P | K-T)" in problems[0]


def test_top_check_fails_on_a_perturbed_score():
    top = [{k: e[k] for k in ("name", "score", "latency_cycles")} for e in RANKING]
    assert oracle.check_top(top, RANKING) == []
    top[0]["score"] += 1.0
    assert oracle.check_top(top, RANKING)


def test_printed_check_compares_names_and_latency():
    good = "explored 2 candidates\n  1. (IJ-P | K-T)   latency=100 util=1.00\n" \
           "  2. (JI-P | K-T)   latency=251 util=1.00\n"
    assert oracle.check_printed(good, RANKING, 2) == []
    assert oracle.check_printed(good.replace("latency=251", "latency=250"), RANKING, 2)
    assert oracle.check_printed(good, RANKING + [dict(RANKING[0], signature="s3")], 3)


def test_fingerprint_fields_are_present():
    fingerprint = measure.fingerprint(BENCH.parent)
    for key in measure.MACHINE_FIELDS:
        assert fingerprint[key], key
    assert "git_sha" in fingerprint
    assert len(fingerprint["src_sha256"]) == 64
    assert len(fingerprint["bench_sha256"]) == 64
    assert measure.fingerprint_mismatches(fingerprint, dict(fingerprint, cpu_count=-1)) == [
        "cpu_count"
    ]
