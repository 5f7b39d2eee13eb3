"""The repository benchmark: real ``tenet`` processes, timed from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore_conv2d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` measures a few untraced runs, then one run under
``perfbench/traced_cli.py`` and a few direct calls into layer functions, and
reports the per-layer metrics.  Every run's rankings are checked against the
``interp`` oracle.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Oracle cache, scratch files and run records (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"

import measure  # noqa: E402 - plain-stdlib helpers next to this file
import oracle  # noqa: E402
from specs import (  # noqa: E402
    EXPLORE,
    SERVE_CLIENTS,
    SERVE_PROBE,
    SERVE_WORKERS,
    SERVE_WORKLOAD,
    WORKLOADS,
    ExploreSpec,
    request_payload,
    serve_requests,
)

#: A child process still running after this long is killed (and fails).
CHILD_TIMEOUT_S = 150.0
#: Requests generated for a serve run; far more than a run can send.
SERVE_STREAM = 20_000
#: Untraced server sessions that only measure set-up and the first reply.
SERVE_PROBES = 5


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Per-operation values behind each median, kept in the run record.
    samples: dict[str, list[float]] = field(default_factory=dict)

    def check(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def child_env() -> dict:
    env = dict(os.environ)
    # The program reads a fault plan from here; a benchmark run injects none.
    env.pop("TENET_FAULTS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tenet_command(trace_path: Path | None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "repro.cli"]
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_path)]


# -- explore ----------------------------------------------------------------------


@dataclass
class Invocation:
    run: measure.ChildRun
    problems: list[str]
    sweep_s: float = 0.0
    evaluated: int = 0
    checkpoint_bytes: int = 0


def explore_once(spec: ExploreSpec, reference: dict, scratch: Path,
                 trace_path: Path | None = None) -> Invocation:
    checkpoint = scratch / "sweep.jsonl" if spec.checkpoint else None
    profile = scratch / "profile.json"
    for stale in (checkpoint, profile):
        if stale is not None and stale.exists():
            stale.unlink()
    argv = tenet_command(trace_path) + spec.argv(
        str(checkpoint) if checkpoint else None, str(profile)
    )
    stdout, stderr = scratch / "stdout.txt", scratch / "stderr.txt"
    run = measure.run_child(argv, cwd=ROOT, env=child_env(), stdout=stdout,
                            stderr=stderr, timeout=CHILD_TIMEOUT_S)
    if run.returncode != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        return Invocation(run, [f"exit code {run.returncode}: {' | '.join(tail)}"])
    ranking = reference["ranking"]
    problems = oracle.check_printed(stdout.read_text(encoding="utf-8"), ranking, spec.top)
    checkpoint_bytes = 0
    if checkpoint is not None:
        with checkpoint.open(encoding="utf-8") as handle:
            problems += oracle.check_checkpoint(handle, ranking)
        checkpoint_bytes = checkpoint.stat().st_size
    sweep = json.loads(profile.read_text(encoding="utf-8"))["sweep"]
    if sweep["evaluated"] != len(ranking):
        problems.append(f"evaluated {sweep['evaluated']} candidates, oracle ranks {len(ranking)}")
    return Invocation(run, problems, sweep["seconds"], sweep["evaluated"], checkpoint_bytes)


def explore_series(spec: ExploreSpec, reference: dict, scratch: Path, seconds: float,
                   reserve: float, out: Outcome) -> list[Invocation]:
    """Cold ``tenet explore`` processes, one after another, while they fit.

    Another one starts only while the elapsed time plus ``reserve`` typical
    invocations still fits in ``seconds``; at least one always runs.
    """
    started = time.perf_counter()
    series: list[Invocation] = []
    while True:
        invocation = explore_once(spec, reference, scratch)
        out.check(invocation.problems, f"explore #{len(series) + 1}")
        series.append(invocation)
        typical = measure.median([i.run.wall_s for i in series])
        if time.perf_counter() - started + typical * (1 + reserve) > seconds:
            return series


def report_requests(out: Outcome, latencies_ms: list[float], elapsed_s: float) -> None:
    out.put("req_per_s", len(latencies_ms) / elapsed_s, "1/s")
    out.put("req_p50_ms", measure.median(latencies_ms), "ms")
    percentile, value, beyond = measure.tail(latencies_ms)
    out.put("req_tail_ms", value, "ms")
    out.notes.append(
        f"req_tail_ms is p{percentile:.2f} of {len(latencies_ms)} requests "
        f"({beyond} beyond it)"
    )


def explore_metrics(series: list[Invocation], out: Outcome) -> None:
    walls = [i.run.wall_s for i in series]
    done = [i for i in series if not i.problems] or series
    out.samples = {
        "wall_s": walls,
        "setup_s": [i.run.wall_s - i.sweep_s for i in done],
        "cands_per_s": [i.evaluated / i.sweep_s if i.sweep_s else 0.0 for i in done],
    }
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("cands_per_s", "1/s")):
        out.put(name, measure.median(out.samples[name]), unit)
    # One request is one ``tenet explore`` invocation.
    report_requests(out, [w * 1000.0 for w in walls], sum(walls))
    out.put("peak_rss_mb", measure.median([i.run.peak_rss_mb for i in series]), "MB")


def run_explore(workload: str, seconds: float, trace: bool, scratch: Path,
                reference: dict, out: Outcome) -> None:
    spec = EXPLORE[workload]
    if not trace:
        explore_metrics(explore_series(spec, reference, scratch, seconds, 0, out), out)
        return
    series = explore_series(spec, reference, scratch, seconds, 1.5, out)
    trace_path = scratch / "trace.json"
    traced = explore_once(spec, reference, scratch, trace_path)
    out.check(traced.problems, "traced explore")
    layers = trace_layers(trace_path, traced.run, spec.jobs)
    layers["sweep.checkpoint_bytes"] = (traced.checkpoint_bytes, "bytes")
    layers["trace.overhead_s"] = (
        traced.run.wall_s - measure.median([i.run.wall_s for i in series]), "s"
    )
    layers.update(server_layers(None, None))
    layers.update(direct_layers(spec.kernel, spec.sizes))
    for name, (value, unit) in layers.items():
        out.put(name, value, unit)


# -- serve ------------------------------------------------------------------------


class Server:
    """A ``tenet serve --listen`` child, timed from spawn to its bind line."""

    def __init__(self, trace_path: Path | None = None):
        argv = tenet_command(trace_path) + [
            "serve", "--listen", "127.0.0.1:0", "--workers", str(SERVE_WORKERS),
        ]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.log: list[str] = []
        self.bound: tuple[str, int] | None = None
        self.bound_at = 0.0
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._announced.wait(60.0) or self.bound is None:
            self.stop()
            raise RuntimeError("tenet serve did not announce its address: "
                               + " | ".join(self.log[-3:]))

    def _read_stderr(self) -> None:
        from repro.sweep import parse_announce

        for line in self.process.stderr:
            now = time.perf_counter()
            self.log.append(line.rstrip())
            if self.bound is None:
                self.bound = parse_announce(line)
                if self.bound is not None:
                    self.bound_at = now
                    self._announced.set()
        self._announced.set()

    @property
    def setup_s(self) -> float:
        return self.bound_at - self.started

    def stop(self) -> measure.ChildRun:
        """SIGTERM (graceful drain), then reap; SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return measure.wait_child(self.process, self.started, 30.0)
        finally:
            self._reader.join(5.0)
            self.process.stderr.close()


@dataclass
class Reply:
    sent: float
    done: float
    server_s: float
    evaluated: int
    problems: list[str]


def serve_request(client, payload: dict, reference: dict) -> Reply:
    from repro.errors import ExplorationError

    sent = time.perf_counter()
    try:
        record = client.request(payload)
    except ExplorationError as error:
        return Reply(sent, time.perf_counter(), 0.0, 0, [str(error)])
    done = time.perf_counter()
    if "error" in record:
        return Reply(sent, done, 0.0, 0, [f"{record.get('code')}: {record['error']}"])
    key = oracle.op_key(payload["kernel"], payload["sizes"], payload["objective"])
    problems = oracle.check_top(record.get("top", []), reference["tops"][key])
    return Reply(sent, done, record["seconds"], record["evaluated"], problems)


def closed_loop(host: str, port: int, requests: list[dict], seconds: float,
                reference: dict) -> tuple[list[Reply], float]:
    """``SERVE_CLIENTS`` connections, each sending its next request only
    after the previous reply, until ``seconds`` have passed."""
    from repro.sweep import SweepClient

    lock = threading.Lock()
    cursor = iter(requests)
    replies: list[Reply] = []
    started = time.perf_counter()
    stop_at = started + seconds

    def client_loop() -> None:
        with SweepClient(host, port, timeout=CHILD_TIMEOUT_S) as client:
            while True:
                with lock:
                    payload = next(cursor, None)
                if payload is None or time.perf_counter() >= stop_at:
                    return
                replies.append(serve_request(client, payload, reference))

    def guarded() -> None:
        try:
            client_loop()
        except Exception as error:  # a dead client thread is a failed request
            now = time.perf_counter()
            replies.append(Reply(now, now, 0.0, 0, [f"client: {type(error).__name__}: {error}"]))

    threads = [threading.Thread(target=guarded) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CHILD_TIMEOUT_S)
    return replies, started


@dataclass
class Session:
    setup_s: float
    wall_s: float
    process: measure.ChildRun
    replies: list[Reply]
    load_started: float = 0.0
    stats: dict = field(default_factory=dict)


def serve_session(requests: list[dict], reference: dict, load_seconds: float,
                  out: Outcome, trace_path: Path | None = None) -> Session:
    """Spawn a server, time its first reply, optionally load it, stop it."""
    from repro.sweep import SweepClient

    server = Server(trace_path)
    replies: list[Reply] = []
    load_started = 0.0
    stats: dict = {}
    try:
        host, port = server.bound
        with SweepClient(host, port, timeout=CHILD_TIMEOUT_S) as client:
            probe = serve_request(client, request_payload(SERVE_PROBE), reference)
            out.check(probe.problems, "serve first request")
            if load_seconds > 0:
                replies, load_started = closed_loop(host, port, requests, load_seconds, reference)
                for number, reply in enumerate(replies, start=1):
                    out.check(reply.problems, f"serve request #{number}")
                stats = client.stats()
    finally:
        process = server.stop()
    if process.returncode != 0:
        out.check([f"server exit code {process.returncode}"], "serve shutdown")
    return Session(server.setup_s, probe.done - server.started, process, replies,
                   load_started, stats)


def run_serve(seed: int, seconds: float, trace: bool, scratch: Path, reference: dict,
              out: Outcome) -> None:
    requests = serve_requests(seed, SERVE_STREAM)
    started = time.perf_counter()
    probes = [serve_session(requests, reference, 0.0, out)
              for _ in range(SERVE_PROBES - trace)]
    typical = measure.median([p.process.wall_s for p in probes])
    load_seconds = max(seconds / 4, seconds - (time.perf_counter() - started) - 2 * typical)
    trace_path = scratch / "trace.json" if trace else None
    load = serve_session(requests, reference, load_seconds, out, trace_path)
    replies = [r for r in load.replies if not r.problems] or load.replies
    if not trace:
        sessions = [*probes, load]
        out.samples = {"wall_s": [s.wall_s for s in sessions],
                       "setup_s": [s.setup_s for s in sessions]}
        out.put("wall_s", measure.median(out.samples["wall_s"]), "s")
        out.put("setup_s", measure.median(out.samples["setup_s"]), "s")
        server_s = sum(r.server_s for r in replies)
        out.put("cands_per_s", sum(r.evaluated for r in replies) / server_s if server_s else 0.0,
                "1/s")
        elapsed = max(r.done for r in load.replies) - load.load_started
        report_requests(out, [(r.done - r.sent) * 1000.0 for r in load.replies], elapsed)
        out.put("peak_rss_mb", load.process.peak_rss_mb, "MB")
        return
    layers = trace_layers(trace_path, load.process, 1, serving=True)
    layers["sweep.checkpoint_bytes"] = (0, "bytes")
    layers["trace.overhead_s"] = (load.wall_s - measure.median([p.wall_s for p in probes]), "s")
    layers.update(server_layers(replies, load.stats))
    kernel, sizes, _ = SERVE_PROBE
    layers.update(direct_layers(kernel, sizes))
    for name, (value, unit) in layers.items():
        out.put(name, value, unit)


# -- per-layer metrics --------------------------------------------------------------


def trace_layers(trace_path: Path, process: measure.ChildRun, jobs: int,
                 serving: bool = False) -> dict:
    """Per-layer metrics from one traced process and its trace file."""
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    spent: dict[str, float] = {}
    calls: dict[str, int] = {}
    intervals = [(trace["started"], trace["import_end"])]
    for name, start, end, *_ in trace["spans"]:
        spent[name] = spent.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        intervals.append((start, end))
    totals = {name: tuple(value) for name, value in trace["totals"].items()}
    stats: dict[str, float] = {}
    stages: dict[str, float] = {}
    cache_misses: dict[int, int] = {}
    for engine in trace["engines"]:
        for key, value in engine["stats"].items():
            stats[key] = stats.get(key, 0) + value
        for key, value in engine["profile"].items():
            stages[key] = stages.get(key, 0.0) + value
        # Engines may share one relation cache; count each cache once.
        cache_misses[engine["cache_id"]] = max(
            cache_misses.get(engine["cache_id"], 0), engine["cache"]["misses"]
        )
    kernels = sum(stats.get(k, 0) for k in ("fused_path", "compiled_path", "bitset_path"))
    session_s = spent.get("sweep.session", 0.0)
    batch_s = spent.get("engine.batch", 0.0)
    covered = measure.covered_seconds(intervals, process.started, process.ended)
    layers = {
        "cli.import_s": (trace["import_end"] - trace["started"], "s"),
        "dse.generate_s": (totals.get("dse.generate", (0.0, 0))[0], "s"),
        "dse.candidates": (totals.get("dse.generate", (0.0, 0))[1], "count"),
        "sweep.session_self_s": (session_s - batch_s, "s"),
        "sweep.batches": (calls.get("engine.batch", 0), "count"),
        "sweep.sink_emit_s": (totals.get("sweep.sink", (0.0, 0))[0], "s"),
        "engine.batch_s": (batch_s, "s"),
        "engine.stamps_s": (stages.get("stamps", 0.0), "s"),
        "engine.utilization_s": (stages.get("utilization", 0.0), "s"),
        "engine.volumes_s": (stages.get("volumes", 0.0), "s"),
        "engine.rank_s": (stages.get("rank", 0.0), "s"),
        "engine.fused_path": (stats.get("fused_path", 0), "count"),
        "engine.compiled_path": (stats.get("compiled_path", 0), "count"),
        "engine.bitset_path": (stats.get("bitset_path", 0), "count"),
        "engine.fused_share": (stats.get("fused_path", 0) / kernels if kernels else 0.0, "ratio"),
        "engine.memo_hits": (stats.get("memo_hits", 0), "count"),
        "engine.spacetime_hits": (stats.get("spacetime_hits", 0), "count"),
        "engine.stamp_fallback_exprs": (stats.get("stamp_fallback_exprs", 0), "count"),
        "engine.relation_cache_misses": (sum(cache_misses.values()), "count"),
        "pool.worker_cache_misses": (stats.get("worker_cache_misses", 0), "count"),
        # Stage seconds are summed over workers, so with one job this is the
        # share of sweep time spent inside engine stages.
        "pool.busy_ratio": (
            sum(stages.values()) / (jobs * session_s) if session_s else 0.0, "ratio"),
        "trace.unattributed_s": (process.wall_s - covered, "s"),
    }
    if serving:
        layers["server.engines_built"] = (calls.get("engine.build", 0), "count")
    return layers


def server_layers(replies: list[Reply] | None, stats: dict | None) -> dict:
    """Server metrics seen from the client; 0 on workloads without a server.

    ``server.engines_built`` comes from the traced server's own spans.
    """
    if not replies:
        return {
            "server.sweep_ms": (0.0, "ms"),
            "server.wait_ms": (0.0, "ms"),
            "server.engine_reused_rate": (0.0, "ratio"),
            "server.engines_built": (0, "count"),
        }
    return {
        "server.sweep_ms": (measure.median([r.server_s * 1000.0 for r in replies]), "ms"),
        "server.wait_ms": (
            measure.median([(r.done - r.sent - r.server_s) * 1000.0 for r in replies]), "ms"),
        "server.engine_reused_rate": (stats.get("engine_reused_rate", 0.0), "ratio"),
    }


def direct_layers(kernel: str, sizes, repeats: int = 3) -> dict:
    """Layer functions called directly from this process.

    ``engine.warm_s``: a fresh engine (own relation cache) built and asked for
    one report of the workload's operation, the median of ``repeats``.
    ``analyzer.candidate_s``: the interpreted reference analyzer on a fixed
    sample of small candidates, median seconds per candidate.
    """
    from repro.core.analyzer import analyze
    from repro.core.engine import EvaluationEngine
    from repro.dse.pruning import pruned_candidates
    from repro.experiments.common import make_arch
    from repro.tensor.kernels import make_kernel

    arch = make_arch(pe_dims=(8, 8), interconnect="2d-systolic", bandwidth_bits=128.0)
    op = make_kernel(kernel, list(sizes))
    first = next(iter(pruned_candidates(op, pe_dims=(8, 8), allow_packing=True,
                                        max_candidates=1)))
    warm = []
    for _ in range(repeats):
        started = time.perf_counter()
        engine = EvaluationEngine(op, arch, backend="auto", max_instances=4_000_000)
        engine.evaluate(first)
        warm.append(time.perf_counter() - started)
        engine.close()
    per_candidate = []
    for sample_kernel, sample_sizes in (("gemm", (32, 32, 32)), ("conv2d", (8, 8, 6, 6, 3, 3))):
        sample_op = make_kernel(sample_kernel, list(sample_sizes))
        for dataflow in pruned_candidates(sample_op, pe_dims=(8, 8), allow_packing=True,
                                          max_candidates=4):
            started = time.perf_counter()
            analyze(sample_op, dataflow, arch)
            per_candidate.append(time.perf_counter() - started)
    return {
        "engine.warm_s": (measure.median(warm), "s"),
        "analyzer.candidate_s": (measure.median(per_candidate), "s"),
    }


# -- entry point --------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fingerprint = measure.fingerprint(ROOT)
    reference = oracle.load(args.workload, WORK / "oracle", fingerprint["src_sha256"])

    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    out = Outcome()
    gauge_before = measure.host_gauge()
    try:
        if args.workload == SERVE_WORKLOAD:
            run_serve(args.seed, args.seconds, bool(args.trace), scratch, reference, out)
        else:
            run_explore(args.workload, args.seconds, bool(args.trace), scratch, reference, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    host_gauge_s = [gauge_before, measure.host_gauge()]

    for name, (value, unit) in out.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {out.failed / out.attempted:.6g} ({out.failed}/{out.attempted})")
    for note in out.notes:
        print(note)
    for problem in out.problems[:20]:
        print(f"MISMATCH {problem}")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(f"host gauge before/after: {host_gauge_s[0]:.4f} s / {host_gauge_s[1]:.4f} s")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint, "notes": out.notes,
              "problems": out.problems[:20], "samples": out.samples,
              "host_gauge_s": host_gauge_s, "result": result}
    (records / f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns()}.json").write_text(
        json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
