"""Run the ``tenet`` CLI with timed spans around each layer's public calls.

Usage::

    PYTHONPATH=src python perfbench/traced_cli.py TRACE.json <tenet arguments>

The program itself is not modified: this wrapper replaces a handful of
public functions and methods with timing shims before ``repro.cli.main``
runs, keeps every span in memory, and writes them with the engines'
counters to ``TRACE.json`` when the command returns (for ``serve``, after a
SIGTERM drain).  Span timestamps are ``time.perf_counter()`` values, which
share one monotonic clock with the benchmark process that spawned this one.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import functools  # noqa: E402 - the import span starts before everything
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import weakref  # noqa: E402


class Tracer:
    """In-memory spans and counters, safe to record from several threads."""

    def __init__(self) -> None:
        #: (name, start, end, span id, parent id, thread id)
        self.spans: list[tuple] = []
        #: Summed seconds and call counts of high-frequency calls that always
        #: run inside a recorded span (per-candidate generation and sink
        #: emits); kept as totals so tracing them stays cheap.
        self.totals: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._engines: dict[int, weakref.ref] = {}
        self.engine_snapshots: dict[int, dict] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, span_id: int,
               parent: int | None) -> None:
        self.spans.append((name, start, end, span_id, parent, threading.get_ident()))

    def add_total(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            entry = self.totals.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.record(name, start, end, span_id, parent)

        setattr(owner, attr, traced)

    def wrap_total(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that adds to a total."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.add_total(name, time.perf_counter() - start)

        setattr(owner, attr, timed)

    def timed_iterator(self, iterator, name: str):
        """Yield from ``iterator``, adding the time of each ``next`` to ``name``."""
        while True:
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.add_total(name, time.perf_counter() - start, calls=0)
                return
            self.add_total(name, time.perf_counter() - start)
            yield item

    # -- engines ------------------------------------------------------------------

    def track_engine(self, engine) -> None:
        with self._lock:
            key = len(self._engines)
            self._engines[key] = weakref.ref(engine)
        engine._perfbench_key = key

    def snapshot_engine(self, engine) -> None:
        key = getattr(engine, "_perfbench_key", None)
        if key is None:
            return
        snapshot = {
            "jobs": engine.jobs,
            "stats": dict(engine.stats),
            "profile": engine.profile(),
            "cache_id": id(engine.cache),
            "cache": engine.cache_stats(),
        }
        with self._lock:
            self.engine_snapshots[key] = snapshot

    def snapshot_live_engines(self) -> None:
        for ref in list(self._engines.values()):
            engine = ref()
            if engine is not None:
                self.snapshot_engine(engine)

    def dump(self, path: str, import_end: float, returncode: int | None) -> None:
        payload = {
            "started": STARTED,
            "import_end": import_end,
            "finished": time.perf_counter(),
            "returncode": returncode,
            "spans": self.spans,
            "totals": self.totals,
            "engines": list(self.engine_snapshots.values()),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer) -> None:
    """Put the timing shims on the layers' public entry points."""
    import repro.cli as cli
    import repro.dse.pruning as pruning
    from repro.core.engine import EvaluationEngine
    from repro.sweep.server import SweepServer
    from repro.sweep.session import SweepSession
    from repro.sweep.sinks import JsonlCheckpointSink, TopKSink

    generate = pruning.pruned_candidates

    @functools.wraps(generate)
    def traced_generate(*args, **kwargs):
        return tracer.timed_iterator(iter(generate(*args, **kwargs)), "dse.generate")

    # The CLI imported the name before the shim existed; the server looks it
    # up on the module at request time.
    pruning.pruned_candidates = traced_generate
    cli.pruned_candidates = traced_generate

    init = EvaluationEngine.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.track_engine(self)

    EvaluationEngine.__init__ = traced_init
    tracer.wrap(EvaluationEngine, "__init__", "engine.build")

    close = EvaluationEngine.close

    @functools.wraps(close)
    def traced_close(self):
        # Evicted server engines are closed and dropped; keep their counters.
        tracer.snapshot_engine(self)
        close(self)

    EvaluationEngine.close = traced_close
    tracer.wrap(EvaluationEngine, "evaluate_batch", "engine.batch")
    tracer.wrap(SweepSession, "run", "sweep.session")
    tracer.wrap(SweepServer, "submit", "server.submit")
    for sink in (TopKSink, JsonlCheckpointSink):
        for method in ("open", "emit", "close"):
            tracer.wrap_total(sink, method, "sweep.sink")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py TRACE.json <tenet arguments>", file=sys.stderr)
        return 2
    trace_path, tenet_args = argv[0], argv[1:]
    import repro.cli

    import_end = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    returncode = None
    try:
        returncode = repro.cli.main(tenet_args)
        return returncode
    finally:
        tracer.snapshot_live_engines()
        tracer.dump(trace_path, import_end, returncode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
