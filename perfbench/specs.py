"""The benchmark's workloads: what each one runs and why it was chosen.

Inputs are fixed here or drawn from the ``--seed`` the benchmark receives;
the program under test only ever sees the generated command lines and
requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class ExploreSpec:
    """One ``tenet explore`` command line, run repeatedly from a cold process."""

    kernel: str
    sizes: tuple[int, ...]
    max_candidates: int
    jobs: int = 1
    checkpoint: bool = False
    #: Ranking lines printed and checked against the oracle.
    top: int = 5

    def argv(self, checkpoint: str | None, profile_json: str) -> list[str]:
        args = [
            "explore", "--kernel", self.kernel,
            "--sizes", *map(str, self.sizes),
            "--max-candidates", str(self.max_candidates),
            "--backend", "auto", "--jobs", str(self.jobs),
            "--top", str(self.top), "--profile-json", profile_json,
        ]
        if checkpoint is not None:
            args += ["--checkpoint", checkpoint]
        return args


EXPLORE: dict[str, ExploreSpec] = {
    # 256 small-op candidates: the session, candidate generation and the
    # checkpoint sink do the most work here, and the volume stage uses all
    # three kernels (fused, compiled, bit-set).
    "explore_conv2d": ExploreSpec(
        "conv2d", (16, 16, 7, 7, 3, 3), 256, checkpoint=True, top=5
    ),
    # 12 candidates of about 0.9M iterations each: per-candidate enumeration
    # dominates and the session and sink layers do almost nothing.
    "explore_gemm96": ExploreSpec("gemm", (96, 96, 96), 64, top=12),
    # The conv2d sweep on the engine's process pool and shared-memory
    # relations, the only workload that uses them.
    "explore_conv2d_jobs2": ExploreSpec(
        "conv2d", (16, 16, 7, 7, 3, 3), 256, jobs=2, top=20
    ),
}

SERVE_WORKLOAD = "serve_mixed"
WORKLOADS = (*EXPLORE, SERVE_WORKLOAD)

#: (kernel, sizes, objective) tuples the serve mix draws most requests from.
#: They map to 4 engines, which stay warm: a repeat replays the engine's
#: report memo.
SERVE_HOT: tuple[tuple[str, tuple[int, ...], str], ...] = (
    ("conv2d", (8, 8, 6, 6, 3, 3), "latency"),
    ("conv2d", (8, 8, 6, 6, 3, 3), "energy"),
    ("gemm", (48, 48, 48), "latency"),
    ("gemm", (48, 48, 48), "edp"),
    ("mttkrp", (16, 16, 16, 8), "latency"),
    ("depthwise_conv2d", (16, 12, 12, 3, 3), "latency"),
)
#: Six more engines, requested in this fixed cycle.  With the 4 hot engines
#: that is 10 engines against the server's 8-engine warm cap, so the cycle
#: never finds its engine still warm: every cold request builds one.  The
#: order is not seeded, so every seed keeps the same engines resident
#: together (and the same peak memory).
SERVE_COLD: tuple[tuple[str, tuple[int, ...], str], ...] = (
    ("gemm", (32, 32, 32), "latency"),
    ("gemm", (64, 32, 48), "latency"),
    ("gemm", (40, 56, 24), "sbw"),
    ("conv2d", (12, 12, 6, 6, 3, 3), "latency"),
    ("mmc", (16, 16, 16, 16), "latency"),
    ("gemm", (24, 72, 40), "energy"),
)
#: Each block of this many requests holds ``SERVE_COLD_PER_BLOCK`` cold ones,
#: so the share of engine builds is the same for every seed.
SERVE_BLOCK = 20
SERVE_COLD_PER_BLOCK = 2
#: First request of every server session; its reply time is the serve
#: workload's ``wall_s`` (process start to first ranking).
SERVE_PROBE = SERVE_HOT[2]
#: Closed-loop clients (one connection each) and server worker threads.
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Server defaults the requests rely on; the oracle must use the same.
SERVE_MAX_CANDIDATES = 64
SERVE_TOP = 5


def request_payload(op: tuple[str, tuple[int, ...], str]) -> dict:
    kernel, sizes, objective = op
    return {"kernel": kernel, "sizes": list(sizes), "objective": objective}


def serve_requests(seed: int, count: int) -> list[dict]:
    """The seeded ``serve_mixed`` request stream (same seed, same list).

    The seed places the cold requests inside each block and draws the hot
    requests; the block structure and the cold cycle are fixed.
    """
    rng = random.Random(seed)
    requests: list[dict] = []
    cold_index = 0
    while len(requests) < count:
        cold_slots = set(rng.sample(range(SERVE_BLOCK), SERVE_COLD_PER_BLOCK))
        for slot in range(SERVE_BLOCK):
            if slot in cold_slots:
                op = SERVE_COLD[cold_index % len(SERVE_COLD)]
                cold_index += 1
            else:
                op = rng.choice(SERVE_HOT)
            requests.append(request_payload(op))
    return requests[:count]
