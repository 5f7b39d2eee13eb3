"""Summarise benchmark run records, or compare two sets of them.

Every ``perfbench/run.py`` run writes a record (result, notes and
fingerprint) to ``.bench_build/perfbench/records/``.  Usage::

    python3 perfbench/compare.py RECORD...                  # medians and spreads
    python3 perfbench/compare.py BASE... --against CHANGE...

With ``--against``, each end-to-end metric of each workload is judged by
the bound in ``BENCHMARK.json``: ``worse`` when the change's median is worse
than the base median by more than the bound, ``unresolved`` when the base
runs' own interquartile spread is wider than the bound.  Records whose
machine fingerprint (CPU, Python, NumPy, platform) differs from the first
record are flagged: their numbers were not measured under the same
conditions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    records = []
    for name in paths:
        path = Path(name)
        for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            records.append(json.loads(file.read_text(encoding="utf-8")))
    return records


def group(records: list[dict]) -> dict[tuple[str, int], dict[str, list[float]]]:
    groups: dict[tuple[str, int], dict[str, list[float]]] = {}
    for record in records:
        metrics = groups.setdefault((record["workload"], record["trace"]), {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        # Host speed around the run: a drifting shared machine shows here.
        metrics.setdefault("(host_gauge_s)", []).extend(record.get("host_gauge_s", []))
    return groups


def flag_fingerprints(records: list[dict]) -> list[str]:
    first = records[0]["fingerprint"]
    flags = []
    for record in records[1:]:
        fields = measure.fingerprint_mismatches(first, record["fingerprint"])
        if fields:
            flags.append(f"{record['workload']} seed {record['seed']}: differs in {fields}")
    return flags


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+", help="record files or directories")
    parser.add_argument("--against", nargs="+", default=[], help="records of the change")
    parser.add_argument("--bounds", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    base = load(args.base)
    change = load(args.against)
    if not base:
        print("no records found", file=sys.stderr)
        return 1
    for flag in flag_fingerprints(base + change):
        print(f"FINGERPRINT {flag}")
    failed = sum(r["result"]["failed"] for r in base + change)
    if failed:
        print(f"FAILED {failed} operations across the given runs")

    base_groups = group(base)
    if not change:
        for (workload, trace), metrics in sorted(base_groups.items()):
            print(f"{workload} (trace {trace})")
            for name, values in metrics.items():
                if not values:
                    continue
                print(f"  {name:30s} n={len(values):<3d} median={measure.median(values):<12.6g}"
                      f" spread={measure.spread(values):.3f}")
        return 0

    spec = json.loads(Path(args.bounds).read_text(encoding="utf-8"))
    change_groups = group(change)
    worse = 0
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in sorted({w for w, t in base_groups if t == 0}):
            before = base_groups[(workload, 0)].get(name)
            after = change_groups.get((workload, 0), {}).get(name)
            if not before or not after:
                continue
            old, new = measure.median(before), measure.median(after)
            loss = (new - old) / old if lower else (old - new) / old
            if loss > bound:
                verdict = "worse"
                worse += 1
            elif measure.spread(before) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:22s} {name:12s} base={old:<11.5g} change={new:<11.5g} "
                  f"worse_by={loss:+.3f} bound={bound} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
