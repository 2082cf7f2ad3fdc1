#!/usr/bin/env python3
"""Smoke check of the benchmark at its smallest size.

Run from the repository root:

    python3 bench/selfcheck.py

Each workload runs once untraced and once traced with --seconds 1 (one
round: an analyst block and one round of sessions).  The check asserts
that each run is correct, that the result line has exactly the keys the
benchmark promises, that every metric BENCHMARK.json names is emitted with
its unit, and that the exact counts of the two runs agree.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload, trace):
    done = subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    return result, record


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        exact = []
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in listed}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, f"{workload} trace {trace}: {emitted} != {expected}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            exact.append(record["exact"])
            print(f"ok {workload} trace {trace}: {len(emitted)} metrics")
        assert exact[0] == exact[1], f"{workload}: exact counts differ {exact}"
        print(f"ok {workload}: exact counts repeat")


if __name__ == "__main__":
    main()
