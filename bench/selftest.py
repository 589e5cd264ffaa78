"""Self-test of the benchmark: a tiny fixed-seed run of every workload.

    python3 bench/selftest.py [workload ...]

For each workload it checks that
  * the timed run prints every end-to-end metric of BENCHMARK.json with its
    unit, and no op fails;
  * one deliberately corrupted golden digest shows up as exactly one
    failed op;
  * the traced run prints every per-layer metric with its unit, and its
    counts are identical across two traced runs of the same seed.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hypersurface", "system", "query", "coefficients")
TINY = ["--seed", "0", "--seconds", "1"]


def bench(workload, *args):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, *TINY, *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"run.py exited {out.returncode}: {out.stderr[-1000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect_metrics(result, spec, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    assert got == want, f"{what} metrics differ: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} is not a number"


def check(workload, spec):
    plain = bench(workload, "--trace", "0")
    expect_metrics(plain, spec["end_to_end"], "end-to-end")
    assert plain["failed"] == 0 and plain["correct"], f"{plain['failed']} ops failed"
    corrupted = bench(workload, "--trace", "0", "--corrupt-golden", "1")
    assert corrupted["failed"] == 1, f"corrupted digest gave {corrupted['failed']} failed ops"
    traced = [bench(workload, "--trace", "1") for _ in range(2)]
    expect_metrics(traced[0], spec["per_layer"], "per-layer")
    assert traced[0]["failed"] == 0, f"{traced[0]['failed']} traced ops failed"
    counts = [
        {k: m["value"] for k, m in t["metrics"].items() if m["unit"] == "count"}
        for t in traced
    ]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    assert not differ, f"traced counts differ between runs: {differ}"


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for workload in names:
        try:
            check(workload, spec)
            print(f"PASS {workload}")
        except AssertionError as exc:
            ok = False
            print(f"FAIL {workload}: {exc}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
