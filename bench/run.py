"""Benchmark of the amoebas engine: one workload per invocation.

    python3 bench/run.py --workload hypersurface --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of a closed loop with one
client; ``--trace 1`` runs a fixed, seeded list of ops twice (untraced,
then traced) and prints the per-layer metrics.  The ops run in fresh
single-threaded interpreters (``worker.py``), and every output is checked
by exact oracles and, for the default seed, against golden digests.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE = 170.0  # seconds for the whole invocation
CAL_REF = 0.001  # seconds the calibration loop takes at reference speed
SETUPS = 5  # workers whose set-up is timed in a --trace 0 run
# Gated end-to-end metrics.  Op and set-up times are taken at reference
# speed (see worker.calibrate); the raw wall-clock figures are printed
# alongside.
END_TO_END = {
    "ops_per_s_norm": "ops/s",
    "op_p50_ms_norm": "ms",
    "op_p90_ms_norm": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
RAW = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s_raw": "s"}


class BenchError(Exception):
    pass


def spawn(args, mode, deadline, extra=()):
    """Run one worker process to completion and return its JSON report."""
    env = dict(os.environ)
    env.pop("AMOEBA_SEED", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--corrupt-golden", str(args.corrupt_golden),
           *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 5:
        raise BenchError("out of time before starting a worker")
    env["BENCH_T0"] = repr(time.time())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def reference_time(seg_s, cal_s):
    """Time at reference speed of a span that the worker cut into segments
    with a calibration loop between each two (``cal_s[k]`` just before
    segment k, ``cal_s[k + 1]`` just after it): each segment's wall time
    is scaled by CAL_REF over the mean of those two loops."""
    return sum(t * 2 * CAL_REF / (cal_s[k] + cal_s[k + 1]) for k, t in enumerate(seg_s))


def reference_times(report):
    return [reference_time(s, c) for s, c in zip(report["op_s"], report["cal_s"])]


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(args, deadline):
    reports, timed = [], None
    for k in range(SETUPS):
        if k == SETUPS // 2:
            timed = spawn(args, "timed", deadline)
            reports.append(timed)
        else:
            reports.append(spawn(args, "setup", deadline))
    times = [sum(s) for s in timed["op_s"]]
    norm = reference_times(timed)
    metrics = {
        "ops_per_s_norm": len(norm) / sum(norm),
        "op_p50_ms_norm": percentile(norm, 50) * 1e3,
        "op_p90_ms_norm": percentile(norm, 90) * 1e3,
        "setup_s": statistics.median(
            reference_time(r["setup_s"], r["setup_cal_s"]) for r in reports),
        "peak_rss_mib": timed["peak_rss_mib"],
    }
    raw = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_p90_ms": percentile(times, 90) * 1e3,
        "setup_s_raw": statistics.median(sum(r["setup_s"]) for r in reports),
    }
    return len(times), timed["failures"], metrics, raw


def per_layer(args, deadline):
    plain = spawn(args, "fixed", deadline)
    traced = spawn(args, "fixed", deadline, ["--trace", "1"])
    metrics = dict(traced["layer"])
    untraced_rate, traced_rate = (
        len(rep["op_s"]) / sum(reference_times(rep))
        for rep in (plain, traced)
    )
    metrics.update({
        "trace.ops": len(traced["op_s"]),
        "trace.op_s": sum(map(sum, traced["op_s"])),
        "trace.ops_per_s_norm_traced": traced_rate,
        "trace.ops_per_s_norm_untraced": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    })
    attempted = len(plain["op_s"]) + len(traced["op_s"])
    return attempted, plain["failures"] + traced["failures"], metrics, {}


def record(args, deadline):
    """Write the golden digests of the ops of a 20 s timed run."""
    rep = spawn(args, "record", deadline)
    if rep["failures"]:
        raise BenchError(f"not recording: {len(rep['failures'])} ops failed: {rep['failures'][:3]}")
    return len(rep["op_s"]), [], {}, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-golden", type=int, default=-1, help="self-test: spoil this golden digest")
    ap.add_argument("--record-golden", action="store_true",
                    help="write the golden digests of the ops of a 20 s timed run")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "amoebas", "__init__.py")):
        print("bench: src/amoebas is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE
    try:
        if args.record_golden:
            attempted, failures, metrics, shown = record(args, deadline)
        elif args.trace:
            attempted, failures, metrics, shown = per_layer(args, deadline)
        else:
            attempted, failures, metrics, shown = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".bench_work"))
    for f in failures[:10]:
        print(f"failed op {f['op']} ({f['label']}): {'; '.join(f['problems'])}", file=sys.stderr)
    failed = len(failures)
    units = {**END_TO_END, **RAW, **UNITS, "failed_ops": "share"}
    shown = {**metrics, **shown, "failed_ops": failed / max(attempted, 1)}
    for name, value in shown.items():
        print(f"{args.workload:>12}  {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
