"""One workload process: set up, run ops, check outputs, report JSON.

Started by ``run.py`` in a fresh interpreter, so caches and lazy imports
start cold in every process.  Modes:

  setup   set up only and report the set-up time
  timed   closed loop, one client: run whole cycles of ops in seeded
          order, as many as the workload does in ``--seconds`` at
          reference speed
  fixed   run the workload's fixed traced cycles, traced or untraced
  record  run the ops of a 20 s timed run and write their output digests
          as the golden file

Each timed op sits between two runs of a pure-Python ``Fraction`` loop,
and the loop also runs inside the op every SAMPLE_S of CPU time; ``run.py``
turns the loop times into the op's time at reference speed.  Set-up is
timed in stages with the loop between them.  The loops, oracles and
digests run outside the timed spans.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("cli", "parsing", "scalars", "laurent", "lattices", "polyhedral",
           "tropical", "archimedean", "classify")
GOLDEN_SEED = 0
# A timed run does ``run_cycles`` cycles of its workload per REFERENCE_SECONDS
# of ``--seconds``, so both sides of a comparison run identical ops.
REFERENCE_SECONDS = 20.0
OP_TIME_LIMIT = 30.0
CAL_TERMS = 120  # Fraction steps of the calibration loop
# CPU seconds between calibration loops inside an op: the machine's speed
# changes within the 0.4-0.9 s ops of the hypersurface tail.
SAMPLE_S = 0.05


class OpTimeout(Exception):
    pass


def calibrate() -> float:
    """Time of a fixed ``Fraction`` loop.  The collector is off inside it,
    so a collection that the program's garbage is due for falls in the op
    that made the garbage, and the loop time does not grow with the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, CAL_TERMS):
            x = Fraction(k, k + 1) * Fraction(2 * k + 1, 3) - Fraction(1, k + 2)
            if x > acc:
                acc = x
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def load_program():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"amoebas.{name}") for name in MODULES})


def warm_up(program, lap):
    """Lazy imports and first-call costs that every process pays once."""
    import numpy
    lap()
    import sympy  # noqa: F401
    lap()
    from mpmath import iv  # noqa: F401
    lap()
    numpy.roots([1.0, 0.0, -1.0])
    with contextlib.suppress(Exception):
        program.archimedean.sign_exp_sum([(1, 0), (-1, Fraction(1, 2))])
    with contextlib.suppress(Exception):
        program.scalars.product_formula_residual(
            program.parsing.parse_scalar("(z^4+2*z+2)/(z-1)", "Q(z)"))


def golden_path(workload):
    return os.path.join(HERE, "golden", f"{workload}.json")


def load_golden(workload, seed, corrupt):
    if seed != GOLDEN_SEED:
        return []
    try:
        with open(golden_path(workload), encoding="utf-8") as fh:
            digests = list(json.load(fh)["sha256"])
    except FileNotFoundError:
        return []
    if 0 <= corrupt < len(digests):
        digests[corrupt] = "0" * 64
    return digests


class Segments:
    """A timed span cut into segments by calibration loops, which run
    between the segments and outside them.  ``cal_s`` holds one loop time
    more than ``seg_s``: the loop just before the span comes first, and
    where there is none (set-up starts before the worker) the loop after
    the first segment stands in for it."""

    def __init__(self, start, clock, cal_before=None):
        self.clock, self.mark = clock, start
        self.seg_s, self.cal_s = [], [] if cal_before is None else [cal_before]

    def lap(self):
        seg = self.clock() - self.mark
        cal = calibrate()
        self.seg_s.append(seg)
        self.cal_s += [cal] * (1 if self.cal_s else 2)
        self.mark = self.clock()


class Runner:
    def __init__(self, args, workdir):
        self.setup = clock = Segments(float(os.environ["BENCH_T0"]), time.time)
        clock.lap()  # interpreter start and the benchmark's imports
        self.program = load_program()
        clock.lap()
        self.workload = WORKLOADS[args.workload](args.seed, workdir)
        cycles = self.workload.cycles()
        # the first cycle is generated inside set-up, the rest on the way
        self.cycles = itertools.chain([next(cycles)], cycles)
        clock.lap()
        warm_up(self.program, clock.lap)
        clock.lap()
        self.objects = self.workload.setup(self.program, clock.lap)
        clock.lap()
        # the oracle's own preparation is not set-up of the program
        self.oracle = oracles.Oracle(self.program)
        if self.objects is not None and args.mode != "setup":
            self.oracle.prepare_amoebas(self.workload.polys, self.objects["amoebas"])
        self.golden = [] if args.mode == "record" else load_golden(
            args.workload, args.seed, args.corrupt_golden)
        self.failures = []
        self.labels = []
        self.output_bytes = 0
        self.sampling = None  # the Segments of the op that is running

    def take_cycles(self, count):
        return itertools.chain.from_iterable(itertools.islice(self.cycles, count))

    def execute(self, op):
        """The timed call; returns the output bytes or raises."""
        p = self.program
        if op.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = p.cli.main(op.argv)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()[:200]}")
            return out.getvalue().encode()
        c = op.call
        if op.kind == "disjoint":
            amoeba = self.objects["amoebas"][c["amoeba"]]
            H = p.classify.Halfspace(amoeba.generic.rank, c["direction"], c["boundary"])
            obj = p.classify.adelic_disjoint(amoeba, H, rng=c["rng"]).to_json()
        else:
            f = self.objects["points"][c["poly"]]
            obj = p.classify.classify_arch_point(
                f, c["point"], trials=c["trials"], rng=c["rng"]).to_json()
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()

    def on_sample(self, signum, frame):
        if self.sampling is not None:
            self.sampling.lap()

    def timed_call(self, op, cal_before):
        """Run one op; returns its output or error and its Segments."""
        span = Segments(time.perf_counter(), time.perf_counter, cal_before)
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT)
        self.sampling = span
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        try:
            out = self.execute(op)
            error = None
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - every failure counts
            out, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            self.sampling = None
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        span.lap()
        return out, error, span

    def verify(self, op, out, digest, error):
        """Oracle and digest checks; returns a list of problems."""
        if error is not None:
            return [error]
        self.output_bytes += len(out)
        problems = []
        if op.index < len(self.golden) and self.golden[op.index] != digest:
            problems.append("output digest differs from the golden digest")
        try:
            problems += self.oracle.check(op, json.loads(out))
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
            problems.append(f"oracle raised {type(exc).__name__}: {exc}")
        return problems

    def run(self, ops, hard_cap, tracer=None):
        """Run ops in order, stopping early only past ``hard_cap`` seconds;
        returns the Segments of each op and the output digests."""
        spans, digests = [], []
        cal = calibrate()
        start = time.perf_counter()
        for op in ops:
            if tracer:
                tracer.op, tracer.enabled = op.index, True
            out, error, span = self.timed_call(op, cal)
            if tracer:
                tracer.enabled = False
            cal = span.cal_s[-1]
            spans.append(span)
            self.labels.append(op.label)
            digests.append(hashlib.sha256(out).hexdigest() if out is not None else None)
            problems = self.verify(op, out, digests[-1], error)
            if problems:
                self.failures.append({"op": op.index, "label": op.label, "problems": problems[:3]})
            if time.perf_counter() - start > hard_cap:
                break
        return spans, digests


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "fixed", "record"))
    ap.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--corrupt-golden", type=int, default=-1)
    args = ap.parse_args(argv)

    def on_alarm(signum, frame):
        raise OpTimeout(f"op exceeded {OP_TIME_LIMIT} s")

    signal.signal(signal.SIGALRM, on_alarm)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        runner = Runner(args, workdir)
        signal.signal(signal.SIGPROF, runner.on_sample)
        result = {"setup_s": runner.setup.seg_s, "setup_cal_s": runner.setup.cal_s}
        workload = runner.workload
        if args.mode == "timed":
            cycles = max(1, round(workload.run_cycles * args.seconds / REFERENCE_SECONDS))
            ops = runner.take_cycles(cycles)
        elif args.mode == "record":
            ops = runner.take_cycles(workload.run_cycles)
        else:
            ops = runner.take_cycles(workload.trace_cycles)
        tracer = None
        if args.mode == "setup":
            ops = ()
        elif args.trace:
            tracer = tracing.Tracer()
            result["wrapped"] = tracer.install()
            cache_before = tracer.cache_counts()
        hard_cap = 2 * args.seconds + 10
        spans, digests = runner.run(ops, hard_cap, tracer)
        if tracer:
            hits, misses = (b - a for a, b in zip(cache_before, tracer.cache_counts()))
            layer = tracing.layer_metrics(tracer.spans, tracer.layer_of)
            layer.update({
                "polyhedral.cache_hits": hits,
                "polyhedral.cache_misses": misses,
                "polyhedral.lp_share": tracing.ratio(
                    layer["polyhedral.lp_self_s"], sum(sum(s.seg_s) for s in spans)),
                "cli.output_bytes": runner.output_bytes,
            })
            result["layer"] = layer
        if args.mode == "record" and not runner.failures:
            with open(golden_path(args.workload), "w", encoding="utf-8") as fh:
                json.dump({"seed": args.seed, "sha256": digests}, fh, indent=0)
                fh.write("\n")
        result.update(
            op_s=[s.seg_s for s in spans],
            cal_s=[s.cal_s for s in spans],
            labels=runner.labels,
            failures=runner.failures,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
