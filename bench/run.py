"""kgflow benchmark: four workloads against the public API, one command.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (one process, one thread, closed loop: each call starts when the
previous one has returned and its output has been checked):

- plan-grid: ``schedule()`` on synth.EXPERIMENT_SHAPES x {qcloud, g4dn} x
  eta {0.1, 0.5, 0.9}, the library synthesising its own curve (30 calls a
  pass). ``synthesize_observations`` dominates; procurement barely runs
  (x0 <= 5 USD, <= 64 CNY). 13 of the 30 calls raise at this revision.
- plan-measured: parse the NER/RE pipeline from GFL, ``validate`` it and
  ``schedule()`` it with a supplied curve placing x0 at g4dn {2, 5, 8, 10}
  USD and qcloud {50, 100, 200, 300, 400} CNY, plus one call with the
  bundled qcloud observations. The exponential ``procure`` search is the
  call.
- sweep: ``sweep_eta`` over 5 etas with the default SweepConfig on
  6m29o/qcloud and 3m11o/g4dn: 5 synthesise-and-fit rounds and 260
  ``evaluate_plan`` calls per call.
- simulate: ``simulate()`` of the eta=0.5 plans for 6m29o/qcloud and
  3m11o/g4dn over an 80k-row corpus, zero jitter, jitter 0.1 and overlap.

BENCHMARK.json gates plan-measured, sweep and simulate, which between them
run every traced layer and on which no call fails, with 30-second runs.
plan-grid stays runnable here and in the self-test, for its failure report
and plan digests, but is not gated: 13 of its calls fail on every pass, and
four workloads would only fit the run budget at about 20 seconds a run.

The seed draws the workload inputs: 1% noise on the task weights and
payloads of the synthetic shapes and of the pipeline, the curve coefficients
of plan-measured, and the jitter draws of simulate.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
On a shared host CPU-bound code runs up to 2x slower for seconds to minutes
at a time (seen on a 2-vCPU cloud VM, whose speed changed every few seconds
and sometimes stayed low for a whole run), so raw wall time moves between
runs of the same code by more than a regression worth catching. Every timed
call is therefore bracketed by a fixed pure-Python reference kernel
(``reference_s``: allocation, sorting, dicts and a small product search,
the interpreter work kgflow does), and its wall time is scaled by
REFERENCE_S over the mean of the two kernel times around it: the time the
call would take on a host that runs the kernel in 1 ms. The kernel slowed
with the host about as much as kgflow did: on that VM, over 10-second
windows, the middle half of kgflow's per-window median call times spread
15-20% of their median raw and 4-6% scaled. The kernel never changes, so a
change to kgflow moves the scaled times as it moves wall time. Each cell is
timed by the median of its scaled calls in the run; raw wall-time figures
are printed and recorded under "wall".

- ok_per_s: successful, checked calls per pass over the sum of the cells'
  median scaled times;
- call_p50_ms, call_p90_ms: quantiles over the calls of one pass, each at
  its cell's median scaled time;
- ok_share: 1 - failed share (the failed share is printed and recorded);
- peak_rss_mb: peak resident memory after the timed loop;
- greedy_J_norm: the compound-greedy plan's min-max-normalised J against
  the list and 50 random baselines, as ``sweep_eta`` computes it, averaged
  over cells; on sweep it is read from the sweep rows;
- setup_s: median over fresh processes of the time from process start to
  the first timed call (imports, inputs and one untimed warm-up pass),
  scaled like a call by reference kernels run just before and after.

With ``--trace 1`` the first half of the time runs untraced and the second
half with every layer function in ``tracer.LAYERS`` wrapped. It reports per
layer function F: F.calls and F.self_ms per benchmark call and F.share of
the traced time in calls; errors.<type> per pass; the ratios below; and
trace_overhead_share (the cells' median scaled traced calls over their
median scaled untraced calls, minus 1).

Which end-to-end metric each layer metric should move, and where:

- costmodel.procure.*: ok_per_s and call_p*_ms on plan-measured; nothing on
  plan-grid or sweep. costmodel.procure.price_gap must not move when
  procurement only gets faster.
- scheduler.synthesize_observations and its children greedy_partition,
  flowline.apply_partition and flowline.makespan: plan-grid and sweep; they
  never run in plan-measured or simulate.
- scheduler.check_qualification, scheduler.evaluate_plan, flowline.makespan
  and sim.baseline_*: sweep (about 40% of a call); small on plan-grid.
- errors.*, scheduler.greedy_partition.fail_share and
  costmodel.fit_price_makespan: ok_share on plan-grid.
- sim.simulate.us_per_event: ok_per_s, call_p90_ms and peak_rss_mb on
  simulate, and nothing elsewhere.
- gfl.parse and flowline.validate: under 1 ms a call on plan-measured,
  listed so that a regression shows.

Outputs are checked outside the timed region; a call that raises or fails
a check counts as failed and is listed with its cell, error type and the
first line of the message. Each run writes its stamp, metrics, failures and
per-cell output digests (sha256 of ``plan_to_json`` for the plan workloads)
to bench/out/<workload>-seed<seed>-trace<trace>.json. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools pinned to one thread before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# Timings are scaled to a host on which reference_s() reads this.
REFERENCE_S = 1.0e-3
TYPED_ERRORS = ("SchedulingError", "CostModelError", "FlowlineError",
                "GflError", "ValueError")

# name -> (unit, better); every workload reports every one of them.
END_TO_END = {
    "ok_per_s": ("1/s", "higher"),
    "call_p50_ms": ("ms", "lower"),
    "call_p90_ms": ("ms", "lower"),
    "ok_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "greedy_J_norm": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    from tracer import LAYER_NAMES

    out = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_ms"] = ("ms", "lower")
        out[f"{layer}.share"] = ("ratio", "lower")
    out["scheduler.synthesize_observations.infeasible_share"] = ("ratio",
                                                                 "lower")
    out["scheduler.greedy_partition.fail_share"] = ("ratio", "lower")
    out["costmodel.procure.price_gap"] = ("ratio", "lower")
    out["sim.simulate.events"] = ("count", "lower")
    out["sim.simulate.us_per_event"] = ("us", "lower")
    for name in TYPED_ERRORS + ("other",):
        out[f"errors.{name}"] = ("count", "lower")
    out["trace_overhead_share"] = ("ratio", "lower")
    return out


def _reference_kernel():
    rng = random.Random(7)
    items = [(rng.random(), i, str(i)) for i in range(1500)]
    items.sort()
    totals = {}
    for value, _, key in items:
        totals[key] = value + totals.get(key[:-1], 0.0)
    best = None
    for counts in itertools.product(range(4), repeat=4):
        candidate = (abs(sum(counts) * 1.37 - 7.1), counts)
        if best is None or candidate < best:
            best = candidate
    return best, len(totals)


def reference_s(repeat: int = 1) -> float:
    """Median wall time of the fixed reference kernel (about 1 ms), run with
    the garbage collector off so that it never pays for collecting kgflow's
    objects."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            _reference_kernel()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


@dataclass
class Phase:
    """Calls of whole passes over a workload's cells."""

    durations: list[float] = field(default_factory=list)
    # Each call's wall time scaled to the reference host (see module doc).
    scaled: list[float] = field(default_factory=list)
    passes: int = 0
    ok: int = 0
    # (cell index, exception type or "check:<name>", message) -> count
    failures: collections.Counter = field(default_factory=collections.Counter)
    outputs: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def cell_s(self, cells: int) -> list[float]:
        """Each cell's median scaled call time."""
        return [statistics.median(self.scaled[i::cells]) for i in range(cells)]


def run_passes(workload, refs: list, seconds: float, tracer=None,
               keep_outputs: bool = False) -> Phase:
    """Whole passes until ``seconds`` of wall time have gone (at least one).

    ``refs`` holds each cell's output digest; a None entry is filled in from
    this phase, a set one must be matched.
    """
    from workloads import CheckFailed

    phase = Phase()
    start = time.perf_counter()
    before = reference_s()
    while True:
        for i, cell in enumerate(workload.cells):
            if tracer is not None:
                tracer.call += 1
            t0 = time.perf_counter()
            try:
                out = cell.run()
            except Exception as exc:  # recorded as a failure, the loop goes on
                dt = time.perf_counter() - t0
                after = reference_s()
                message = str(exc).splitlines()[0] if str(exc) else ""
                phase.failures[(i, type(exc).__name__, message)] += 1
                out = None
            else:
                dt = time.perf_counter() - t0
                after = reference_s()
                try:
                    digest = cell.check(out)
                    if refs[i] is None:
                        refs[i] = digest
                    elif digest != refs[i]:
                        raise CheckFailed("identical_across_passes",
                                          f"digest {digest} != {refs[i]}")
                except CheckFailed as failed:
                    phase.failures[(i, f"check:{failed.check}",
                                    str(failed))] += 1
                else:
                    phase.ok += 1
            phase.durations.append(dt)
            phase.scaled.append(dt * 2 * REFERENCE_S / (before + after))
            before = after
            if keep_outputs:
                phase.outputs.append(workload.keep(out))
            out = None
        phase.passes += 1
        if time.perf_counter() - start >= seconds:
            return phase


def setup_seconds(args) -> float:
    """Median over fresh processes of process start to first timed call,
    each scaled by reference kernels run just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = reference_s(5)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            dt = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        samples.append(dt * 2 * REFERENCE_S / (before + reference_s(5)))
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited {code}: {line!r}")
    return statistics.median(samples)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run(args) -> dict:
    """One benchmark run; returns the full report."""
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    cells = len(workload.cells)
    refs = [None] * len(workload.cells)
    warmup = run_passes(workload, refs, 0.0, keep_outputs=True)
    if args.setup_probe:
        return {}

    if args.trace:
        untraced = run_passes(workload, refs, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_passes(workload, refs, args.seconds / 2, tracer)
        metrics = tracer.summarize(sum(traced.durations),
                                   len(traced.durations))
        errors = collections.Counter()
        for (_, error, _), n in traced.failures.items():
            if not error.startswith("check:"):
                errors[error if error in TYPED_ERRORS else "other"] += n
        for name in TYPED_ERRORS + ("other",):
            metrics[f"errors.{name}"] = errors[name] / traced.passes
        metrics["trace_overhead_share"] = (
            sum(traced.cell_s(cells)) / sum(untraced.cell_s(cells)) - 1.0)
        phases = [untraced, traced]
        names = per_layer_metrics()
        wall = {}
    else:
        phase = run_passes(workload, refs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_cell = phase.cell_s(cells)
        metrics = {
            "ok_per_s": phase.ok / phase.passes / sum(per_cell),
            "call_p50_ms": statistics.median(per_cell) * 1e3,
            "call_p90_ms": p90(per_cell) * 1e3,
            "ok_share": phase.ok / len(phase.durations),
            "peak_rss_mb": peak_rss_mb,
            "greedy_J_norm": workload.quality(warmup.outputs),
            "setup_s": setup_seconds(args),
        }
        phases = [phase]
        names = END_TO_END
        wall = {"ok_per_s": phase.ok / sum(phase.durations),
                "call_p50_ms": statistics.median(phase.durations) * 1e3,
                "call_p90_ms": p90(phase.durations) * 1e3}

    attempted = sum(len(p.durations) for p in phases)
    failed = sum(p.failed for p in phases)
    failures = collections.Counter()
    for p in phases:
        failures.update(p.failures)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "stamp": stamp(args.seed),
        "calls": attempted,
        "passes": sum(p.passes for p in phases),
        "failed_share": failed / attempted,
        "wall": wall,
        "metrics": {name: {"value": metrics[name], "unit": unit,
                           "better": better}
                    for name, (unit, better) in names.items()},
        "failures": [dict(workload.cells[i].labels, workload=args.workload,
                          error=error, message=message, count=count)
                     for (i, error, message), count in sorted(failures.items())],
        "cells": [dict(cell.labels, digest=ref)
                  for cell, ref in zip(workload.cells, refs)],
        "result": {
            "correct": not any(error.startswith("check:")
                               for _, error, _ in failures),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, (unit, _) in names.items()},
        },
    }
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  trace {report['trace']}  "
          f"calls {report['calls']}  passes {report['passes']}  "
          f"failed_share {report['failed_share']:.6g}")
    if report["wall"]:
        print("raw wall time over every call: " + ", ".join(
            f"{name} {value:.6g}" for name, value in report["wall"].items()))
    print("stamp " + json.dumps(report["stamp"], sort_keys=True))
    print(f"{'metric':<58} {'value':>14}  {'unit':<6} better")
    for name, m in report["metrics"].items():
        print(f"{name:<58} {m['value']:>14.6g}  {m['unit']:<6} {m['better']}")
    for failure in report["failures"]:
        print("failure " + json.dumps(failure, sort_keys=True))
    for cell in report["cells"]:
        print("cell " + json.dumps(cell, sort_keys=True))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan-grid", "plan-measured", "sweep",
                                 "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small cells, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (measures "
                             "setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kgflow" / "__init__.py").is_file():
        print(f"kgflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = run(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    print_report(report)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
