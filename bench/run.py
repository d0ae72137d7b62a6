"""latstat benchmark.

    python3 bench/run.py --workload {reproduce,scan,kernels} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}] [--record FILE]

Run from anywhere; latstat is imported from the checkout's `src/`.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, measured untraced; with `--trace 1` they are the
per-layer metrics.  Lines before it give provenance, per-operation times,
the workload's own named metrics with units, and report hashes.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
TRACE_PAIRS = 3
REFERENCE_EVERY = 0.05  # seconds between reference samples


def reference() -> Fraction:
    """A fixed interpreter-bound loop of Fraction arithmetic, as latstat's
    scalars do.  It is timed between operations to measure how fast the
    machine runs at that moment; no latstat code runs in it, so no change to
    latstat moves it."""
    total = Fraction(0)
    for i in range(1, 800):
        total += Fraction(1, i)
    return total


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


class Setup:
    """Set-up is a fresh interpreter importing latstat plus building the
    workload's inputs (generation, files, parsing and verified construction).
    It is repeated SETUP_REPEATS times, spread evenly over the run on the
    CPU of the round each repetition falls in, because the CPUs' speed
    changes every few seconds; the median is reported."""

    def __init__(self, workload, seed: int, size: str, workdir: Path):
        self.build = lambda: workload.build(seed, size, workdir)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times = []

    def once(self) -> list:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import latstat.cli"], env=self.env,
                       cwd=ROOT, check=True)
        ops = self.build()
        self.times.append(perf_counter() - t0)
        return ops

    def due(self, elapsed: float, seconds: float) -> None:
        """Repeat once when the run has passed the next evenly spaced point."""
        if (len(self.times) < SETUP_REPEATS
                and elapsed >= len(self.times) * seconds / SETUP_REPEATS):
            self.once()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.once()
        return statistics.median(self.times)


class Run:
    """Times operations, runs their checks and keeps the evidence."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.rounds = 0
        self.samples = {}
        self.latest = {}  # op name -> its latest outcome, for cross-operation checks
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hashes = {}
        self.reference = []  # seconds of each reference sample
        self.sensed_at = float("-inf")

    def pin(self, parallel: bool = False) -> None:
        """Single-client work runs on the round's CPU; parallel work may use
        them all."""
        os.sched_setaffinity(0, self.cpus if parallel
                             else {self.cpus[self.rounds % len(self.cpus)]})

    def timed(self, op):
        """Run one operation: its outcome and seconds, or None if it raised."""
        self.attempted += 1
        self.pin(op.parallel)
        try:
            t0 = perf_counter()
            outcome = op.run()
            return outcome, perf_counter() - t0
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            self.fail(op, [f"{type(exc).__name__}: {exc}"])
            return None

    def judge(self, op, timing) -> float:
        """Check an operation's outcome and keep its time; returns the time,
        or 0 when the operation raised."""
        if timing is None:
            return 0.0
        outcome, elapsed = timing
        try:
            problems = op.check(outcome, self.latest)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if op.digest is not None:
            digest = hashlib.sha256(op.digest(outcome)).hexdigest()
            if self.hashes.setdefault(op.name, digest) != digest:
                problems = problems + ["output bytes changed between rounds"]
        if problems:
            self.fail(op, problems)
        self.latest[op.name] = outcome
        self.samples.setdefault(op.name, []).append(elapsed)
        return elapsed

    def fail(self, op, problems: list) -> None:
        self.failed += 1
        self.problems += [f"{op.name}: {p}" for p in problems]

    def execute(self, op) -> float:
        return self.judge(op, self.timed(op))

    def sense(self) -> None:
        """Time the reference loop on the round's CPU, if REFERENCE_EVERY
        seconds have passed since the last sample."""
        if perf_counter() - self.sensed_at >= REFERENCE_EVERY:
            self.pin()
            t0 = perf_counter()
            reference()
            self.sensed_at = perf_counter()
            self.reference.append(self.sensed_at - t0)

    def loop(self, ops, seconds: float, between_rounds=lambda elapsed: None):
        """One full round, then further rounds that skip each operation whose
        last sample would end past `seconds`, until none fits.  Short
        operations so gather many samples even when a round is long.

        Rounds alternate between the CPUs the process may use, so that each
        operation is sampled on all of them, and the reference loop is
        sampled between operations throughout the run."""
        start = perf_counter()
        for op in ops:
            self.sense()
            self.execute(op)
        while True:
            self.pin()
            between_rounds(perf_counter() - start)
            self.rounds += 1
            ran = False
            for op in ops:
                last = self.samples.get(op.name)
                if last and perf_counter() - start + last[-1] <= seconds:
                    self.sense()
                    self.execute(op)
                    ran = True
            if not ran:
                return

    def op_times(self) -> dict:
        """Each operation's median time over its samples."""
        return {name: statistics.median(ts) for name, ts in self.samples.items()}


def end_to_end(workload, ops, run: Run, setup_s: float) -> tuple:
    """The gated metrics, and the workload's named metrics.

    The machine's speed drifts by tens of percent between runs, and the
    reference loop drifts with it, so one round's time in units of the
    reference (`wall_ref`) is steady where its time in seconds (`wall_s`)
    is not."""
    per_op = run.op_times()
    wall = sum(per_op[op.name] for op in ops if op.name in per_op)
    reference_s = statistics.median(run.reference)
    contract = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (wall / reference_s, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    named = dict(contract, wall_s=(wall, "s"), reference_ms=(reference_s * 1e3, "ms"),
                 failed_ratio=(run.failed / max(run.attempted, 1), "ratio"))
    # a group with no operation at this size reports nothing rather than 0
    for metric, group in workload.seconds_metrics.items():
        members = [op for op in ops if op.group == group and op.name in per_op]
        if members:
            named[metric] = (sum(per_op[op.name] for op in members), "s")
    for metric, group in workload.rate_metrics.items():
        members = [op for op in ops if op.group == group and op.name in per_op]
        if members:
            named[metric] = (sum(op.work for op in members)
                             / sum(per_op[op.name] for op in members), "1/s")
    return contract, named


def per_layer(ops, run: Run, seed: int, size: str, tracer_cls, probes) -> dict:
    """An untraced and a traced round of the same operations, three times,
    each pair on the next CPU; then the fixed per-layer probes.  Counts come
    from the first traced round (every traced round repeats them), and the
    overhead compares the fastest round of each kind.  A traced round's
    outcomes are checked after the tracer is removed, so that the figures
    hold the program's work and not the checks'."""
    traced_ops = [op for op in ops if not op.parallel]
    plain, traced, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        plain.append(sum(run.execute(op) for op in traced_ops))
        with tracer_cls() as tracer:
            timings = [run.timed(op) for op in traced_ops]
        traced.append(sum(run.judge(op, t) for op, t in zip(traced_ops, timings)))
        tracers.append(tracer)
        run.rounds += 1
    os.sched_setaffinity(0, run.cpus)
    tracer = tracers[0]
    metrics = {
        "lattice.meet_join_calls": (tracer.meet_join_calls, "count"),
        "constructions.eval_calls": (tracer.eval_calls, "count"),
        "semimod.instances": (tracer.instances, "count"),
        "semimod.memo_hit_ratio": (tracer.memo_hit_ratio, "ratio"),
        "trace.overhead_ratio": (min(traced) / min(plain), "ratio"),
    }
    for layer, seconds in tracer.self_seconds().items():
        print(f"layer {layer:13s} self {seconds:10.4f} s  calls {tracer.calls.get(layer, 0)}")
    metrics.update(probes.run_probes(seed, size))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs with the same checks (smoke test)")
    parser.add_argument("--record", help="append this run as one JSON line to FILE")
    args = parser.parse_args(argv)

    if not (SRC / "latstat" / "__init__.py").is_file():
        print(f"latstat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probes
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    provenance = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "trace": args.trace, "seconds": args.seconds,
                  "nproc": os.cpu_count(), "python": platform.python_version(),
                  "commit": commit_of(ROOT)}
    print("provenance " + json.dumps(provenance, sort_keys=True))

    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    setup = Setup(workload, args.seed, args.size, workdir)
    try:
        ops = setup.once()
        gc.collect()
        if args.trace:
            metrics = per_layer(ops, run, args.seed, args.size, Tracer, probes)
            named = {}
        else:
            run.loop(ops, args.seconds, lambda elapsed: setup.due(elapsed, args.seconds))
            metrics, named = end_to_end(workload, ops, run, setup.median())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, t in sorted(run.op_times().items()):
        ts = run.samples[name]
        print(f"op {name:22s} median {t * 1e3:12.4f} ms  min {min(ts) * 1e3:12.4f} ms  "
              f"max {max(ts) * 1e3:12.4f} ms  n={len(ts)}")
    for name, (value, unit) in named.items():
        print(f"metric {name} {value!r} {unit}")
    for name, digest in sorted(run.hashes.items()):
        print(f"sha256 {name} {digest}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    correct = run.failed == 0
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.record:
        record = {"provenance": provenance, "result": result,
                  "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                  "op_median_s": run.op_times(), "sha256": run.hashes}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
