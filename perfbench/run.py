"""The cutgroups benchmark.

    python3 perfbench/run.py --workload survey-bundled --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are described in ``workloads.py`` and BENCHMARK.json.

A run repeats passes of the workload until ``--seconds`` have elapsed (and
at least three passes), checks every pass's outputs, and prints the
workload's own figures as ``name value unit`` lines.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 if any output was wrong.

With ``--trace 0`` the metrics are the end-to-end ones, all untraced:

* ``setup_s``: median over fresh processes, one before the first pass and
  one after each pass, of the time to import the package and build the
  workload's inputs;
* ``wall_s`` and ``cpu_s``: median wall and CPU seconds of one pass;
* ``peak_rss_mib``: peak resident memory of the run's process.

With ``--trace 1`` the metrics are per layer: calls and self time per pass
(median over traced passes) of each wrapped function (see ``spans.py``),
the kernel timings ``perm.compose_us`` and ``perm.power_us`` on fixed
degree-61 inputs, and ``trace.overhead_share``, the median traced pass
against the median untraced pass interleaved with it.  The spans of the
first traced pass are written to ``.perfbench/`` at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = ['perfbench', 'src']\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time in a fresh process, so the import is never cached."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


class Passes:
    """Timed passes of one workload, each checked by the gate."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.phases: list[dict[str, float]] = []
        self.latencies = array("d")
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run_one(self) -> None:
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        outcome = self.workload.work(self.state)
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)
        attempted, failed = self.workload.check(self.state, outcome)
        self.attempted += attempted
        self.failed += failed
        self.phases.append(outcome.phases)
        self.latencies.extend(outcome.latencies)


def kernel_us() -> dict[str, float]:
    """Per-call microseconds of compose and of p ** 37 on the degree-61
    cycle, untraced: the median of seven timed loops each."""
    from cutgroups.perm import Permutation, compose

    p = Permutation([(i + 1) % 61 for i in range(61)])
    q = Permutation([(2 * i) % 61 for i in range(61)])

    def per_call(fn, loops):
        samples = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(loops):
                fn()
            samples.append((time.perf_counter() - t0) / loops)
        return 1e6 * statistics.median(samples)

    return {
        "perm.compose_us": per_call(lambda: compose(p, q), 2000),
        "perm.power_us": per_call(lambda: p ** 37, 300),
    }


def untraced_run(workload, name: str, seed: int, seconds: float):
    """Passes until the deadline; a set-up probe runs before the first pass
    and after each pass, so the set-up times sample the same stretch of the
    machine's time as the passes."""
    runs = Passes(workload, workload.setup(seed))
    setups = [setup_probe(name, seed)]
    deadline = time.perf_counter() + seconds
    while len(runs.walls) < MIN_PASSES or time.perf_counter() < deadline:
        runs.run_one()
        setups.append(setup_probe(name, seed))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(runs.walls), "s"),
        "cpu_s": (statistics.median(runs.cpus), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = workload.summary(runs)
    extra.append(("passes", len(runs.walls), "count"))
    return runs, metrics, extra


def traced_run(workload, name: str, seed: int, seconds: float):
    import spans

    metrics = {k: (v, "us") for k, v in kernel_us().items()}
    tracer = spans.Tracer()
    plain = Passes(workload, workload.setup(seed))
    traced = Passes(workload, plain.state)
    per_pass = []
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        plain.run_one()
        with tracer.installed():
            traced.run_one()
        per_pass.append(tracer.end_pass())
    units = dict(spans.metric_names())
    for key, unit in units.items():
        values = [m[key] for m in per_pass]
        if unit == "count":
            if len(set(values)) > 1:
                print(f"perfbench: {key} differs between passes: {values}", file=sys.stderr)
            metrics[key] = (values[0], unit)
        else:
            metrics[key] = (statistics.median(values), unit)
    metrics["trace.overhead_share"] = (
        statistics.median(traced.walls) / statistics.median(plain.walls) - 1, "ratio",
    )
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.tsv")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    extra = [("traced_passes", len(per_pass), "count")]
    return plain, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cutgroups" / "cli.py").is_file():
        print(f"perfbench: no cutgroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    os.chdir(ROOT)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    passes, metrics, extra = run(workload, args.workload, args.seed, args.seconds)

    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    for key, value, unit in extra:
        print(f"{args.workload}.{key} {value:.6g} {unit}")
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if passes.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
