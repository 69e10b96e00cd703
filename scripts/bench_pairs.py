#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark, written as one JSON file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --first-seed 1 --out BENCH_<n>.json

For every workload of BENCHMARK.json, each pair runs ``perfbench/run.py
--trace 0`` for the benchmark's ``run_seconds`` once on the parent revision
and once on the change, with the same seed; pair i uses seed ``--first-seed + i``, and odd pairs run the
change first.  Both sides run from a temporary directory that is removed
afterwards, extracted the same way with ``git archive``: the parent side from
the parent's committed files, the change side from the tracked files of this
checkout's working tree (a ``git stash create`` commit, or HEAD when they
are clean).  Untracked files are not part of the change side.

The output holds every run's last-line JSON plus its figure lines, and per
end-to-end metric a summary of the pairs: medians and quartiles of both
sides, the number of pairs in which the change was lower, the relative
change of the medians, and a verdict against the metric's bound.  The file
is rewritten after every pair, so an interrupted series keeps what it ran.
The extraction uses tarfile's "data" filter: Python 3.10.12, 3.11.4 or later.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_side(where: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last-line JSON, plus ``figures``, the
    ``name value unit`` lines before it."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=where, capture_output=True, text=True, env=ENV)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"bench_pairs: {workload} seed {seed} in {where} printed no result"
            f" (exit {done.returncode}):\n{done.stderr[-2000:]}"
        ) from None
    if not result.get("correct"):
        print(f"bench_pairs: {workload} seed {seed} in {where}: wrong output", file=sys.stderr)
    result["figures"] = {
        name: float(value) for name, value, _ in (line.split() for line in lines[:-1])
    }
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(pairs: list[dict], metric: str, bound: float) -> dict:
    """Both sides' medians and quartiles over the pairs and a verdict:
    'unresolved' when the parent's interquartile range exceeds the bound
    relative to its median, 'flat' when the medians differ by no more than
    that range, else the direction, and for a rise whether it stays within
    the bound."""
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    iqr = p_q[2] - p_q[0]
    relative = c_med / p_med - 1
    if iqr / p_med > bound:
        verdict = "unresolved: the parent's interquartile range exceeds the bound"
    elif abs(c_med - p_med) <= iqr:
        verdict = "flat: median change within the parent's interquartile range"
    elif relative < 0:
        verdict = "lower"
    else:
        verdict = "higher, within the bound" if relative <= bound else "higher, beyond the bound"
    return {
        "parent_median": round(p_med, 4),
        "parent_quartiles": [round(q, 4) for q in p_q],
        "change_median": round(c_med, 4),
        "change_quartiles": [round(q, 4) for q in c_q],
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(pairs),
        "relative_change": round(relative, 4),
        "parent_iqr_over_median": round(iqr / p_med, 4),
        "bound": bound,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    record = {
        "what": (
            "Last-line JSON of perfbench/run.py, parent commit vs this change"
            f" (the working tree over {git('rev-parse', 'HEAD')}), same machine,"
            f" {args.pairs} alternating pairs per workload (odd pairs run the"
            " change first), seeds"
            f" {args.first_seed}-{args.first_seed + args.pairs - 1}, the same seed"
            " on both sides of a pair.  Each side also carries the workload's"
            " figure lines (`figures`).  Verdicts: 'unresolved' when the parent's"
            " interquartile range exceeds the metric's bound relative to its"
            " median, 'flat' when the medians differ by no more than that range."
        ),
        "machine": (
            f"{os.cpu_count()}-vCPU {platform.system()} {platform.machine()},"
            f" {platform.python_implementation()} {platform.python_version()}"
        ),
        "parent_commit": git("rev-parse", args.parent),
        "command": (
            "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload <name>"
            f" --seed <seed> --seconds {seconds:g} --trace 0"
        ),
        "workloads": {},
        "notes": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tmp, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tmp:
        parent_dir, change_dir = Path(parent_tmp), Path(change_tmp)
        extract(args.parent, parent_dir)
        # a commit of the tracked files that moves no ref and touches no file;
        # git prints nothing when they equal HEAD
        extract(git("stash", "create") or "HEAD", change_dir)
        for workload in names:
            pairs: list[dict] = []
            record["workloads"][workload] = {"summary": {}, "pairs": pairs}
            for i in range(args.pairs):
                seed = args.first_seed + i
                sides = [("parent", parent_dir), ("change", change_dir)]
                if i % 2:
                    sides.reverse()
                pair = {"pair": i, "seed": seed}
                t0 = time.perf_counter()
                for side, where in sides:
                    pair[side] = run_side(where, workload, seed, seconds)
                pairs.append({k: pair[k] for k in ("pair", "seed", "parent", "change")})
                record["workloads"][workload]["summary"] = {
                    m["name"]: summarize(pairs, m["name"], m["bound"])
                    for m in bench["end_to_end"]
                }
                args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                wall = record["workloads"][workload]["summary"].get("wall_s", {})
                print(
                    f"bench_pairs: {workload} pair {i} seed {seed}"
                    f" ({time.perf_counter() - t0:.0f} s): wall_s median"
                    f" {wall.get('parent_median')} -> {wall.get('change_median')}",
                    file=sys.stderr,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
