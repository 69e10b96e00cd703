"""scripts/bench_pairs.py runs both sides of a pair the same way."""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# `git stash create` prints a commit of the working tree's tracked files, or
# nothing when they equal HEAD
@pytest.mark.parametrize(
    "stash,change_rev", [("w" * 40, "w" * 40), ("", "HEAD")], ids=["edited", "clean"]
)
def test_both_sides_run_from_temporary_extracts(stash, change_rev, tmp_path, monkeypatch):
    bench = load_bench_pairs()
    metrics = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    extracted = {}  # directory -> revision
    ran = []  # (directory, workload, seed)

    def git(*args):
        return {("rev-parse", "HEAD"): "c" * 40, ("rev-parse", "parent"): "p" * 40,
                ("stash", "create"): stash}[args]

    def extract(rev, dest):
        assert dest.is_dir() and not any(dest.iterdir())
        extracted[dest] = rev

    def run_side(where, workload, seed, seconds):
        assert where in extracted and where.is_dir()
        ran.append((where, workload, seed))
        return {"metrics": {m["name"]: {"value": 1.0} for m in metrics["end_to_end"]}}

    monkeypatch.setattr(bench, "git", git)
    monkeypatch.setattr(bench, "extract", extract)
    monkeypatch.setattr(bench, "run_side", run_side)
    out = tmp_path / "pairs.json"
    assert bench.main(["--parent", "parent", "--pairs", "2", "--out", str(out)]) == 0

    # the parent side from the parent revision, the change side from the
    # working tree's commit, both in fresh temporary directories
    assert sorted(extracted.values()) == sorted(["parent", change_rev])
    temp = Path(tempfile.gettempdir()).resolve()
    for where in extracted:
        assert where.resolve() != bench.ROOT and temp in where.resolve().parents
        assert not where.exists()  # removed afterwards
    assert {where for where, _, _ in ran} == set(extracted)
    workloads = [w["name"] for w in metrics["workloads"]]
    assert len(ran) == 2 * 2 * len(workloads)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert list(record["workloads"]) == workloads
