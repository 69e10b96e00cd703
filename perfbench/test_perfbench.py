"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that traced call counts repeat exactly from run to run, that the
correctness gates catch a wrong output, that the membership oracles agree
with enumeration on small groups, and that the metric names match
BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from cutgroups.constructions import alternating, iterated_wreath, symmetric  # noqa: E402


def run_bench(root: Path, workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.splitlines()


def counts(result: dict) -> dict:
    return {
        k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"
    }


def test_traced_call_counts_repeat_exactly_between_runs():
    code_a, out_a = run_bench(ROOT, "analyze-near-cap", 1, 1)
    code_b, out_b = run_bench(ROOT, "analyze-near-cap", 2, 1)
    assert code_a == code_b == 0
    a, b = json.loads(out_a[-1]), json.loads(out_b[-1])
    assert a["correct"] and b["correct"]
    assert counts(a) == counts(b)
    assert counts(a)["group.contains.calls"] > 0


def test_tracer_wraps_every_binding_and_restores_them():
    from cutgroups import cli, corpus, rationality
    from cutgroups.constructions import cyclic
    from cutgroups.group import PermGroup

    def bindings():
        return (
            rationality.group_rationality,
            cli.group_rationality,
            corpus.group_rationality,
            PermGroup.__dict__["order"],
        )

    before = bindings()
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        wrapped = bindings()
        rationality.group_rationality(cyclic(12))
    wall = time.perf_counter() - t0
    metrics = tracer.end_pass()

    assert all(w is not b for w, b in zip(wrapped, before))
    assert wrapped[0] is wrapped[1] is wrapped[2]
    assert bindings() == before
    assert metrics["rationality.group_rationality.calls"] == 1
    assert metrics["rationality.classify_class.calls"] == 12
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0
    assert 0 < sum(self_times) <= wall


def test_per_layer_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    emitted = (
        [("perm.compose_us", "us"), ("perm.power_us", "us")]
        + spans.metric_names()
        + [("trace.overhead_share", "ratio")]
    )
    assert [(m["name"], m["unit"]) for m in declared] == emitted


def test_corrupted_expected_output_fails_the_gate(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    expected = tmp_path / "perfbench" / "expected" / "an-fields-14.json"
    expected.write_text(expected.read_text().replace('"qg_degree": 2', '"qg_degree": 3', 1))

    code, out = run_bench(tmp_path, "analyze-near-cap", 1, 0)
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


def test_survey_gate_counts_the_rows_that_differ():
    survey = workloads.SurveyBundled()
    state = survey.setup(0)
    report = state["expected"]
    assert survey.check(state, workloads.Outcome({}, [(0, report)])) == (173, 0)

    doc = json.loads(report)
    doc["rows"][0]["cut"] = not doc["rows"][0]["cut"]
    doc["rows"][5]["qg_degree"] += 1
    wrong = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert survey.check(state, workloads.Outcome({}, [(0, wrong)])) == (173, 2)
    assert survey.check(state, workloads.Outcome({}, [(1, report)])) == (173, 1)


def test_chain_gate_catches_a_wrong_order_and_answer():
    chain = workloads.ChainLarge()
    state = chain.setup(7)
    orders = [workloads.closed_form_order(g["spec"]) for g in state]
    answers = [want for g in state for _, want in g["queries"]]
    assert chain.check(state, workloads.Outcome({}, [orders, answers])) == (
        len(orders) + len(answers), 0,
    )
    answers[-1] = not answers[-1]
    orders[0] += 1
    assert chain.check(state, workloads.Outcome({}, [orders, answers]))[1] == 2


def test_empty_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_bench(tmp_path, "survey-bundled", 1, 0)
    assert code != 0
    assert not any(line.startswith("{") for line in out)


def test_chain_inputs_come_from_the_seed():
    spec = workloads.CHAIN_GROUPS[1]
    gens = [tuple(g.images) for g in alternating(spec["n"]).generators]
    first = workloads.chain_queries(random.Random(5), spec, gens)
    assert first == workloads.chain_queries(random.Random(5), spec, gens)
    assert first != workloads.chain_queries(random.Random(6), spec, gens)
    assert {want for _, want in first} == {True, False}
    assert all(workloads.oracle_member(spec, q) == want for q, want in first)


def test_stored_groups_and_closed_forms():
    data = json.loads((HERE / "data" / "chain_groups.json").read_text())
    stored = {g["name"]: g for g in data["groups"]}
    assert [s["name"] for s in workloads.CHAIN_GROUPS] == list(stored)
    assert max(g["degree"] for g in stored.values()) >= 60
    small = [
        (symmetric(6), {"kind": "symmetric", "n": 6}),
        (alternating(7), {"kind": "alternating", "n": 7}),
        (iterated_wreath(3, 2), {"kind": "wreath", "p": 3, "k": 2}),
    ]
    for G, spec in small:
        assert G.order() == workloads.closed_form_order(spec)


def test_oracles_agree_with_enumeration():
    cases = [
        (alternating(6), {"kind": "alternating", "n": 6}),
        (iterated_wreath(2, 3), {"kind": "wreath", "p": 2, "k": 3}),
        (symmetric(5), {"kind": "symmetric", "n": 5}),
    ]
    for G, spec in cases:
        members = {e.images for e in G.elements()}
        for images in permutations(range(G.degree)):
            assert workloads.oracle_member(spec, images) == (images in members)
