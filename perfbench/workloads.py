"""The benchmark's workloads: inputs from a seed, one timed pass, and the
correctness gate that every pass goes through.

Each workload is a closed loop with one caller: the next command or query
starts only when the previous one has returned.  Every pass builds new
``PermGroup`` objects, so caches on a group (chain, elements, class table)
never carry over from one pass to the next.

* ``survey-bundled`` runs ``cutgroups survey`` over the bundled corpus, the
  way a survey user does; the gate is byte equality with the stored report.
* ``chain-large`` builds stabilizer chains of large groups beyond the
  enumeration cap, then answers a seeded stream of membership queries.
  Orders are checked against closed forms and answers against oracles that
  never use a chain.
* ``analyze-near-cap`` runs ``cutgroups analyze`` on two groups just under
  the cap and ``cutgroups an-fields``; the gate is equality with the stored
  outputs.

Each workload has ``setup(seed)`` for its inputs, ``work(state)`` for one
timed pass, ``check(state, outcome)`` returning (attempted, failed), and
``summary(runs)`` for its own figures from the run's passes (``run.Passes``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from cutgroups import cli
from cutgroups.group import PermGroup
from cutgroups.perm import Permutation

HERE = Path(__file__).resolve().parent

# Paths are relative to the checkout root, the benchmark's working
# directory; the survey report embeds the corpus path exactly as given.
SURVEY_ARGV = (
    "survey", "--corpus", "src/cutgroups/data/bundled.corpus", "--format", "json",
)
ANALYZE_ARGVS = {
    "analyze-symmetric-8.json": ("analyze", "--family", "symmetric:8", "--format", "json"),
    "analyze-alternating-8.json": ("analyze", "--family", "alternating:8", "--format", "json"),
}
AN_FIELDS_ARGV = ("an-fields", "--max-n", "14", "--format", "json")
CLI_COMMANDS = {
    "survey-bundled.json": SURVEY_ARGV,
    **ANALYZE_ARGVS,
    "an-fields-14.json": AN_FIELDS_ARGV,
}

# The roadmap's chain inputs are symmetric:30, alternating:40 and
# wreath-sylnorm:3:4 (about 18 s of chain building together).  They are
# sized down so a pass takes a few seconds; the wreath tower keeps a degree
# above 60.  For p in {2, 3}, sylnorm(p) is the whole symmetric group S_p,
# so the tower is the full automorphism group of the p-ary tree of depth k.
CHAIN_GROUPS = (
    {"name": "symmetric:20", "kind": "symmetric", "n": 20},
    {"name": "alternating:24", "kind": "alternating", "n": 24},
    {"name": "wreath-sylnorm:2:6", "kind": "wreath", "p": 2, "k": 6},
)
QUERIES_PER_GROUP = 6000
WORD_POOL = 64
WORD_LENGTH = 24


def closed_form_order(spec: dict) -> int:
    if spec["kind"] == "symmetric":
        return math.factorial(spec["n"])
    if spec["kind"] == "alternating":
        return math.factorial(spec["n"]) // 2
    p, k = spec["p"], spec["k"]
    return (p * (p - 1)) ** ((p ** k - 1) // (p - 1))


def is_even(images: tuple[int, ...]) -> bool:
    seen = [False] * len(images)
    transpositions = 0
    for start in range(len(images)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 0


def preserves_blocks(images: tuple[int, ...], p: int, k: int) -> bool:
    """True iff images keeps every level of the nested blocks
    {i : i // p**l == b} together, for l = 1 .. k-1."""
    for level in range(1, k):
        size = p ** level
        for b in range(0, len(images), size):
            target = images[b] // size
            if any(images[i] // size != target for i in range(b, b + size)):
                return False
    return True


def oracle_member(spec: dict, images: tuple[int, ...]) -> bool:
    """Membership decided without a stabilizer chain."""
    if spec["kind"] == "symmetric":
        return True
    if spec["kind"] == "alternating":
        return is_even(images)
    return preserves_blocks(images, spec["p"], spec["k"])


def _then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def chain_queries(rng: random.Random, spec: dict, gens: list[tuple[int, ...]]) -> list:
    """Members are products of two words from a pool of random words in the
    generators; for groups that have non-members, half the queries are
    random permutations the oracle rejects.  Returns (images, expected
    answer) pairs in a shuffled order."""
    degree = len(gens[0])
    pool = []
    for _ in range(WORD_POOL):
        word = tuple(range(degree))
        for _ in range(WORD_LENGTH):
            word = _then(word, rng.choice(gens))
        pool.append(word)
    wanted_non = 0 if spec["kind"] == "symmetric" else QUERIES_PER_GROUP // 2
    queries = [
        (_then(rng.choice(pool), rng.choice(pool)), True)
        for _ in range(QUERIES_PER_GROUP - wanted_non)
    ]
    while len(queries) < QUERIES_PER_GROUP:
        images = list(range(degree))
        rng.shuffle(images)
        if not oracle_member(spec, tuple(images)):
            queries.append((tuple(images), False))
    rng.shuffle(queries)
    return queries


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def expected_text(name: str) -> str:
    return (HERE / "expected" / name).read_text(encoding="utf-8")


@dataclass
class Outcome:
    """What one pass produced: seconds per named phase, the outputs the
    gate checks, and per-query latencies where the workload has queries."""

    phases: dict[str, float]
    outputs: list
    latencies: Sequence[float] = ()


def _percentile_name(n: int) -> tuple[str, float]:
    """The highest of p99.9, p99, p90, p50 with at least ten samples
    beyond it."""
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)):
        if n * (1 - q) >= 10:
            return label, q
    return "p50", 0.5


def _quantile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class SurveyBundled:
    """The bundled-corpus survey; its inputs do not depend on the seed."""

    def setup(self, seed: int):
        expected = expected_text("survey-bundled.json")
        return {"expected": expected, "rows": len(json.loads(expected)["rows"])}

    def work(self, state) -> Outcome:
        return Outcome({}, [run_cli(SURVEY_ARGV)])

    def check(self, state, outcome: Outcome) -> tuple[int, int]:
        """One check per report row plus one for the rest of the report."""
        (code, out), = outcome.outputs
        expected, rows = state["expected"], state["rows"]
        if code == 0 and out == expected:
            return rows + 1, 0
        try:
            got = json.loads(out)
        except ValueError:
            return rows + 1, rows + 1
        want = json.loads(expected)
        got_rows = {r["id"]: r for r in got.pop("rows", [])}
        want_rows = {r["id"]: r for r in want.pop("rows")}
        bad_rows = sum(1 for rid, r in want_rows.items() if got_rows.get(rid) != r)
        bad_rows += len(set(got_rows) - set(want_rows))
        return rows + 1, max(1, bad_rows + (got != want or code != 0))

    def summary(self, runs) -> list[tuple]:
        return [("groups_per_s", runs.state["rows"] / statistics.median(runs.walls), "1/s")]


class ChainLarge:
    """Fresh chain builds beyond the cap, then seeded membership queries."""

    def setup(self, seed: int):
        data = json.loads((HERE / "data" / "chain_groups.json").read_text(encoding="utf-8"))
        stored = {g["name"]: g for g in data["groups"]}
        rng = random.Random(seed)
        groups = []
        for spec in CHAIN_GROUPS:
            gens = [tuple(g) for g in stored[spec["name"]]["generators"]]
            groups.append(
                {"spec": spec, "generators": gens, "queries": chain_queries(rng, spec, gens)}
            )
        return groups

    def work(self, state) -> Outcome:
        """Permutation objects are made anew in every pass, so nothing the
        program might cache on them carries over."""
        clock = time.perf_counter
        build = sift = 0.0
        orders, answers, latencies = [], [], array("d")
        for g in state:
            t0 = clock()
            gens = [Permutation(images) for images in g["generators"]]
            G = PermGroup(len(gens[0].images), gens)
            orders.append(G.order())
            build += clock() - t0
            for q in [Permutation(images) for images, _ in g["queries"]]:
                t0 = clock()
                answer = G.contains(q)
                dt = clock() - t0
                latencies.append(dt)
                sift += dt
                answers.append(answer)
        return Outcome({"chain_build_s": build, "sift_s": sift}, [orders, answers], latencies)

    def check(self, state, outcome: Outcome) -> tuple[int, int]:
        orders, answers = outcome.outputs
        want_orders = [closed_form_order(g["spec"]) for g in state]
        want_answers = [want for g in state for _, want in g["queries"]]
        failed = sum(a != b for a, b in zip(orders, want_orders))
        failed += sum(a != b for a, b in zip(answers, want_answers))
        failed += abs(len(answers) - len(want_answers))
        return len(want_orders) + len(want_answers), failed

    def summary(self, runs) -> list[tuple]:
        queries = sum(len(g["queries"]) for g in runs.state)
        latencies = sorted(runs.latencies)
        label, q = _percentile_name(len(latencies))
        return [
            ("chain_build_s", statistics.median(p["chain_build_s"] for p in runs.phases), "s"),
            ("sift_per_s", queries / statistics.median(p["sift_s"] for p in runs.phases), "1/s"),
            ("sift_us_p50", 1e6 * _quantile(latencies, 0.5), "us"),
            (f"sift_us_{label}", 1e6 * _quantile(latencies, q), "us"),
            ("sift_samples", len(latencies), "count"),
        ]


class AnalyzeNearCap:
    """Two analyses just under the enumeration cap, then the alternating
    field-degree table; the inputs do not depend on the seed."""

    def setup(self, seed: int):
        names = list(ANALYZE_ARGVS) + ["an-fields-14.json"]
        return {name: expected_text(name) for name in names}

    def work(self, state) -> Outcome:
        clock = time.perf_counter
        outputs = []
        t0 = clock()
        for argv in ANALYZE_ARGVS.values():
            outputs.append(run_cli(argv))
        t1 = clock()
        outputs.append(run_cli(AN_FIELDS_ARGV))
        t2 = clock()
        return Outcome({"analyze_s": t1 - t0, "an_fields_s": t2 - t1}, outputs)

    def check(self, state, outcome: Outcome) -> tuple[int, int]:
        failed = sum(
            code != 0 or out != want
            for (code, out), want in zip(outcome.outputs, state.values())
        )
        return len(state), failed

    def summary(self, runs) -> list[tuple]:
        return [
            (name, statistics.median(p[name] for p in runs.phases), "s")
            for name in ("analyze_s", "an_fields_s")
        ]


WORKLOADS = {
    "survey-bundled": SurveyBundled(),
    "chain-large": ChainLarge(),
    "analyze-near-cap": AnalyzeNearCap(),
}
