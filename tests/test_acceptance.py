"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
The full-corpus survey is executed once and shared; criterion 14 runs its
own second survey to pin byte-level determinism.
"""

import json
import random
import time
from pathlib import Path

import pytest

from oracles import exponent, is_cut_bruteforce
from cutgroups.corpus import (
    SurveyConfig,
    bundled_corpus_path,
    parse_corpus,
    render_report,
    run_survey,
)
from cutgroups.group import PermGroup
from cutgroups.rationality import (
    classify_class,
    group_rationality,
    p_core,
    qg_degree,
    qg_degree_alternating,
    sylow,
)
from cutgroups.structure import conjugacy_classes, is_solvable
from cutgroups.constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    iterated_wreath,
    sylnorm,
    symmetric,
    wreath,
)

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def corpus():
    return parse_corpus(bundled_corpus_path())


@pytest.fixture(scope="module")
def survey(corpus):
    start = time.monotonic()
    report = run_survey(corpus, SurveyConfig(), label="bundled")
    elapsed = time.monotonic() - start
    return report, elapsed


def _announce(number, text):
    print(f"\ncriterion {number:2d}: PASS - {text}")


def test_criterion_01_cut_oracle_equivalence(corpus):
    start = time.monotonic()
    checked = 0
    for record in corpus:
        G = record.group
        if G.order() > 200:
            continue
        assert group_rationality(G).is_cut == is_cut_bruteforce(G), record.id
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _announce(1, f"class machinery matches brute-force cut oracle on "
                 f"{checked} groups of order <= 200 in {elapsed:.1f}s")


def test_criterion_02_definition_fidelity():
    start = time.monotonic()
    cut_n = {n for n in range(1, 31) if group_rationality(cyclic(n)).is_cut}
    assert cut_n == {1, 2, 3, 4, 6}

    def chains(max_order):
        out = [[d] for d in range(2, max_order + 1)]
        grow = list(out)
        while grow:
            nxt = []
            for chain in grow:
                prod = 1
                for d in chain:
                    prod *= d
                m = 1
                while prod * chain[-1] * m <= max_order:
                    new = chain + [chain[-1] * m]
                    out.append(new)
                    nxt.append(new)
                    m += 1
            grow = nxt
        return out

    checked = 0
    for chain in chains(100):
        G = abelian(chain)
        expected = exponent(G) in {1, 2, 3, 4, 6}
        assert is_cut_bruteforce(G) == expected, chain
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _announce(2, f"cyclic cut set is {{1,2,3,4,6}} and {checked} abelian groups "
                 f"of order <= 100 follow the exponent criterion in {elapsed:.1f}s")


def test_criterion_03_column_field_equivalence(corpus):
    classes_checked = 0
    for record in corpus:
        G = record.group
        table = conjugacy_classes(G)
        for c in range(len(table)):
            r = classify_class(table, c)
            expected = r.field_degree == 1 or (r.field_degree == 2 and r.field_imaginary)
            assert r.is_inverse_semirational == expected, (record.id, c)
            classes_checked += 1
    _announce(3, f"inverse semi-rationality equals the Q-or-imaginary-quadratic "
                 f"column criterion on {classes_checked} classes, zero exceptions")


def test_criterion_04_bmp(survey):
    report, _ = survey
    tally = report.aggregates["checks"]["bmp"]
    assert tally["FAIL"] == 0
    assert tally["PASS"] > 0
    _announce(4, f"every nontrivial cut corpus group has order divisible by 2 or 3 "
                 f"({tally['PASS']} checked)")


def test_criterion_05_sylow3_and_sylow2_discovery(survey):
    report, elapsed = survey
    tally = report.aggregates["checks"]["sylow3"]
    assert tally["FAIL"] == 0
    witnesses = report.aggregates["cut_with_noncut_sylow2"]
    assert witnesses, "expected a cut group with a non-cut Sylow 2-subgroup"
    assert elapsed < 120
    _announce(5, f"Sylow 3-subgroups of all {tally['PASS']} cut groups are cut; "
                 f"informational discovery of non-cut Sylow 2 in {witnesses} "
                 f"(survey {elapsed:.1f}s)")


def test_criterion_06_lemma61(survey):
    report, _ = survey
    tally = report.aggregates["checks"]["lemma61"]
    assert tally["FAIL"] == 0
    assert tally["PASS"] == report.aggregates["analyzed"]
    _announce(6, f"3-element inverse semi-rationality matches the Sylow "
                 f"3-subgroup verdict on all {tally['PASS']} groups")


def test_criterion_07_tent_bound(survey):
    report, _ = survey
    assert report.aggregates["checks"]["tent"]["FAIL"] == 0
    worst = 1
    for row in report.rows:
        if row["solvable"] and row["cut"]:
            assert row["qg_degree"] <= 32, row["id"]
            worst = max(worst, row["qg_degree"])
    _announce(7, f"character-field degree of every solvable cut group is <= 32 "
                 f"(largest seen: {worst})")


def test_criterion_08_prime_divisor_checks(survey):
    report, _ = survey
    assert report.aggregates["checks"]["cut_primes"]["FAIL"] == 0
    assert report.aggregates["checks"]["gow_primes"]["FAIL"] == 0
    _announce(8, "prime divisors stay within {2,3,5,7} for solvable cut and "
                 "{2,3,5} for solvable rational corpus groups")


def test_criterion_09_hegedus(survey):
    report, _ = survey
    tally = report.aggregates["checks"]["hegedus"]
    assert tally["FAIL"] == 0
    _announce(9, f"Sylow 5-subgroup normal and elementary abelian in every "
                 f"solvable rational corpus group ({tally['PASS']} checked)")


def test_criterion_10_q3(survey):
    report, _ = survey
    assert report.aggregates["checks"]["q3"]["FAIL"] == 0
    # exponent of the 5-core computed exactly on the Frobenius group of order 20
    F20 = sylnorm(5)
    core = p_core(F20, 5)
    assert core.order() == 5
    assert exponent(core) == 5
    for p in (5, 7):
        G = sylnorm(p)
        assert is_cut_bruteforce(G)
        assert is_solvable(G)
    _announce(10, "exp O_p | p holds for p in {5,7} on all solvable cut groups; "
                  "sylnorm(5) and sylnorm(7) are cut and solvable by brute force")


def test_criterion_11_alternating_machinery():
    start = time.monotonic()
    for n in (4, 5, 6, 7):
        assert qg_degree_alternating(n) == qg_degree(alternating(n)), n
    degrees = {n: qg_degree_alternating(n) for n in range(4, 13)}
    assert any(d >= 4 for d in degrees.values())
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _announce(11, f"descriptor machinery matches enumeration for A_4..A_7 and "
                  f"the n <= 12 table reaches degree "
                  f"{max(degrees.values())} in {elapsed:.1f}s")


def test_criterion_12_construction_laws():
    for p in (3, 5, 7, 11, 13):
        assert sylnorm(p).order() == p * (p - 1)
    rng = random.Random(20250808)
    pool = [cyclic(2), cyclic(3), cyclic(4), symmetric(3), dihedral(4),
            dicyclic(2), alternating(4)]
    for _ in range(5):
        A, B = rng.choice(pool), rng.choice(pool)
        assert wreath(A, B).order() == A.order() ** B.degree * B.order()
    W = iterated_wreath(3, 2)
    assert W.order() == 1296
    assert len(W.elements()) == 1296
    assert group_rationality(W).is_cut
    _announce(12, "sylnorm orders p(p-1), wreath order law on five random "
                  "pairs, and the depth-2 tower of order 1296 is cut")


def test_criterion_13_abelianization_exponent(survey):
    report, _ = survey
    tally = report.aggregates["checks"]["ppe"]
    assert tally["FAIL"] == 0
    cut_rows = [row for row in report.rows if row["cut"]]
    assert all(row["checks"]["ppe"]["status"] == "PASS" for row in cut_rows)
    _announce(13, f"exp(P/P') divides 3 for the Sylow 3-subgroup of every cut "
                  f"corpus group ({len(cut_rows)} groups)")


def test_criterion_14_deterministic_reports(corpus, survey):
    report, _ = survey
    second = run_survey(corpus, SurveyConfig(), label="bundled")
    first_bytes = render_report(report, "json").encode()
    second_bytes = render_report(second, "json").encode()
    assert first_bytes == second_bytes
    # the stored seed report is the fixed point for every refactor; it was
    # made from the corpus path, the fixture labels the report "bundled"
    stored = Path(__file__).parents[1] / "perfbench/expected/survey-bundled.json"
    expected = json.loads(stored.read_text(encoding="utf-8"))
    expected["corpus"] = "bundled"
    assert json.loads(first_bytes) == expected
    _announce(14, f"two survey runs produce byte-identical JSON reports "
                  f"({len(first_bytes)} bytes) equal to the stored report")
