import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    class_fields,
    exponent,
    field_degree,
    is_cut_bruteforce,
    is_cut_by_classes,
    is_rational_bruteforce,
    is_semirational_bruteforce,
    qg_degree_bruteforce,
)
from test_group import small_closure_generators
from cutgroups.alternating import alternating_classes, alternating_power_conjugate
from cutgroups.corpus import bundled_corpus_path, parse_corpus
from cutgroups.errors import BadParam, BoundExceeded
from cutgroups.group import PermGroup
from cutgroups.perm import Permutation, invert_images, parse_permutation, then_images
from cutgroups import rationality
from cutgroups.group import DEFAULT_CAP
from cutgroups import perm
from cutgroups.rationality import (
    CHECKS,
    FAIL,
    Analysis,
    PASS,
    SKIP,
    _field_degree,
    class_stabilizer,
    classify_class,
    conjecture_suite,
    group_rationality,
    qg_degree,
    qg_degree_alternating,
    residues_coprime,
)
from cutgroups.structure import conjugacy_classes, p_part
from cutgroups.constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    sylnorm,
    symmetric,
)


class TestResidues:
    def test_one(self):
        assert residues_coprime(1) == [1]

    def test_twelve(self):
        assert residues_coprime(12) == [1, 5, 7, 11]

    def test_ten(self):
        assert residues_coprime(10) == [1, 3, 7, 9]

    def test_length_is_totient(self):
        for n in range(1, 40):
            assert len(residues_coprime(n)) == sum(
                1 for k in range(1, n + 1) if math.gcd(k, n) == 1
            )


class TestClassStabilizer:
    def test_identity_class_full(self):
        T = conjugacy_classes(symmetric(3))
        assert class_stabilizer(T, 0) == frozenset({1})  # order 1: unit group is {1}

    def test_c3_generator(self):
        T = conjugacy_classes(cyclic(3))
        c = T.class_index(parse_permutation("(1 2 3)", 3))
        assert class_stabilizer(T, c) == frozenset({1})

    def test_five_cycle_in_s5_fully_stable(self):
        T = conjugacy_classes(symmetric(5))
        c = T.class_index(parse_permutation("(1 2 3 4 5)", 5))
        assert class_stabilizer(T, c) == frozenset({1, 2, 3, 4})

    def test_closed_under_multiplication(self):
        for G in [dicyclic(3), symmetric(4), cyclic(12)]:
            T = conjugacy_classes(G)
            for c in range(len(T)):
                o = T.rep_orders[c]
                S = class_stabilizer(T, c)
                for a in S:
                    for b in S:
                        assert ((a * b) % o or o) in S


class TestClassifyClass:
    def test_involution_rational(self):
        T = conjugacy_classes(symmetric(3))
        c = T.class_index(parse_permutation("(1 2)", 3))
        r = classify_class(T, c)
        assert r.is_rational and r.field_degree == 1

    def test_c3_generator_imaginary_quadratic(self):
        T = conjugacy_classes(cyclic(3))
        c = T.class_index(parse_permutation("(1 2 3)", 3))
        r = classify_class(T, c)
        assert not r.is_rational
        assert r.is_inverse_semirational
        assert r.field_degree == 2
        assert r.field_imaginary

    def test_c5_generator_degree_four(self):
        T = conjugacy_classes(cyclic(5))
        c = T.class_index(parse_permutation("(1 2 3 4 5)", 5))
        r = classify_class(T, c)
        assert not r.is_semirational
        assert r.field_degree == 4

    @pytest.mark.parametrize(
        "G", [symmetric(4), dicyclic(3), cyclic(12), dihedral(6), alternating(5)],
        ids=["S4", "Dic3", "C12", "D12", "A5"],
    )
    def test_column_field_equivalence(self, G):
        # inverse semi-rational iff the column field is Q or imaginary quadratic
        T = conjugacy_classes(G)
        for c in range(len(T)):
            r = classify_class(T, c)
            expected = r.field_degree == 1 or (r.field_degree == 2 and r.field_imaginary)
            assert r.is_inverse_semirational == expected
            # implication chain
            if r.is_rational:
                assert r.is_inverse_semirational
            if r.is_inverse_semirational:
                assert r.is_semirational


class TestGroupRationality:
    def test_trivial_group(self):
        from cutgroups.group import trivial_group

        rep = group_rationality(trivial_group(1))
        assert rep.is_rational and rep.is_cut and rep.qg_degree == 1

    def test_q8_rational(self):
        rep = group_rationality(dicyclic(2))
        assert rep.is_rational and rep.is_cut

    def test_c5_not_cut(self):
        rep = group_rationality(cyclic(5))
        assert not rep.is_cut and rep.qg_degree == 4

    def test_report_aggregates_match_classes(self):
        rep = group_rationality(symmetric(4))
        assert rep.is_cut == all(r.is_inverse_semirational for r in rep.class_reports)
        assert rep.is_rational == (rep.qg_degree == 1)

    def test_fresh_report_each_call(self):
        G = symmetric(3)
        a = group_rationality(G)
        b = group_rationality(G)
        assert a is not b
        a.check_results["marker"] = None
        assert "marker" not in b.check_results


class TestBruteforceOracle:
    def test_c4_cut(self):
        assert is_cut_bruteforce(cyclic(4))

    def test_c5_not_cut(self):
        assert not is_cut_bruteforce(cyclic(5))

    def test_s3_cut(self):
        assert is_cut_bruteforce(symmetric(3))

    @pytest.mark.parametrize(
        "G",
        [cyclic(6), cyclic(8), dicyclic(2), dicyclic(3), dicyclic(4), symmetric(4),
         dihedral(4), dihedral(5), alternating(4), alternating(5), sylnorm(5),
         direct_product(symmetric(3), cyclic(4))],
        ids=["C6", "C8", "Q8", "Dic3", "Q16", "S4", "D8", "D10", "A4", "A5", "F20", "S3xC4"],
    )
    def test_oracle_matches_class_computation(self, G):
        assert group_rationality(G).is_cut == is_cut_bruteforce(G)

    @pytest.mark.parametrize("G,rational,semirational", [
        (cyclic(2), True, True), (cyclic(3), False, True), (cyclic(5), False, False),
        (symmetric(4), True, True), (dicyclic(3), False, True),
    ], ids=["C2", "C3", "C5", "S4", "Dic3"])
    def test_definition_oracles_on_known_groups(self, G, rational, semirational):
        assert is_rational_bruteforce(G) is rational
        assert is_semirational_bruteforce(G) is semirational

    @staticmethod
    def assert_matches_definitions(G, label):
        report = group_rationality(G)
        assert report.is_rational == is_rational_bruteforce(G), label
        assert report.is_semirational == is_semirational_bruteforce(G), label
        assert report.is_cut == is_cut_by_classes(G), label
        fields = Counter((r.field_degree, r.field_imaginary) for r in report.class_reports)
        assert fields == class_fields(G), label
        assert report.qg_degree == qg_degree_bruteforce(G), label

    def test_definition_oracles_match_on_bundled_groups(self):
        checked = 0
        for record in parse_corpus(bundled_corpus_path()):
            if record.group.order() <= 400:
                self.assert_matches_definitions(record.group, record.id)
                checked += 1
        assert checked == 169

    # at most 5 moved points: the oracles conjugate with every element, so
    # a group of 7! elements would take about a minute
    # D10 pinned: its order-5 classes are real with a field of degree 2, so
    # not inverse semi-rational, and random draws miss such a class in
    # about half the runs
    @settings(max_examples=100, deadline=None)
    @given(small_closure_generators(moved=5))
    @example(list(dihedral(5).generators))
    def test_definition_oracles_match_on_random_groups(self, gens):
        G = PermGroup(gens[0].degree, gens)
        self.assert_matches_definitions(G, gens)


class TestQgDegree:
    def test_s3_rational(self):
        assert qg_degree(symmetric(3)) == 1

    def test_c3(self):
        assert qg_degree(cyclic(3)) == 2

    def test_c5(self):
        assert qg_degree(cyclic(5)) == 4

    @pytest.mark.parametrize(
        "G", [cyclic(7), cyclic(12), symmetric(4), dicyclic(3), alternating(5)],
        ids=["C7", "C12", "S4", "Dic3", "A5"],
    )
    def test_degree_divides_totient_of_exponent(self, G):
        n = exponent(G)
        assert len(residues_coprime(n)) % qg_degree(G) == 0

    def test_degree_one_iff_rational(self):
        for G in [symmetric(4), cyclic(6), dicyclic(2), alternating(4)]:
            assert (qg_degree(G) == 1) == group_rationality(G).is_rational


class TestQgDegreeAlternating:
    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 2), (6, 2), (7, 2)])
    def test_small_degrees(self, n, expected):
        assert qg_degree_alternating(n) == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_enumeration(self, n):
        assert qg_degree_alternating(n) == qg_degree(alternating(n))

    def test_growth_witness_by_twelve(self):
        assert any(qg_degree_alternating(n) >= 4 for n in range(4, 13))

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            qg_degree_alternating(15)
        with pytest.raises(BoundExceeded):
            qg_degree_alternating(2)


class TestAbelianClassification:
    def test_exponent_criterion_sample(self):
        cases = {
            (2, 2): True, (4,): True, (6,): True, (2, 4): True, (3, 6): True,
            (8,): False, (5,): False, (2, 10): False, (9,): False, (12,): False,
        }
        for factors, expected in cases.items():
            G = abelian(list(factors))
            e = exponent(G)
            assert (e in {1, 2, 3, 4, 6}) == expected
            assert group_rationality(G).is_cut == expected


class TestSylow3Check:
    def test_s3_passes(self):
        assert CHECKS["sylow3"](Analysis(symmetric(3))).status == PASS

    def test_c5_skipped(self):
        r = CHECKS["sylow3"](Analysis(cyclic(5)))
        assert r.status == SKIP

    def test_three_prime_group_passes_trivially(self):
        # cut group with no 3-part: the trivial Sylow 3-subgroup is cut
        assert CHECKS["sylow3"](Analysis(cyclic(4))).status == PASS


class TestLemma61Check:
    def test_vacuous_without_three_elements(self):
        r = CHECKS["lemma61"](Analysis(cyclic(4)))
        assert r.status == PASS and "vacuous" in r.detail

    def test_s3(self):
        assert CHECKS["lemma61"](Analysis(symmetric(3))).status == PASS

    @pytest.mark.parametrize(
        "G", [symmetric(4), dicyclic(3), alternating(4), sylnorm(3),
              direct_product(symmetric(3), symmetric(3)), alternating(5)],
        ids=["S4", "Dic3", "A4", "F6", "S3xS3", "A5"],
    )
    def test_theorem_holds(self, G):
        assert CHECKS["lemma61"](Analysis(G)).status == PASS


    def test_members_of_one_class_differ_in_p(self):
        # C9^3 : A4, V4 acting by even sign changes and the 3-cycle by
        # shifting the coordinates.  x = (1, 4, 7) is inverse semi-rational
        # in P (shifting multiplies it by 4); its conjugate (8, 5, 7) lies in
        # every Sylow 3-subgroup but is no eigenvector of the shift, so it is
        # not.  lemma61 asks for some member of the class, not all.
        def perm(f):
            return Permutation([9 * f(b, i)[0] + f(b, i)[1] % 9
                                for b in range(3) for i in range(9)])

        t = perm(lambda b, i: (b, i + 1 if b == 0 else i))
        e = perm(lambda b, i: (b, -i if b < 2 else i))
        s = perm(lambda b, i: ((b + 1) % 3, i))
        G = PermGroup(27, [t, e, s])
        assert G.order() == 9 ** 3 * 12
        a = Analysis(G)
        sub = a.sylow_analysis(3)
        verdicts = {}
        for rep, r in zip(sub.table.reps, sub.classes):
            c = a.table.class_index(rep)
            verdicts.setdefault(c, set()).add(r.is_inverse_semirational)
        assert any(v == {True, False} for v in verdicts.values())
        assert CHECKS["lemma61"](a).status == PASS

    def test_fail_names_the_class_of_g(self):
        # flip the Sylow verdicts: the FAIL names the first 3-element class
        # of G in G's class order
        G = direct_product(symmetric(3), symmetric(3))
        a = Analysis(G)
        sub = a.sylow_analysis(3)
        sub.facts[("classes",)] = [
            replace(r, is_inverse_semirational=not r.is_inverse_semirational)
            for r in sub.classes
        ]
        first = next(c for c, o in enumerate(a.table.rep_orders) if o == 3)
        r = CHECKS["lemma61"](a)
        assert r.status == FAIL
        assert r.detail == (
            f"class of {a.table.reps[first]}: inverse semi-rational in G is"
            " True but False in the Sylow 3-subgroup"
        )


def class_conjugators(G, rep):
    """Map each member y of rep's class to a conjugator u with rep ** u = y:
    the search lemma61 made to find a member of a class inside the Sylow
    subgroup before it read that off the class table."""
    gens = [(invert_images(g.images), g.images) for g in G.generators]
    conjugator = {rep.images: tuple(range(G.degree))}
    members = [rep.images]
    for y in members:  # the breadth-first queue
        u = conjugator[y]
        for g_inv, g in gens:
            z = then_images(then_images(g_inv, y), g)
            if z not in conjugator:
                conjugator[z] = then_images(u, g)
                members.append(z)
    return {y: Permutation._trusted(u) for y, u in conjugator.items()}


class TestClassConjugators:
    def test_conjugator_words_valid(self):
        G = symmetric(4)
        T = conjugacy_classes(G)
        for rep in T.reps:
            for images, u in class_conjugators(G, rep).items():
                assert rep.conjugate_by(u).images == images

    def test_bundled_members_agree_with_the_class_of_walk(self):
        # lemma61 maps every class of P into G through class_index and asks
        # whether some member is inverse semi-rational in P; on the bundled
        # groups the member the conjugator search finds first agrees
        checked = 0
        for record in parse_corpus(bundled_corpus_path()):
            a = Analysis(record.group)
            table = a.table
            sub = a.sylow_analysis(3)
            walk = {}
            for rep, r in zip(sub.table.reps, sub.classes):
                c = table.class_index(rep)
                walk[c] = walk.get(c, False) or r.is_inverse_semirational
            for c, o in enumerate(table.rep_orders):
                if o == 1 or p_part(o, 3) != o:
                    continue
                member = next(
                    w for w in map(a.G.encoding.encode, class_conjugators(a.G, table.reps[c]))
                    if w in sub.table.index
                )
                verdict = sub.classes[sub.table.index[member]].is_inverse_semirational
                assert walk[c] == verdict, (record.id, c)
                checked += 1
        assert checked > 100


class TestConjectureSuite:
    def test_c7_everything_skipped(self):
        results = conjecture_suite(cyclic(7))
        assert set(results) == {"bmp", "tent", "gow_primes", "cut_primes",
                                "hegedus", "ppe", "q3"}
        assert all(r.status == SKIP for r in results.values())

    def test_f20_cut_not_rational(self):
        # the Frobenius group of order 20 is cut but its order-4 classes carry
        # an imaginary quadratic field, so it is not rational
        rep = group_rationality(sylnorm(5))
        assert rep.is_cut and not rep.is_rational and rep.qg_degree == 2

    def test_f20_q3_passes_hegedus_skips(self):
        results = conjecture_suite(sylnorm(5))
        assert results["q3"].status == PASS
        assert results["hegedus"].status == SKIP  # F20 is not rational

    def test_hegedus_runs_on_solvable_rational(self):
        # S4 is solvable and rational; its trivial Sylow 5-subgroup passes
        results = conjecture_suite(symmetric(4))
        assert results["hegedus"].status == PASS
        assert results["gow_primes"].status == PASS

    def test_s4(self):
        results = conjecture_suite(symmetric(4))
        assert results["bmp"].status == PASS
        assert results["tent"].status == PASS

    def test_no_failures_on_classical_families(self):
        for G in [symmetric(3), symmetric(4), dicyclic(2), dicyclic(3),
                  cyclic(6), sylnorm(5), sylnorm(7), alternating(4)]:
            for name, r in conjecture_suite(G).items():
                assert r.status != FAIL, (name, r.detail)


def test_each_fact_is_computed_once(monkeypatch):
    # S4 is solvable and rational, so hegedus, ppe, q3, sylow3 and lemma61
    # all get past their hypotheses and ask for Sylow subgroups and p-cores
    G = symmetric(4)
    sylow_calls = []
    table_groups = []
    trivial_degrees = []
    real_sylow = rationality._sylow
    real_classes = rationality.conjugacy_classes
    real_trivial = rationality.trivial_group

    def counting_sylow(table, p):
        sylow_calls.append((table.group, p))
        return real_sylow(table, p)

    def counting_trivial(degree):
        trivial_degrees.append(degree)
        return real_trivial(degree)

    def counting_classes(H, cap):
        table_groups.append(H)
        return real_classes(H, cap)

    monkeypatch.setattr(rationality, "_sylow", counting_sylow)
    monkeypatch.setattr(rationality, "conjugacy_classes", counting_classes)
    monkeypatch.setattr(rationality, "trivial_group", counting_trivial)
    report = group_rationality(G, DEFAULT_CAP, tuple(CHECKS))

    assert list(report.check_results) == list(CHECKS)
    assert all(r.status != SKIP for r in report.check_results.values())
    assert all(H is G for H, _ in sylow_calls)
    # 5 and 7 do not divide 24: one trivial Sylow each, with no scan
    assert sorted(p for _, p in sylow_calls) == [3]
    assert trivial_degrees == [4, 4]
    assert sum(H is G for H in table_groups) == 1


def test_a_full_run_keeps_each_fact_under_one_key():
    a = Analysis(symmetric(4))
    a.report
    a.run(tuple(CHECKS))
    per_group = {("table",), ("classes",), ("qg_degree",), ("report",)}
    per_prime = {("sylow", 3), ("sylow", 5), ("sylow", 7), ("sylow_analysis", 3),
                 ("core", 5), ("core", 7)}
    assert set(a.facts) == per_group | per_prime
    assert set(a.sylow_analysis(3).facts) == per_group
    facts = dict(a.facts)
    a.run(tuple(CHECKS))
    assert a.facts.keys() == facts.keys()
    assert all(a.facts[key] is fact for key, fact in facts.items())


@pytest.mark.parametrize("p", [0, 1, 4, 6, -3])
@pytest.mark.parametrize("fact", ["sylow", "sylow_analysis", "p_core"])
def test_analysis_rejects_a_p_that_is_not_prime(fact, p):
    # unchecked, p = 4 gives S4 a "Sylow" subgroup of order 4, p = 0 divides
    # by zero and p = 1 never ends the p-part loop
    with pytest.raises(BadParam, match=f"p must be prime, got {p}$"):
        getattr(Analysis(symmetric(4)), fact)(p)


@pytest.mark.parametrize("fact", ["sylow", "sylow_analysis", "p_core"])
def test_analysis_shows_a_huge_p_short(fact):
    a = Analysis(symmetric(4))
    with pytest.raises(BadParam, match=r"p must be prime, got -<5001 digits>$"):
        getattr(a, fact)(-10 ** 5000)
    assert a.facts == {}


@pytest.mark.parametrize("G", [symmetric(4), cyclic(12)], ids=["S4", "C12"])
def test_classification_does_no_power_work_after_the_table(G, monkeypatch):
    analysis = Analysis(G)
    table = analysis.table

    def no_power(p, k):
        raise AssertionError("perm.power called after the class table was built")

    monkeypatch.setattr(perm, "power", no_power)
    assert [classify_class(table, c) for c in range(len(table))]
    assert analysis.qg_degree >= 1


@st.composite
def random_small_groups(draw):
    """1-3 random generators of degree 2-7."""
    n = draw(st.integers(2, 7))
    gens = draw(st.lists(st.permutations(list(range(n))), min_size=1, max_size=3))
    return PermGroup(n, [Permutation(g) for g in gens])


def classes_per_class(analysis):
    """Oracle for Analysis.classes: classify_class on every class."""
    table = analysis.table
    return [classify_class(table, c) for c in range(len(table))]


class TestClassesPerGaloisOrbit:
    """Analysis.classes classifies one class per Galois orbit and gives the
    other classes of the orbit its verdicts; classify_class on every class
    is the oracle."""

    def test_bundled_groups_and_their_sylow_subgroups(self):
        checked = 0
        for r in parse_corpus(bundled_corpus_path()):
            a = Analysis(r.group)
            for analysis in (a, a.sylow_analysis(2), a.sylow_analysis(3)):
                assert analysis.classes == classes_per_class(analysis), r.id
                checked += 1
        assert checked == 3 * 172

    @settings(max_examples=80, deadline=None)
    @given(random_small_groups())
    def test_random_groups(self, G):
        analysis = Analysis(G)
        assert analysis.classes == classes_per_class(analysis)

    def test_one_classification_per_orbit(self, monkeypatch):
        # C12 has 12 classes in 6 orbits, one per element order
        calls = []
        real = rationality.classify_class

        def counting(table, c):
            calls.append(c)
            return real(table, c)

        monkeypatch.setattr(rationality, "classify_class", counting)
        classes = Analysis(cyclic(12)).classes
        assert len(classes) == 12
        assert len(calls) == len({r.element_order for r in classes}) == 6

    @pytest.mark.parametrize(
        "G",
        [pytest.param(symmetric(8), id="S8"), pytest.param(alternating(8), id="A8")]
        + [pytest.param(r.group, id=r.id) for r in parse_corpus(bundled_corpus_path())],
    )
    def test_an_orbit_shares_one_verdict_and_reports_number_classes(self, G):
        analysis = Analysis(G)
        table, classes = analysis.table, analysis.classes
        orbits = {
            frozenset(row[k % o] for k in residues_coprime(o))
            for row, o in zip(table.power_map, table.rep_orders)
        }
        for orbit in orbits:
            leader = classes[min(orbit)]
            assert all(classes[d] is leader for d in orbit)
        assert len({id(r) for r in classes}) == len(orbits)
        report = analysis.report.as_dict()["classes"]
        for c, r in enumerate(classes):
            assert report[c] == {"class_index": c, **r.as_dict()}


# Oracles for the field-degree kernel: the two exponent-wide loops it
# replaced, over every unit mod the exponent.
def qg_degree_exponent_wide(G):
    table = conjugacy_classes(G)
    units = residues_coprime(math.lcm(*table.rep_orders))
    fixed = [
        k
        for k in units
        if all(
            table.power_map[c][k % table.rep_orders[c]] == c for c in range(len(table))
        )
    ]
    return len(units) // len(fixed)


def qg_degree_alternating_exponent_wide(n):
    descriptors = alternating_classes(n)
    exp = 1
    for d in descriptors:
        exp = math.lcm(exp, d.rep_order)
    split_stabs = []
    for d in descriptors:
        if not d.splits:
            continue
        o = d.rep_order
        stab = {
            j for j in residues_coprime(o) if alternating_power_conjugate(d, j)
        }
        split_stabs.append((o, stab))
    units = residues_coprime(exp)
    fixed = [
        k
        for k in units
        if all(((k % o) or o) in stab for o, stab in split_stabs)
    ]
    return len(units) // len(fixed)


class TestFieldDegreeKernel:
    @pytest.mark.parametrize("n", range(3, 15))
    def test_alternating_matches_exponent_wide(self, n):
        assert qg_degree_alternating(n) == qg_degree_alternating_exponent_wide(n)

    def test_bundled_groups_match_exponent_wide(self):
        records = [
            r for r in parse_corpus(bundled_corpus_path()) if r.group.order() <= 2000
        ]
        assert len(records) > 100
        for r in records:
            assert qg_degree(r.group) == qg_degree_exponent_wide(r.group), r.id

    @settings(max_examples=60, deadline=None)
    @given(random_small_groups())
    def test_random_groups_match_exponent_wide(self, G):
        assert qg_degree(G) == qg_degree_exponent_wide(G)

    def test_trivial_group(self):
        from cutgroups.group import trivial_group

        assert _field_degree([]) == 1
        assert _field_degree([(1, (1,))]) == 1
        assert qg_degree(trivial_group(1)) == 1

    def test_all_classes_rational(self):
        classes = Analysis(symmetric(5)).classes
        assert all(r.is_rational for r in classes)
        assert _field_degree((r.element_order, r.stabilizer) for r in classes) == 1

    def test_one_condition(self):
        # C_61: every non-identity class is fixed only by k = 1 mod 61
        assert _field_degree([(61, (1,))]) == 60
        assert qg_degree(cyclic(61)) == 60

    def test_q8(self):
        assert qg_degree(dicyclic(2)) == 1
        assert qg_degree_exponent_wide(dicyclic(2)) == 1

    @pytest.mark.parametrize("n", range(3, 15))
    def test_alternating_pairs_match_the_all_units_count(self, n):
        """Every class of A_n, split or not, with its units k that send the
        rep's class to itself: the narrowed count equals the count that
        tests every unit against every condition."""
        pairs = []
        for d in alternating_classes(n):
            o = d.rep_order
            pairs.append(
                (o, [k for k in rationality._units(o) if alternating_power_conjugate(d, k)])
            )
        assert _field_degree(pairs) == field_degree(pairs)
        split = [(o, stab) for (o, stab), d in zip(pairs, alternating_classes(n)) if d.splits]
        assert _field_degree(split) == field_degree(split)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.integers(1, 30).flatmap(
                lambda o: st.tuples(
                    st.just(o),
                    st.sets(st.sampled_from(rationality._units(o))).map(
                        lambda stab: sorted(stab | {1})
                    ),
                )
            ),
            max_size=3,
        )
    )
    def test_random_pairs_match_the_all_units_count(self, pairs):
        assert _field_degree(pairs) == field_degree(pairs)

    def test_duplicate_pairs(self):
        once = [(5, (1, 4)), (3, (1,))]
        assert _field_degree(once) == 4
        assert _field_degree(once + [(5, [4, 1]), (3, {1}), (5, (1, 4))]) == 4

    def test_alternating_keeps_units_out_of_the_cache(self):
        # the units of the split classes' orders are cached, those of their
        # lcm are not; cleared first, so that an earlier test cannot have
        # cached any
        rationality._units.cache_clear()
        assert qg_degree_alternating(14) == qg_degree_alternating_exponent_wide(14)
        orders = {d.rep_order for d in alternating_classes(14) if d.splits}
        assert math.lcm(*orders) not in orders
        assert rationality._units.cache_info().currsize == len(orders)


class TestAnalysisMemory:
    def test_group_rationality_of_s8(self):
        # the closure's 40320 elements and its index dict dominate the peak:
        # as image tuples it is 10.3 MiB, as 8-byte words about 8.1 MiB,
        # with a position int per element and right Cayley columns about
        # 6.1 MiB, and as one dict of words whose values the sweep sets to
        # each element's class about 3.2 MiB
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            assert group_rationality(symmetric(8)).is_rational
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 4.5 * 2 ** 20
