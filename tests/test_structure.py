import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgroups.corpus import bundled_corpus_path, parse_corpus
from cutgroups.errors import BadParam, CapExceeded
from cutgroups.group import PermGroup
from cutgroups.perm import Permutation, commutator, compose, parse_permutation
from cutgroups.structure import (
    Subgroup,
    abelianization_exponent_divides,
    are_conjugate,
    class_conjugators,
    conjugacy_classes,
    derived_subgroup,
    exponent,
    is_elementary_abelian,
    is_solvable,
    normalizer,
    p_core,
    p_part,
    prime_divisors,
    sylow,
)
from cutgroups.constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    sylnorm,
    symmetric,
)


def bundled_group(record_id):
    record = next(r for r in parse_corpus(bundled_corpus_path()) if r.id == record_id)
    return record.build_group()


def successive_product_rows(T):
    """Oracle for ClassTable.power_map: each class's row by successive
    compose products from the identity, o of them, with o read from the
    rep's cycles, as the table was built before rows were derived."""
    rows = []
    for rep in T.reps:
        x = Permutation.identity(rep.degree)
        row = []
        for _ in range(rep.order()):
            row.append(T.class_index(x))
            x = compose(x, rep)
        rows.append(row)
    return rows


@st.composite
def small_groups(draw):
    """A small family group, or 1-3 random generators of degree 2-6."""
    kind = draw(st.sampled_from(["cyclic", "dicyclic", "sylnorm", "random"]))
    if kind == "cyclic":
        return cyclic(draw(st.integers(1, 40)))
    if kind == "dicyclic":
        return dicyclic(draw(st.integers(2, 8)))
    if kind == "sylnorm":
        return sylnorm(draw(st.sampled_from([2, 3, 5, 7, 11, 13])))
    n = draw(st.integers(2, 6))
    gens = draw(st.lists(st.permutations(list(range(n))), min_size=1, max_size=3))
    return PermGroup(n, [Permutation(g) for g in gens])


def normalizer_members(G, H, cap):
    """Elements of G normalizing the PermGroup H, in G's enumeration order:
    the whole list, as the eager Sylow scan built it at every step."""
    return [
        g for g in G.elements(cap)
        if all(H.contains(h.conjugate_by(g)) for h in H.generators)
    ]


def eager_sylow_gens(G, p, cap=100_000):
    """Oracle for sylow's generators: normalizer growth where every step
    lists the whole normalizer of P, then adjoins the p-part of its first
    element whose p-part lies outside P."""
    target = p_part(G.order(), p)
    if target == 1:
        return [Permutation.identity(G.degree)]
    gens = []
    for x in G.elements(cap):
        o = x.order()
        if o % p == 0:
            gens.append(x ** (o // p_part(o, p)))
            break
    P = PermGroup(G.degree, gens)
    while P.order() < target:
        for y in normalizer_members(G, P, cap):
            o = y.order()
            z = y ** (o // p_part(o, p))
            if not z.is_identity() and not P.contains(z):
                gens.append(z)
                P = PermGroup(G.degree, gens)
                break
        else:
            raise AssertionError("normalizer growth stalled below the p-part")
    return gens


def brute_classes(G):
    """Independent class-partition oracle: conjugate by every element."""
    elems = G.elements()
    remaining = set(elems)
    classes = []
    while remaining:
        x = next(iter(remaining))
        cls = frozenset(x.conjugate_by(g) for g in elems)
        classes.append(cls)
        remaining -= cls
    return set(classes)


def brute_normal_closure(G, seed):
    """Subgroup generated by all conjugates of seed (enumeration-based)."""
    elems = G.elements()
    gens = sorted({seed.conjugate_by(g) for g in elems}, key=lambda p: p.images)
    return PermGroup(G.degree, gens)


def heisenberg27():
    """Extraspecial group of order 27 and exponent 3, via its regular action
    on triples over F_3 with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""
    triples = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {t: i for i, t in enumerate(triples)}

    def right_mult(g):
        return Permutation(
            [index[((t[0] + g[0]) % 3, (t[1] + g[1]) % 3, (t[2] + g[2] + t[0] * g[1]) % 3)]
             for t in triples]
        )

    return PermGroup(27, [right_mult((1, 0, 0)), right_mult((0, 1, 0))])


class TestHelpers:
    def test_p_part(self):
        assert p_part(24, 2) == 8
        assert p_part(24, 3) == 3
        assert p_part(25, 2) == 1

    def test_prime_divisors(self):
        assert prime_divisors(1) == []
        assert prime_divisors(360) == [2, 3, 5]


class TestConjugacyClasses:
    def test_abelian_all_singletons(self):
        T = conjugacy_classes(cyclic(6))
        assert T.sizes == [1] * 6

    def test_s3_class_sizes(self):
        T = conjugacy_classes(symmetric(3))
        assert T.sizes == [1, 3, 2]

    def test_q8_five_classes(self):
        T = conjugacy_classes(dicyclic(2))
        assert len(T) == 5
        assert len(brute_classes(dicyclic(2))) == 5

    @pytest.mark.parametrize(
        "G", [symmetric(4), dicyclic(3), dihedral(6), alternating(5)],
        ids=["S4", "Dic3", "D12", "A5"],
    )
    def test_partition_matches_brute_force(self, G):
        T = conjugacy_classes(G)
        mine = set()
        members = [[] for _ in T.reps]
        for e in G.elements():
            members[T.class_of[e.images]].append(e)
        for m in members:
            mine.add(frozenset(m))
        assert mine == brute_classes(G)

    def test_class_equation(self):
        for G in [symmetric(4), dicyclic(5), alternating(5)]:
            T = conjugacy_classes(G)
            assert sum(T.sizes) == G.order()
            assert all(G.order() % s == 0 for s in T.sizes)

    def test_identity_class_first(self):
        T = conjugacy_classes(symmetric(4))
        assert T.reps[0].is_identity()
        assert T.sizes[0] == 1

    def test_conjugation_closure(self):
        G = symmetric(4)
        T = conjugacy_classes(G)
        for c, rep in enumerate(T.reps):
            for g in G.generators:
                assert T.class_of[rep.conjugate_by(g).images] == c

    def test_cap(self):
        with pytest.raises(CapExceeded):
            conjugacy_classes(symmetric(6), cap=100)


class TestAreConjugate:
    def test_reflexive(self):
        G = symmetric(3)
        x = parse_permutation("(1 2 3)", 3)
        assert are_conjugate(G, x, x)

    def test_inverse_three_cycles_in_s3(self):
        G = symmetric(3)
        assert are_conjugate(G, parse_permutation("(1 2 3)", 3), parse_permutation("(1 3 2)", 3))

    def test_not_conjugate_in_abelian(self):
        A3 = alternating(3)
        assert not are_conjugate(A3, parse_permutation("(1 2 3)", 3), parse_permutation("(1 3 2)", 3))

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            are_conjugate(alternating(4), parse_permutation("(1 2)", 4),
                          parse_permutation("(1 2)", 4))


class TestPowerClass:
    def test_identity_exponent(self):
        T = conjugacy_classes(symmetric(4))
        for c in range(len(T)):
            assert T.power_class(c, 1) == c

    def test_action_law(self):
        T = conjugacy_classes(dicyclic(3))
        for c in range(len(T)):
            o = T.rep_orders[c]
            for k in range(1, o + 1):
                for j in range(1, o + 1):
                    if math.gcd(k * j, o) == 1:
                        assert T.power_class(c, k * j) == T.power_class(T.power_class(c, k), j)

    def test_c5_squares_move(self):
        T = conjugacy_classes(cyclic(5))
        gen_class = T.class_of[parse_permutation("(1 2 3 4 5)", 5).images]
        assert T.power_class(gen_class, 2) != gen_class

    def test_negative_exponent(self):
        T = conjugacy_classes(cyclic(5))
        gen_class = T.class_of[parse_permutation("(1 2 3 4 5)", 5).images]
        assert T.power_class(gen_class, -1) == T.power_class(gen_class, 4)

    @pytest.mark.parametrize(
        "build, n",
        [(cyclic, 61), (dicyclic, 3), (symmetric, 5), (alternating, 5)],
        ids=["cyclic-61", "dicyclic-3", "symmetric-5", "alternating-5"],
    )
    def test_matches_square_and_multiply(self, build, n):
        # the power map is built by successive products; perm.power
        # (square-and-multiply) is the independent oracle
        T = conjugacy_classes(build(n))
        for c, rep in enumerate(T.reps):
            o = T.rep_orders[c]
            for k in range(-o, 2 * o + 1):
                assert T.power_class(c, k) == T.class_index(rep ** k), (c, k)


class TestDerivedPowerRows:
    @settings(max_examples=80, deadline=None)
    @given(small_groups())
    def test_rows_match_successive_products(self, G):
        T = conjugacy_classes(G)
        assert T.power_map == successive_product_rows(T)
        assert T.rep_orders == [rep.order() for rep in T.reps]

    def test_bundled_wreath_sylnorm(self):
        T = conjugacy_classes(bundled_group("wreath-sylnorm-3-2"))
        assert T.power_map == successive_product_rows(T)
        assert T.rep_orders == [rep.order() for rep in T.reps]


class TestClassConjugators:
    def test_conjugator_words_valid(self):
        G = symmetric(4)
        T = conjugacy_classes(G)
        for rep in T.reps:
            for images, u in class_conjugators(G, rep).items():
                assert rep.conjugate_by(u).images == images


class TestNormalizer:
    def test_whole_group(self):
        G = symmetric(4)
        N = normalizer(G, Subgroup(G, list(G.generators)))
        assert N.order() == 24

    def test_sylow5_normalizer_in_s5(self):
        G = symmetric(5)
        P = sylow(G, 5)
        N = normalizer(G, P)
        assert N.order() == 20  # p(p-1) for p = 5
        # brute-force cross-check
        members = [g for g in G.elements()
                   if all(P.as_group.contains(h.conjugate_by(g)) for h in P.gens)]
        assert len(members) == 20

    def test_trivial_subgroup(self):
        G = symmetric(4)
        N = normalizer(G, Subgroup(G, []))
        assert N.order() == 24


class TestSylow:
    def test_p_not_dividing(self):
        assert sylow(cyclic(3), 2).order() == 1

    def test_s4_two_part(self):
        P = sylow(symmetric(4), 2)
        assert P.order() == 8

    def test_s3_three_part(self):
        P = sylow(symmetric(3), 3)
        assert P.order() == 3
        assert P.gens[0].cycle_type() == (3,)

    def test_non_prime_rejected(self):
        with pytest.raises(BadParam):
            sylow(symmetric(4), 4)

    @pytest.mark.parametrize("G,p", [
        (symmetric(4), 2), (symmetric(4), 3), (symmetric(5), 2),
        (dicyclic(3), 2), (dicyclic(6), 3), (alternating(5), 2), (alternating(5), 5),
    ], ids=["S4p2", "S4p3", "S5p2", "Dic3p2", "Dic6p3", "A5p2", "A5p5"])
    def test_order_is_exact_p_part(self, G, p):
        P = sylow(G, p)
        assert P.order() == p_part(G.order(), p)
        for x in P.as_group.elements():
            o = x.order()
            assert p_part(o, p) == o

    def test_deterministic(self):
        a = sylow(symmetric(4), 2)
        # fresh group object, same generators: identical subgroup generators
        G2 = PermGroup(4, list(symmetric(4).generators))
        b = sylow(G2, 2)
        assert [g.images for g in a.gens] == [g.images for g in b.gens]


class TestSylowAgainstEagerScan:
    def test_bundled_groups_up_to_2000(self):
        # the generators feed the sylow3 FAIL text, so the lazy scan must
        # pick exactly the eager scan's elements
        checked = 0
        for record in parse_corpus(bundled_corpus_path()):
            G = record.build_group()
            if G.order() > 2000:
                continue
            for p in prime_divisors(G.order()):
                expected = [g.images for g in eager_sylow_gens(G, p)]
                assert [g.images for g in sylow(G, p).gens] == expected, (record.id, p)
                checked += 1
        assert checked > 100


class TestPCore:
    def test_trivial_when_p_absent(self):
        assert p_core(cyclic(3), 2).order() == 1

    def test_o2_s4_is_klein(self):
        core = p_core(symmetric(4), 2)
        assert core.order() == 4
        # independent oracle: x in O_p iff the normal closure of x is a p-group
        G = symmetric(4)
        expected = {
            x.images for x in G.elements()
            if p_part(brute_normal_closure(G, x).order(), 2) == brute_normal_closure(G, x).order()
        }
        assert {x.images for x in core.as_group.elements()} == expected

    def test_o3_s3(self):
        assert p_core(symmetric(3), 3).order() == 3

    def test_core_is_normal(self):
        G = dicyclic(6)
        core = p_core(G, 2)
        for x in core.gens:
            for g in G.generators:
                assert core.as_group.contains(x.conjugate_by(g))

    def test_core_inside_conjugate_sylows(self):
        G = symmetric(4)
        core = p_core(G, 2)
        P = sylow(G, 2)
        rng = random.Random(3)
        elems = G.elements()
        for _ in range(5):
            g = rng.choice(elems)
            conj_sylow = PermGroup(4, [h.conjugate_by(g) for h in P.gens])
            for x in core.gens:
                assert conj_sylow.contains(x)


class TestDerived:
    def test_abelian_trivial(self):
        assert derived_subgroup(abelian([4, 2])).order() == 1

    def test_s3(self):
        D = derived_subgroup(symmetric(3))
        assert D.order() == 3

    def test_s4(self):
        D = derived_subgroup(symmetric(4))
        assert D.order() == 12
        # brute-force commutator closure oracle
        G = symmetric(4)
        elems = G.elements()
        comms = sorted({commutator(a, b).images for a in elems for b in elems})
        oracle = PermGroup(4, [Permutation(im) for im in comms if im != tuple(range(4))])
        assert oracle.order() == 12

    def test_contains_random_commutators(self):
        G = dicyclic(6)
        D = derived_subgroup(G).as_group
        rng = random.Random(11)
        elems = G.elements()
        for _ in range(100):
            a, b = rng.choice(elems), rng.choice(elems)
            assert D.contains(commutator(a, b))


class TestSolvable:
    def test_abelian(self):
        assert is_solvable(abelian([2, 6]))

    def test_s4_series(self):
        assert is_solvable(symmetric(4))
        # series really is 24 -> 12 -> 4 -> 1
        orders = [symmetric(4).order()]
        current = symmetric(4)
        while orders[-1] > 1:
            current = derived_subgroup(current).as_group
            orders.append(current.order())
        assert orders == [24, 12, 4, 1]

    def test_a5_not_solvable(self):
        assert not is_solvable(alternating(5))
        assert derived_subgroup(alternating(5)).order() == 60  # perfect


class TestExponent:
    def test_c4(self):
        assert exponent(cyclic(4)) == 4

    def test_s3(self):
        assert exponent(symmetric(3)) == 6

    def test_q8(self):
        assert exponent(dicyclic(2)) == 4

    @pytest.mark.parametrize("G", [symmetric(4), dicyclic(3), alternating(4)],
                             ids=["S4", "Dic3", "A4"])
    def test_exponent_is_minimal_global_exponent(self, G):
        e = exponent(G)
        elems = G.elements()
        assert all((x ** e).is_identity() for x in elems)
        for k in range(1, e):
            assert any(not (x ** k).is_identity() for x in elems)

    def test_divides_order_and_kills_random_elements(self):
        G = dicyclic(6)
        e = exponent(G)
        assert G.order() % e == 0
        rng = random.Random(5)
        elems = G.elements()
        for _ in range(100):
            assert (rng.choice(elems) ** e).is_identity()


class TestElementaryAbelian:
    def test_trivial(self):
        assert is_elementary_abelian(PermGroup(1, [Permutation.identity(1)]), 5)

    def test_klein(self):
        assert is_elementary_abelian(abelian([2, 2]), 2)

    def test_c4_fails(self):
        assert not is_elementary_abelian(cyclic(4), 2)

    def test_nonabelian_fails(self):
        assert not is_elementary_abelian(symmetric(3), 2)


class TestAbelianizationExponent:
    def test_exponent_p_abelian(self):
        assert abelianization_exponent_divides(cyclic(3), 3)

    def test_c9_fails(self):
        assert not abelianization_exponent_divides(cyclic(9), 3)

    def test_extraspecial_27(self):
        H = heisenberg27()
        assert H.order() == 27
        assert exponent(H) == 3
        assert abelianization_exponent_divides(H, 3)
        # brute-force: the derived subgroup has order 3 and every cube is trivial
        D = derived_subgroup(H)
        assert D.order() == 3
        assert all((x ** 3).is_identity() for x in H.elements())
