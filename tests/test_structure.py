import functools
import gc
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_oracle import tuple_power_map
from oracles import (
    are_conjugate,
    cycle_type,
    exponent,
    is_prime_by_trial_division,
)
from cutgroups.corpus import bundled_corpus_path, parse_corpus
from cutgroups.errors import BadParam, CapExceeded
from cutgroups.group import DEFAULT_CAP, PermGroup, trivial_group
from cutgroups.perm import (
    Permutation,
    commutator,
    compose,
    invert_images,
    parse_permutation,
    then_images,
)
from cutgroups import structure
from cutgroups.rationality import Analysis, p_core, sylow
from cutgroups.structure import (
    PRIME_BOUND,
    ClassTable,
    abelianization_exponent_divides,
    conjugacy_classes,
    derived_subgroup,
    is_elementary_abelian,
    is_prime,
    is_solvable,
    p_part,
    prime_divisors,
)
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


def bundled_group(record_id):
    record = next(r for r in parse_corpus(bundled_corpus_path()) if r.id == record_id)
    return record.group


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


def tuple_sweep_classes(G: PermGroup, cap: int = DEFAULT_CAP) -> ClassTable:
    """Oracle for conjugacy_classes: the sweep it replaced, which conjugates
    image tuples with two then_images gathers per element and generator."""
    order = G.order()
    if order > cap:
        raise CapExceeded(order, cap)
    gens = [(invert_images(g.images), g.images) for g in G.generators]
    class_of: dict[tuple[int, ...], int] = {}
    reps: list[Permutation] = []
    sizes: list[int] = []
    for x in G.elements(cap):
        if x.images in class_of:
            continue
        idx = len(reps)
        class_of[x.images] = idx
        members = [x.images]
        for y in members:  # grows while it is walked: the breadth-first queue
            for g_inv, g in gens:
                z = then_images(then_images(g_inv, y), g)
                if z not in class_of:
                    class_of[z] = idx
                    members.append(z)
        reps.append(x)
        sizes.append(len(members))
    encode = G.encoding.encode
    return ClassTable(G, reps, sizes, {encode(t): c for t, c in class_of.items()})


def class_map(T: ClassTable) -> dict[tuple[int, ...], int]:
    """The class of every element of T's group, keyed by image tuple."""
    decode = T.group.encoding.decode
    return {decode(w): c for w, c in T.index.items()}


@st.composite
def random_groups_with_degree_one(draw):
    """1-3 random generators of degree 1-7, identity generators included, so
    the trivial group and degree 1 come up."""
    n = draw(st.integers(1, 7))
    perm = st.one_of(st.permutations(list(range(n))), st.just(list(range(n))))
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    return PermGroup(n, [Permutation(g) for g in gens])


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


class TestIsPrime:
    def test_matches_trial_division_below_200000(self):
        assert [n for n in range(-2, 200000) if is_prime(n)] == [
            n for n in range(-2, 200000) if is_prime_by_trial_division(n)
        ]

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_to_the_first_bases(self, n):
        # strong pseudoprimes to 2, 3, 5, 7 and to 2, ..., 23 respectively
        assert not is_prime(n) and not is_prime_by_trial_division(n)

    def test_large_primes(self):
        for n in [10 ** 16 + 61, 2 ** 61 - 1, 2 ** 31 - 1]:
            assert is_prime(n)
        assert not is_prime(100000007 * 100000037)

    def test_the_bound_is_a_composite_passing_every_base(self):
        # so is_prime is exact below it, and its callers refuse from it on
        assert PRIME_BOUND == 399165290221 * 798330580441
        assert is_prime(PRIME_BOUND)


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
            members[T.class_index(e)].append(e)
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
                assert T.class_index(rep.conjugate_by(g)) == c

    def test_cap(self):
        with pytest.raises(CapExceeded):
            conjugacy_classes(symmetric(6), cap=100)


class TestIndexSweepAgainstTupleSweep:
    """conjugacy_classes sweeps the words of the group's encoding; the tuple
    sweep it replaced is the oracle, and reps, sizes and the class of every
    element must agree exactly."""

    @staticmethod
    def assert_same_table(G):
        T = conjugacy_classes(G)
        oracle = tuple_sweep_classes(G)
        assert T.reps == oracle.reps
        assert T.sizes == oracle.sizes
        assert class_map(T) == class_map(oracle)
        # the index maps every element to its class: each class c is the
        # value of exactly sizes[c] words
        assert Counter(T.index.values()) == dict(enumerate(T.sizes))

    @settings(max_examples=80, deadline=None)
    @given(random_groups_with_degree_one())
    def test_random_groups(self, G):
        self.assert_same_table(G)

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_trivial_group(self, degree):
        self.assert_same_table(trivial_group(degree))

    def test_index_holds_exactly_the_members(self):
        G = alternating(4)
        T = conjugacy_classes(G)
        members = [e.images for e in G.elements()]
        assert list(map(G.encoding.decode, T.index)) == members and len(T.index) == 12
        odd = parse_permutation("(1 2)", 4)
        assert G.encoding.encode(odd.images) not in T.index
        with pytest.raises(ValueError, match="not a member"):
            T.class_index(odd)

    def test_query_above_a_byte_is_not_a_member(self):
        T = conjugacy_classes(alternating(4))
        with pytest.raises(ValueError, match="not a member"):
            T.class_index(Permutation.identity(300))

    def test_bundled_groups(self):
        records = [
            r for r in parse_corpus(bundled_corpus_path()) if r.group.order() <= 2000
        ]
        assert len(records) > 100
        for r in records:
            self.assert_same_table(r.group)

    @pytest.mark.parametrize("G", [symmetric(8), alternating(8)], ids=["S8", "A8"])
    def test_near_cap_groups(self, G):
        self.assert_same_table(G)

    def test_group_above_a_byte(self):
        # C5 x C5 on 300 points: words are image tuples, conjugated by
        # then_images with inverses from invert_images
        a = Permutation([*range(1, 5), 0, *range(5, 300)])
        b = Permutation([*range(295), *range(296, 300), 295])
        G = PermGroup(300, [a, b])
        assert G.order() == 25 and type(G.encoding.identity) is tuple
        self.assert_same_table(G)

    def test_table_of_s8_retains_one_dict(self):
        # the word -> class dict, reps and power map retain about 2.8 MiB;
        # a position int per element beside a list of the class of each
        # position would add about 1.5 MiB, over the bound
        G = symmetric(8)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            T = conjugacy_classes(G)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(T.index) == 40320
        assert retained < 3.5 * 2 ** 20

    def test_sweep_of_s8_peaks_near_its_table(self):
        # the table retains about 2.8 MiB and peaks at about 3.2 MiB, inside
        # the closure (its queue and the dict's last resize), not the sweep;
        # right Cayley columns, a tree, one conjugation action per generator
        # and a position int per element peaked at about 6.1 MiB
        G = symmetric(8)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T = conjugacy_classes(G)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(T.index) == 40320
        assert peak < 4.0 * 2 ** 20


class TestPowerMapAgainstTupleWalk:
    """The power map walks words by ``bytes.translate``; the walk on image
    tuples it replaced, kept in tests/closure_oracle.py, is the oracle."""

    @pytest.mark.parametrize("G", [symmetric(8), alternating(8)], ids=["S8", "A8"])
    def test_near_cap_groups(self, G):
        T = conjugacy_classes(G)
        assert (T.power_map, T.rep_orders) == tuple_power_map(T)

    def test_bundled_groups(self):
        records = parse_corpus(bundled_corpus_path())
        groups = [r.group for r in records if r.group.order() <= 2000]
        assert len(groups) > 100
        for G in groups:
            T = conjugacy_classes(G)
            assert (T.power_map, T.rep_orders) == tuple_power_map(T), G


class TestPermutationsHoldTuples:
    """Every Permutation made from a closure word holds an image tuple: one
    holding bytes never equals its tuple twin, so an order loop on it would
    never end."""

    @staticmethod
    def made_from_words(G):
        a = Analysis(G)
        made = list(a.table.reps) + G.elements()
        for p in prime_divisors(G.order()):
            P = a.sylow(p)
            made += P.generators
            made += p_core(G, p).generators
        return made

    @pytest.mark.parametrize("G", [symmetric(8), alternating(8)], ids=["S8", "A8"])
    def test_near_cap_groups(self, G):
        assert all(type(x.images) is tuple for x in self.made_from_words(G))

    def test_bundled_groups(self):
        for record in parse_corpus(bundled_corpus_path()):
            made = self.made_from_words(record.group)
            assert all(type(x.images) is tuple for x in made), record.id


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
            assert T.power_map[c][1 % T.rep_orders[c]] == c

    def test_action_law(self):
        T = conjugacy_classes(dicyclic(3))
        for c in range(len(T)):
            o = T.rep_orders[c]
            for k in range(1, o + 1):
                for j in range(1, o + 1):
                    if math.gcd(k * j, o) == 1:
                        d = T.power_map[c][k % o]
                        e = T.power_map[d][j % T.rep_orders[d]]
                        assert T.power_map[c][k * j % o] == e

    def test_c5_squares_move(self):
        T = conjugacy_classes(cyclic(5))
        gen_class = T.class_index(parse_permutation("(1 2 3 4 5)", 5))
        assert T.power_map[gen_class][2] != gen_class

    def test_negative_exponent(self):
        T = conjugacy_classes(cyclic(5))
        gen_class = T.class_index(parse_permutation("(1 2 3 4 5)", 5))
        assert T.power_map[gen_class][-1 % 5] == T.power_map[gen_class][4]

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
                assert T.power_map[c][k % o] == T.class_index(rep ** k), (c, k)


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


def normalizer(G, H, cap=DEFAULT_CAP):
    """N_G(H), generated by the whole filtered enumeration of G."""
    return PermGroup(G.degree, normalizer_members(G, H, cap))


class TestSubgroupsLieInTheGroup:
    """The Sylow subgroup, p-core and derived subgroup are subgroups of G
    with the shape their names promise, on random small groups."""

    @settings(max_examples=80, deadline=None)
    @given(random_groups_with_degree_one())
    def test_random_groups(self, G):
        order = G.order()
        for p in prime_divisors(order):
            P = sylow(G, p)
            assert P.order() == p_part(order, p)
            assert all(p_part(g.order(), p) == g.order() for g in P.generators)
            assert all(G.contains(g) for g in P.generators)
            core = p_core(G, p)
            assert all(P.contains(h) for h in core.generators)
            for g in G.generators:
                assert all(core.contains(h.conjugate_by(g)) for h in core.generators)
        D = derived_subgroup(G)
        assert all(G.contains(h) for h in D.generators)
        for g in G.generators:
            assert all(D.contains(h.conjugate_by(g)) for h in D.generators)


class TestNormalizer:
    def test_whole_group(self):
        G = symmetric(4)
        N = normalizer(G, G)
        assert N.order() == 24

    def test_sylow5_normalizer_in_s5(self):
        G = symmetric(5)
        P = sylow(G, 5)
        N = normalizer(G, P)
        assert N.order() == 20  # p(p-1) for p = 5
        # brute-force cross-check
        members = [g for g in G.elements()
                   if all(P.contains(h.conjugate_by(g)) for h in P.generators)]
        assert len(members) == 20

    def test_trivial_subgroup(self):
        G = symmetric(4)
        N = normalizer(G, trivial_group(4))
        assert N.order() == 24


class TestSylow:
    def test_p_not_dividing(self):
        assert sylow(cyclic(3), 2).order() == 1

    def test_p_not_dividing_builds_no_table(self):
        a = Analysis(symmetric(8))
        P = a.sylow(11)
        assert [g.images for g in P.generators] == [tuple(range(8))]
        assert ("table",) not in a.facts

    def test_s4_two_part(self):
        P = sylow(symmetric(4), 2)
        assert P.order() == 8

    def test_s3_three_part(self):
        P = sylow(symmetric(3), 3)
        assert P.order() == 3
        assert cycle_type(P.generators[0]) == (3,)

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
        for x in P.elements():
            o = x.order()
            assert p_part(o, p) == o

    def test_deterministic(self):
        a = sylow(symmetric(4), 2)
        # fresh group object, same generators: identical subgroup generators
        G2 = PermGroup(4, list(symmetric(4).generators))
        b = sylow(G2, 2)
        assert [g.images for g in a.generators] == [g.images for g in b.generators]


class TestSylowAgainstEagerScan:
    def test_bundled_groups_up_to_2000(self):
        # the generators feed the sylow3 FAIL text, so the lazy scan must
        # pick exactly the eager scan's elements
        checked = 0
        for record in parse_corpus(bundled_corpus_path()):
            G = record.group
            if G.order() > 2000:
                continue
            for p in prime_divisors(G.order()):
                expected = [g.images for g in eager_sylow_gens(G, p)]
                assert [g.images for g in sylow(G, p).generators] == expected, (record.id, p)
                checked += 1
        assert checked > 100


@pytest.mark.parametrize("subgroup", [sylow, p_core])
class TestSubgroupRefusals:
    """sylow and p_core refuse as Analysis does: a p that is not prime
    before any enumeration, then a group above the cap for every prime."""

    def test_non_prime_before_the_cap(self, subgroup):
        with pytest.raises(BadParam, match="p must be prime, got 4$"):
            subgroup(symmetric(6), 4, cap=100)

    def test_bound_before_the_cap(self, subgroup):
        with pytest.raises(BadParam, match=f"p must be below {PRIME_BOUND}, got <24 digits>$"):
            subgroup(symmetric(6), PRIME_BOUND, cap=100)

    def test_large_p_takes_no_trial_division(self, subgroup):
        # trial division took seconds on each of these, growing as sqrt p
        start = time.process_time()
        assert subgroup(symmetric(4), 10 ** 16 + 61).order() == 1
        with pytest.raises(BadParam, match="p must be prime, got 10000004400000259$"):
            subgroup(symmetric(4), 100000007 * 100000037)
        assert time.process_time() - start < 1

    @pytest.mark.parametrize("p", [2, 7], ids=["divides", "coprime"])
    def test_cap_for_every_prime(self, subgroup, p):
        with pytest.raises(CapExceeded):
            subgroup(symmetric(6), p, cap=100)


def conjugation_closed_core(G, P):
    """The image tuples of the intersection of the conjugates of P: the
    largest subset of P that conjugation by G's generators maps into
    itself, found by dropping members until none leaves."""
    core = {x.images for x in P.elements()}
    while True:
        kept = {
            t for t in core
            if all(Permutation(t).conjugate_by(g).images in core for g in G.generators)
        }
        if kept == core:
            return core
        core = kept


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
        assert {x.images for x in core.elements()} == expected

    def test_o3_s3(self):
        assert p_core(symmetric(3), 3).order() == 3

    def test_core_is_normal(self):
        G = dicyclic(6)
        core = p_core(G, 2)
        for x in core.generators:
            for g in G.generators:
                assert core.contains(x.conjugate_by(g))

    def test_bundled_cores_match_class_sums(self):
        # Analysis reads the order and exponent of O_p(G) off the classes of
        # G that lie wholly in P; the core group with its enumerated
        # exponent, and the intersection of P's conjugates, are the oracles
        pairs = 0
        for r in parse_corpus(bundled_corpus_path()):
            G = r.group
            analysis = Analysis(G)
            for p in prime_divisors(G.order()):
                core = p_core(G, p)
                expected = (core.order(), exponent(core))
                assert analysis.p_core(p) == expected, (r.id, p)
                members = conjugation_closed_core(G, sylow(G, p))
                orders = [Permutation(t).order() for t in members]
                assert (len(members), math.lcm(*orders)) == expected, (r.id, p)
                pairs += 1
        assert pairs == 302

    def test_core_inside_conjugate_sylows(self):
        G = symmetric(4)
        core = p_core(G, 2)
        P = sylow(G, 2)
        rng = random.Random(3)
        elems = G.elements()
        for _ in range(5):
            g = rng.choice(elems)
            conj_sylow = PermGroup(4, [h.conjugate_by(g) for h in P.generators])
            for x in core.generators:
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
        D = derived_subgroup(G)
        rng = random.Random(11)
        elems = G.elements()
        for _ in range(100):
            a, b = rng.choice(elems), rng.choice(elems)
            assert D.contains(commutator(a, b))


def derived_series_solvable(G):
    """Oracle for is_solvable: the derived series reaches the trivial group
    within log2 |G| steps, whatever the order's prime divisors."""
    current = G
    for _ in range(G.order().bit_length() + 1):
        order = current.order()
        if order == 1:
            return True
        D = derived_subgroup(current)
        if D.order() == order:
            return False
        current = D
    return current.order() == 1


def counting_derived_subgroup(monkeypatch):
    """The groups is_solvable asks structure.derived_subgroup for, in order."""
    calls = []
    real = structure.derived_subgroup

    def counting(H):
        calls.append(H)
        return real(H)

    monkeypatch.setattr(structure, "derived_subgroup", counting)
    return calls


class TestSolvable:
    def test_abelian(self):
        assert is_solvable(abelian([2, 6]))

    def test_s4_series(self):
        assert is_solvable(symmetric(4))
        # series really is 24 -> 12 -> 4 -> 1
        orders = [symmetric(4).order()]
        current = symmetric(4)
        while orders[-1] > 1:
            current = derived_subgroup(current)
            orders.append(current.order())
        assert orders == [24, 12, 4, 1]

    def test_a5_not_solvable(self):
        assert not is_solvable(alternating(5))
        assert derived_subgroup(alternating(5)).order() == 60  # perfect

    @pytest.mark.parametrize("G", [alternating(5), symmetric(5)], ids=["A5", "S5"])
    def test_three_primes_take_the_derived_series(self, G, monkeypatch):
        calls = counting_derived_subgroup(monkeypatch)
        assert not is_solvable(G)
        assert calls
        assert not derived_series_solvable(G)

    def test_solvable_with_three_primes(self, monkeypatch):
        # sylnorm(7) = C7 : C6 has order 42 = 2 * 3 * 7
        calls = counting_derived_subgroup(monkeypatch)
        assert is_solvable(sylnorm(7))
        assert calls

    @pytest.mark.parametrize("G", [
        trivial_group(3), cyclic(9), symmetric(4), sylnorm(5), heisenberg27(),
        iterated_wreath(2, 3),
    ], ids=["trivial", "C9", "S4", "sylnorm5", "heisenberg27", "C2wrC2wrC2"])
    def test_two_primes_are_solvable_by_order(self, G, monkeypatch):
        # Burnside's p^a q^b theorem: no derived subgroup is built
        calls = counting_derived_subgroup(monkeypatch)
        assert is_solvable(G)
        assert calls == []
        assert derived_series_solvable(G)

    def test_bundled_groups_match_derived_series(self):
        records = parse_corpus(bundled_corpus_path())
        assert len(records) == 172
        for r in records:
            assert is_solvable(r.group) == derived_series_solvable(r.group), r.id

    @settings(max_examples=100, deadline=None)
    @given(random_groups_with_degree_one())
    def test_random_groups_match_derived_series(self, G):
        assert is_solvable(G) == derived_series_solvable(G)


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


def enumerated_abelianization_exponent_divides(P, p, cap=DEFAULT_CAP):
    """Oracle for abelianization_exponent_divides: x**p in P' for every
    element x of P, over the whole enumeration."""
    D = derived_subgroup(P)
    return all(D.contains(x ** p) for x in P.elements(cap))


# the 3-groups whose random subgroups small_three_groups draws
THREE_GROUP_HOSTS = (
    lambda: iterated_wreath(3, 2),  # C3 wr C3, order 81
    lambda: abelian([9, 3, 3]),
    heisenberg27,
    lambda: wreath(cyclic(9), cyclic(3)),  # order 2187
)


@functools.cache
def three_group_host(i: int) -> PermGroup:
    return THREE_GROUP_HOSTS[i]()


@st.composite
def small_three_groups(draw):
    """The subgroup of a 3-group host generated by 1-3 of its elements."""
    host = three_group_host(draw(st.integers(0, len(THREE_GROUP_HOSTS) - 1)))
    elems = host.elements()
    picks = draw(st.lists(st.integers(0, len(elems) - 1), min_size=1, max_size=3))
    return PermGroup(host.degree, [elems[i] for i in picks])


class TestAbelianizationExponent:
    def test_exponent_p_abelian(self):
        assert abelianization_exponent_divides(cyclic(3), 3)

    def test_c9_fails(self):
        assert not abelianization_exponent_divides(cyclic(9), 3)

    def test_beyond_the_cap(self):
        # C3^11 has order 177,147: nothing is enumerated
        G = abelian([3] * 11)
        assert G.order() > DEFAULT_CAP
        assert abelianization_exponent_divides(G, 3)

    def test_bundled_sylow3_subgroups_match_enumeration(self):
        checked = 0
        for r in parse_corpus(bundled_corpus_path()):
            P = sylow(r.group, 3)
            expected = enumerated_abelianization_exponent_divides(P, 3)
            assert abelianization_exponent_divides(P, 3) == expected, r.id
            checked += 1
        assert checked == 172

    @settings(max_examples=80, deadline=None)
    @given(small_three_groups())
    def test_random_three_groups_match_enumeration(self, P):
        expected = enumerated_abelianization_exponent_divides(P, 3)
        assert abelianization_exponent_divides(P, 3) == expected

    def test_extraspecial_27(self):
        H = heisenberg27()
        assert H.order() == 27
        assert exponent(H) == 3
        assert abelianization_exponent_divides(H, 3)
        # brute-force: the derived subgroup has order 3 and every cube is trivial
        D = derived_subgroup(H)
        assert D.order() == 3
        assert all((x ** 3).is_identity() for x in H.elements())
