import random
import tracemalloc

import pytest

from oracles import exponent, is_cut_bruteforce
from test_structure import normalizer
from cutgroups import constructions
from cutgroups.errors import BadParam, DegreeTooLarge, brief
from cutgroups.group import MAX_DEGREE, trivial_group
from cutgroups.rationality import group_rationality
from cutgroups.rationality import sylow
from cutgroups.structure import is_solvable
from cutgroups.constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    iterated_wreath,
    parse_family_spec,
    sylnorm,
    symmetric,
    wreath,
)


class TestCyclic:
    def test_trivial(self):
        assert cyclic(1).order() == 1

    def test_c4_cut(self):
        G = cyclic(4)
        assert G.order() == 4 and group_rationality(G).is_cut

    def test_c5_not_cut(self):
        assert not group_rationality(cyclic(5)).is_cut

    def test_bad_param(self):
        with pytest.raises(BadParam):
            cyclic(0)

    def test_cut_exactly_for_small_exponents(self):
        cut_orders = {n for n in range(1, 31) if group_rationality(cyclic(n)).is_cut}
        assert cut_orders == {1, 2, 3, 4, 6}


class TestAbelian:
    def test_klein_cut(self):
        G = abelian([2, 2])
        assert G.order() == 4 and group_rationality(G).is_cut

    def test_c6_cut(self):
        assert group_rationality(abelian([6])).is_cut

    def test_c8_not_cut(self):
        assert not group_rationality(abelian([8])).is_cut

    def test_order_is_product(self):
        assert abelian([2, 4, 6]).order() == 48

    def test_empty_gives_trivial(self):
        assert abelian([]).order() == 1

    def test_bad_factor(self):
        with pytest.raises(BadParam):
            abelian([2, 1])


class TestDihedralDicyclic:
    def test_dihedral_orders(self):
        assert dihedral(4).order() == 8
        assert dihedral(12).order() == 24

    def test_dihedral_3_is_s3(self):
        G = dihedral(3)
        assert G.order() == 6
        a, b = G.generators
        assert a * b != b * a

    def test_dihedral_exponent(self):
        import math

        for n in range(3, 13):
            assert exponent(dihedral(n)) == math.lcm(2, n)

    def test_dihedral_bad_param(self):
        with pytest.raises(BadParam):
            dihedral(2)

    def test_q8(self):
        G = dicyclic(2)
        assert G.order() == 8
        assert group_rationality(G).is_rational

    def test_dicyclic_orders(self):
        for m in range(2, 8):
            assert dicyclic(m).order() == 4 * m

    def test_dicyclic_bad_param(self):
        with pytest.raises(BadParam):
            dicyclic(1)


class TestSymmetricAlternating:
    def test_s4(self):
        assert symmetric(4).order() == 24

    def test_a4(self):
        assert alternating(4).order() == 12

    def test_a3_is_c3(self):
        G = alternating(3)
        assert G.order() == 3

    def test_an_orders(self):
        import math

        for n in range(3, 8):
            assert alternating(n).order() == math.factorial(n) // 2

    def test_all_alternating_generators_even(self):
        for n in range(3, 9):
            for g in alternating(n).generators:
                assert g.is_even()


class TestDirectProduct:
    def test_identity_factor(self):
        G = direct_product(symmetric(3), trivial_group(1))
        assert G.order() == 6

    def test_c2_times_c3(self):
        G = direct_product(cyclic(2), cyclic(3))
        assert G.order() == 6
        a, b = G.generators
        assert a * b == b * a

    def test_s3_times_c4_cut(self):
        G = direct_product(symmetric(3), cyclic(4))
        assert G.order() == 24
        assert is_cut_bruteforce(G)

    def test_order_multiplies(self):
        assert direct_product(dicyclic(3), symmetric(4)).order() == 12 * 24


class TestWreath:
    def test_trivial_base(self):
        W = wreath(trivial_group(1), symmetric(3))
        assert W.order() == 6

    def test_c2_wr_c2(self):
        W = wreath(cyclic(2), cyclic(2))
        assert W.order() == 8
        assert exponent(W) == 4  # dihedral profile

    def test_degree(self):
        W = wreath(cyclic(3), symmetric(4))
        assert W.degree == 12

    def test_block_system_preserved(self):
        A, B = cyclic(3), symmetric(3)
        W = wreath(A, B)
        blocks = [frozenset(range(j * 3, (j + 1) * 3)) for j in range(3)]
        for g in W.generators:
            for block in blocks:
                assert frozenset(g.apply(i) for i in block) in blocks

    def test_order_law_fixed_cases(self):
        assert wreath(sylnorm(5), sylnorm(5)).order() == 20 ** 5 * 20
        assert wreath(cyclic(2), cyclic(3)).order() == 2 ** 3 * 3

    def test_order_law_random_pairs(self):
        rng = random.Random(20250808)
        pool = [cyclic(2), cyclic(3), cyclic(4), symmetric(3), dihedral(4),
                dicyclic(2), alternating(4)]
        for _ in range(5):
            A, B = rng.choice(pool), rng.choice(pool)
            assert wreath(A, B).order() == A.order() ** B.degree * B.order()

    def test_intransitive_top(self):
        # top group fixing a block still yields the full base power
        B = abelian([2, 2])  # degree 4, three orbits {0,1},{2},{3}... actually two blocks
        A = cyclic(2)
        W = wreath(A, B)
        assert W.order() == A.order() ** B.degree * B.order()


class TestSylnorm:
    @pytest.mark.parametrize("p,expected", [(3, 6), (5, 20), (7, 42), (11, 110), (13, 156)])
    def test_order_p_times_p_minus_one(self, p, expected):
        assert sylnorm(p).order() == expected

    def test_is_normalizer_of_sylow_in_symmetric(self):
        S5 = symmetric(5)
        P5 = sylow(S5, 5)
        N = normalizer(S5, P5)
        assert N.order() == sylnorm(5).order() == 20

    def test_solvable(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert is_solvable(sylnorm(p))

    def test_f20_f42_cut_by_brute_force(self):
        assert is_cut_bruteforce(sylnorm(5))
        assert is_cut_bruteforce(sylnorm(7))

    def test_non_prime_rejected(self):
        with pytest.raises(BadParam):
            sylnorm(4)

    def test_large_prime_rejected(self):
        with pytest.raises(BadParam):
            sylnorm(17)

    def test_huge_p_refused_by_the_bound_before_primality(self):
        # trial division up to the square root of this prime would not end
        with pytest.raises(BadParam, match=r"supports p <= 13, got <21 digits>"):
            sylnorm(10 ** 20 + 39)


class TestIteratedWreath:
    def test_depth_one(self):
        assert iterated_wreath(5, 1).order() == 20

    def test_depth_two_order_law(self):
        assert iterated_wreath(5, 2).order() == 20 ** 5 * 20

    def test_3_2_enumerable_and_cut(self):
        W = iterated_wreath(3, 2)
        assert W.order() == 1296
        assert W.degree == 9
        assert group_rationality(W).is_cut

    def test_bad_depth(self):
        with pytest.raises(BadParam):
            iterated_wreath(3, 0)

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLarge):
            iterated_wreath(7, 8)

    def test_degree_verdict_is_the_power_verdict(self, monkeypatch):
        # a spec that passes the degree bound goes on to sylnorm(p), which is
        # stubbed here so that no tower is built
        class PastTheBound(Exception):
            pass

        def past(p):
            raise PastTheBound

        monkeypatch.setattr(constructions, "sylnorm", past)
        for p in range(-3, 15):
            for k in range(1, 26):
                try:
                    iterated_wreath(p, k)
                except DegreeTooLarge as exc:
                    assert str(exc) == f"degree {p}**{k} exceeds {MAX_DEGREE}"
                    refused = True
                except PastTheBound:
                    refused = False
                assert refused == (p ** k > MAX_DEGREE), (p, k)

    @pytest.mark.parametrize("spec", [
        "wreath-sylnorm:13:3000000", "wreath-sylnorm:1000003:1000000",
    ])
    def test_large_depth_refused_without_the_power(self, spec):
        # the power itself takes megabytes: 13**3000000 is about 1.4 MiB
        tracemalloc.start()
        try:
            with pytest.raises(DegreeTooLarge, match=r"\*\*"):
                parse_family_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestFamilySpec:
    @pytest.mark.parametrize("spec,order", [
        ("cyclic:6", 6),
        ("abelian:2,2,3", 12),
        ("dihedral:12", 24),
        ("dicyclic:3", 12),
        ("symmetric:4", 24),
        ("alternating:5", 60),
        ("sylnorm:7", 42),
        ("wreath-sylnorm:3:2", 1296),
    ])
    def test_good_specs(self, spec, order):
        assert parse_family_spec(spec).order() == order

    @pytest.mark.parametrize("spec", [
        "nosuch:3", "cyclic", "cyclic:3:4", "cyclic:x", "sylnorm:4",
        "wreath-sylnorm:5", "dihedral:1",
    ])
    def test_bad_specs(self, spec):
        with pytest.raises(BadParam):
            parse_family_spec(spec)

    # one point over the bound (dicyclic acts on 4m points: the least m over);
    # raised before any permutation is built, so the order is never asked
    @pytest.mark.parametrize("spec", [
        f"cyclic:{MAX_DEGREE + 1}",
        f"abelian:2,{MAX_DEGREE - 1}",
        f"dihedral:{MAX_DEGREE + 1}",
        f"dicyclic:{MAX_DEGREE // 4 + 1}",
        f"symmetric:{MAX_DEGREE + 1}",
        f"alternating:{MAX_DEGREE + 1}",
    ])
    def test_degree_cap(self, spec):
        with pytest.raises(DegreeTooLarge):
            parse_family_spec(spec)


@pytest.mark.parametrize("k", [1, 2, 20, 21, 22, 100, 4300, 4301, 4400])
def test_brief_counts_digits_exactly(k):
    # 10**(k-1) and 10**k - 1 are the ends of the k-digit integers, where a
    # count read off log10 alone can be one off; str() refuses past 4300
    for n in (10 ** (k - 1), 10 ** k - 1):
        for signed in (n, -n):
            shown = brief(signed)
            if k <= 20:
                assert shown == str(signed)
            else:
                assert shown == f"{'-' if signed < 0 else ''}<{k} digits>"
