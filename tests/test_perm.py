import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgroups.errors import (
    DegreeMismatch,
    MalformedCycle,
    PointOutOfRange,
    RepeatedPoint,
)
from cutgroups.group import PermGroup
from cutgroups.perm import (
    Permutation,
    commutator,
    compose,
    format_permutation,
    parse_permutation,
    power,
)


def square_and_multiply(p, k):
    """Oracle for power: p**k by exponent reduction mod the element order,
    then repeated squaring."""
    k %= p.order()
    result = Permutation.identity(p.degree)
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def perm_strategy(max_degree=12):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation)
    )


class TestParse:
    def test_identity(self):
        p = parse_permutation("()", 3)
        assert p == Permutation.identity(3)

    def test_three_cycle(self):
        p = parse_permutation("(1 2 3)", 3)
        assert p.images == (1, 2, 0)

    def test_two_cycles(self):
        p = parse_permutation("(1 2)(3 4 5)", 5)
        assert p.order() == 6  # lcm of cycle lengths

    def test_unmentioned_points_fixed(self):
        p = parse_permutation("(2 3)", 5)
        assert p.apply(0) == 0 and p.apply(3) == 3 and p.apply(4) == 4

    @pytest.mark.parametrize("text", ["", "(1)", "(1 2", "1 2", "(1 x)", "()(1 2)", "(())"])
    def test_malformed(self, text):
        with pytest.raises(MalformedCycle):
            parse_permutation(text, 5)

    def test_point_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            parse_permutation("(1 9)", 3)
        with pytest.raises(PointOutOfRange):
            parse_permutation("(0 1)", 3)

    def test_repeated_point(self):
        with pytest.raises(RepeatedPoint):
            parse_permutation("(1 2)(2 3)", 3)
        with pytest.raises(RepeatedPoint):
            parse_permutation("(1 2 1)", 3)

    def test_points_checked_cycle_by_cycle(self):
        # from_cycles is the one check of points: the repeat in the second
        # cycle is met before the point out of range after it
        with pytest.raises(RepeatedPoint, match=r"^repeated point 1$"):
            parse_permutation("(1 2)(1 9)", 5)
        with pytest.raises(PointOutOfRange, match=r"^point 9 not in 1\.\.5$"):
            parse_permutation("(1 2)(9 1)", 5)


class TestFormat:
    def test_identity(self):
        assert format_permutation(Permutation.identity(4)) == "()"

    def test_single_cycle(self):
        assert format_permutation(Permutation((1, 2, 0))) == "(1 2 3)"

    def test_cycle_decomposition(self):
        # 1-based images [2,1,5,3,4]: 1<->2, 3->5->4->3
        p = Permutation((1, 0, 4, 2, 3))
        assert format_permutation(p) == "(1 2)(3 5 4)"

    @settings(max_examples=200)
    @given(perm_strategy())
    def test_round_trip(self, p):
        assert parse_permutation(format_permutation(p), p.degree) == p


class TestCompose:
    def test_identity_neutral(self):
        p = parse_permutation("(1 3 2)", 4)
        assert compose(p, Permutation.identity(4)) == p
        assert compose(Permutation.identity(4), p) == p

    def test_involution(self):
        t = parse_permutation("(1 2)", 2)
        assert compose(t, t).is_identity()

    def test_left_to_right_evaluation(self):
        # apply (1 2 3) first, then (1 2): 1->2->1, 2->3->3, 3->1->2
        p = parse_permutation("(1 2 3)", 3)
        q = parse_permutation("(1 2)", 3)
        assert format_permutation(compose(p, q)) == "(2 3)"
        for i in range(3):
            assert compose(p, q).apply(i) == q.apply(p.apply(i))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            compose(Permutation.identity(3), Permutation.identity(4))

    @settings(max_examples=100)
    @given(st.permutations(list(range(7))), st.permutations(list(range(7))),
           st.permutations(list(range(7))))
    def test_associative(self, a, b, c):
        p, q, r = Permutation(a), Permutation(b), Permutation(c)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestInversePower:
    def test_inverse_identity(self):
        assert Permutation.identity(3).inverse().is_identity()

    def test_inverse_three_cycle(self):
        p = parse_permutation("(1 2 3)", 3)
        assert format_permutation(p.inverse()) == "(1 3 2)"

    @settings(max_examples=100)
    @given(st.permutations(list(range(8))))
    def test_inverse_two_sided(self, images):
        p = Permutation(images)
        assert compose(p, p.inverse()).is_identity()
        assert compose(p.inverse(), p).is_identity()

    def test_power_zero(self):
        p = parse_permutation("(1 4)(2 3 5)", 5)
        assert power(p, 0).is_identity()

    def test_power_square(self):
        p = parse_permutation("(1 2 3)", 3)
        assert format_permutation(power(p, 2)) == "(1 3 2)"

    def test_power_negative_is_inverse(self):
        p = parse_permutation("(1 2 3 4)", 4)
        assert power(p, -1) == p.inverse()

    @settings(max_examples=100)
    @given(st.permutations(list(range(9))), st.integers(-50, 50))
    def test_power_periodic(self, images, k):
        p = Permutation(images)
        assert power(p, k + p.order()) == power(p, k)

    @settings(max_examples=200)
    @given(
        perm_strategy(),
        st.one_of(st.integers(-60, 60), st.integers(-(10 ** 30), 10 ** 30)),
    )
    def test_power_matches_square_and_multiply(self, p, k):
        assert power(p, k) == square_and_multiply(p, k)
        assert p ** k == square_and_multiply(p, k)


class TestOrder:
    def test_identity(self):
        assert Permutation.identity(5).order() == 1

    def test_lcm(self):
        assert parse_permutation("(1 2)(3 4 5)", 5).order() == 6

    def test_five_cycle(self):
        assert parse_permutation("(1 2 3 4 5)", 5).order() == 5

    def test_order_is_minimal_exponent(self):
        rng = random.Random(7)
        for _ in range(20):
            images = list(range(8))
            rng.shuffle(images)
            p = Permutation(images)
            o = p.order()
            assert power(p, o).is_identity()
            for k in range(1, o):
                assert not power(p, k).is_identity()


class TestStructureHelpers:
    def test_cycle_type(self):
        p = parse_permutation("(1 2)(3 4 5)", 6)
        assert p.cycle_type() == (3, 2, 1)

    def test_parity(self):
        assert parse_permutation("(1 2 3)", 3).is_even()
        assert not parse_permutation("(1 2)", 3).is_even()
        assert Permutation.identity(1).is_even()

    def test_conjugate_relabels_cycles(self):
        x = parse_permutation("(1 2 3)", 5)
        g = parse_permutation("(1 4)(2 5)", 5)
        y = x.conjugate_by(g)
        assert y.cycle_type() == x.cycle_type()
        # conjugation is a right action
        h = parse_permutation("(2 3 4)", 5)
        assert x.conjugate_by(g).conjugate_by(h) == x.conjugate_by(compose(g, h))

    def test_commutator_trivial_when_commuting(self):
        a = parse_permutation("(1 2)", 4)
        b = parse_permutation("(3 4)", 4)
        assert commutator(a, b).is_identity()


def same_degree_pair(max_degree=12):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.tuples(st.permutations(list(range(n))), st.permutations(list(range(n))))
    )


class TestTrustedKernel:
    """Products skip validation; the public constructors keep it."""

    @pytest.mark.parametrize(
        "images", [[0, 0, 1], [1, 2, 3], [0, 2], [-1, 0], [0, 1, 1, 3]]
    )
    def test_public_constructor_rejects_non_permutations(self, images):
        with pytest.raises(ValueError):
            Permutation(images)

    def test_identity_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            Permutation.identity(0)

    @settings(max_examples=200)
    @given(same_degree_pair())
    def test_products_equal_validated_rebuilds(self, pair):
        p, q = Permutation(pair[0]), Permutation(pair[1])
        n = p.degree
        q_inv = sorted(range(n), key=q.images.__getitem__)
        products = {
            "compose": (compose(p, q), [q.images[p.images[i]] for i in range(n)]),
            "inverse": (p.inverse(), sorted(range(n), key=p.images.__getitem__)),
            "conjugate_by": (
                p.conjugate_by(q),
                [q.images[p.images[q_inv[i]]] for i in range(n)],
            ),
        }
        for name, (got, want) in products.items():
            assert type(got.images) is tuple, name
            assert sorted(got.images) == list(range(n)), name
            assert got == Permutation(list(got.images)) == Permutation(want), name


@st.composite
def near_permutations(draw):
    """Integer lists of length 0-6 or 254-258, on both sides of the
    256-point split of the validation: a permutation of 0..n-1 with up to
    three entries replaced from -2..n+2 or 250..260, so that both verdicts
    occur often."""
    n = draw(st.sampled_from([*range(7), *range(254, 259)]))
    images = draw(st.permutations(list(range(n))))
    point = st.one_of(st.integers(-2, n + 2), st.integers(250, 260))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        images[draw(st.integers(0, n - 1))] = draw(point)
    return images


class TestValidation:
    """Up to 256 points a construction is checked by ``bytes`` and one
    ``translate``; above, by sorting; both against the sorting check that
    guarded every degree before."""

    @settings(max_examples=400)
    @given(near_permutations())
    def test_same_verdict_as_sorting(self, images):
        try:
            Permutation(images)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (sorted(images) == list(range(len(images))))

    @pytest.mark.parametrize("degree", [2, 300])
    def test_float_points_are_rejected(self, degree):
        # accepted as equal to 1 and 0 once, and the group built on them
        # then failed in bytes() with a TypeError
        images = [1.0, 0.0, *range(2, degree)]
        with pytest.raises(ValueError):
            Permutation(images)

    @pytest.mark.parametrize("degree", [2, 300])
    @pytest.mark.parametrize("point", [None, "1", 1.5, b"\x01"])
    def test_non_integer_points_raise_value_error(self, degree, point):
        with pytest.raises(ValueError):
            Permutation([point, 0, *range(2, degree)])

    @pytest.mark.parametrize("degree", [2, 300])
    def test_bool_points_stay_accepted(self, degree):
        p = Permutation([True, False, *range(2, degree)])
        assert p == Permutation([1, 0, *range(2, degree)])
        assert PermGroup(degree, [p]).order() == 2

    @pytest.mark.parametrize("images", [[256], [0, 10 ** 30], list(range(1, 257))])
    def test_points_a_byte_cannot_hold_are_rejected(self, images):
        with pytest.raises(ValueError):
            Permutation(images)

    @pytest.mark.parametrize("images,shown", [
        (list(range(1, 100001)), "(1, 2, 3, 4, 5, 6, ...)"),
        ([0, 10 ** 5000], "(0, <5001 digits>)"),
        (["1" * 100000, 0], "('111111111111...1111111111111', 0)"),
        ([[1] * 100000, 0], "([...], 0)"),
        ([1, 1, 0], "(1, 1, 0)"),
    ], ids=["100000-points", "huge-int", "long-str", "long-list", "short"])
    def test_refusal_shows_a_bounded_excerpt(self, images, shown):
        # the whole 100000-point tuple made a 688,926-character message
        with pytest.raises(ValueError) as exc:
            Permutation(images)
        message = str(exc.value)
        assert message == f"not a permutation of 0..{len(images) - 1}: {shown}"
        assert len(message) < 300
