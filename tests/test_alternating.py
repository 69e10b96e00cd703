import math

import pytest

import oracles
from oracles import exponent
from cutgroups.alternating import (
    _jacobi,
    alternating_classes,
    alternating_exponent,
    alternating_power_conjugate,
)
from cutgroups.errors import NotCoprime
from cutgroups.perm import Permutation
from cutgroups.structure import conjugacy_classes
from cutgroups.constructions import alternating
from cutgroups.rationality import qg_degree_alternating, residues_coprime


class TestDescriptors:
    def test_n4_types(self):
        descs = alternating_classes(4)
        types = {d.cycle_type for d in descs}
        assert types == {(1, 1, 1, 1), (2, 2), (3, 1)}
        split = {d.cycle_type for d in descs if d.splits}
        assert split == {(3, 1)}

    def test_n5_five_cycle_splits(self):
        descs = {d.cycle_type: d for d in alternating_classes(5)}
        assert descs[(5,)].splits

    def test_n6_repeated_parts_do_not_split(self):
        descs = {d.cycle_type: d for d in alternating_classes(6)}
        assert not descs[(2, 2, 1, 1)].splits

    def test_split_criterion(self):
        for n in range(3, 10):
            for d in alternating_classes(n):
                parts = d.cycle_type
                expected = all(p % 2 == 1 for p in parts) and len(set(parts)) == len(parts)
                assert d.splits == expected

    def test_reps_have_stated_type(self):
        for n in range(3, 9):
            for d in alternating_classes(n):
                rep = oracles.alternating_rep(d)
                assert oracles.cycle_type(rep) == d.cycle_type
                assert oracles.is_even(rep)

    def test_all_types_have_even_parity(self):
        for d in alternating_classes(7):
            assert (7 - len(d.cycle_type)) % 2 == 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            alternating_classes(2)


class TestPowerConjugate:
    def test_k_one(self):
        for d in alternating_classes(6):
            assert alternating_power_conjugate(d, 1)

    def test_five_cycle_square_not_conjugate(self):
        d = next(d for d in alternating_classes(5) if d.cycle_type == (5,))
        assert not alternating_power_conjugate(d, 2)

    def test_five_cycle_inverse_conjugate(self):
        d = next(d for d in alternating_classes(5) if d.cycle_type == (5,))
        assert alternating_power_conjugate(d, 4)

    def test_not_coprime_rejected(self):
        d = next(d for d in alternating_classes(5) if d.cycle_type == (5,))
        with pytest.raises(NotCoprime):
            alternating_power_conjugate(d, 5)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_oracle_equivalence_with_enumeration(self, n):
        """The descriptor machinery agrees exactly with generic conjugacy on
        the enumerated alternating group.  A8 holds the split type (5, 3),
        where the symbols of two parts multiply."""
        An = alternating(n)
        table = conjugacy_classes(An)
        # class count: one per non-split type, two per split type
        expected = sum(2 if d.splits else 1 for d in alternating_classes(n))
        assert len(table) == expected
        for d in alternating_classes(n):
            rep = oracles.alternating_rep(d)
            c = table.class_index(rep)
            for k in residues_coprime(d.rep_order):
                assert alternating_power_conjugate(d, k) == (
                    table.class_index(rep ** k) == c
                ), (d.cycle_type, k)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_jacobi_rule_matches_the_conjugator_parity(self, n):
        """The Jacobi rule equals the parity of the conjugator built from
        the cycles, for every k coprime to the order in [-2o, 2o)."""
        for d in alternating_classes(n):
            o = d.rep_order
            for k in range(-2 * o, 2 * o):
                if math.gcd(k, o) == 1:
                    assert alternating_power_conjugate(
                        d, k
                    ) == oracles.alternating_power_conjugate(d, k), (d.cycle_type, k)

    def test_builds_no_permutation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Permutation was built")

        # every Permutation is made by __init__ or by _trusted
        monkeypatch.setattr(Permutation, "__init__", refuse)
        monkeypatch.setattr(Permutation, "_trusted", refuse)
        for d in alternating_classes(14):
            for k in residues_coprime(d.rep_order):
                alternating_power_conjugate(d, k)
        assert qg_degree_alternating(14) == 8


class TestJacobi:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_euler_criterion_on_primes(self, p):
        for a in range(-2 * p, 2 * p):
            euler = pow(a, (p - 1) // 2, p)
            assert _jacobi(a, p) == {1: 1, p - 1: -1, 0: 0}[euler], (a, p)

    def test_multiplicative_in_the_modulus(self):
        for m, n in [(3, 5), (3, 3), (5, 9), (7, 11), (9, 25)]:
            for a in range(-60, 60):
                assert _jacobi(a, m * n) == _jacobi(a, m) * _jacobi(a, n), (a, m, n)


class TestExponent:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_enumerated_exponent(self, n):
        assert alternating_exponent(n) == exponent(alternating(n))

    def test_monotone_divisibility(self):
        # exp(A_n) | exp(A_(n+2)) since A_n embeds
        for n in range(4, 12):
            assert alternating_exponent(n + 2) % alternating_exponent(n) == 0
