"""The stabilizer chain the package used before incremental Schreier-Sims,
kept verbatim as a test oracle for order and membership.

Every insertion of a strong generator rebuilds the level's transversal by
breadth-first search and re-sifts every Schreier generator, so it is slow
but simple.  ``oracle_order`` and ``oracle_contains`` build a fresh chain
from a generator list.
"""

from __future__ import annotations

from typing import Sequence

from cutgroups.perm import Permutation, compose


class _ChainLevel:
    """One level of a stabilizer chain: a base point, the strong generators
    introduced at this level, the orbit transversal of the base point, and
    the stabilizer level below."""

    __slots__ = ("degree", "point", "gens", "transversal", "stab")

    def __init__(self, degree: int):
        self.degree = degree
        self.point = None  # base point, 0-based; None while the level is trivial
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self.stab: _ChainLevel | None = None

    def generators(self) -> list[Permutation]:
        """Generators of this level's group (this level and all below)."""
        below = self.stab.generators() if self.stab is not None else []
        return below + self.gens

    def order(self) -> int:
        if self.point is None:
            return 1
        return len(self.transversal) * self.stab.order()

    def sift(self, p: Permutation) -> Permutation:
        """Strip p through the chain; identity residue means membership."""
        if self.point is None:
            return p
        target = p.images[self.point]
        if target == self.point:
            return self.stab.sift(p)
        rep = self.transversal.get(target)
        if rep is None:
            return p
        return self.stab.sift(compose(p, rep.inverse()))

    def add(self, p: Permutation) -> None:
        residue = self.sift(p)
        if not residue.is_identity():
            self._add_strong(residue)

    def _add_strong(self, g: Permutation) -> None:
        if self.point is None:
            self.point = min(
                i for i, j in enumerate(g.images) if i != j
            )
            self.stab = _ChainLevel(self.degree)
        if g.images[self.point] == self.point:
            self.stab._add_strong(g)
        else:
            self.gens.append(g)
        self._rebuild_transversal()
        self._close_schreier()

    def _rebuild_transversal(self) -> None:
        gens = self.generators()
        transversal = {self.point: Permutation.identity(self.degree)}
        queue = [self.point]
        while queue:
            beta = queue.pop(0)
            rep = transversal[beta]
            for g in gens:
                gamma = g.images[beta]
                if gamma not in transversal:
                    transversal[gamma] = compose(rep, g)
                    queue.append(gamma)
        self.transversal = transversal

    def _close_schreier(self) -> None:
        # Sifting every Schreier generator to the identity certifies that
        # the transversal product really equals the group order.
        gens = self.generators()
        for beta in sorted(self.transversal):
            u_beta = self.transversal[beta]
            for g in gens:
                gamma = g.images[beta]
                schreier = compose(
                    compose(u_beta, g), self.transversal[gamma].inverse()
                )
                self.stab.add(schreier)

    def base_points(self) -> list[int]:
        points = []
        level = self
        while level is not None and level.point is not None:
            points.append(level.point)
            level = level.stab
        return points


def oracle_chain(gens: Sequence[Permutation]) -> _ChainLevel:
    root = _ChainLevel(gens[0].degree)
    for g in gens:
        root.add(g)
    return root


def oracle_order(gens: Sequence[Permutation]) -> int:
    return oracle_chain(gens).order()


def oracle_contains(gens: Sequence[Permutation], p: Permutation) -> bool:
    return oracle_chain(gens).sift(p).is_identity()
