"""Permutation groups: order, membership, and bounded element enumeration.

Order and membership go through a deterministic stabilizer chain
(base-and-strong-generators, smallest moved point first), so they work far
beyond the enumeration cap.  Full element lists use breadth-first closure
over the generators, which fixes the element ordering that all downstream
class indexing relies on.
"""

from __future__ import annotations

import threading
from typing import Sequence

from .errors import CapExceeded, DegreeMismatch, EmptyGenerators
from .perm import Permutation, compose

DEFAULT_CAP = 100_000
# Largest degree of a constructed family or a corpus record.
MAX_DEGREE = 10 ** 6


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
        target = p.apply(self.point)
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
        if g.apply(self.point) == self.point:
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
                gamma = g.apply(beta)
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
                gamma = g.apply(beta)
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


class PermGroup:
    """A finite permutation group given by generators on {1..degree}.

    The identity is always a member, even if not listed.  The stabilizer
    chain and the element list are each built at most once and shared by
    later calls; construction is guarded so concurrent readers are safe.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation]):
        if degree < 1:
            raise ValueError("degree must be positive")
        gens = tuple(generators)
        if not gens:
            raise EmptyGenerators("a group needs at least one generator")
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}"
                )
        self.degree = degree
        self.generators = gens
        self._lock = threading.Lock()
        self._chain: _ChainLevel | None = None
        self._order: int | None = None
        self._elements: list[Permutation] | None = None

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"PermGroup(degree={self.degree}, gens=[{gens}])"

    def _chain_root(self) -> _ChainLevel:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    root = _ChainLevel(self.degree)
                    for g in self.generators:
                        root.add(g)
                    self._chain = root
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self._order = self._chain_root().order()
        return self._order

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"permutation degree {p.degree} != group degree {self.degree}"
            )
        return self._chain_root().sift(p).is_identity()

    def elements(self, cap: int = DEFAULT_CAP) -> list[Permutation]:
        """All |G| elements by breadth-first closure over the generators.

        Deterministic order: identity first, then closure layer by layer
        with generators applied in their listed order.  Raises CapExceeded
        when |G| > cap (checked against the exact chain order up front).
        """
        order = self.order()
        if order > cap:
            raise CapExceeded(order, cap)
        if self._elements is None:
            with self._lock:
                if self._elements is None:
                    identity = Permutation.identity(self.degree)
                    seen = {identity.images}
                    out = [identity]
                    frontier = [identity]
                    while frontier:
                        next_frontier = []
                        for p in frontier:
                            for g in self.generators:
                                q = compose(p, g)
                                if q.images not in seen:
                                    seen.add(q.images)
                                    out.append(q)
                                    next_frontier.append(q)
                        frontier = next_frontier
                    self._elements = out
        return self._elements

    def base_points(self) -> list[int]:
        """Base of the stabilizer chain (0-based, smallest moved first)."""
        return self._chain_root().base_points()


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, [Permutation.identity(degree)])
