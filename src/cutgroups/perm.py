"""Permutations on {1..n} with cycle-notation I/O.

Conventions, fixed for the whole package:

* Application is left-to-right: ``(p * q)`` means "apply p, then q", so
  ``(p * q)(i) = q(p(i))``.
* Points are 1-based in all textual I/O.  Internally images are stored as a
  0-based tuple; ``p.images[i]`` is the image of point ``i`` (0-based).
* Conjugation is the right action ``x ** g = g⁻¹ x g`` (apply g⁻¹, then x,
  then g), so ``(x ** g) ** h == x ** (g * h)``.
"""

from __future__ import annotations

import math
import re
from operator import index, itemgetter
from typing import Iterable, Sequence

from .errors import (
    DegreeMismatch,
    MalformedCycle,
    PointOutOfRange,
    RepeatedPoint,
    brief,
    excerpt,
)

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_TOKEN_RE = re.compile(r"^\s*(?:\([^()]*\)\s*)+$")
# Every point a byte can hold.  At degree n the first n bytes are the
# identity, and the rest pads an n-byte word to a translation table.
_BYTE_POINTS = bytes(range(256))


class Permutation:
    """An immutable bijection of {1..n}, n fixed at construction."""

    __slots__ = ("_images", "_order")

    def __init__(self, images: Sequence[int]):
        """Validate the 0-based images: every point an integer, each of
        0..n-1 exactly once.  Up to 256 points that is two C calls: ``bytes``
        refuses a non-integer or a point above 255, and deleting the image
        bytes from the n-byte identity leaves nothing only if all n points
        occur among the n images.  Above 256 the points are sorted.  A refusal
        shows the first few images only."""
        img = tuple(images)
        n = len(img)
        try:
            if n <= 256:
                bad = _BYTE_POINTS[:n].translate(None, bytes(img))
            else:
                bad = sorted(map(index, img)) != list(range(n))
        except (TypeError, ValueError):
            bad = True
        if bad:
            raise ValueError(f"not a permutation of 0..{n - 1}: {excerpt(img)}")
        self._images = img
        self._order = None

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a permutation, without
        validation; internal products only, never user input."""
        p = object.__new__(cls)
        p._images = images
        p._order = None
        return p

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def identity(degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build from 1-based cycles; points not mentioned are fixed.  The one
        check of cycle points, cycle by cycle: each in 1..degree and none
        repeated, which makes the images a bijection with no further check."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for point in cycle:
                if not 1 <= point <= degree:
                    raise PointOutOfRange(f"point {brief(point)} not in 1..{degree}")
                if point in seen:
                    raise RepeatedPoint(f"repeated point {brief(point)}")
                seen.add(point)
            for a, b in zip(cycle, cycle[1:]):
                images[a - 1] = b - 1
            if cycle:
                images[cycle[-1] - 1] = cycle[0] - 1
        return Permutation._trusted(tuple(images))

    # -- basic protocol --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple[int, ...]:
        """0-based image tuple; images[i] is where point i goes."""
        return self._images

    def apply(self, point: int) -> int:
        """Image of a 0-based point."""
        return self._images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r})"

    def __str__(self) -> str:
        return format_permutation(self)

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation._trusted(invert_images(self._images))

    def __pow__(self, k: int) -> "Permutation":
        return power(self, k)

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """g⁻¹ · self · g under left-to-right application."""
        if g.degree != self.degree:
            raise DegreeMismatch(
                f"degrees differ: {self.degree} vs {g.degree}"
            )
        gi = g._images
        xi = self._images
        out = [0] * len(xi)
        for j in range(len(xi)):
            out[gi[j]] = gi[xi[j]]
        return Permutation._trusted(tuple(out))

    # -- structure ---------------------------------------------------------------

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self._images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 0-based tuples, each starting at its least
        point, sorted by least moved point."""
        seen = [False] * len(self._images)
        out = []
        for start in range(len(self._images)):
            if seen[start] or self._images[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            j = self._images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self._images[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        """lcm of cycle lengths; smallest k >= 1 with p**k the identity."""
        if self._order is None:
            o = 1
            for cycle in self.cycles():
                o = math.lcm(o, len(cycle))
            self._order = o
        return self._order

    def is_even(self) -> bool:
        """True for even permutations (product of an even number of swaps)."""
        return (self.degree - len(self.cycles()) - self.fixed_point_count()) % 2 == 0

    def fixed_point_count(self) -> int:
        return sum(1 for i, j in enumerate(self._images) if i == j)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, in decreasing order."""
        lengths = [len(c) for c in self.cycles()]
        lengths.extend([1] * self.fixed_point_count())
        return tuple(sorted(lengths, reverse=True))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p, then q: the result maps i to q(p(i))."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    return Permutation._trusted(then_images(p._images, q._images))


def then_images(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of "apply p, then q": ``q[p[i]]`` for every i.

    ``itemgetter(*p)`` gathers the images in C, about twice as fast as a
    comprehension; at degree 1 it would return a bare int, but the only
    permutation of degree 1 is the identity."""
    if len(p) == 1:
        return q
    return itemgetter(*p)(q)


def invert_images(images: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def power(p: Permutation, k: int) -> Permutation:
    """p**k from the cycle decomposition: every point moves k steps along
    its cycle, k reduced mod the cycle's length; k may be zero, negative or
    far larger than the order."""
    out = list(range(p.degree))
    for cycle in p.cycles():
        s = k % len(cycle)
        if s:
            for a, b in zip(cycle, cycle[s:] + cycle[:s]):
                out[a] = b
    return Permutation._trusted(tuple(out))


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint cycles in 1-based notation, e.g. ``(1 2 3)(4 5)``.

    ``()`` denotes the identity and is only valid as the entire string.
    Each cycle needs at least two points, checked here with the grammar;
    ``from_cycles`` checks the points, and fixes those not mentioned.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    stripped = text.strip()
    if stripped == "()":
        return Permutation.identity(degree)
    if not stripped or not _TOKEN_RE.match(stripped):
        raise MalformedCycle(f"not cycle notation: {excerpt(text)}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        parts = body.split()
        if len(parts) < 2:
            raise MalformedCycle(
                f"cycle needs at least two points: {excerpt(f'({body})')}"
            )
        try:
            cycles.append([int(part) for part in parts])
        except ValueError:
            raise MalformedCycle(
                f"non-integer point in cycle: {excerpt(f'({body})')}"
            ) from None
    return Permutation.from_cycles(cycles, degree)


def format_permutation(p: Permutation) -> str:
    """Canonical disjoint-cycle form, 1-based; the identity prints ``()``.

    Round-trips through parse_permutation at the same degree.
    """
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join(
        "(" + " ".join(str(point + 1) for point in cycle) + ")" for cycle in cycles
    )


def commutator(a: Permutation, b: Permutation) -> Permutation:
    """a⁻¹ b⁻¹ a b under left-to-right composition."""
    return compose(compose(compose(a.inverse(), b.inverse()), a), b)
