"""Permutation groups: order, membership, and bounded element enumeration.

Order and membership go through a deterministic stabilizer chain
(base-and-strong-generators, smallest moved point first) built by
incremental Schreier-Sims, so they work far beyond the enumeration cap.
Enumeration is a breadth-first closure over the generators, which fixes
the element ordering that all downstream class indexing relies on.  Both
hold elements as words of the degree's ``Encoding``: up to degree 256 a
word is ``bytes``, one point per byte, and two words compose with one
``bytes.translate``; above 256 a byte cannot hold a point, and a word is
an image tuple.  A group holds its generators, their encoding and the
chain, nothing else; its constructor builds the chain, so a group never
changes once made.  The chain's levels (reps, strong generators, Schreier
queues) are build state: a finished chain is its sift steps, one base
point and its inverse-rep tables per level.  A group pickles or copies as
its degree and generators: the copy builds its own chain.  ``closure``
returns what it computes (the ``word -> position`` dict, keys in
enumeration order, every product element · generator as a right Cayley
column on positions, and the tree of first discoveries) to its caller and
keeps none of it, so each reader owns the enumeration it asked for.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from typing import Sequence

from .errors import CapExceeded, DegreeMismatch, EmptyGenerators
from .perm import _BYTE_POINTS, Permutation, invert_images, then_images

DEFAULT_CAP = 100_000
# Largest degree of a constructed family or a corpus record.
MAX_DEGREE = 10 ** 6

# An element in a group's encoding (see Encoding): bytes up to degree 256,
# an image tuple above.
_Word = bytes | tuple[int, ...]


def _invert_bytes(g: bytes) -> bytes:
    """The inverse of an n-byte word: ``bytes.maketrans`` maps every g[i]
    back to i in C; the table's first n bytes are the inverse word."""
    n = len(g)
    return bytes.maketrans(g, _BYTE_POINTS[:n])[:n]


class Encoding:
    """How the chain and the closure of a group of one degree hold its
    elements.  A *word* is an element's n images, and a *table* is what an
    element must be to be composed on the right.

    Up to n = 256 a word is ``bytes``, one point per byte, and "apply p,
    then q" is ``compose(p, q_table) = p.translate(q_table)``, one C call,
    where q's table is its word followed by ``_BYTE_POINTS[n:]``.
    ``bytes.translate`` needs a 256-byte table but its cost follows the
    length of what it translates, so words stay n bytes and only right-hand
    factors are kept as tables.  Above 256 a byte cannot hold a point: a
    word is an image tuple, composed by ``then_images``, and is its own
    table.  ``encode`` takes an image tuple to a word and ``decode`` a word
    back to the image tuple a Permutation holds.
    """

    __slots__ = ("identity", "encode", "decode", "compose", "invert", "pad")

    def __init__(self, degree: int):
        self.decode = tuple
        if degree <= len(_BYTE_POINTS):
            self.identity: _Word = _BYTE_POINTS[:degree]
            self.encode, self.compose = bytes, bytes.translate
            self.invert, self.pad = _invert_bytes, _BYTE_POINTS[degree:]
        else:
            self.identity = tuple(range(degree))
            self.encode, self.compose = tuple, then_images
            self.invert, self.pad = invert_images, ()

    def table(self, word: _Word) -> _Word:
        return word + self.pad


class _ChainLevel:
    """One level of a stabilizer chain while it is built, in the group's
    ``Encoding`` of words and tables.  Levels are build state: a finished
    chain keeps only each level's ``point`` and ``inverses`` in its sift
    steps, and the rest goes with the level.

    ``gens`` is S_L as tables, every strong generator that reached this
    level, so ``<gens>`` is this level's group and fixes every earlier base
    point; ``gen_inverses`` holds their inverses as words, in the same
    order.  ``reps[beta]`` is a word mapping the base point to beta and
    ``inverses[beta]`` is its inverse as a table; the orbit is their key
    set, always closed under ``gens``.  ``pending`` holds the (beta, s)
    Schreier pairs not yet sifted, s a table.
    """

    __slots__ = ("point", "gens", "gen_inverses", "reps", "inverses", "pending")

    def __init__(self, point: int, identity: _Word, identity_table: _Word):
        self.point = point
        self.gens: list[_Word] = []
        self.gen_inverses: list[_Word] = []
        self.reps = {point: identity}
        self.inverses = {point: identity_table}
        self.pending: deque[tuple[int, _Word]] = deque()

    def extend(self, g: _Word, g_inv: _Word, encoding: Encoding) -> None:
        """Add the strong generator g (a table), with its inverse g_inv (a
        word): extend the orbit from the images of the old points under g,
        then breadth-first over the new points only, and queue the Schreier
        pairs that are new.  Existing reps never change.  A new point's
        inverse rep is gathered from its parent's, (rep · s)⁻¹ = s⁻¹ · rep⁻¹,
        not inverted anew."""
        reps, inverses, gens = self.reps, self.inverses, self.gens
        compose, pad = encoding.compose, encoding.pad
        old = list(reps)
        gens.append(g)
        self.gen_inverses.append(g_inv)
        new = []

        def visit(beta: int, s: _Word, s_inv: _Word) -> None:
            gamma = s[beta]
            if gamma not in reps:
                reps[gamma] = compose(reps[beta], s)
                inverses[gamma] = compose(s_inv, inverses[beta]) + pad
                new.append(gamma)

        for beta in old:
            visit(beta, g, g_inv)
        for beta in new:  # grows while it is walked: the breadth-first queue
            for s, s_inv in zip(gens, self.gen_inverses):
                visit(beta, s, s_inv)
        self.pending.extend((beta, g) for beta in old)
        self.pending.extend((beta, s) for beta in new for s in gens)


class _Chain:
    """A base and strong generating set, built by incremental Schreier-Sims
    (Seress, *Permutation Group Algorithms*, ch. 4; Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, section 4.4).

    A level's base point is the smallest point moved by the first strong
    generator that reaches it, so the base is a function of the generator
    list.  Each Schreier pair (beta, s) of a level is queued once, when the
    later of beta and s arrives, and sifted once.  By Schreier's lemma, once
    every pair has sifted to the identity each level's orbit times the order
    below is the group order, set as ``order`` once the build ends, and
    sifting decides membership.

    Elements are words in the group's ``Encoding``; only right-hand factors
    (strong generators and inverse reps) are kept as tables.  No element of
    the chain leaves it: ``PermGroup.contains`` encodes its query once.

    A finished chain is its sift steps: ``steps`` holds one ``(point,
    inverses, depth)`` tuple per level, ``inverses`` the level's own dict,
    so that a sift step loads no attribute, and the chain keeps the
    encoding's identity, encode and compose as its own slots, so that a
    membership query reads them in one attribute load each.  The levels,
    the encoding and the one identity table that every level's base point
    shares are build state: ``__init__`` drops them before it returns, so
    no reps, Schreier queue or strong generator outlives the build.
    """

    __slots__ = (
        "identity", "steps", "order", "_encode", "_compose",
        "encoding", "levels", "identity_table",  # build state
    )

    def __init__(self, encoding: Encoding, generators: Sequence[Permutation]):
        self.identity = encoding.identity
        self._encode, self._compose = encoding.encode, encoding.compose
        self.steps: list[tuple[int, dict[int, _Word], int]] = []
        self.encoding = encoding
        self.levels: list[_ChainLevel] = []
        self.identity_table = encoding.table(self.identity)
        for g in generators:
            residue, depth = self.sift(self._encode(g.images))
            if residue != self.identity:
                self._insert(residue, 0, depth)
                self._close(depth)
        # each orbit is its level's inverse-rep key set
        self.order = math.prod(len(inverses) for _, inverses, _ in self.steps)
        del self.encoding, self.levels, self.identity_table

    def sift(self, word: _Word, start: int = 0) -> tuple[_Word, int]:
        """Sift a word down from level ``start``; returns the residue and
        the depth where it stopped (``len(steps)`` when it passed all)."""
        steps, compose = self.steps, self._compose
        for point, inverses, depth in steps[start:] if start else steps:
            beta = word[point]
            if beta != point:
                inverse = inverses.get(beta)
                if inverse is None:
                    return word, depth
                word = compose(word, inverse)
        return word, len(steps)

    def _insert(self, g: _Word, start: int, depth: int) -> None:
        """g fixes the base points above ``depth``: it is a new strong
        generator of every level from ``start`` to ``depth``; its table and
        its inverse are made once for all of them."""
        encoding = self.encoding
        if depth == len(self.levels):
            point = next(i for i, j in enumerate(g) if i != j)
            level = _ChainLevel(point, self.identity, self.identity_table)
            self.levels.append(level)
            self.steps.append((point, level.inverses, depth))
        g_table, g_inv = encoding.table(g), encoding.invert(g)
        for level in self.levels[start : depth + 1]:
            level.extend(g_table, g_inv, encoding)

    def _close(self, depth: int) -> None:
        """Sift the pending Schreier pairs, deepest level first; a residue
        joins the levels below the pair's level only, since it already lies
        in that level's group."""
        levels, compose = self.levels, self._compose
        while depth >= 0:
            level = levels[depth]
            if not level.pending:
                depth -= 1
                continue
            beta, s = level.pending.popleft()
            moved = compose(level.reps[beta], s)
            gamma = s[beta]
            if moved == level.reps[gamma]:
                continue  # a tree edge: the Schreier generator is trivial
            schreier = compose(moved, level.inverses[gamma])
            residue, stop = self.sift(schreier, depth + 1)
            if residue != self.identity:
                self._insert(residue, depth + 1, stop)
                depth = stop

    def base_points(self) -> list[int]:
        return [point for point, _, _ in self.steps]


# (right, parent, edge): see PermGroup.closure
Cayley = tuple[list[list[int]], array, array]


def _closure(
    encoding: Encoding, generators: Sequence[Permutation]
) -> tuple[dict[_Word, int], Cayley]:
    """Breadth-first closure over the generators on words, from the
    identity, recording every product it takes in the Cayley columns;
    returns the dict from each word to its position, in enumeration order,
    and the columns with the tree.  The word list is the closure's queue
    only: a dict cannot grow while it is walked."""
    compose = encoding.compose
    tables = [encoding.table(encoding.encode(g.images)) for g in generators]
    out = [encoding.identity]
    index = {encoding.identity: 0}
    # a column entry is the int object the index holds for that word, so a
    # column adds one pointer per entry and no int; the tree is packed as
    # it grows, so no position it records stays boxed
    right: list[list[int]] = [[] for _ in tables]
    parent = array("i", [-1])
    edge = array("i", [-1])
    steps = [(e, g, column.append) for e, (g, column) in enumerate(zip(tables, right))]
    n = 1
    for i, p in enumerate(out):  # grows while it is walked: layer by layer
        for e, g, record in steps:
            q = compose(p, g)  # apply p, then g
            j = index.setdefault(q, n)
            if j == n:
                out.append(q)
                parent.append(i)
                edge.append(e)
                n += 1
            record(j)
    return index, (right, parent, edge)


class PermGroup:
    """A finite permutation group given by generators on {1..degree}.

    The identity is always a member, even if not listed.  A group holds
    only what order and membership need: its generators, the ``Encoding``
    of its degree, and the stabilizer chain, which the constructor builds,
    so a group never changes once made and concurrent readers share it.
    Every enumeration is built when it is asked for and belongs to the
    caller; the slots keep anything else from being stored on a group.  A
    pickle or copy carries the degree and generators only: the receiver's
    constructor builds its own chain.
    """

    __slots__ = ("degree", "generators", "encoding", "_chain")

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
        self.encoding = Encoding(degree)
        self._chain = _Chain(self.encoding, gens)

    def __reduce__(self):
        return PermGroup, (self.degree, self.generators)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"PermGroup(degree={self.degree}, gens=[{gens}])"

    def order(self) -> int:
        return self._chain.order

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"permutation degree {p.degree} != group degree {self.degree}"
            )
        chain = self._chain
        return chain.sift(chain._encode(p.images))[0] == chain.identity

    def closure(self, cap: int = DEFAULT_CAP) -> tuple[dict[_Word, int], Cayley]:
        """``(index, (right, parent, edge))``, built on every call: the
        dict from each of the |G| elements, as a word of the group's
        ``encoding`` (``bytes`` up to degree 256, image tuples above;
        ``encoding.decode`` gives the image tuple), to its position in the
        breadth-first closure over the generators, with the words as keys
        in that order, and what the closure computed on those positions.

        Deterministic order: identity first, then closure layer by layer
        with generators applied in their listed order.  Raises CapExceeded
        when |G| > cap (within_cap, up front).

        With ``words = list(index)``, ``right[e][i]`` is the position of
        ``words[i] · generators[e]``, and ``words[j] = words[parent[j]] ·
        generators[edge[j]]`` with ``parent[j] < j`` (the breadth-first
        tree; the root, the identity, has parent and edge -1).  Each
        ``right[e]`` is a list whose entries are the very int objects
        ``index`` holds as values, so a column makes no int of its own;
        ``parent`` and ``edge`` are ``array('i')``.
        """
        self.within_cap(cap)
        return _closure(self.encoding, self.generators)

    def within_cap(self, cap: int = DEFAULT_CAP) -> int:
        """|G|, or CapExceeded when it is above ``cap``: the package's one
        cap check, which closure() makes before it enumerates."""
        order = self.order()
        if order > cap:
            raise CapExceeded(order, cap)
        return order

    def elements(self, cap: int = DEFAULT_CAP) -> list[Permutation]:
        """The words of ``closure(cap)`` as Permutations, in the same
        order; built on every call."""
        decode = self.encoding.decode
        return [Permutation._trusted(decode(w)) for w in self.closure(cap)[0]]

    def base_points(self) -> list[int]:
        """Base of the stabilizer chain (0-based, smallest moved first)."""
        return self._chain.base_points()


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, [Permutation.identity(degree)])
