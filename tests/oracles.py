"""Slow paths the package answers faster, kept verbatim as test oracles.

``is_cut_bruteforce`` is the definition of a cut group, element by element;
``exponent`` is the lcm of the element orders over the enumeration;
``are_conjugate`` asks a class table built for the one pair.  The package
reads each of these facts off the class table instead.

``alternating_power_conjugate`` decides a split class of A_n by building
the conjugator from rep**k to rep and taking its parity; the package reads
the same answer off the Jacobi symbols of k over the cycle lengths.

``field_degree`` tests every unit mod L against every condition at once;
the package narrows the units one condition at a time.

``is_rational_bruteforce``, ``is_semirational_bruteforce`` and
``is_cut_by_classes`` are the definitions of a rational, a semi-rational
and a cut group, element by element, on classes found by conjugating with
every element; ``class_fields`` and ``qg_degree_bruteforce`` read the
degree and imaginarity of each class's field, and the degree of the field
of the whole table, off the same classes.  The package reads all of these
off the class table's power map.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterable

from cutgroups.alternating import AltClassDescriptor
from cutgroups.errors import NotCoprime
from cutgroups.group import DEFAULT_CAP, PermGroup
from cutgroups.perm import Permutation, invert_images
from cutgroups.rationality import _units, residues_coprime
from cutgroups.structure import conjugacy_classes


def is_cut_bruteforce(G: PermGroup, cap: int = DEFAULT_CAP) -> bool:
    """The definition verdict, element by element, with no class-table
    shortcuts: for every x and every k coprime to its order, search the full
    enumeration for a conjugate of x**k equal to x or x⁻¹.

    Exists solely as a cross-oracle for group_rationality().is_cut.
    """
    elems = G.elements(cap)
    for x in elems:
        o = x.order()
        if o <= 2:
            continue
        conjugates = {x.conjugate_by(g).images for g in elems}
        targets = conjugates | {invert_images(im) for im in conjugates}
        for k in range(2, o):
            if math.gcd(k, o) == 1 and (x ** k).images not in targets:
                return False
    return True


@functools.lru_cache(maxsize=1)  # the oracles asked of one group in a row
def _power_classes(G: PermGroup, cap: int = DEFAULT_CAP) -> tuple[tuple[int, ...], ...]:
    """For every element x of order o, the tuple whose entry k is the class
    number of x**k, k in 0..o-1: entry 1 % o is x's class and entry -1 the
    class of x⁻¹.  Each class is found by conjugating one element not yet
    placed with every element of G."""
    elems = G.elements(cap)
    class_of: dict[tuple[int, ...], int] = {}
    classes = 0
    for x in elems:
        if x.images not in class_of:
            for g in elems:
                class_of[x.conjugate_by(g).images] = classes
            classes += 1
    rows = []
    for x in elems:
        powers = [Permutation.identity(G.degree)]
        for _ in range(1, x.order()):
            powers.append(powers[-1] * x)
        rows.append(tuple(class_of[p.images] for p in powers))
    return tuple(rows)


def _generator_classes(row: tuple[int, ...]) -> set[int]:
    """The classes of the generators x**k of <x>, k a unit mod o(x), given
    x's row of _power_classes; their number is the degree of the field of
    x's class."""
    o = len(row)
    return {row[k] for k in range(o) if math.gcd(k, o) == 1}


def is_rational_bruteforce(G: PermGroup, cap: int = DEFAULT_CAP) -> bool:
    """The definition verdict: every x is conjugate to x**k for every unit
    k mod o(x), so the generators of <x> make up one class."""
    return all(len(_generator_classes(row)) == 1 for row in _power_classes(G, cap))


def is_semirational_bruteforce(G: PermGroup, cap: int = DEFAULT_CAP) -> bool:
    """The definition verdict: for every x the generators of <x> fall in at
    most two classes."""
    return all(len(_generator_classes(row)) <= 2 for row in _power_classes(G, cap))


def is_cut_by_classes(G: PermGroup, cap: int = DEFAULT_CAP) -> bool:
    """The definition verdict: for every x the generators of <x> lie in
    the class of x or the class of x⁻¹."""
    return all(
        _generator_classes(row) <= {row[1 % len(row)], row[-1]}
        for row in _power_classes(G, cap)
    )


def class_fields(G: PermGroup, cap: int = DEFAULT_CAP) -> Counter:
    """How many classes have a field of each (degree, imaginary): the
    degree is the number of classes the generators of <x> fall in, and
    the field is imaginary when x is not conjugate to x⁻¹."""
    rows = set(_power_classes(G, cap))  # conjugate elements share a row
    return Counter(
        (len(_generator_classes(row)), row[1 % len(row)] != row[-1]) for row in rows
    )


def qg_degree_bruteforce(G: PermGroup, cap: int = DEFAULT_CAP) -> int:
    """The index, in the units k mod exp(G), of those that fix every class:
    for every x, x**k lies in the class of x."""
    rows = set(_power_classes(G, cap))
    units = residues_coprime(exponent(G, cap))
    fixed = [
        k for k in units if all(row[k % len(row)] == row[1 % len(row)] for row in rows)
    ]
    return len(units) // len(fixed)


def exponent(G: PermGroup, cap: int = DEFAULT_CAP) -> int:
    """lcm of element orders over the enumeration."""
    out = 1
    for e in G.elements(cap):
        out = math.lcm(out, e.order())
    return out


def are_conjugate(
    G: PermGroup, x: Permutation, y: Permutation, cap: int = DEFAULT_CAP
) -> bool:
    """Builds G's class table on every call; to test many pairs, build it
    once with conjugacy_classes and compare class_index values."""
    table = conjugacy_classes(G, cap)
    return table.class_index(x) == table.class_index(y)


def _cycles_canonical(p: Permutation) -> list[tuple[int, ...]]:
    """All cycles including fixed points, each starting at its least point,
    longest first (ties by least point)."""
    cycles = list(p.cycles())
    moved = {point for c in cycles for point in c}
    cycles.extend((i,) for i in range(p.degree) if i not in moved)
    cycles.sort(key=lambda c: (-len(c), c[0]))
    return cycles


def alternating_power_conjugate(d: AltClassDescriptor, k: int) -> bool:
    """True iff rep**k is A_n-conjugate to rep, for gcd(k, order) = 1.

    Non-split types are immediate (an odd centralizing element exists).  For
    split types, build the canonical conjugator sigma mapping the cycles of
    rep**k onto the cycles of rep and return its parity.
    """
    order = d.rep_order
    if math.gcd(k, order) != 1:
        raise NotCoprime(f"k={k} shares a factor with the element order {order}")
    if not d.splits:
        return True
    rep = d.rep
    target_cycles = _cycles_canonical(rep)
    power_cycles = _cycles_canonical(rep ** k)
    # split type: parts are distinct, so cycles match up by length alone
    images = list(range(d.n))
    for pc, tc in zip(power_cycles, target_cycles):
        for a, b in zip(pc, tc):
            images[a] = b
    sigma = Permutation(images)
    return sigma.is_even()


def _norm_residue(k: int, n: int) -> int:
    """Representative of k mod n in [1, n]."""
    return (k % n) or n


def field_degree(pairs: Iterable[tuple[int, Iterable[int]]]) -> int:
    """Index of the common stabilizer of all classes under k -> class(rep**k),
    given each class's (rep order o, units k mod o with rep**k in the class).
    Rational classes (every unit mod o) are dropped, and the rest are checked
    over the units mod the lcm L of their orders.  Those units are not put
    in the _units cache, which holds the units of class orders only.
    """
    distinct = {(o, frozenset(stab)) for o, stab in pairs}
    conditions = [
        (o, stab) for o, stab in distinct if len(stab) < len(_units(o))
    ]
    units = residues_coprime(math.lcm(*(o for o, _ in conditions)))
    fixed = sum(
        all(_norm_residue(k, o) in stab for o, stab in conditions) for k in units
    )
    return len(units) // fixed
