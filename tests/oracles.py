"""Slow paths the package answers faster, kept verbatim as test oracles.

``is_cut_bruteforce`` is the definition of a cut group, element by element;
``exponent`` is the lcm of the element orders over the enumeration;
``are_conjugate`` asks a class table built for the one pair.  The package
reads each of these facts off the class table instead.
"""

from __future__ import annotations

import math

from cutgroups.group import DEFAULT_CAP, PermGroup
from cutgroups.perm import Permutation, invert_images
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
