"""The element enumeration and the power-map walk the package used before
they ran on the words of ``PermGroup.encoding``, kept verbatim as test
oracles: both compose image tuples.

``tuple_closure`` returns the image tuples in closure order with their
``tuple -> index`` dict and the Cayley columns and tree, as
``PermGroup.closure`` did when it also returned its word list;
``tuple_power_map`` recomputes a class table's power map and rep orders
from its reps by successive tuple products, reading each power's class
off the table's ``word -> class`` index.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter
from typing import Sequence

from cutgroups.perm import Permutation, then_images


def tuple_closure(degree: int, generators: Sequence[Permutation]):
    """Breadth-first closure over the generators on image tuples, from the
    identity, recording every product it takes in the Cayley columns."""
    gens = [g.images for g in generators]
    identity = tuple(range(degree))
    out = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in gens]
    parent = [-1]
    edge = [-1]
    steps = [(e, g, column.append) for e, (g, column) in enumerate(zip(gens, right))]
    for i, p in enumerate(out):  # grows while it is walked: layer by layer
        # "apply p, then g" gathers g at p, as then_images does; at degree 1
        # itemgetter would return a bare int, but p is the identity there
        product = itemgetter(*p) if degree > 1 else tuple
        for e, g, record in steps:
            q = product(g)
            n = len(out)
            j = index.setdefault(q, n)
            if j == n:
                out.append(q)
                parent.append(i)
                edge.append(e)
            record(j)
    columns = [array("i", column) for column in right]
    return out, index, (columns, array("i", parent), array("i", edge))


def tuple_power_map(table) -> tuple[list[list[int]], list[int]]:
    """``(power_map, rep_orders)`` of a ClassTable, by the walk on image
    tuples: a class whose row is not known yet gets it by successive
    products up to the identity, and every class in that row derives its
    own row from it."""
    decode = table.group.encoding.decode
    index = {decode(w): c for w, c in table.index.items()}
    reps = table.reps
    identity = reps[0].images
    rows: list[list[int] | None] = [None] * len(reps)
    for c, rep in enumerate(reps):
        if rows[c] is not None:
            continue
        x = images = rep.images
        row = [0]
        while x != identity:
            row.append(index[x])
            x = then_images(x, images)
        rows[c] = row
        o = len(row)
        for k in range(2, o):
            d = row[k]
            if rows[d] is None:
                rows[d] = [row[k * j % o] for j in range(o // math.gcd(k, o))]
    return rows, [len(row) for row in rows]
