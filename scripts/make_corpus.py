#!/usr/bin/env python3
"""Regenerate the bundled corpus from the construction families.

Writes src/cutgroups/data/bundled.corpus.  Records are deterministic; rerun
after changing the family list and commit the result.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cutgroups.constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    iterated_wreath,
    sylnorm,
    symmetric,
)
from cutgroups.corpus import render_record
from cutgroups.group import PermGroup
from cutgroups.perm import Permutation

OUT = Path(__file__).resolve().parent.parent / "src" / "cutgroups" / "data" / "bundled.corpus"


def invariant_factor_chains(max_order: int):
    """All chains d1 | d2 | ... | dk with product <= max_order, k >= 2."""
    chains = []

    def extend(chain, product):
        last = chain[-1]
        m = 2
        while product * last * m <= max_order:
            if (last * m) % last == 0:
                new = chain + [last * m]
                chains.append(new)
                extend(new, product * last * m)
            m += 1

    for d1 in range(2, max_order + 1):
        m = 1
        while d1 * (d1 * m) <= max_order:
            new = [d1, d1 * m]
            chains.append(new)
            extend(new, d1 * d1 * m)
            m += 1
    uniq = sorted(set(tuple(c) for c in chains))
    return [list(c) for c in uniq]


# Found by a randomized search over order-3-plus-involution automorphism
# actions on C8 x C2 x C2 (degree 32, order 1536 = 2^9 * 3): a solvable cut
# group whose Sylow 2-subgroup of order 512 is NOT cut.  Verified against
# the literal brute-force definition on both sides.
NONCUT_SYLOW2_WITNESS = [
    "(1 5 9 13 17 21 25 29)(2 6 10 14 18 22 26 30)(3 7 11 15 19 23 27 31)"
    "(4 8 12 16 20 24 28 32)",
    "(1 3)(2 4)(5 7)(6 8)(9 11)(10 12)(13 15)(14 16)(17 19)(18 20)(21 23)"
    "(22 24)(25 27)(26 28)(29 31)(30 32)",
    "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)(17 18)(19 20)(21 22)"
    "(23 24)(25 26)(27 28)(29 30)(31 32)",
    "(2 3 4)(5 8 7)(10 11 12)(13 16 15)(18 19 20)(21 24 23)(26 27 28)(29 32 31)",
    "(2 4)(5 14 7 16)(6 15 8 13)(9 25)(10 28)(11 27)(12 26)(18 20)"
    "(21 30 23 32)(22 31 24 29)",
    "(3 4)(5 22)(6 21)(7 23)(8 24)(11 12)(13 30)(14 29)(15 31)(16 32)"
    "(19 20)(27 28)",
]


def noncut_sylow2_witness() -> PermGroup:
    from cutgroups.perm import parse_permutation

    G = PermGroup(32, [parse_permutation(t, 32) for t in NONCUT_SYLOW2_WITNESS])
    assert G.order() == 1536
    return G


def sl23() -> PermGroup:
    """SL(2,3) acting on the 8 nonzero vectors of (F_3)^2."""
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def mat_perm(m):
        images = [0] * 8
        for v, i in index.items():
            w = ((m[0][0] * v[0] + m[0][1] * v[1]) % 3,
                 (m[1][0] * v[0] + m[1][1] * v[1]) % 3)
            images[i] = index[w]
        return Permutation(images)

    gens = [mat_perm([[1, 1], [0, 1]]), mat_perm([[0, -1], [1, 0]])]
    G = PermGroup(8, gens)
    assert G.order() == 24
    return G


def emit(handle, rid, G, name=None, tags=()):
    handle.write(render_record(rid, G, name, tags) + "\n")


def main():
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w", encoding="utf-8") as f:
        f.write("# Bundled group corpus: cyclic, abelian, dihedral, dicyclic,\n")
        f.write("# symmetric/alternating, Sylow normalizers, wreath towers,\n")
        f.write("# direct products and a few hand-entered matrix groups.\n\n")

        for n in range(1, 65):
            emit(f, f"cyclic-{n}", cyclic(n), name=f"C{n}", tags=("cyclic", "abelian"))

        for chain in invariant_factor_chains(64):
            rid = "abelian-" + "x".join(str(d) for d in chain)
            emit(f, rid, abelian(chain), name="C" + "xC".join(str(d) for d in chain),
                 tags=("abelian",))

        for n in range(3, 33):
            emit(f, f"dihedral-{n}", dihedral(n), name=f"D{2*n}", tags=("dihedral",))

        for m in range(2, 17):
            emit(f, f"dicyclic-{m}", dicyclic(m), name=f"Dic{m}", tags=("dicyclic",))

        for n in range(3, 7):
            emit(f, f"symmetric-{n}", symmetric(n), name=f"S{n}", tags=("symmetric",))
            emit(f, f"alternating-{n}", alternating(n), name=f"A{n}", tags=("alternating",))

        for p in (3, 5, 7):
            emit(f, f"sylnorm-{p}", sylnorm(p), name=f"F{p*(p-1)}",
                 tags=("sylnorm", "frobenius"))

        emit(f, "wreath-sylnorm-3-2", iterated_wreath(3, 2), name="F6 wr F6",
             tags=("iterated-wreath",))

        products = [
            ("product-s3-c4", symmetric(3), cyclic(4), "S3 x C4"),
            ("product-q8-c3", dicyclic(2), cyclic(3), "Q8 x C3"),
            ("product-s3-s3", symmetric(3), symmetric(3), "S3 x S3"),
            ("product-d8-c3", dihedral(4), cyclic(3), "D8 x C3"),
            ("product-q8-s3", dicyclic(2), symmetric(3), "Q8 x S3"),
            ("product-a4-c2", alternating(4), cyclic(2), "A4 x C2"),
            ("product-s4-c4", symmetric(4), cyclic(4), "S4 x C4"),
            ("product-a4-c4", alternating(4), cyclic(4), "A4 x C4"),
        ]
        for rid, A, B, name in products:
            emit(f, rid, direct_product(A, B), name=name, tags=("direct-product",))

        emit(f, "sl23", sl23(), name="SL(2,3)", tags=("linear", "hand-entered"))

        emit(
            f,
            "noncut-syl2-witness",
            noncut_sylow2_witness(),
            name="(C8xC2^2):H48, cut with non-cut Sylow 2",
            tags=("derived-finding", "noncut-sylow2"),
        )

    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
