"""Deterministic builders for the standard test families, as permutation
groups.

Wreath products use the imprimitive action on blocks (degree m*n rather
than a regular-representation blowup), and the iterated wreath tower puts
the newest base group inside the blocks of the previous iterate, keeping
the degree at p**k.
"""

from __future__ import annotations

from .errors import BadParam, DegreeTooLarge, brief, excerpt, read_int
from .group import MAX_DEGREE, PermGroup
from .perm import Permutation
from .structure import is_prime, prime_divisors


def _bound_degree(family: str, degree: int) -> None:
    """Refuse a family before any permutation of ``degree`` points is built."""
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(f"{family} degree {brief(degree)} exceeds {MAX_DEGREE}")


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise BadParam(f"cyclic group needs n >= 1, got {brief(n)}")
    _bound_degree("cyclic", n)
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)])
    images = [(i + 1) % n for i in range(n)]
    return PermGroup(n, [Permutation(images)])


def abelian(invariant_factors: list[int]) -> PermGroup:
    """Direct product of cyclic groups on the disjoint union of points."""
    for f in invariant_factors:
        if f < 2:
            raise BadParam(f"invariant factors must be >= 2, got {brief(f)}")
    if not invariant_factors:
        return PermGroup(1, [Permutation.identity(1)])
    degree = sum(invariant_factors)
    _bound_degree("abelian", degree)
    gens = []
    start = 0
    for f in invariant_factors:
        images = list(range(degree))
        for i in range(f):
            images[start + i] = start + (i + 1) % f
        gens.append(Permutation(images))
        start += f
    return PermGroup(degree, gens)


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n acting on the n-gon's vertices."""
    if n < 3:
        raise BadParam(f"dihedral group needs n >= 3, got {brief(n)}")
    _bound_degree("dihedral", n)
    rotation = Permutation([(i + 1) % n for i in range(n)])
    reflection = Permutation([(-i) % n for i in range(n)])
    return PermGroup(n, [rotation, reflection])


def dicyclic(m: int) -> PermGroup:
    """Dicyclic group of order 4m (quaternion Q_8 for m = 2) via its regular
    action: a has order 2m, b² = a^m and b a b⁻¹ = a⁻¹."""
    if m < 2:
        raise BadParam(f"dicyclic group needs m >= 2, got {brief(m)}")
    size = 4 * m
    _bound_degree("dicyclic", size)

    def index(i: int, j: int) -> int:
        return (i % (2 * m)) + 2 * m * (j % 2)

    # right multiplication by a:  a^i b^j . a = a^(i -+ 1) b^j
    mult_a = [0] * size
    # right multiplication by b:  a^i . b = a^i b,  a^i b . b = a^(i+m)
    mult_b = [0] * size
    for i in range(2 * m):
        for j in range(2):
            x = index(i, j)
            mult_a[x] = index(i + 1, j) if j == 0 else index(i - 1, j)
            mult_b[x] = index(i, 1) if j == 0 else index(i + m, 0)
    return PermGroup(size, [Permutation(mult_a), Permutation(mult_b)])


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise BadParam(f"symmetric group needs n >= 1, got {brief(n)}")
    _bound_degree("symmetric", n)
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)])
    swap = Permutation.from_cycles([[1, 2]], n)
    if n == 2:
        return PermGroup(2, [swap])
    cycle = Permutation.from_cycles([list(range(1, n + 1))], n)
    return PermGroup(n, [swap, cycle])


def alternating(n: int) -> PermGroup:
    """A_n from a 3-cycle and a long even cycle (choice depends on parity)."""
    if n < 3:
        raise BadParam(f"alternating group needs n >= 3, got {brief(n)}")
    _bound_degree("alternating", n)
    three = Permutation.from_cycles([[1, 2, 3]], n)
    if n == 3:
        return PermGroup(3, [three])
    if n % 2 == 1:
        long = Permutation.from_cycles([list(range(1, n + 1))], n)
    else:
        long = Permutation.from_cycles([list(range(2, n + 1))], n)
    return PermGroup(n, [three, long])


def direct_product(A: PermGroup, B: PermGroup) -> PermGroup:
    """A x B acting on the disjoint union of the point sets."""
    degree = A.degree + B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation(list(g.images) + list(range(A.degree, degree))))
    for g in B.generators:
        gens.append(
            Permutation(list(range(A.degree)) + [A.degree + i for i in g.images])
        )
    return PermGroup(degree, gens)


def wreath(A: PermGroup, B: PermGroup) -> PermGroup:
    """Imprimitive wreath product on m*n points: n blocks of size m, base
    copies of A inside blocks, B permuting blocks rigidly.

    A's generators are installed on one block per B-orbit so that the normal
    closure under the block action supplies every base copy; the result has
    order |A|^n * |B| exactly, which is verified before returning.
    """
    m, n = A.degree, B.degree
    degree = m * n
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(f"wreath product degree {brief(degree)} too large")

    # orbits of B on the block indices
    seen = set()
    orbit_reps = []
    for start in range(n):
        if start in seen:
            continue
        orbit_reps.append(start)
        stack = [start]
        seen.add(start)
        while stack:
            j = stack.pop()
            for g in B.generators:
                k = g.apply(j)
                if k not in seen:
                    seen.add(k)
                    stack.append(k)

    gens = []
    for block in orbit_reps:
        offset = block * m
        for g in A.generators:
            images = list(range(degree))
            for i in range(m):
                images[offset + i] = offset + g.apply(i)
            gens.append(Permutation(images))
    for g in B.generators:
        images = [0] * degree
        for j in range(n):
            target = g.apply(j)
            for i in range(m):
                images[j * m + i] = target * m + i
        gens.append(Permutation(images))

    W = PermGroup(degree, gens)
    expected = A.order() ** n * B.order()
    if W.order() != expected:
        raise AssertionError(
            f"wreath order {W.order()} != |A|^n * |B| = {expected}"
        )
    return W


def sylnorm(p: int) -> PermGroup:
    """Normalizer of a Sylow p-subgroup in the symmetric group of degree p:
    the Frobenius group of order p(p-1), generated on Z/p by the p-cycle
    i -> i+1 and the multiplication by the least primitive root."""
    if p > 13:  # before the trial division, which a huge p would stall
        raise BadParam(f"sylnorm supports p <= 13, got {brief(p)}")
    if not is_prime(p):
        raise BadParam(f"sylnorm needs a prime, got {p}")
    cycle = Permutation([(i + 1) % p for i in range(p)])
    if p == 2:
        return PermGroup(2, [cycle])
    root = next(
        g
        for g in range(2, p)
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_divisors(p - 1))
    )
    multiplier = Permutation([(root * i) % p for i in range(p)])
    return PermGroup(p, [cycle, multiplier])


def iterated_wreath(p: int, k: int) -> PermGroup:
    """Tower W_1 = sylnorm(p), W_(i+1) = sylnorm(p) wr W_i, of degree p**k."""
    if k < 1:
        raise BadParam(f"iterated wreath depth must be >= 1, got {brief(k)}")
    # |p| >= 2 passes MAX_DEGREE by the exponent MAX_DEGREE.bit_length(), so a
    # larger k is cut down to it, keeping k's parity for the sign of a negative p
    top = MAX_DEGREE.bit_length()
    if p ** min(k, top + (k - top) % 2) > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {brief(p)}**{brief(k)} exceeds {MAX_DEGREE}")
    W = sylnorm(p)
    base = sylnorm(p)
    for _ in range(k - 1):
        W = wreath(base, W)
    return W


def _int_list(text: str) -> list[int]:
    return [read_int(x) for x in text.split(",")]


# family -> (builder, one parser per parameter)
FAMILIES = {
    "cyclic": (cyclic, (read_int,)),
    "abelian": (abelian, (_int_list,)),
    "dihedral": (dihedral, (read_int,)),
    "dicyclic": (dicyclic, (read_int,)),
    "symmetric": (symmetric, (read_int,)),
    "alternating": (alternating, (read_int,)),
    "sylnorm": (sylnorm, (read_int,)),
    "wreath-sylnorm": (iterated_wreath, (read_int, read_int)),
}


def parse_family_spec(spec: str) -> PermGroup:
    """Build a group from the textual family syntax ``family:param[:param]``.

    Supported: cyclic:n, abelian:d1,d2,..., dihedral:n, dicyclic:m,
    symmetric:n, alternating:n, sylnorm:p, wreath-sylnorm:p:k (the iterated
    wreath tower of depth k).
    """
    family, *params = spec.strip().split(":")
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise BadParam(f"unknown family {excerpt(family)} (known: {known})")
    build, parsers = FAMILIES[family]
    if len(params) != len(parsers):
        raise BadParam(
            f"family {excerpt(family)} takes {len(parsers)} parameter(s),"
            f" got {len(params)}"
        )
    try:
        args = [parse(text) for parse, text in zip(parsers, params)]
    except ValueError as e:
        raise BadParam(f"non-integer parameter {e}") from None
    return build(*args)
