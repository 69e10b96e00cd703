"""Group structure: conjugacy classes, power maps, Sylow subgroups, p-cores,
derived series, exponents.

All class-level machinery enumerates the group and is therefore guarded by
the enumeration cap; generator-level operations (derived subgroup,
solvability, exp(P/P')) work beyond it.  The class table owns G's
enumeration: ``conjugacy_classes`` asks ``PermGroup.closure`` for it once,
keeps its ``word -> index`` dict with the class of each position, and
drops the rest after the sweep.  Words are in G's ``encoding`` (``bytes``
up to degree 256), which every subgroup of G shares.  The sweep runs on
element indices: it reads conjugation off the Cayley columns and the
breadth-first tree of the closure, makes no word, and wraps only the
class reps as Permutations.  The power map computes a row by successive
products of words only for a class that is not a power of an earlier
one, so at most one row per Galois orbit of classes, and derives every
other row from it.

The Sylow scans (_sylow) read element orders off the class table, and
O_p(G) is the union of the classes of G that lie wholly in a Sylow
p-subgroup (core_classes), so its order and exponent are class sums.
``rationality.Analysis`` asks for both once per group.  Subgroups are
plain PermGroups: _sylow and _normal_closure, which builds the derived
subgroup and O_p(G), return the group their growth loop built last, chain
included, or the trivial group.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterable
from itertools import islice

from .group import DEFAULT_CAP, Cayley, PermGroup, trivial_group
from .perm import Permutation, commutator, compose


# Miller-Rabin over these bases is exact below PRIME_BOUND (Sorenson and
# Webster, Math. Comp. 2017); callers refuse a larger n.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Miller-Rabin over _WITNESSES, exact for n < PRIME_BOUND, in about
    log n steps where trial division would take about sqrt n."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class ClassTable:
    """Conjugacy classes of a group: representatives in deterministic order,
    sizes, the class of every element, and the power map of every class,
    built here and never changed afterwards.

    ``index`` is the closure's dict from each element's word, in
    ``group.encoding``, to its position, and ``classes[i]`` the class of
    the element at position i, so an element with word t lies in class
    ``classes[index[t]]``.

    reps[0] is always the identity class; power_map[c][k] is the class of
    reps[c] ** k for k in 0..rep_orders[c]-1.

    Only a class c whose row is not known yet gets its row by successive
    products of words, up to the identity, which also gives the
    rep's order o.  Every class d = row[k] then gets its row from that one:
    reps[d] is conjugate to reps[c] ** k, so reps[d] ** j lies in the class
    row[k*j mod o].  In particular the units k derive the rows of c's whole
    Galois orbit, so at most one row per orbit is computed.
    """

    def __init__(
        self,
        group: PermGroup,
        reps: list[Permutation],
        sizes: list[int],
        index: dict[bytes | tuple[int, ...], int],
        classes: list[int],
    ):
        self.group = group
        self.reps = reps
        self.sizes = sizes
        self.index = index
        self.classes = classes
        encoding = group.encoding
        compose_words, identity = encoding.compose, encoding.identity
        rows: list[list[int] | None] = [None] * len(reps)
        for c, rep in enumerate(reps):
            if rows[c] is not None:
                continue
            x = encoding.encode(rep.images)
            table = encoding.table(x)
            row = [0]
            while x != identity:
                row.append(classes[index[x]])
                x = compose_words(x, table)
            rows[c] = row
            o = len(row)
            for k in range(2, o):
                d = row[k]
                if rows[d] is None:
                    rows[d] = [row[k * j % o] for j in range(o // math.gcd(k, o))]
        self.power_map: list[list[int]] = rows
        self.rep_orders = [len(row) for row in rows]

    def __len__(self) -> int:
        return len(self.reps)

    def class_index(self, p: Permutation) -> int:
        try:
            return self.classes[self.index[self.group.encoding.encode(p.images)]]
        except (KeyError, ValueError):  # bytes() rejects a point above 255
            raise ValueError(f"{p} is not a member of the group") from None


def conjugacy_classes(G: PermGroup, cap: int = DEFAULT_CAP) -> ClassTable:
    """Full class partition by orbits of the conjugation action, seeded from
    each yet-unassigned element in enumeration order.  Not cached: callers
    that need the table more than once keep it.

    The sweep runs on element indices: the conjugation action of each
    generator is an integer permutation read from the closure's Cayley
    columns (see _conjugation_actions), and classes are its orbits.  Only
    the reps are wrapped as Permutations; the table keeps the closure's
    index, and the word list and columns go when the sweep returns.
    """
    words, index, cayley = G.closure(cap)
    decode = G.encoding.decode
    actions = _conjugation_actions(cayley)
    cls = [-1] * len(words)
    reps: list[Permutation] = []
    sizes: list[int] = []
    for x, c in enumerate(cls):
        if c >= 0:
            continue
        idx = len(reps)
        cls[x] = idx
        members = [x]
        for y in members:  # grows while it is walked: the breadth-first queue
            for action in actions:
                z = action[y]
                if cls[z] < 0:
                    cls[z] = idx
                    members.append(z)
        reps.append(Permutation._trusted(decode(words[x])))
        sizes.append(len(members))
    return ClassTable(G, reps, sizes, index, cls)


def _conjugation_actions(cayley: Cayley) -> list[list[int]]:
    """For each generator g, the list whose entry j is the index of
    elements[j] ** g = g⁻¹ · elements[j] · g.

    One pass over the enumeration's tree gives left[j], the index of
    g⁻¹ · elements[j], since g⁻¹ · elements[j] = (g⁻¹ · elements[parent[j]])
    · g_edge[j]; the conjugate is then the right Cayley column of g read at
    left[j].
    """
    right, parent, edge = cayley
    # the columns' entries are the closure index's int objects, one per
    # element, and so are left and the actions built from them
    actions = []
    for right_g in right:
        # g⁻¹ is the last power of g before the identity; g is right_g[0]
        inverse, k = 0, right_g[0]
        while k:
            inverse, k = k, right_g[k]
        left = [inverse]
        push = left.append
        for i, e in islice(zip(parent, edge), 1, None):  # the tree below the root
            push(right[e][left[i]])
        actions.append(list(map(right_g.__getitem__, left)))
    return actions


def _normalizes(g: Permutation, H: PermGroup) -> bool:
    """g normalizes H iff every generator of H conjugates into H (the
    conjugate subgroup has the same order, so containment forces equality)."""
    return all(H.contains(h.conjugate_by(g)) for h in H.generators)


def _sylow(table: ClassTable, p: int) -> PermGroup:
    """A Sylow p-subgroup of the group G of ``table`` via normalizer growth.

    While the subgroup is smaller than the p-part of |G|, adjoin the p-part
    of the first normalizer element that lands outside it (at first the
    subgroup is trivial, so that is the first element of order divisible
    by p).  Each growth step scans the enumeration lazily and stops at that
    element, never listing the whole normalizer.  Deterministic because
    every scan follows the enumeration order.  Returns the group the last
    step built, or the trivial group when p does not divide |G|.

    An element's order is its class rep's, so the scans skip p'-elements by
    a lookup and wrap as Permutations only the elements they test.
    """
    G = table.group
    target = p_part(G.order(), p)
    index, classes = table.index, table.classes
    orders, decode = table.rep_orders, G.encoding.decode
    gens: list[Permutation] = []
    P = trivial_group(G.degree)
    while P.order() < target:
        # the index dict iterates in enumeration order
        for t, c in zip(index, classes):
            o = orders[c]
            if o % p:
                continue  # a p'-element's p-part is the identity
            y = Permutation._trusted(decode(t))
            if not _normalizes(y, P):
                continue
            z = y ** (o // p_part(o, p))
            if not P.contains(z):
                gens.append(z)
                P = PermGroup(G.degree, gens)
                break
        else:
            raise AssertionError("normalizer growth stalled below the p-part")
    return P


def core_classes(members: Iterable[bytes | tuple[int, ...]], table: ClassTable) -> set[int]:
    """The classes of G, the group of ``table``, that lie wholly in its
    subgroup P, given the words of P's members (``P.closure()[0]``), which
    are in G's encoding since P has G's degree.
    For P Sylow their union is O_p(G), the intersection of the conjugates
    of P: its order is the sum of their sizes and its exponent the lcm of
    their rep orders.

    A class lies in P exactly when P holds all its members, so P's members
    are counted per class, not listed.
    """
    index, classes = table.index, table.classes
    hits = Counter(classes[index[t]] for t in members)
    return {c for c, n in hits.items() if n == table.sizes[c]}


def derived_subgroup(H: PermGroup) -> PermGroup:
    """Normal closure of the generator commutators; generator-based, so it
    works beyond the enumeration cap."""
    seeds = []
    seen = set()
    for i, a in enumerate(H.generators):
        for b in H.generators[i + 1 :]:
            c = commutator(a, b)
            if not c.is_identity() and c.images not in seen:
                seen.add(c.images)
                seeds.append(c)
    return _normal_closure(H, seeds)


def _normal_closure(H: PermGroup, seeds: list[Permutation]) -> PermGroup:
    """The smallest normal subgroup of H holding ``seeds``, elements of H:
    the group they generate, grown by each conjugate of a seed or a grown
    generator by a generator of H that lands outside it.  Generator-based,
    so it works beyond the enumeration cap; the trivial group when there
    are no seeds."""
    if not seeds:
        return trivial_group(H.degree)
    gens = list(seeds)
    D = PermGroup(H.degree, gens)
    queue = deque(seeds)
    while queue:
        d = queue.popleft()
        for g in H.generators:
            e = d.conjugate_by(g)
            if not D.contains(e):
                gens.append(e)
                D = PermGroup(H.degree, gens)
                queue.append(e)
    return D


def is_solvable(G: PermGroup) -> bool:
    """A group whose order has at most two prime divisors is solvable, by
    Burnside's p^a q^b theorem; every prime divisor of |G| is at most the
    degree, so the factorization is cheap.  Any other group is solvable when
    its derived series reaches the trivial group within log2 |G| steps."""
    if len(prime_divisors(G.order())) <= 2:
        return True
    current = G
    for _ in range(G.order().bit_length() + 1):
        order = current.order()
        if order == 1:
            return True
        D = derived_subgroup(current)
        if D.order() == order:
            return False
        current = D
    return current.order() == 1


def is_elementary_abelian(H: PermGroup, p: int) -> bool:
    """H abelian with exponent dividing p.

    Both checks are generator-level: abelian means all generator pairs
    commute, and then the exponent is the lcm of the generator orders.
    """
    gens = H.generators
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if compose(a, b) != compose(b, a):
                return False
    exp = 1
    for g in gens:
        exp = math.lcm(exp, g.order())
    return p % exp == 0


def abelianization_exponent_divides(P: PermGroup, p: int) -> bool:
    """True iff x**p lies in P' for every x in P, i.e. exp(P/P') divides p.

    P/P' is abelian and generated by the images of P's generators, so it is
    enough that g**p lies in P' for each generator g.  Nothing is
    enumerated, so this works beyond the cap.
    """
    D = derived_subgroup(P)
    return all(D.contains(g ** p) for g in P.generators)
