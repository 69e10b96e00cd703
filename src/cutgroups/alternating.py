"""Alternating-group class machinery that never enumerates A_n.

Classes of A_n are indexed by even-parity cycle types.  A type yields two
A_n-classes ("splits") exactly when all its parts are odd and pairwise
distinct; otherwise the centralizer of a representative contains an odd
permutation and the full S_n-class is a single A_n-class.

For a split type with parts l, rep**k is A_n-conjugate to rep exactly when
the Jacobi symbols (k/l) multiply to 1: on each l-cycle the conjugator is
i -> i·k⁻¹ mod l, whose sign is (k/l) (Zolotarev's lemma, extended by
Frobenius to odd composite l), and the centralizer of rep, a product of
odd cycles, is even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotCoprime
from .perm import Permutation


@dataclass(frozen=True)
class AltClassDescriptor:
    n: int
    cycle_type: tuple[int, ...]  # partition of n, decreasing
    splits: bool

    @property
    def rep_order(self) -> int:
        return math.lcm(*self.cycle_type)

    @property
    def rep(self) -> Permutation:
        """Cycles on consecutive points, longest part first."""
        images = list(range(self.n))
        start = 0
        for length in self.cycle_type:
            for i in range(length):
                images[start + i] = start + (i + 1) % length
            start += length
        return Permutation(images)


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as decreasing tuples, descending lexicographic."""
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _type_is_even(parts: tuple[int, ...]) -> bool:
    return sum(length - 1 for length in parts) % 2 == 0


def alternating_classes(n: int) -> list[AltClassDescriptor]:
    """One descriptor per even-parity cycle type of degree n (n >= 3)."""
    if n < 3:
        raise ValueError("alternating classes need n >= 3")
    out = []
    for parts in _partitions(n):
        if not _type_is_even(parts):
            continue
        splits = all(p % 2 == 1 for p in parts) and len(set(parts)) == len(parts)
        out.append(AltClassDescriptor(n=n, cycle_type=parts, splits=splits))
    return out


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a/m) for odd m > 0, by quadratic reciprocity."""
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        if a % 4 == m % 4 == 3:
            sign = -sign
        a, m = m % a, a
    return sign if m == 1 else 0


def alternating_power_conjugate(d: AltClassDescriptor, k: int) -> bool:
    """True iff rep**k is A_n-conjugate to rep, for gcd(k, order) = 1.

    Non-split types are immediate (an odd centralizing element exists); a
    split type asks the Jacobi symbols of k over its parts (module
    docstring).
    """
    order = d.rep_order
    if math.gcd(k, order) != 1:
        raise NotCoprime(f"k={k} shares a factor with the element order {order}")
    return not d.splits or math.prod(_jacobi(k, l) for l in d.cycle_type) == 1


def alternating_exponent(n: int) -> int:
    """exp(A_n) as the lcm of representative orders over even cycle types."""
    out = 1
    for d in alternating_classes(n):
        out = math.lcm(out, d.rep_order)
    return out
