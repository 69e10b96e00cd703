"""Rationality classification of classes and groups.

An element x is rational when every generator of <x> is conjugate to x, and
inverse semi-rational when every generator of <x> is conjugate to x or to
x⁻¹; a group all of whose elements are inverse semi-rational is a cut group.

Everything here is driven by the Galois-style action of units k mod o on
classes, c -> class of rep**k.  The stabilizer of a class under that action
determines the field generated by the corresponding character-table column:
its degree is the stabilizer's index in the unit group, and the field is
imaginary exactly when complex conjugation (k = o-1) is missing from the
stabilizer.  The degree of the field generated by the whole character table
is likewise the index of the global stabilizer in the units mod exp(G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, wraps
from typing import Callable, ClassVar, Iterable

from .alternating import alternating_classes, alternating_power_conjugate
from .errors import BadParam, BoundExceeded, brief
from .group import DEFAULT_CAP, PermGroup, trivial_group
from .structure import (
    PRIME_BOUND,
    ClassTable,
    _normal_closure,
    _sylow,
    abelianization_exponent_divides,
    conjugacy_classes,
    core_classes,
    is_elementary_abelian,
    is_prime,
    is_solvable,
    p_part,
    prime_divisors,
)

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

# Largest n that qg_degree_alternating (and so `cutgroups an-fields`) takes.
ALTERNATING_MAX_N = 14

SUITE_CHECKS = ("bmp", "tent", "gow_primes", "cut_primes", "hegedus", "ppe", "q3")


@dataclass(frozen=True)
class CheckResult:
    status: str  # PASS, FAIL or SKIP
    detail: str

    def as_dict(self) -> dict:
        return {"status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class ClassRationality:
    """Per-class verdicts and the degree of the class's column field, shared
    by every class of one Galois orbit."""

    element_order: int
    stabilizer: tuple[int, ...]  # residues k mod order with rep**k ~ rep
    is_rational: bool
    is_inverse_semirational: bool
    is_semirational: bool
    is_real: bool
    field_degree: int
    field_imaginary: bool

    def as_dict(self) -> dict:
        return {
            "element_order": self.element_order,
            "stabilizer": list(self.stabilizer),
            "rational": self.is_rational,
            "inverse_semirational": self.is_inverse_semirational,
            "semirational": self.is_semirational,
            "real": self.is_real,
            "field_degree": self.field_degree,
            "field_imaginary": self.field_imaginary,
        }


@dataclass
class GroupReport:
    order: int
    solvable: bool
    is_rational: bool
    is_cut: bool
    is_semirational: bool
    qg_degree: int
    class_reports: list[ClassRationality]
    check_results: dict[str, CheckResult] = field(default_factory=dict)

    # the scalar verdicts, in the order of every report's table columns
    SUMMARY_FIELDS: ClassVar[tuple[str, ...]] = (
        "order", "solvable", "rational", "cut", "semirational", "qg_degree"
    )

    def summary(self) -> dict:
        """The scalar verdicts keyed by SUMMARY_FIELDS."""
        values = (
            self.order,
            self.solvable,
            self.is_rational,
            self.is_cut,
            self.is_semirational,
            self.qg_degree,
        )
        return dict(zip(self.SUMMARY_FIELDS, values))

    def as_dict(self) -> dict:
        return {
            **self.summary(),
            "classes": [
                {"class_index": c, **r.as_dict()}
                for c, r in enumerate(self.class_reports)
            ],
            "checks": {name: r.as_dict() for name, r in self.check_results.items()},
        }


def residues_coprime(n: int) -> list[int]:
    """{k in [1, n] : gcd(k, n) = 1}, ascending; length phi(n)."""
    return [k for k in range(1, n + 1) if math.gcd(k, n) == 1]


@lru_cache(maxsize=256)
def _units(n: int) -> tuple[int, ...]:
    """residues_coprime(n) as a tuple, computed once per class order n:
    every class of one order shares it, in a table or among the split
    classes of an alternating group."""
    return tuple(residues_coprime(n))


def _field_degree(pairs: Iterable[tuple[int, Iterable[int]]]) -> int:
    """Index of the common stabilizer of all classes under k -> class(rep**k),
    given each class's (rep order o, units k mod o with rep**k in the class).
    Rational classes (every unit mod o) are dropped, and the rest are checked
    over the units mod the lcm L of their orders, one condition at a time,
    each narrowing the units that pass all before it.  A kept o is at least
    2 and k is a unit mod L, so k % o is never 0 and is k's residue in
    [1, o].  Those units are not put in the _units cache, which holds the
    units of class orders only.
    """
    distinct = {(o, frozenset(stab)) for o, stab in pairs}
    conditions = [
        (o, stab) for o, stab in distinct if len(stab) < len(_units(o))
    ]
    units = residues_coprime(math.lcm(*(o for o, _ in conditions)))
    fixed = units
    for o, stab in conditions:
        fixed = [k for k in fixed if k % o in stab]
    return len(units) // len(fixed)


def class_stabilizer(table: ClassTable, c: int) -> frozenset[int]:
    """Units k mod the rep order with rep**k in the same class."""
    o = table.rep_orders[c]
    row = table.power_map[c]
    return frozenset(k for k in _units(o) if row[k % o] == c)


def classify_class(table: ClassTable, c: int) -> ClassRationality:
    o = table.rep_orders[c]
    units = _units(o)
    stab = class_stabilizer(table, c)
    degree = len(units) // len(stab)
    is_real = o <= 2 or (o - 1) in stab
    return ClassRationality(
        element_order=o,
        stabilizer=tuple(sorted(stab)),
        is_rational=len(stab) == len(units),
        # stab and -stab, its coset, cover the units exactly when stab has
        # index 1, or index 2 without -1 (the class is not real)
        is_inverse_semirational=degree == 1 or (degree == 2 and not is_real),
        is_semirational=degree <= 2,
        is_real=is_real,
        field_degree=degree,
        field_imaginary=not is_real,
    )


def _fact(compute: Callable) -> Callable:
    """An Analysis method computed once, kept in self.facts[name, *args]."""

    @wraps(compute)
    def fact(self: Analysis, *args):
        key = (compute.__name__, *args)
        if key not in self.facts:
            self.facts[key] = compute(self, *args)
        return self.facts[key]

    return fact


class Analysis:
    """Everything the report and the checks ask about one group, each fact
    computed at most once and kept in ``facts`` under its name and prime,
    e.g. ("sylow", 3): the class table, the per-class verdicts, the
    character-field degree, the report, and per prime the Sylow subgroup,
    its own Analysis and the classes whose union is O_p(G).  Element
    orders, p-cores and class membership are read off the class table.

    One Analysis serves one group_rationality call or survey record and is
    never shared between threads (survey workers are processes), so it takes no lock.
    """

    def __init__(self, G: PermGroup, cap: int = DEFAULT_CAP):
        self.G = G
        self.cap = cap
        self.facts: dict[tuple, object] = {}

    @property
    @_fact
    def table(self) -> ClassTable:
        return conjugacy_classes(self.G, self.cap)

    @property
    @_fact
    def classes(self) -> list[ClassRationality]:
        """classify_class of every class, computed once per Galois orbit.
        A class d = row[k] with k a unit mod the order o of class c has
        the same order and stabilizer as c, as the unit group is abelian,
        so it holds c's verdict object."""
        table = self.table
        out: list[ClassRationality | None] = [None] * len(table)
        for c, row in enumerate(table.power_map):
            if out[c] is not None:
                continue
            r = out[c] = classify_class(table, c)
            o = r.element_order
            for k in _units(o):
                out[row[k % o]] = r
        return out

    @property
    @_fact
    def qg_degree(self) -> int:
        """Index of the global power-map stabilizer, read from the class
        stabilizers: taken over the units mod the lcm of the non-rational
        class orders, it equals the index in the units mod exp(G)."""
        return _field_degree((r.element_order, r.stabilizer) for r in self.classes)

    @property
    @_fact
    def report(self) -> GroupReport:
        """The group-level verdicts, with no checks run."""
        classes = self.classes
        return GroupReport(
            order=self.G.order(),
            solvable=is_solvable(self.G),
            is_rational=all(r.is_rational for r in classes),
            is_cut=all(r.is_inverse_semirational for r in classes),
            is_semirational=all(r.is_semirational for r in classes),
            qg_degree=self.qg_degree,
            class_reports=classes,
        )

    @_fact
    def sylow(self, p: int) -> PermGroup:
        """A Sylow p-subgroup by normalizer growth (structure._sylow); a p
        that is not prime, or not below PRIME_BOUND, is refused before the
        table is built, and a p that does not divide |G| gives the trivial
        group with no table."""
        if p >= PRIME_BOUND:
            raise BadParam(f"p must be below {PRIME_BOUND}, got {brief(p)}")
        if not is_prime(p):
            raise BadParam(f"p must be prime, got {brief(p)}")
        if self.G.within_cap(self.cap) % p:
            return trivial_group(self.G.degree)
        return _sylow(self.table, p)

    @_fact
    def sylow_analysis(self, p: int) -> Analysis:
        return Analysis(self.sylow(p), self.cap)

    @_fact
    def core(self, p: int) -> set[int]:
        """The classes of G that lie wholly in the Sylow p-subgroup; their
        union is O_p(G)."""
        return core_classes(self.sylow(p).closure(self.cap), self.table)

    def p_core(self, p: int) -> tuple[int, int]:
        """Order and exponent of O_p(G), summed over its classes (core); no
        core group is built."""
        core, table = self.core(p), self.table
        order = sum(table.sizes[c] for c in core)
        return order, math.lcm(*(table.rep_orders[c] for c in core))

    def run(self, checks: Iterable[str]) -> dict[str, CheckResult]:
        """Results of the named CHECKS, in the order given."""
        return {name: CHECKS[name](self) for name in checks}


def group_rationality(
    G: PermGroup, cap: int = DEFAULT_CAP, checks: Iterable[str] = ()
) -> GroupReport:
    """Classify every class, aggregate the group-level verdicts, and fill in
    the named checks from CHECKS in the order given."""
    analysis = Analysis(G, cap)
    return replace(analysis.report, check_results=analysis.run(checks))


def qg_degree(G: PermGroup, cap: int = DEFAULT_CAP) -> int:
    """Degree of the field generated by all character-table entries: the
    index of the global power-map stabilizer, taken over the units mod the
    lcm L of the non-rational class orders.  L divides exp(G), and reduction
    mod L maps the units mod exp(G) onto the units mod L with fibres of one
    size, so this is the index in the units mod exp(G)."""
    return Analysis(G, cap).qg_degree


def sylow(G: PermGroup, p: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """A Sylow p-subgroup of G (Analysis.sylow); the trivial group when p
    does not divide |G|."""
    return Analysis(G, cap).sylow(p)


def p_core(G: PermGroup, p: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """O_p(G), the largest normal p-subgroup: the normal closure in G of
    the reps of the classes that make it up (Analysis.core)."""
    analysis = Analysis(G, cap)
    core = analysis.core(p)  # refuses a p that is not prime before the table
    reps = analysis.table.reps
    return _normal_closure(G, [reps[c] for c in sorted(core) if c])


def qg_degree_alternating(n: int) -> int:
    """Same field degree as qg_degree, but from the alternating class
    descriptors, never enumerating A_n.  Non-split classes are rational, so
    only the split ones constrain k, and the index is taken over the units
    mod the lcm of their orders instead of mod exp(A_n)."""
    if not 3 <= n <= ALTERNATING_MAX_N:
        raise BoundExceeded(f"n={n} outside supported range 3..{ALTERNATING_MAX_N}")
    split_stabs = []
    for d in alternating_classes(n):
        if d.splits:
            o = d.rep_order
            stab = [
                k for k in _units(o) if alternating_power_conjugate(d, k)
            ]
            split_stabs.append((o, stab))
    return _field_degree(split_stabs)


# Each check maps an Analysis to a PASS/FAIL/SKIP result.  Registration
# order is the default check order of analyze and survey.
CHECKS: dict[str, Callable[[Analysis], CheckResult]] = {}

# The words a check's hypothesis is written in, as tests of the report.
_HYPOTHESES = {
    "nontrivial": lambda r: r.order > 1,
    "solvable": lambda r: r.solvable,
    "rational": lambda r: r.is_rational,
    "cut": lambda r: r.is_cut,
}


def _check(name: str, *hypothesis: str, unmet: str = ""):
    """Register a check's conclusion under its hypothesis, given in words
    of _HYPOTHESES; a group that misses it gets SKIP with the detail
    ``unmet``, by default "needs a <hypothesis> group"."""
    unmet = unmet or f"needs a {' '.join(hypothesis)} group"

    def register(conclusion: Callable[[Analysis], CheckResult]):
        def check(a: Analysis) -> CheckResult:
            if not all(_HYPOTHESES[word](a.report) for word in hypothesis):
                return CheckResult(SKIP, unmet)
            return conclusion(a)

        CHECKS[name] = check
        return conclusion

    return register


@_check("bmp", "nontrivial", "cut")
def _bmp(a: Analysis) -> CheckResult:
    order = a.report.order
    if order % 2 and order % 3:
        return CheckResult(FAIL, f"order {order} coprime to 6")
    return CheckResult(PASS, f"order {order} divisible by 2 or 3")


@_check("tent", "solvable", "cut")
def _tent(a: Analysis) -> CheckResult:
    degree = a.qg_degree
    return CheckResult(
        PASS if degree <= 32 else FAIL, f"character field degree {degree} vs bound 32"
    )


def _primes_within(a: Analysis, allowed: tuple[int, ...]) -> CheckResult:
    bad = sorted(set(prime_divisors(a.report.order)) - set(allowed))
    if bad:
        return CheckResult(FAIL, f"extra primes {bad}")
    listed = ", ".join(str(p) for p in allowed)
    return CheckResult(PASS, f"prime divisors within {{{listed}}}")


_check("gow_primes", "solvable", "rational")(lambda a: _primes_within(a, (2, 3, 5)))
_check("cut_primes", "solvable", "cut")(lambda a: _primes_within(a, (2, 3, 5, 7)))


@_check("hegedus", "solvable", "rational")
def _hegedus(a: Analysis) -> CheckResult:
    P5 = a.sylow(5)
    normal = P5.order() == a.p_core(5)[0]
    elem_ab = is_elementary_abelian(P5, 5)
    return CheckResult(
        PASS if normal and elem_ab else FAIL,
        f"Sylow 5 order {P5.order()}: normal={normal}, elementary abelian={elem_ab}",
    )


@_check("ppe", "cut")
def _ppe(a: Analysis) -> CheckResult:
    P3 = a.sylow(3)
    ok = abelianization_exponent_divides(P3, 3)
    return CheckResult(
        PASS if ok else FAIL,
        f"exp(P/P') of the order-{P3.order()} Sylow 3-subgroup"
        f" {'divides' if ok else 'does not divide'} 3",
    )


@_check("q3", "solvable", "cut")
def _q3(a: Analysis) -> CheckResult:
    exps = {p: a.p_core(p)[1] for p in (5, 7)}
    return CheckResult(
        PASS if all(p % e == 0 for p, e in exps.items()) else FAIL,
        "; ".join(f"exp O_{p} = {e}" for p, e in exps.items()),
    )


@_check("sylow3", "cut", unmet="group is not cut")
def _sylow3(a: Analysis) -> CheckResult:
    """Is the Sylow 3-subgroup of a cut group itself cut?  A FAIL is a
    potential counterexample to an open question and carries the witness
    subgroup's generators."""
    P = a.sylow(3)
    if a.sylow_analysis(3).report.is_cut:
        return CheckResult(PASS, f"Sylow 3-subgroup of order {P.order()} is cut")
    gens = ", ".join(str(g) for g in P.generators)
    return CheckResult(
        FAIL,
        f"cut group has a non-cut Sylow 3-subgroup of order {P.order()};"
        f" generators: {gens}",
    )


@_check("lemma61")
def _lemma61(a: Analysis) -> CheckResult:
    """A class of 3-elements is inverse semi-rational in G iff some member in
    a Sylow 3-subgroup P is so in P (not every member need be), each class
    of P mapped to its class in G by G's class table.  This is a theorem: a
    FAIL means an implementation bug, not a discovery."""
    table = a.table
    three_classes = [
        c for c, o in enumerate(table.rep_orders) if o > 1 and p_part(o, 3) == o
    ]
    if not three_classes:
        return CheckResult(PASS, "vacuous: no elements of 3-power order")
    sub = a.sylow_analysis(3)
    # per class of G: is some class of P inside it inverse semi-rational in P?
    in_p: dict[int, bool] = {}
    for rep, r in zip(sub.table.reps, sub.classes):
        c = table.class_index(rep)
        in_p[c] = in_p.get(c, False) or r.is_inverse_semirational
    for c in three_classes:
        isr_in_g = a.classes[c].is_inverse_semirational
        if c not in in_p:  # every 3-element class meets every Sylow 3-subgroup
            raise AssertionError("class of a 3-element misses the Sylow subgroup")
        if in_p[c] != isr_in_g:
            return CheckResult(
                FAIL,
                f"class of {table.reps[c]}: inverse semi-rational in G is"
                f" {isr_in_g} but {in_p[c]} in the Sylow 3-subgroup",
            )
    checked = sum(table.sizes[c] for c in three_classes)
    return CheckResult(
        PASS, f"{checked} elements of 3-power order agree with the Sylow verdict"
    )


def conjecture_suite(G: PermGroup, cap: int = DEFAULT_CAP) -> dict[str, CheckResult]:
    """The named theorem/conjecture checks, each PASS/FAIL/SKIP.

    SKIP means the hypothesis is not met; FAIL means the hypothesis held and
    the conclusion did not, which for the open-question checks would be a
    publishable counterexample.
    """
    return Analysis(G, cap).run(SUITE_CHECKS)
