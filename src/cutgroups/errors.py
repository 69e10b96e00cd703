"""Exception types shared across the package; ``brief`` and ``excerpt``,
which their messages use to show a number or any other value the caller
gave; and ``read_int``, the one reader of an integer the user wrote."""

import math
import reprlib


def brief(n: int) -> str:
    """An integer for a message: its digits up to 20 of them, past that
    ``<k digits>`` after its sign, so that the refusal of a huge number
    stays one short line.  ``str`` would refuse past 4300 digits, so k is
    read off ``log10`` and corrected exactly."""
    if -10 ** 20 < n < 10 ** 20:
        return str(n)
    size = abs(n)
    k = int(math.log10(size)) + 1  # at most one off near a power of ten
    k += (size >= 10 ** k) - (size < 10 ** (k - 1))
    return f"{'-' if n < 0 else ''}<{k} digits>"


class _Excerpt(reprlib.Repr):
    """``reprlib``'s bounded repr, one level deep, with ints by ``brief``."""

    def __init__(self):
        super().__init__()
        self.maxlevel = 1

    def repr_int(self, x: int, level: int) -> str:
        return brief(x)


# A value for a message: a string's ends, a sequence's first items, an
# int's digits or digit count, so that echoing any input stays one short line.
excerpt = _Excerpt().repr


def read_int(text: str) -> int:
    """``int(text)``, or a ValueError whose message shows the text for the
    caller's refusal: ``<k digits>`` for a signed run of k decimal digits
    (int() reads at most 4300), else ``excerpt(text)``."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        if digits[:1] in ("+", "-"):
            digits = digits[1:]
        shown = f"<{len(digits)} digits>" if digits.isdecimal() else excerpt(text)
        raise ValueError(shown) from None


class CutgroupsError(Exception):
    """Base class for all errors raised by this package."""


class MalformedCycle(CutgroupsError):
    """Cycle-notation text does not match the grammar."""


class PointOutOfRange(CutgroupsError):
    """A cycle mentions a point outside 1..degree."""


class RepeatedPoint(CutgroupsError):
    """A point occurs twice in a cycle-notation string."""


class DegreeMismatch(CutgroupsError):
    """Two permutations (or a group and a permutation) have different degrees."""


class EmptyGenerators(CutgroupsError):
    """A group was requested with no generators at all."""


class CapExceeded(CutgroupsError):
    """The group is larger than the element-enumeration cap.

    Signals that class-level analyses are unavailable for this group at
    this cap; callers either raise the cap or skip the group.
    """

    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds enumeration cap {cap}")
        self.order = order
        self.cap = cap


class NotCoprime(CutgroupsError):
    """A power-map exponent is not coprime to the element order."""


class BoundExceeded(CutgroupsError):
    """An alternating-group degree is outside the supported range."""


class BadParam(CutgroupsError):
    """A family constructor received an invalid parameter."""


class DegreeTooLarge(CutgroupsError):
    """A construction would act on more points than the configured limit."""


class CorpusError(CutgroupsError):
    """Base class for corpus-file problems."""


class CorpusSyntaxError(CorpusError):
    """Malformed corpus file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateId(CorpusError):
    """Two corpus records share an id."""


class OrderMismatch(CorpusError):
    """A record's declared order disagrees with the computed group order;
    carries the line number of the ``order`` line."""

    def __init__(self, record_id: str, expected: int, actual: int, line_no: int):
        super().__init__(
            f"line {line_no}: record {excerpt(record_id)}:"
            f" declared order {brief(expected)}, computed {actual}"
        )
        self.record_id = record_id
        self.line_no = line_no
