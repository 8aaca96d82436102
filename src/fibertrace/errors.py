"""Exception types shared across the package, and ``int_text``, through
which an error message quotes an int that may be past the int-to-str
digit limit."""

import math


def int_text(value) -> str:
    """``str(value)``; for an int past the interpreter's int-to-str digit
    limit (4,300 digits by default), where ``str`` raises ValueError, its
    sign and digit count, such as ``-<5001-digit int>``, so that building
    a domain error's message cannot fail."""
    try:
        return str(value)
    except ValueError:
        pass
    size = abs(value)
    digits = int(math.log10(size))  # within one of the true count, corrected below
    while 10**digits <= size:
        digits += 1
    while 10 ** (digits - 1) > size:
        digits -= 1
    return f"{'-' if value < 0 else ''}<{digits}-digit int>"


class FibertraceError(Exception):
    """Base class for all domain errors raised by this package."""


class BadInput(FibertraceError):
    """An argument violates a documented precondition."""


class NotInvertible(BadInput):
    """Modular inverse requested for a non-unit residue."""


class InvariantError(FibertraceError):
    """An identity that the exact arithmetic guarantees did not hold; this
    signals a bug, never bad input."""


class ModulusMismatch(FibertraceError):
    """Arithmetic between group-ring elements over different moduli."""


class ParseError(FibertraceError):
    """Malformed graph file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(FibertraceError):
    """A structurally well-formed graph violates a fiber invariant."""


class NonIntegralSelfIntersection(ValidationError):
    """A vertex's self-intersection is not an integer, so the input cannot
    be a special fiber: its neighbours' multiplicities, a loop counting the
    vertex twice, do not sum to a multiple of its own."""


class NegativeCharacterCoefficient(FibertraceError):
    """1 - total trace has a negative coefficient; the graph is not a
    valid fiber (or there is a bug upstream)."""


class BadJumpDenominator(FibertraceError):
    """A jump's denominator does not divide n_tilde, the lcm of the
    principal multiplicities; the graph is not a valid fiber (or there is
    a bug upstream)."""


class UnknownType(FibertraceError):
    """Catalog lookup for an unsupported fiber type."""
