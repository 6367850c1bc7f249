"""Exception types shared across the package.

DomainError subclasses signal mathematically meaningful rejections
(the CLI maps them to exit code 3); SchemaError signals malformed
input documents (exit code 2); InternalError signals a violated
internal invariant, i.e. a bug in the package (exit code 1).

_Usage and _PropertyFailure are the CLI's own signals, not FixlocErrors:
the report modules and the help module raise them and `cli.main` catches
them.  They live here, where every CLI child already loads them, since
no module may import `cli`: under `python -m fixloc.cli` it is
`__main__`, and a second import would make second classes that `main`
does not catch.
"""


class FixlocError(Exception):
    """Base class for all package errors."""


class SchemaError(FixlocError):
    """An input document does not match its declared schema."""


class InternalError(FixlocError):
    """An invariant the package maintains itself does not hold."""


class DomainError(FixlocError):
    """Input is well-formed but mathematically inadmissible."""


class InvalidProfile(DomainError):
    """Cover profile violates its structural constraints."""


class UnknownOrbit(DomainError):
    """A divisor or datum references an orbit label the profile lacks."""


class InvalidDatum(DomainError):
    """Equivariant or parabolic datum violates its invariants."""


class NonIntegralDegree(DomainError):
    """A degree that must be divisible by the cover order is not."""


class NoSolution(DomainError):
    """A congruence system admits no solution in the required range."""


class NotSemistableNotStrict(DomainError):
    """Graded object requested for a bundle that is not strictly semistable."""


class OddOrder(DomainError):
    """An order-two construction was invoked for an odd-order cover."""


class InvalidGenus(DomainError):
    """Genus parameter outside the meaningful range."""


class InconsistentDegrees(DomainError):
    """Degree data incompatible with the covering degree."""


class _Usage(Exception):
    """The command line is rejected: main writes the usage line and the one
    argument, the message, on stderr and returns 2.  With no argument, -h
    or --help asked for the help text, which main writes as a text report."""


class _PropertyFailure(Exception):
    """A checked property failed; its one argument is the counterexample
    document, which main writes as JSON, whatever the format, with exit 1."""
