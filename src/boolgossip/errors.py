"""Exception types shared across the package.

All validation failures raise subclasses of GossipError so callers (and the
CLI) can catch one base type. ValueError is kept in the bases because most
failures are bad input values.
"""


class GossipError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GossipError, ValueError):
    """Malformed textual input (edge lists, bitstrings, rule lists)."""


class ConstructionError(GossipError, ValueError):
    """A requested object cannot be built (infeasible graph parameters)."""


class PreconditionError(GossipError, ValueError):
    """An operation was called outside its stated domain."""


class CapacityError(GossipError, ValueError):
    """The state space exceeds the configured size cap."""


class SolverError(GossipError, RuntimeError):
    """A solve could not certify its answer; the message reports the error
    bound it reached."""
