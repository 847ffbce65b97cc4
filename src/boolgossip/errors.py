"""Exception types shared across the package.

All validation failures raise subclasses of GossipError so callers (and the
CLI) can catch one base type. ValueError is kept in the bases because most
failures are bad input values.

Every size limit set by memory is one budget: a request estimates its peak
bytes from its arguments and calls check_budget before any large
allocation.
"""

BUDGET_BYTES = 2 << 30  # read only by check_budget


class GossipError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GossipError, ValueError):
    """Malformed textual input (edge lists, bitstrings, rule lists)."""


class ConstructionError(GossipError, ValueError):
    """A requested object cannot be built (infeasible graph parameters)."""


class PreconditionError(GossipError, ValueError):
    """An operation was called outside its stated domain."""


class CapacityError(GossipError, ValueError):
    """The request exceeds a size cap or the memory budget."""


def check_budget(need: int, what: str) -> None:
    """Raise CapacityError when `need`, the estimated peak bytes of `what`,
    passes BUDGET_BYTES."""
    if need > BUDGET_BYTES:
        raise CapacityError(
            f"{what}: estimated peak {need / 2**30:.1f} GiB, "
            f"over the budget of {BUDGET_BYTES / 2**30:g} GiB"
        )


class SolverError(GossipError, RuntimeError):
    """A solve could not certify its answer; the message reports the error
    bound it reached."""
