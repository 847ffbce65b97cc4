"""The sixteen binary Boolean operators and the rule families built from them.

An operator is a hex digit k in 0..15 encoding its truth table:

    k = 8*f(0,0) + 4*f(0,1) + 2*f(1,0) + 1*f(1,1)

so op 0x1 is AND, 0x6 is XOR, 0x7 is OR, 0x3 is the first-argument
projection, 0xA is NOT-second, and so on. A RuleSet is a nonempty set of
operators together with positive selection probabilities.

The stability families group operators by which node-value patterns they
leave fixed; they drive every closed-form absorbing-state characterization
in the absorbing module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ParseError

OPS = tuple(range(16))

OP_FALSE = 0x0
OP_AND = 0x1
OP_DIFF = 0x2  # a AND NOT b
OP_FIRST = 0x3  # first-argument projection
OP_XOR = 0x6
OP_OR = 0x7
OP_NOT_SECOND = 0xA  # NOT b
OP_IMPLIED_BY = 0xB  # a OR NOT b
OP_TRUE = 0xF

PROB_TOL = 1e-12


def evaluate(op: int, a: int, b: int) -> int:
    """Apply operator `op` to bits (a, b) by truth-table lookup."""
    if not 0 <= op <= 15:
        raise ValueError(f"operator index out of range: {op}")
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"operands must be bits, got ({a}, {b})")
    return (op >> (3 - (2 * a + b))) & 1


# Stability families, derived from the encoding itself.
# ZERO_STABLE ops keep a 0-0 pair at zero; ONE_STABLE keep a 1-1 pair at one;
# SPLIT_STABLE ops leave both endpoints of an unequal pair unchanged
# (each side keeps its own value), so proper 2-colorings freeze under them.
# NEIGHBOR_COPY ops adopt the neighbour's value whenever the endpoints
# disagree, so they can only swap an unequal edge (or hold it, for mixed
# draws, which the void rule turns into a hold anyway).
ZERO_STABLE = frozenset(k for k in OPS if evaluate(k, 0, 0) == 0)
ONE_STABLE = frozenset(k for k in OPS if evaluate(k, 1, 1) == 1)
SPLIT_STABLE = frozenset(
    k for k in OPS if evaluate(k, 0, 1) == 0 and evaluate(k, 1, 0) == 1
)
NEIGHBOR_COPY = frozenset(
    k for k in OPS if evaluate(k, 0, 1) == 1 and evaluate(k, 1, 0) == 0
)

AND_OR = frozenset({OP_AND, OP_OR})


# The nine parity families, all inside SPLIT_STABLE: NOT-second with at least
# one other operator (seven sets), or both a-AND-NOT-b and a-OR-NOT-b (four
# sets, two of them shared with the first kind).
PARITY_FAMILIES = frozenset(
    frozenset(combo)
    for r in range(2, len(SPLIT_STABLE) + 1)
    for combo in combinations(SPLIT_STABLE, r)
    if OP_NOT_SECOND in combo or {OP_DIFF, OP_IMPLIED_BY} <= set(combo)
)


def is_parity_family(ops: frozenset[int] | set[int]) -> bool:
    """True for the nine rule sets whose absorbing verdict depends only on
    whether the interaction graph contains an odd cycle."""
    return frozenset(ops) in PARITY_FAMILIES


def mask_ops(mask: int) -> frozenset[int]:
    """Unpack a 16-bit membership mask into a set of operator indices."""
    if not 0 <= mask < 1 << 16:
        raise ValueError(f"rule mask out of range: {mask}")
    return frozenset(k for k in OPS if mask >> k & 1)


@dataclass(frozen=True)
class RuleSet:
    """A nonempty operator set with positive selection probabilities.

    probs defaults to uniform 1/len(ops). Probabilities may be floats or
    Fractions; they must be positive and sum to 1 within 1e-12.
    """

    ops: tuple[int, ...]
    probs: tuple = ()

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("rule set must be nonempty")
        if len(set(ops)) != len(ops):
            raise ValueError(f"duplicate operators in rule set: {ops}")
        for k in ops:
            if not 0 <= k <= 15:
                raise ValueError(f"operator index out of range: {k}")
        probs = tuple(self.probs)
        if not probs:
            probs = (Fraction(1, len(ops)),) * len(ops)
        if len(probs) != len(ops):
            raise ValueError(
                f"{len(ops)} operators but {len(probs)} probabilities"
            )
        if any(p <= 0 for p in probs):
            raise ValueError(f"probabilities must be positive: {probs}")
        if not math.isclose(float(sum(map(float, probs))), 1.0, abs_tol=PROB_TOL):
            raise ValueError(f"probabilities must sum to 1: {probs}")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "probs", probs)

    @property
    def op_set(self) -> frozenset[int]:
        return frozenset(self.ops)

    def __str__(self) -> str:
        return format_rules(self.ops)


def parse_rules(text: str) -> tuple[int, ...]:
    """Parse a comma-separated hex digit list like "2,B" into operator indices."""
    ops = []
    for token in text.split(","):
        token = token.strip()
        if len(token) != 1 or token not in "0123456789abcdefABCDEF":
            raise ParseError(f"bad operator token {token!r}: expected a hex digit")
        ops.append(int(token, 16))
    if len(set(ops)) != len(ops):
        raise ParseError(f"duplicate operators in {text!r}")
    return tuple(ops)


def format_rules(ops) -> str:
    """Render operator indices as the comma-separated hex form, e.g. "2,B"."""
    return ",".join(f"{k:X}" for k in ops)


def parse_probs(text: str) -> tuple[float, ...]:
    """Parse a comma-separated probability list like "0.3,0.7"."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad probability list {text!r}: {exc}") from None
