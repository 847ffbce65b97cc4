r"""The induced Markov chain over all node-value assignments.

A state is an n-bit word; bit (i-1) holds the value of node i, and node 1 is
the leftmost character in every rendered bitstring. One gossip step selects
an edge {i,j} by the edge weights and lets each endpoint draw an operator
independently from the rule set. Both endpoints then update simultaneously
from the pre-step values, with one proviso: a step whose two draws differ
and would flip both endpoint bits at once is void and leaves the state
unchanged. Equal draws always take full effect, so a single operator can
still flip both sides (e.g. XOR turns an agreeing pair into zeros).

Communication classes are the strongly connected components of the
positive-probability transition digraph. Its support is computed exactly,
one cell per state and move, a blocked move being a self-loop, which
changes no class: an arc s -> t exists iff some (edge, op, op) draw maps s
to t, so no float threshold is ever involved. The chain is absorbing when
it has an absorbing state and every state reaches one. analyze decides
this from the strong components of one rule set: every closed class must
be a single absorbing state. The all-rule-set sweep decides it for every
reach table at once by one backward reachability pass, with no strong
components. Absorption probabilities solve (I - Q^T) y = e_start by
restarted GMRES, where Q and R are the transient-to-transient and
transient-to-absorbing blocks, and return R^T y only when a residual bound
certifies its error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import gmres

from .errors import CapacityError, ParseError, PreconditionError, SolverError
from .graphs import Graph, is_connected
from .rules import OPS, RuleSet, evaluate

MAX_SOLVE_N = 16  # absorption probabilities and CSV tables
MAX_SWEEP_N = 12  # all-rule-sets sweep
MAX_DOT_N = 8  # chain diagrams

WEIGHT_TOL = 1e-12
RESIDUAL_TOL = 1e-10
_EXACT_DENOM = 10**6
ANALYZE_BYTES = 2 << 30  # analyze: estimated peak of its support and class pass
_CLOSED_BLOCK = 1 << 12  # rows a block of analyze's closed-class pass


def format_state(s: int, n: int) -> str:
    """Render a state word as a bitstring with node 1 leftmost."""
    if not 0 <= s < 1 << n:
        raise ValueError(f"state {s} out of range for n={n}")
    return "".join("1" if s >> i & 1 else "0" for i in range(n))


def parse_state(text: str, n: int) -> int:
    """Parse a bitstring (node 1 leftmost) into a state word."""
    if len(text) != n or any(c not in "01" for c in text):
        raise ParseError(f"bitstring {text!r} must be {n} characters of 0/1")
    s = 0
    for idx, c in enumerate(text):
        if c == "1":
            s |= 1 << idx
    return s


@dataclass(frozen=True)
class ChainSpec:
    """A connected graph, a rule set, and per-edge selection weights.

    edge_weights follows the order of graph.edges and defaults to uniform
    1/|E|. Weights must be positive and sum to 1 within 1e-12.
    """

    graph: Graph
    rules: RuleSet
    edge_weights: tuple = ()

    def __post_init__(self):
        if not is_connected(self.graph):
            raise PreconditionError("interaction graph must be connected")
        m = len(self.graph.edges)
        weights = tuple(self.edge_weights)
        if not weights:
            weights = (Fraction(1, m),) * m
        if len(weights) != m:
            raise ValueError(f"{m} edges but {len(weights)} edge weights")
        if any(w <= 0 for w in weights):
            raise ValueError(f"edge weights must be positive: {weights}")
        object.__setattr__(self, "edge_weights", weights)
        if not math.isclose(math.fsum(self._float_weights), 1.0, abs_tol=WEIGHT_TOL):
            raise ValueError(f"edge weights must sum to 1: {weights}")

    # Not dataclass fields: they stay out of ==, hash and repr.
    @cached_property
    def _float_weights(self) -> np.ndarray:
        """The edge weights as one read-only float64 array, converted once."""
        weights = self.edge_weights
        floats = np.fromiter(map(float, weights), dtype=np.float64, count=len(weights))
        floats.flags.writeable = False
        return floats

    @cached_property
    def _steps(self) -> tuple[int | None, tuple]:
        """(D, per_edge), the one-step outcomes that transition_row sums.

        per_edge[e] = (i - 1, j - 1, outcomes) for edge e = (i, j), where
        outcomes[c] lists (flip mask, weight) pairs for the draw pairs that
        move edge code c. When the weights and probabilities lift to exact
        fractions, D is their common denominator and each weight an int
        numerator over D, one per distinct flip. Otherwise D is None and
        the weights are the float products w * p_k * p_l, one per draw pair
        (k, l) in order, so that float sums keep the (edge, k, l) order.
        """
        ops = self.rules.ops
        weights = _lift_exact(self.edge_weights)
        probs = _lift_exact(self.rules.probs)
        if weights is None or probs is None:
            denom = None
            weights = self._float_weights.tolist()
            probs = tuple(map(float, self.rules.probs))
        else:
            dw = math.lcm(*(w.denominator for w in weights))
            dp = math.lcm(*(p.denominator for p in probs))
            denom = dw * dp * dp
            weights = tuple(w.numerator * (dw // w.denominator) for w in weights)
            probs = tuple(p.numerator * (dp // p.denominator) for p in probs)
        per_edge = []
        for w, (i, j) in zip(weights, self.graph.edges):
            outcomes = []
            for c in range(4):
                pairs = []
                for k, pk in zip(ops, probs):
                    wk = w * pk
                    for l, pl in zip(ops, probs):
                        flip = c ^ int(_PAIR_STEP[k, l, c])
                        mask = (flip & 1) << (i - 1) | (flip >> 1) << (j - 1)
                        pairs.append((mask, wk * pl))
                if denom is not None:
                    merged: dict[int, int] = {}
                    for mask, num in pairs:
                        merged[mask] = merged.get(mask, 0) + num
                    pairs = merged.items()
                outcomes.append(tuple(pairs))
            per_edge.append((i - 1, j - 1, tuple(outcomes)))
        return denom, tuple(per_edge)


@dataclass(frozen=True)
class TransitionRow:
    """One row of the transition matrix: distinct targets with probabilities."""

    source: int
    targets: tuple[tuple[int, float], ...]


@dataclass(eq=False)
class ChainAnalysis:
    """Communication classes, absorbing structure, and transience masks.

    class_of[s] is the SCC id of state s; absorbing and transient are boolean
    masks over the 2^n state words. A state is transient exactly when its
    class is not closed (some arc leaves the class).
    """

    n: int
    class_of: np.ndarray
    class_count: int
    absorbing: np.ndarray
    transient: np.ndarray
    is_absorbing_chain: bool

    @property
    def absorbing_states(self) -> frozenset[int]:
        return frozenset(int(s) for s in np.nonzero(self.absorbing)[0])

    @property
    def transient_states(self) -> frozenset[int]:
        return frozenset(int(s) for s in np.nonzero(self.transient)[0])

    def classes(self) -> tuple[frozenset[int], ...]:
        """The class partition as frozensets, sorted by smallest member."""
        order = np.argsort(self.class_of, kind="stable")
        parts = np.split(order, np.cumsum(np.bincount(self.class_of))[:-1])
        parts.sort(key=lambda members: members[0])
        return tuple(frozenset(members.tolist()) for members in parts)


def step_pair(s: int, edge: tuple[int, int], op_i: int, op_j: int) -> int:
    """Apply one pair update: both endpoints read the pre-step values.

    edge must be (i, j) with i < j; op_i is the operator drawn by the
    smaller-indexed endpoint. Bits outside the edge are unchanged. A step
    with op_i != op_j that would flip both endpoint bits is void and
    returns s itself.
    """
    i, j = edge
    if i >= j:
        raise ValueError(f"edge must be ordered (i, j) with i < j, got {edge}")
    bi = s >> (i - 1) & 1
    bj = s >> (j - 1) & 1
    new_i = evaluate(op_i, bi, bj)
    new_j = evaluate(op_j, bj, bi)
    if op_i != op_j and new_i != bi and new_j != bj:
        return s
    cleared = s & ~(1 << (i - 1)) & ~(1 << (j - 1))
    return cleared | new_i << (i - 1) | new_j << (j - 1)


# _PAIR_STEP[k, l, c]: the outcome of step_pair on one edge in code
# c = (bit of i) | (bit of j) << 1 when i draws k and j draws l.
_PAIR_STEP = np.array(
    [
        [[step_pair(c, (1, 2), k, l) for c in range(4)] for l in range(16)]
        for k in range(16)
    ],
    dtype=np.uint8,
)


# _SIGNATURE[mask] packs the reach table of the rule set with that 16-bit
# mask: bit 4c + c' is set when some draw pair of the set moves edge code c
# to c' != c. word[k, l] packs the moves of the draw pair (k, l) alone. The
# table is built one operator k at a time: a mask holding k and a set S of
# smaller operators ORs _SIGNATURE[S], word[k, k] and word[k, l] | word[l, k]
# for each l in S.
def _signatures() -> np.ndarray:
    codes = np.arange(4)
    word = np.where(_PAIR_STEP != codes, 1 << (4 * codes + _PAIR_STEP), 0).sum(
        axis=2, dtype=np.uint16
    )
    signature = np.zeros(1, dtype=np.uint16)
    for k in range(16):
        cross = np.zeros(1, dtype=np.uint16)
        for l in range(k):
            cross = np.concatenate([cross, cross | word[k, l] | word[l, k]])
        signature = np.concatenate([signature, signature | word[k, k] | cross])
    return signature


_SIGNATURE = _signatures()
# _SHIFT[c, c']: the bit of a signature that says c moves to c'.
_SHIFT = 4 * np.arange(4)[:, None] + np.arange(4)


def _reach(op_set) -> np.ndarray:
    """reach[c, c']: some draw pair from op_set moves edge code c to c' != c."""
    bad = set(op_set).difference(OPS)
    if bad:
        raise ValueError(f"operator index out of range: {bad}")
    mask = sum(1 << k for k in op_set)
    return (int(_SIGNATURE[mask]) >> _SHIFT & 1).astype(bool)


def _has_double_flips(reach: np.ndarray) -> bool:
    codes = np.arange(4)
    return bool(reach[codes, codes ^ 3].any())


def _moves(g: Graph, reach: np.ndarray):
    """The moves that a (4, 4, T) stack of reach tables allows at each state.

    Returns (ok, masks): column k flips the node bits of masks[k], and
    ok[s, k, t] says that table t allows it at state s. Column v - 1 flips
    node v, which holding b may flip when some neighbour holds a b' with
    reach[c, c ^ 1], c = b | b' << 1. Both ends of an edge draw from one
    rule set, so the moves of its higher end are those of its lower end
    with the code bits swapped, and this covers v at either end. When some
    table flips both ends of an edge at once, one column per edge follows.
    """
    n, size = g.n, 1 << g.n
    codes = np.arange(4)
    single = reach[codes, codes ^ 1]
    # flips[b | has0 << 1 | has1 << 2]: a node holding b may flip, given
    # whether some neighbour holds 0 and whether some holds 1.
    idx = np.arange(8)
    b, has0, has1 = idx & 1, idx[:, None] >> 1 & 1 == 1, idx[:, None] >> 2 == 1
    flips = has0 & single[b] | has1 & single[b | 2]
    pairs = g.edges if _has_double_flips(reach) else ()
    masks = [1 << v for v in range(n)] + [1 << (i - 1) | 1 << (j - 1) for i, j in pairs]
    states = np.arange(size, dtype=np.int32)
    ok = np.empty((size, len(masks), reach.shape[2]), dtype=bool)
    for v in range(n):
        nb = sum(1 << (u - 1) for u in g.neighbors(v + 1))
        key = (states >> v & 1).astype(np.uint8)
        key |= (~states & nb != 0).view(np.uint8) << 1
        key |= (states & nb != 0).view(np.uint8) << 2
        ok[:, v] = flips[key]
    double = reach[codes, codes ^ 3]
    for e, (i, j) in enumerate(pairs):
        code = (states >> (i - 1) & 1) | (states >> (j - 1) & 1) << 1
        ok[:, n + e] = double[code]
    return ok, np.array(masks, dtype=np.int32)


def _support(g: Graph, reach: np.ndarray):
    """Exact positive-probability support of the chain, as fixed-width rows.

    Returns (targets, absorbing). Row s of the (2^n, cols) int32 table holds,
    in ascending order, s ^ mask for each move of _moves that s allows and
    s itself for each one it blocks. A self-loop changes no strong
    component, so the rows serve csgraph as CSR rows of width cols. The
    absorbing mask flags states with no move. Raises CapacityError, before
    any large allocation, when the estimated peak exceeds ANALYZE_BYTES.
    """
    n, size = g.n, 1 << g.n
    cols = n + len(g.edges) * _has_double_flips(reach)
    # Peak bytes, at most: per (state, column) cell, the move flag and the
    # int32 target, and a byte of headroom; per state, the vectors of the
    # move build, the strong components and the closed-class pass; per cell
    # of a closed-class block, an int32 label and a flag.
    need = size * (6 * cols + 64) + min(size, _CLOSED_BLOCK) * 5 * cols
    if need > ANALYZE_BYTES:
        raise CapacityError(
            f"analysis of n={n} with {cols} moves a state needs about "
            f"{need / 2**30:.1f} GiB, over the budget of {ANALYZE_BYTES / 2**30:g} GiB"
        )
    ok, masks = _moves(g, reach[..., None])
    ok = ok[..., 0]
    absorbing = ~ok.any(axis=1)
    # Blocked cells hold s ^ 0. Distinct masks keep the other targets distinct.
    targets = np.multiply(ok, masks, dtype=np.int32)
    del ok
    targets ^= np.arange(size, dtype=np.int32)[:, None]
    targets.sort(axis=1)
    return targets, absorbing


def analyze(spec: ChainSpec) -> ChainAnalysis:
    """Full structural analysis of the induced chain.

    Depends only on the support of the rule set and edge weights (all
    positive by construction), so any two positive probability assignments
    give identical results.
    """
    targets, absorbing = _support(spec.graph, _reach(spec.rules.op_set))
    size, cols = targets.shape
    # csgraph casts the data to float64, and for any other dtype copies the
    # indices too; a read-only broadcast 1.0 costs neither.
    ones = np.broadcast_to(1.0, targets.size)
    indptr = np.arange(0, targets.size + 1, cols, dtype=np.int32)
    adj = sparse.csr_matrix((ones, targets.reshape(-1), indptr), shape=(size, size))
    class_count, labels = csgraph.connected_components(
        adj, directed=True, connection="strong"
    )
    # A class is closed when no arc out of its states leaves it. The rows are
    # read in blocks, since a gather by whole rows beats one strided column
    # at a time when the rows are wide.
    leaving = np.empty(size, dtype=bool)
    for start in range(0, size, _CLOSED_BLOCK):
        rows = slice(start, start + _CLOSED_BLOCK)
        leaving[rows] = (labels[targets[rows]] != labels[rows, None]).any(axis=1)
    closed = np.ones(class_count, dtype=bool)
    closed[labels[leaving]] = False
    transient = ~closed[labels]
    # From every state some path leads into a closed class, and an absorbing
    # state is a closed class of its own. So every state reaches an absorbing
    # state exactly when every closed class is one.
    is_absorbing_chain = bool(np.count_nonzero(closed) == np.count_nonzero(absorbing))
    return ChainAnalysis(
        n=spec.graph.n,
        class_of=labels,
        class_count=int(class_count),
        absorbing=absorbing,
        transient=transient,
        is_absorbing_chain=is_absorbing_chain,
    )


def _lift_exact(values):
    """Map floats to Fractions when every value round-trips with denominator
    <= 1e6 and the lifted values sum to exactly 1; otherwise return None."""
    fracs = []
    for v in values:
        if isinstance(v, Fraction):
            fracs.append(v)
            continue
        if isinstance(v, int):
            fracs.append(Fraction(v))
            continue
        f = Fraction(v).limit_denominator(_EXACT_DENOM)
        if float(f) != v:
            return None
        fracs.append(f)
    if sum(fracs) != 1:
        return None
    return tuple(fracs)


def transition_row(spec: ChainSpec, s: int) -> TransitionRow:
    """Merged one-step distribution out of state s.

    When all rule probabilities and edge weights lift to small fractions
    summing to 1, each target's probability is an int numerator over one
    common denominator, summed exactly and rounded to float once (the
    float of the exact rational). Otherwise plain floats are summed in
    (edge, k, l) draw order. Targets are sorted by state word.
    """
    n = spec.graph.n
    if not 0 <= s < 1 << n:
        raise ValueError(f"state {s} out of range for n={n}")
    denom, per_edge = spec._steps
    acc: dict[int, object] = {}
    for si, sj, outcomes in per_edge:
        for flip, p in outcomes[(s >> si & 1) | (s >> sj & 1) << 1]:
            t = s ^ flip
            acc[t] = acc.get(t, 0) + p
    if denom is None:
        targets = tuple(sorted(acc.items()))
    else:
        targets = tuple((t, p / denom) for t, p in sorted(acc.items()))
    return TransitionRow(source=s, targets=targets)


def absorption_probabilities(spec: ChainSpec, start: int) -> dict[int, float]:
    """Probability of ending in each absorbing state from a transient start.

    Solves (I - Q^T) y = e_start by GMRES (restart 100, relative residual
    1e-14) and returns R^T y as a map over all absorbing states. The
    answer is certified: the l1 norm of the residual e_start + Q^T y - y,
    plus a stated bound on its float rounding, bounds the summed error of
    the probabilities. A bound above RESIDUAL_TOL raises SolverError.
    """
    n = spec.graph.n
    if n > MAX_SOLVE_N:
        raise CapacityError(f"n={n} exceeds the solver cap of {MAX_SOLVE_N}")
    if not 0 <= start < 1 << n:
        raise ValueError(f"state {start} out of range for n={n}")
    analysis = analyze(spec)
    if not analysis.is_absorbing_chain:
        raise PreconditionError("chain is not absorbing")
    if not analysis.transient[start]:
        raise PreconditionError(
            f"start state {format_state(start, n)} is absorbing, not transient"
        )
    transient_ids = np.flatnonzero(analysis.transient)
    absorbing_ids = np.flatnonzero(analysis.absorbing)
    nt, na = len(transient_ids), len(absorbing_ids)
    counts = np.empty(nt, dtype=np.int32)

    def rows():
        for row_idx, s in enumerate(transient_ids.tolist()):
            row = transition_row(spec, s).targets
            counts[row_idx] = len(row)
            yield row

    flat = itertools.chain.from_iterable  # (target, probability) pairs as floats
    pairs = np.fromiter(flat(flat(rows())), dtype=np.float64).reshape(-1, 2)
    # Row col[t] of qr_t is t's index among the transient states, or nt plus
    # its index among the absorbing ones.
    # Targets that are neither transient nor absorbing would sit in a
    # closed non-absorbing class, impossible in an absorbing chain.
    col = np.zeros(1 << n, dtype=np.int32)
    col[transient_ids] = np.arange(nt)
    col[absorbing_ids] = np.arange(nt, nt + na)
    source = np.repeat(np.arange(nt, dtype=np.int32), counts)
    target = col[pairs[:, 0].astype(np.int32)]
    qr_t = sparse.csr_matrix((pairs[:, 1], (target, source)), shape=(nt + na, nt))
    del pairs, source, target  # freed before GMRES allocates its Krylov basis
    q_t, r_t = qr_t[:nt], qr_t[nt:]
    e = np.zeros(nt)
    e[np.searchsorted(transient_ids, start)] = 1.0
    y, _ = gmres(
        sparse.identity(nt, format="csr") - q_t, e, rtol=1e-14, atol=0.0, restart=100
    )
    # GMRES's own convergence flag is not used; the bound below decides.
    # I - Q^T is a nonsingular M-matrix, so its inverse is nonnegative, and
    # the rows of (I - Q)^-1 R sum to at most 1. So for any y the l1 error
    # of R^T y is at most the l1 norm of the exact residual e + Q^T y - y.
    # Each float residual entry is within (k + 2) eps (e + |Q^T| |y| + |y|)
    # of the exact one, k the most nonzeros in a row of Q^T.
    res = e + q_t @ y - y
    k = int(np.diff(q_t.indptr).max(initial=0))
    slack = (k + 2) * 2.0**-52 * float(np.sum(e + q_t @ np.abs(y) + np.abs(y)))
    bound = float(np.abs(res).sum()) + slack
    if not bound <= RESIDUAL_TOL:
        raise SolverError(
            f"absorption solve not certified: error bound {bound:.3e} "
            f"exceeds {RESIDUAL_TOL:g}"
        )
    probs = r_t @ y
    return {int(s): float(p) for s, p in zip(absorbing_ids, probs)}


def sweep_absorbing_verdicts(g: Graph) -> np.ndarray:
    """Brute-force absorbing-chain verdict for every nonempty rule set.

    Returns a boolean array indexed by the 16-bit rule mask (entry 0 is
    meaningless). A verdict is true when the chain has some absorbing state
    and every state reaches one. The support digraph of a rule set depends
    only on its reach table (which edge codes some draw pair moves to which
    others), so the 65535 masks share a few dozen tables. All of them are
    decided together by one backward reachability fixpoint over a
    (state, table) boolean matrix, and the verdicts are fanned out to the
    masks. No strong components are computed here; analyze does that.
    """
    if not is_connected(g):
        raise PreconditionError("interaction graph must be connected")
    if g.n > MAX_SWEEP_N:
        raise CapacityError(f"n={g.n} exceeds the sweep cap of {MAX_SWEEP_N}")
    tables, inverse = np.unique(_SIGNATURE[1:], return_inverse=True)
    # reach[c, c', t]: table t moves an edge in code c to c'.
    reach = (tables >> _SHIFT[..., None] & 1).astype(bool)
    ok, masks = _moves(g, reach)
    states = np.arange(1 << g.n, dtype=np.int32)
    # reached[s, t]: state s reaches an absorbing state under table t. It
    # starts at the absorbing states and only grows, so the in-place passes
    # stop, and a table with no absorbing state reaches nothing.
    reached = ~ok.any(axis=1)
    before = -1
    while (count := np.count_nonzero(reached)) != before:
        before = count
        for col, mask in enumerate(masks.tolist()):
            reached |= reached[states ^ mask] & ok[:, col]
    verdicts = np.zeros(1 << 16, dtype=bool)
    verdicts[1:] = reached.all(0)[inverse]
    return verdicts


def export_dot(spec: ChainSpec) -> str:
    """DOT digraph of the chain: bitstring labels, one fill color per class,
    absorbing states drawn as double circles. Self-loops are omitted. The
    diagram cap is checked before the chain is analysed."""
    n = spec.graph.n
    if n > MAX_DOT_N:
        raise CapacityError(f"n={n} exceeds the diagram cap of {MAX_DOT_N}")
    analysis = analyze(spec)
    targets, _ = _support(spec.graph, _reach(spec.rules.op_set))
    lines = ["digraph chain {", "  node [style=filled];"]
    for s in range(1 << n):
        label = format_state(s, n)
        hue = (int(analysis.class_of[s]) * 0.618034) % 1.0
        color = f"{hue:.3f} 0.400 0.950"
        shape = ' shape=doublecircle' if analysis.absorbing[s] else ""
        lines.append(f'  "{label}" [fillcolor="{color}"{shape}];')
    for s, row in enumerate(targets.tolist()):
        for t in row:
            if t != s:
                lines.append(f'  "{format_state(s, n)}" -> "{format_state(t, n)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_csv(spec: ChainSpec) -> str:
    """CSV table of transition rows: source,target,prob with bitstring states."""
    n = spec.graph.n
    if n > MAX_SOLVE_N:
        raise CapacityError(f"n={n} exceeds the table cap of {MAX_SOLVE_N}")
    lines = ["source,target,prob"]
    for s in range(1 << n):
        row = transition_row(spec, s)
        for t, p in row.targets:
            lines.append(f"{format_state(s, n)},{format_state(t, n)},{p!r}")
    return "\n".join(lines) + "\n"
