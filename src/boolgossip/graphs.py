"""Undirected interaction graphs.

Nodes are labeled 1..n in every external interface. Edges are unordered
distinct pairs; adjacency lists are derived and kept sorted. Graph objects
are immutable after construction and safe to share; each one runs one BFS,
for connectivity and 2-coloring together, at most once and keeps the answer.

Shape classification distinguishes the cases that have different closed-form
class counts: line, cycle, star, other tree, and general graphs split by
whether an odd cycle is present (equivalently, whether 2-coloring fails).
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import ConstructionError, ParseError, check_budget

_REGULAR_RESTARTS = 200
_ITEM_BYTES = 320  # peak per edge and node of a build: at most 281 measured


class ShapeTag(Enum):
    LINE = "line"
    CYCLE = "cycle"
    STAR = "star"
    TREE = "tree"  # tree that is neither a line nor a star
    GENERAL_BIPARTITE = "general-bipartite"
    GENERAL_ODD = "general-odd-cycle"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 1..n with at least two nodes.

    The build's estimated peak, (edges + nodes) * _ITEM_BYTES, is checked
    against the memory budget before the adjacency is made.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ConstructionError(f"graph needs at least 2 nodes, got n={self.n}")
        m = len(self.edges)
        need = (m + self.n) * _ITEM_BYTES
        check_budget(need, f"graph on {self.n} nodes with {m} edges")
        seen = set()
        normalized = []
        for edge in self.edges:
            i, j = edge
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ConstructionError(f"edge {edge} outside node range 1..{self.n}")
            if i == j:
                raise ConstructionError(f"self-loop at node {i}")
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                raise ConstructionError(f"duplicate edge {pair}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(normalized))
        nbrs = [[] for _ in range(self.n + 1)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(ns)) for ns in nbrs)
        )

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    # Not a dataclass field: it stays out of ==, hash and repr.
    @cached_property
    def _bfs(self) -> tuple[bool, tuple[int, ...] | None]:
        """(connected, colors) from one BFS over every component: colors is
        a 0/1 color per node label (entry 0 unused), or None when some
        component contains an odd cycle."""
        colors = [-1] * (self.n + 1)
        components = 0
        bipartite = True
        for start in range(1, self.n + 1):
            if colors[start] != -1:
                continue
            components += 1
            colors[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self.adjacency[u]:
                    if colors[v] == -1:
                        colors[v] = colors[u] ^ 1
                        queue.append(v)
                    elif colors[v] == colors[u]:
                        bipartite = False
        return components == 1, tuple(colors) if bipartite else None


def is_connected(g: Graph) -> bool:
    return g._bfs[0]


def bipartition(g: Graph) -> tuple[int, ...] | None:
    """BFS 2-coloring over all components.

    Returns a color (0/1) per node, indexed by node label with entry 0 unused,
    or None when some component contains an odd cycle.
    """
    return g._bfs[1]


def has_odd_cycle(g: Graph) -> bool:
    return g._bfs[1] is None


def classify_shape(g: Graph) -> ShapeTag:
    """Classify a graph into the shape cases with distinct class-count formulas.

    Tags are mutually exclusive and exhaustive for connected graphs. A
    disconnected graph gets one of the two general tags; operations that
    need connectivity reject it at the point of use.
    """
    degrees = [g.degree(i) for i in range(1, g.n + 1)]
    if is_connected(g):
        ones = degrees.count(1)
        twos = degrees.count(2)
        if ones == 2 and ones + twos == g.n:
            return ShapeTag.LINE
        if twos == g.n:
            return ShapeTag.CYCLE
        if len(g.edges) == g.n - 1:
            if max(degrees) == g.n - 1:
                return ShapeTag.STAR
            return ShapeTag.TREE
    return ShapeTag.GENERAL_ODD if has_odd_cycle(g) else ShapeTag.GENERAL_BIPARTITE


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: one "i j" pair per line.

    Blank lines and '#' comment lines are ignored. n is the maximum node
    label unless an "n=<k>" header line is present. Errors name the
    offending line number. Each line is counted against the memory budget,
    at the rate of an edge of the build, before any is parsed; parse and
    build together peak at up to 287 bytes an edge and node.
    """
    lines = text.count("\n") + 1
    check_budget(lines * _ITEM_BYTES, f"edge list of {lines} lines")
    edges = []
    seen = set()
    n_header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            try:
                n_header = int(line[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad node count {line!r}") from None
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {raw!r}") from None
        if i < 1 or j < 1:
            raise ParseError(f"line {lineno}: node labels must be positive")
        if i == j:
            raise ParseError(f"line {lineno}: self-loop at node {i}")
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise ParseError(f"line {lineno}: duplicate edge {pair}")
        seen.add(pair)
        edges.append(pair)
    if not edges and n_header is None:
        raise ParseError("no edges and no n= header")
    n = n_header if n_header is not None else max(max(e) for e in edges)
    if n_header is not None and edges:
        widest = max(max(e) for e in edges)
        if widest > n_header:
            raise ParseError(f"edge label {widest} exceeds declared n={n_header}")
    return Graph(n, tuple(edges))


def make(kind: str, n: int, seed: int | None = None, d: int | None = None) -> Graph:
    """Build a standard graph: line, cycle, star, complete, or random d-regular.

    line: edges {i,i+1}; cycle: additionally {n,1}; star: center node 1;
    complete: all pairs. regular needs d with n*d even and 0 <= d < n; it is
    sampled by the pairing model with seeded rewiring repair of self-loops
    and duplicates, so the result is reproducible from the seed. When
    2d > n it is the complement of the (n - 1 - d)-regular graph of the
    same seed.

    The edge count follows from the arguments, so the build's peak memory is
    estimated first, as (edges + nodes) * _ITEM_BYTES, and checked against
    the memory budget before anything is built.
    """
    m = {
        "line": n - 1,
        "cycle": n,
        "star": n - 1,
        "complete": n * (n - 1) // 2,
        "regular": n * (d or 0) // 2,
    }.get(kind)
    if m is None:
        raise ConstructionError(f"unknown graph kind {kind!r}")
    check_budget((m + n) * _ITEM_BYTES, f"{kind} graph on {n} nodes has {m} edges")
    if kind == "line":
        if n < 2:
            raise ConstructionError(f"line graph needs n >= 2, got {n}")
        return Graph(n, tuple((i, i + 1) for i in range(1, n)))
    if kind == "cycle":
        if n < 3:
            raise ConstructionError(f"cycle graph needs n >= 3, got {n}")
        edges = [(i, i + 1) for i in range(1, n)]
        edges.append((1, n))
        return Graph(n, tuple(edges))
    if kind == "star":
        if n < 3:
            raise ConstructionError(f"star graph needs n >= 3, got {n}")
        return Graph(n, tuple((1, i) for i in range(2, n + 1)))
    if kind == "complete":
        if n < 2:
            raise ConstructionError(f"complete graph needs n >= 2, got {n}")
        return Graph(
            n, tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
        )
    if d is None:
        raise ConstructionError("regular graph needs a degree d")
    return _make_regular(n, d, seed)


def _make_regular(n: int, d: int, seed: int | None) -> Graph:
    if n < 2 or d < 0 or d >= n or (n * d) % 2 != 0:
        raise ConstructionError(f"no simple {d}-regular graph on {n} nodes")
    if 2 * d > n:
        # The pairing repair below stalls on dense pairings, so a dense graph
        # is the complement of a sparse (n - 1 - d)-regular one, whose n * d
        # has the same parity, drawn from the same seed.
        sparse = set(_make_regular(n, n - 1 - d, seed).edges)
        pairs = itertools.combinations(range(1, n + 1), 2)
        return Graph(n, tuple(pair for pair in pairs if pair not in sparse))
    if d == 0:
        return Graph(n, ())
    rng = random.Random(seed)
    for _ in range(_REGULAR_RESTARTS):
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return Graph(n, tuple(sorted(edges)))
    raise ConstructionError(f"could not realize a {d}-regular graph on {n} nodes")


def _pairing_attempt(n: int, d: int, rng: random.Random) -> list | None:
    # Pairing model: d stubs per node, shuffled and paired consecutively.
    # Self-loops and duplicate edges are repaired by random pair rewiring;
    # for dense d pure rejection would essentially never succeed.
    stubs = [i for i in range(1, n + 1) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = [[stubs[2 * k], stubs[2 * k + 1]] for k in range(len(stubs) // 2)]
    budget = 50 * len(pairs) + 1000
    while budget > 0:
        counts = {}
        bad = []
        for idx, (u, v) in enumerate(pairs):
            if u == v:
                bad.append(idx)
                continue
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
            if counts[key] > 1:
                bad.append(idx)
        if not bad:
            return [tuple(sorted(p)) for p in pairs]
        # Swap one endpoint of each bad pair with a random partner pair.
        for idx in bad:
            other = rng.randrange(len(pairs))
            if other == idx:
                continue
            side_a = rng.randrange(2)
            side_b = rng.randrange(2)
            pairs[idx][side_a], pairs[other][side_b] = (
                pairs[other][side_b],
                pairs[idx][side_a],
            )
            budget -= 1
        budget -= 1
    return None


def to_dot(g: Graph) -> str:
    """Render the plain graph (no chain states) in DOT format."""
    lines = ["graph G {"]
    for i in range(1, g.n + 1):
        lines.append(f"  {i};")
    for i, j in g.edges:
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
