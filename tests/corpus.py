"""Random graph and rule-set corpora shared by property and acceptance tests.

Every builder takes an explicit random.Random so test files control their
seeds; nothing here touches global RNG state.
"""

from __future__ import annotations

import heapq
import random

from boolgossip import graphs


def random_tree(n: int, rng: random.Random) -> graphs.Graph:
    """Uniform random labeled tree on nodes 1..n (Pruefer decode)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return graphs.Graph(2, ((1, 2),))
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return graphs.Graph(n, tuple(edges))


def random_nonline_tree(n: int, rng: random.Random) -> graphs.Graph:
    """Random tree with a node of degree >= 3. Needs n >= 4."""
    if n < 4:
        raise ValueError(f"every tree on n={n} nodes is a path")
    while True:
        g = random_tree(n, rng)
        if graphs.classify_shape(g) is not graphs.ShapeTag.LINE:
            return g


def _missing_pairs(n: int, edges, want) -> list:
    present = set(edges)
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in present and want(i, j)
    ]


def random_bipartite_nontree(n: int, rng: random.Random) -> graphs.Graph:
    """Connected bipartite graph with at least one cycle. Needs n >= 4."""
    if n < 4:
        raise ValueError(f"no bipartite non-tree exists on n={n} nodes")
    while True:
        g = random_tree(n, rng)
        colors = graphs.bipartition(g)
        cross = _missing_pairs(n, g.edges, lambda i, j: colors[i] != colors[j])
        if not cross:
            continue  # the tree was a star on a full color class; reroll
        rng.shuffle(cross)
        count = rng.randrange(1, min(3, len(cross)) + 1)
        return graphs.Graph(n, g.edges + tuple(cross[:count]))


def random_odd_cycle_graph(n: int, rng: random.Random) -> graphs.Graph:
    """Connected graph containing an odd cycle. Needs n >= 3."""
    if n < 3:
        raise ValueError(f"no odd cycle fits in n={n} nodes")
    g = random_tree(n, rng)
    colors = graphs.bipartition(g)
    # Joining two same-colored tree nodes closes an odd cycle; such a pair
    # exists because some color class has >= 2 nodes once n >= 3.
    same = _missing_pairs(n, g.edges, lambda i, j: colors[i] == colors[j])
    edges = list(g.edges)
    edges.append(same[rng.randrange(len(same))])
    extra = _missing_pairs(n, edges, lambda i, j: True)
    rng.shuffle(extra)
    edges.extend(extra[: rng.randrange(0, 3)])
    return graphs.Graph(n, tuple(edges))


def random_connected_graph(n: int, rng: random.Random, extra_max: int = 3) -> graphs.Graph:
    """Random tree plus up to extra_max extra edges."""
    g = random_tree(n, rng)
    extra = _missing_pairs(n, g.edges, lambda i, j: True)
    rng.shuffle(extra)
    count = rng.randrange(0, min(extra_max, len(extra)) + 1)
    return graphs.Graph(n, g.edges + tuple(extra[:count]))


def random_rule_set(rng: random.Random, max_size: int = 5) -> frozenset[int]:
    """Random nonempty operator set, sizes 1..max_size uniform."""
    size = rng.randrange(1, max_size + 1)
    return frozenset(rng.sample(range(16), size))


def random_probs(count: int, rng: random.Random) -> tuple[float, ...]:
    """Random positive probability vector of the given length."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(count)]
    total = sum(raw)
    return tuple(v / total for v in raw)
