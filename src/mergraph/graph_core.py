"""Simple undirected graphs on nodes ``0..n-1`` with bitmask adjacency.

Nodes are anonymous integers.  Edges are kept as a frozenset of ``(u, v)``
pairs with ``u < v``; each node additionally carries a bitmask of its
neighbors, so subset-heavy operations (induced edge counts, outside-neighbor
counts) reduce to integer bit arithmetic.  Graphs are immutable after
construction and safe to share between threads.

Two serialized forms are supported:

* canonical JSON: ``{"n": <int>, "edges": [[u, v], ...]}`` with ``u < v`` and
  the pairs sorted lexicographically, rendered compactly so equal graphs
  serialize to identical bytes;
* whitespace edge-list text: first line ``n``, then one ``u v`` pair per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

Edge = tuple[int, int]


class CapExceededError(RuntimeError):
    """An exact check was asked to exceed its combinatorial budget."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on nodes ``0..n-1``.

    Instances should normally be built through :func:`new_graph`, which
    normalizes and deduplicates edge pairs.  Direct construction requires
    edges already in ``(min, max)`` form and checks each of them; graphs
    derived from edges that were already checked skip that pass
    (:meth:`_from_checked`).
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a graph needs at least one node")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def _from_checked(cls, n: int, edges: frozenset[Edge]) -> "Graph":
        """A graph from edges known to be in range, loop-free and in ``(min, max)`` form."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-node neighbor bitmasks."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def _check_node(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise ValueError(f"node {i} out of range for n={self.n}")

    def neighbors(self, i: int) -> set[int]:
        self._check_node(i)
        mask = self.adjacency[i]
        return {j for j in range(self.n) if mask >> j & 1}

    def degree(self, i: int) -> int:
        self._check_node(i)
        return self.adjacency[i].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return (min(u, v), max(u, v)) in self.edges

    def remove_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with one edge removed; the edge must exist."""
        e = (min(u, v), max(u, v))
        if e not in self.edges:
            raise ValueError(f"edge {e} not present")
        return Graph._from_checked(self.n, self.edges - {e})

    def subset_mask(self, s: Iterable[int]) -> int:
        """Bitmask for a set of nodes, validating membership."""
        mask = 0
        for i in s:
            self._check_node(i)
            mask |= 1 << i
        return mask


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph, collapsing duplicate and reversed pairs.

    ``n`` and every node id must be an ``int`` (a ``bool`` is refused) and
    every edge a pair; anything else raises ``ValueError``, as do self-loops
    and node ids outside ``0..n-1``.  Each pair is checked and normalized as
    it is read, with no intermediate list.
    """
    if type(n) is not int:
        raise ValueError(f"node count {n!r} is not an integer")
    if n < 1:
        raise ValueError("a graph needs at least one node")
    normalized = set()
    add = normalized.add
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a pair of node ids") from None
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge {edge!r} has a node id that is not an integer")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        add((u, v) if u < v else (v, u))
    # frozenset(set) sizes its table to the final count; a frozenset grown
    # pair by pair can keep a table up to twice that (2 MB instead of 1 MB
    # at 20k edges) for the graph's whole life
    return Graph._from_checked(n, frozenset(normalized))


def complete_graph(n: int) -> Graph:
    return new_graph(n, combinations(range(n), 2))


def complement(g: Graph) -> Graph:
    """Graph on the same nodes whose edges are exactly the missing pairs.

    Walks the set bits of each node's complemented neighbor mask above the
    node itself, so the cost is one step per missing pair.
    """
    full = (1 << g.n) - 1
    missing = []
    for u, a in enumerate(g.adjacency):
        rest = (full ^ a) >> (u + 1)
        while rest:
            low = rest & -rest
            missing.append((u, u + low.bit_length()))
            rest ^= low
    return Graph._from_checked(g.n, frozenset(missing))


def is_spanning_subgraph(g: Graph, h: Graph) -> bool:
    """True iff every edge of ``h`` is also an edge of ``g`` (same node set)."""
    if g.n != h.n:
        raise ValueError(f"node counts differ: {g.n} != {h.n}")
    return h.edges <= g.edges


def induced_edge_count(g: Graph, s: Iterable[int]) -> int:
    """Number of edges with both endpoints in ``s``."""
    mask = g.subset_mask(s)
    total = 0
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        total += (g.adjacency[i] & mask).bit_count()
        m &= m - 1
    return total // 2


def max_clique_size(g: Graph) -> int:
    """Exact maximum clique size.

    Branch-and-bound over candidate bitmasks with a greedy-coloring upper
    bound: candidates are partitioned into color classes (independent sets)
    and a branch is cut once the current clique plus the color index cannot
    beat the incumbent.  The branches are walked depth first with an
    explicit stack, one frame per clique level, so a large clique cannot
    exhaust the interpreter's recursion limit.  Exactness is the contract;
    runtime is best-effort and fine for the desk scales this library
    targets.
    """
    adj = g.adjacency

    def colored(cand: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bound: list[int] = []
        color = 0
        left = cand
        while left:
            color += 1
            avail = left
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(adj[v] | (1 << v))
                left &= ~(1 << v)
                order.append(v)
                bound.append(color)
        return order, bound

    best = 0
    # a frame: candidates left, clique size so far, its colored candidates
    # and the index of the next one to branch on (highest color first)
    stack: list[tuple[int, int, list[int], list[int], int]] = []
    cand, size = (1 << g.n) - 1, 0
    order, bound = colored(cand)
    i = len(order) - 1
    while True:
        if i >= 0 and size + bound[i] > best:
            v = order[i]
            sub = cand & adj[v]
            cand &= ~(1 << v)
            i -= 1
            if sub == 0:
                best = max(best, size + 1)
                continue
            stack.append((cand, size, order, bound, i))
            cand, size = sub, size + 1
            order, bound = colored(cand)
            i = len(order) - 1
        elif stack:
            cand, size, order, bound, i = stack.pop()
        else:
            return best


# -- serialization -----------------------------------------------------------

def graph_to_json(g: Graph) -> str:
    payload = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    if not isinstance(payload["edges"], list):
        raise ValueError("graph JSON 'edges' must be a list of pairs")
    return new_graph(payload["n"], payload["edges"])


def graph_to_edge_text(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def graph_from_edge_text(text: str) -> Graph:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge-list text")
    if len(tokens) % 2 != 1:
        raise ValueError("edge-list text must be 'n' followed by 'u v' pairs")
    n = int(tokens[0])
    pairs = [(int(tokens[i]), int(tokens[i + 1])) for i in range(1, len(tokens), 2)]
    return new_graph(n, pairs)


def parse_graph(text: str) -> Graph:
    """Parse either of the two accepted formats, sniffing on the first byte."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(text)
    return graph_from_edge_text(text)
