"""Simple undirected graphs on nodes ``0..n-1``, stored as neighbor bitmasks.

Nodes are anonymous integers.  A graph is its node count ``n`` and one
integer per node, ``adjacency[u]``, whose bit ``v`` is set exactly when
``u`` and ``v`` are adjacent; subset-heavy operations (induced edge counts,
outside-neighbor counts) reduce to bit arithmetic on these masks.  The set
of ``(u, v)`` pairs with ``u < v`` is a derived view (:attr:`Graph.edges`),
built on first use and cached; equality and hashing agree with it.  Graphs
are immutable after construction and safe to share between threads.  There
is one way to build a graph from pairs, :func:`new_graph`, which checks
each pair and accepts it in either order; ``Graph`` has no public
constructor.

Two serialized forms are supported, both written by walking the set bits of
each mask above the node itself, so the pairs come out in lexicographic
order without a sort:

* canonical JSON: ``{"n": <int>, "edges": [[u, v], ...]}`` with ``u < v`` and
  the pairs sorted lexicographically, rendered compactly so equal graphs
  serialize to identical bytes;
* whitespace edge-list text: first line ``n``, then one ``u v`` pair per line.

Reading canonical JSON has a fast path.  A JSON text of at least
``FAST_JSON_MIN_CHARS`` characters is first read in one numpy pass: its
node ids are checked (in range, ``u < v``, pairs strictly increasing) and
set as bits, and the graph is accepted only if :func:`graph_to_json`
re-renders it to exactly the input text.  A text that re-renders to itself
is the canonical serialization of that graph, so the general parser
(``json.loads`` and :func:`new_graph`) would have built the same graph.
Any other text, and every shorter one, is read by the general parser,
which gives every error message.  Edge-list text always takes its general
parser.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, count, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int]


# the most nodes a graph may declare: every per-node list is allocated from
# the declared count before any edge is read, so an outside file or recipe
# must not be able to ask for more
MAX_NODES = 1 << 20


class CapExceededError(RuntimeError):
    """An exact check was asked to exceed its combinatorial budget."""


# maps the digits of bin() to the bytes 0 and 1, which compress() reads as
# false and true
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first: 1 where set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    return compress(count(), _bits(mask))


def mask_bits(masks: Sequence[int], n: int) -> np.ndarray:
    """(len(masks), n) uint8 0/1 matrix: row k holds bits 0..n-1 of ``masks[k]``."""
    width = (n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _later_neighbors(
    adjacency: Sequence[int], labels: Sequence
) -> Iterator[tuple[int, Iterator]]:
    """For each node ``u`` with a later neighbor: ``u`` and the labels of its
    neighbors ``v > u``, ascending, read off the set bits of its mask."""
    for u, a in enumerate(adjacency):
        above = a >> (u + 1)
        if above:
            yield u, compress(labels[u + 1 :], _bits(above))


@dataclass(frozen=True, init=False)
class Graph:
    """Immutable simple undirected graph on nodes ``0..n-1``.

    The graph is ``n`` and ``adjacency``, one neighbor bitmask per node.
    There is no public constructor: a graph is built from pairs through
    :func:`new_graph`, which checks each pair and accepts either order.
    Builders whose masks are correct by construction (the constructions'
    recipe replay, :func:`complement`, :meth:`remove_edge`) hand them over
    with :meth:`_from_masks`.
    """

    n: int
    adjacency: tuple[int, ...]

    @classmethod
    def _from_masks(cls, n: int, masks: Sequence[int]) -> "Graph":
        """A graph from ``n`` neighbor bitmasks, taken as given.

        The caller guarantees that the masks are symmetric, that no node's
        mask holds its own bit and that no bit at ``n`` or above is set.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adjacency", tuple(masks))
        return g

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def edge_pairs(self) -> Iterator[Edge]:
        """Every edge as ``(u, v)`` with ``u < v``, in lexicographic order."""
        for u, vs in _later_neighbors(self.adjacency, range(self.n)):
            yield from zip(repeat(u), vs)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edge set as ``(u, v)`` pairs with ``u < v``, built once from the masks."""
        return frozenset(self.edge_pairs())

    def _check_node(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise ValueError(f"node {i} out of range for n={self.n}")

    def neighbors(self, i: int) -> set[int]:
        self._check_node(i)
        return set(members(self.adjacency[i]))

    def degree(self, i: int) -> int:
        self._check_node(i)
        return self.adjacency[i].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return bool(self.adjacency[u] >> v & 1)

    def remove_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with one edge removed; the edge must exist."""
        e = (min(u, v), max(u, v))
        if not (0 <= u < self.n and 0 <= v < self.n and self.adjacency[u] >> v & 1):
            raise ValueError(f"edge {e} not present")
        masks = list(self.adjacency)
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        return Graph._from_masks(self.n, masks)

    def subset_mask(self, s: Iterable[int]) -> int:
        """Bitmask for a set of nodes, validating membership."""
        mask = 0
        for i in s:
            self._check_node(i)
            mask |= 1 << i
        return mask


def new_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a validated graph, collapsing duplicate and reversed pairs.

    ``n`` and every node id must be an ``int`` (a ``bool`` is refused) and
    every edge a pair; anything else raises ``ValueError``, as do ``n`` below
    1 or above ``MAX_NODES``, self-loops and node ids outside ``0..n-1``.
    Each pair is checked and its two bits set as it is read, with no
    intermediate list.
    """
    if type(n) is not int:
        raise ValueError(f"node count {n!r} is not an integer")
    if n < 1:
        raise ValueError("a graph needs at least one node")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the limit of {MAX_NODES} nodes")
    masks = [0] * n
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
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph._from_masks(n, masks)


def complete_graph(n: int) -> Graph:
    return new_graph(n, combinations(range(n), 2))


def complement(g: Graph) -> Graph:
    """Graph on the same nodes whose edges are exactly the missing pairs."""
    full = (1 << g.n) - 1
    return Graph._from_masks(g.n, [full ^ a ^ (1 << u) for u, a in enumerate(g.adjacency)])


def is_spanning_subgraph(g: Graph, h: Graph) -> bool:
    """True iff every edge of ``h`` is also an edge of ``g`` (same node set)."""
    if g.n != h.n:
        raise ValueError(f"node counts differ: {g.n} != {h.n}")
    return all(not b & ~a for a, b in zip(g.adjacency, h.adjacency))


def induced_edge_count(g: Graph, s: Iterable[int]) -> int:
    """Number of edges with both endpoints in ``s``."""
    mask = g.subset_mask(s)
    return sum((g.adjacency[i] & mask).bit_count() for i in members(mask)) // 2


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
    """Canonical JSON, byte for byte what ``json.dumps`` gives with compact separators."""
    rows = _later_neighbors(g.adjacency, [str(i) for i in range(g.n)])
    body = ",".join(f"[{u}," + f"],[{u},".join(vs) + "]" for u, vs in rows)
    return f'{{"n":{g.n},"edges":[{body}]}}\n'


# JSON texts this long or longer try the fast path first; below it the
# numpy calls' fixed cost exceeds what they save (the two paths cross at
# 2-4 KB, n of about 24-32 on the constructions)
FAST_JSON_MIN_CHARS = 4096

# the envelope graph_to_json writes around the pairs; seven digits cover
# every n up to MAX_NODES
_CANONICAL_HEAD = re.compile(r'\{"n":([1-9][0-9]{0,6}),"edges":\[')
_CANONICAL_TAIL = "]}\n"
_PAIR_PUNCTUATION = str.maketrans("[],", "   ")
_ID_CHARACTERS = dict.fromkeys(map(ord, "0123456789[],"))


def _canonical_json_graph(text: str) -> Graph | None:
    """The graph whose canonical JSON is exactly ``text``, else ``None``.

    The masks come from :func:`_canonical_json_masks`, and the graph is
    returned only if it re-renders to ``text``.  The re-render runs after
    that call has returned, so its strings never coexist with the id
    arrays.  Never raises.
    """
    read = _canonical_json_masks(text)
    if read is None:
        return None
    g = Graph._from_masks(*read)
    return g if graph_to_json(g) == text else None


def _canonical_json_masks(text: str) -> tuple[int, list[int]] | None:
    """``(n, masks)`` read from the pairs of a canonical JSON ``text``, or
    ``None`` where it cannot be canonical.

    Every node id is read with one ``np.fromstring`` after the pair
    punctuation is blanked.  The ids are checked to be pairs with
    ``0 <= u < v < n`` and ``u * n + v`` strictly increasing, so each pair
    sets two distinct bits in a bool matrix with one row per node that
    touches an edge, each as wide as the highest id; ``np.packbits`` turns
    the rows into mask bytes.  A text whose matrix would take more bytes
    than it has characters (a few edges on high ids) is left to the general
    parser, so this path never costs more memory than that one.
    """
    head = _CANONICAL_HEAD.match(text)
    if head is None or not text.endswith(_CANONICAL_TAIL):
        return None
    n = int(head.group(1))
    body = text[head.end() : -len(_CANONICAL_TAIL)]
    # digits and pair punctuation alone, so fromstring reads every id and
    # none is negative
    if n > MAX_NODES or body.translate(_ID_CHARACTERS):
        return None
    ids = np.fromstring(body.translate(_PAIR_PUNCTUATION), dtype=np.int64, sep=" ")
    # a copy of the text: freed before the id-sized arrays below exist
    del body
    if ids.size == 0 or ids.size % 2:
        return None
    u, v = ids[0::2], ids[1::2]
    if (u >= v).any() or (v >= n).any() or (np.diff(u * n + v) <= 0).any():
        return None
    width = 8 * (int(v.max()) // 8 + 1)
    touched = np.zeros(width, dtype=bool)
    touched[ids] = True
    nodes = np.flatnonzero(touched)
    if width * nodes.size > len(text):
        return None
    row = np.cumsum(touched) - 1
    bits = np.zeros((nodes.size, width), dtype=bool)
    bits[row[u], v] = True
    bits[row[v], u] = True
    rows = np.packbits(bits, axis=1, bitorder="little").tobytes()
    row_bytes = width // 8
    masks = [0] * n
    for i, node in enumerate(nodes.tolist()):
        masks[node] = int.from_bytes(rows[i * row_bytes : (i + 1) * row_bytes], "little")
    return n, masks


def _parsed_json_graph(text: str) -> Graph:
    """The general JSON parser: ``json.loads``, then :func:`new_graph`."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("graph JSON is nested too deeply") from None
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    if not isinstance(payload["edges"], list):
        raise ValueError("graph JSON 'edges' must be a list of pairs")
    return new_graph(payload["n"], payload["edges"])


def graph_from_json(text: str) -> Graph:
    """Read a graph from JSON; canonical texts of ``FAST_JSON_MIN_CHARS`` or
    more characters take the fast path (see the module docstring)."""
    if len(text) >= FAST_JSON_MIN_CHARS:
        g = _canonical_json_graph(text)
        if g is not None:
            return g
    return _parsed_json_graph(text)


def graph_to_edge_text(g: Graph) -> str:
    rows = _later_neighbors(g.adjacency, [str(i) for i in range(g.n)])
    lines = [str(g.n)]
    lines.extend(f"{u} " + f"\n{u} ".join(vs) for u, vs in rows)
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
    """Parse either of the two accepted formats, sniffing on the first byte.

    Text opening with ``{`` or ``[`` goes to :func:`graph_from_json`, so an
    array gets the JSON errors (not an object, nested too deeply): a text of
    at least ``FAST_JSON_MIN_CHARS`` characters is read in one numpy pass
    and kept only if it re-renders to itself byte for byte, else (and below
    that size) it is read by ``json.loads`` and :func:`new_graph`.  Any
    other text takes :func:`graph_from_edge_text`.
    """
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return graph_from_json(text)
    return graph_from_edge_text(text)
