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

Two serialized forms are read:

* canonical JSON: ``{"n": <int>, "edges": [[u, v], ...]}`` with ``u < v`` and
  the pairs sorted lexicographically, rendered compactly so equal graphs
  serialize to identical bytes;
* whitespace edge-list text: first line ``n``, then one ``u v`` pair per line.

Graphs are written as canonical JSON only, by walking the set bits of each
mask above the node itself, so the pairs come out in lexicographic order
without a sort.

Reading canonical JSON has a fast path.  A JSON text of at least
``FAST_JSON_MIN_CHARS`` characters is first read in one pass over its
bytes, a chunk at a time: the envelope, every byte between the node ids and
the digits of every id must be exactly what :func:`graph_to_json` writes,
and the ids must be in range with ``u < v`` and the pairs strictly
increasing.  Those checks accept exactly the texts that :func:`graph_to_json`
re-renders to themselves, the canonical serializations, for which the
general parser (``json.loads`` and :func:`new_graph`) would have built the
same graph; the re-render itself is not run.  Any other text, and every
shorter one, is read by the general parser, which gives every error
message.  The fast path sets each edge's bits in a square matrix with one
row and one column per node id up to the highest id on an edge, and leaves
a text to the general parser when that matrix would take more bytes than
the text has characters.  Edge-list text always takes its general parser.
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

# the most mask bits a graph built from an edge list may hold: a mask is as
# wide as its highest neighbor, so a few edges on high ids would otherwise
# cost bits by the ids, not by the edges.  Every graph on at most 2^13 nodes
# fits (n^2 bits), and so every construction within construction.MAX_EDGES,
# which stops the gamma family at n = 6688; the masks take at most 8 MB
MAX_MASK_BITS = 1 << 26


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


def masks_from_bits(bits: np.ndarray, n: int) -> list[int]:
    """The inverse of :func:`mask_bits`: ``n`` masks, mask k with bit v set
    where ``bits[k, v]`` is nonzero for the first ``n`` rows, then zero masks."""
    rows = np.packbits(bits[:n], axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    return masks + [0] * (n - len(masks))


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
    intermediate list.  Where n^2 exceeds ``MAX_MASK_BITS``, the bits each
    pair widens the masks by are counted first, and an edge list whose masks
    would pass that bound raises ``ValueError`` before they do.
    """
    if type(n) is not int:
        raise ValueError(f"node count {n!r} is not an integer")
    if n < 1:
        raise ValueError("a graph needs at least one node")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the limit of {MAX_NODES} nodes")
    masks = [0] * n
    bounded, room = n * n > MAX_MASK_BITS, MAX_MASK_BITS
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
        if bounded:
            room -= max(v + 1 - masks[u].bit_length(), 0) + max(u + 1 - masks[v].bit_length(), 0)
            if room < 0:
                raise ValueError(
                    f"edge ({u}, {v}) takes the adjacency masks above {MAX_MASK_BITS} bits"
                )
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph._from_masks(n, masks)


def complete_graph(n: int) -> Graph:
    return new_graph(n, combinations(range(n), 2))


def complement(g: Graph) -> Graph:
    """Graph on the same nodes whose edges are exactly the missing pairs."""
    full = (1 << g.n) - 1
    return Graph._from_masks(g.n, [full ^ a ^ (1 << u) for u, a in enumerate(g.adjacency)])


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


# JSON texts this long or longer try the fast path first; below it the fixed
# cost of the numpy calls on a chunk exceeds what they save over json.loads
# (the two paths cross at 2-4 KB, n of about 24-32 on the constructions)
FAST_JSON_MIN_CHARS = 4096

# the envelope graph_to_json writes around the pairs; seven digits cover
# every n up to MAX_NODES
_CANONICAL_HEAD = re.compile(r'\{"n":([1-9][0-9]{0,6}),"edges":\[')
_CANONICAL_TAIL = "]}\n"
# the pairs are read in chunks of about this many characters: the arrays of
# one chunk, several bytes a character, then stay small next to the ids of a
# large text, which are kept (unchunked, they held about 14 times the text)
_CHUNK_CHARS = 1 << 16
# the longest pair, "[1234567,1234567]": from any position in a canonical
# body, the next "]" is at most this many characters on
_PAIR_CHARS = 17
_DIGITS = b"0123456789"


def _canonical_json_graph(text: str) -> Graph | None:
    """The graph whose canonical JSON is exactly ``text``, else ``None``.

    The envelope must be the one :func:`graph_to_json` writes.  Its body is
    cut into chunks of about ``_CHUNK_CHARS`` characters after the ``]`` of
    a ``],[`` (the ``,`` is skipped), and :func:`_chunk_ids` accepts a chunk
    only if it is pairs ``[u,v]`` joined by ``,`` with every id a decimal of
    at most seven digits and no leading zero; the ids must then hold
    ``0 <= u < v < n`` with ``u * n + v`` strictly increasing over the whole
    body.  These are exactly the texts :func:`graph_to_json` re-renders to
    themselves: it writes each edge once, as ``u < v``, in lexicographic
    order, each id as ``str`` does and nothing between them but that
    punctuation.  So the general parser (``json.loads`` and
    :func:`new_graph`) would have built the same graph.  Never raises.

    Each pair sets two distinct bits in a square bool matrix indexed by node
    id, ``width`` rows of ``width`` bits where ``width`` is the least
    multiple of 8 above the highest id on an edge; :func:`masks_from_bits`
    turns row ``u`` into the mask of node ``u``, and nodes at or above
    ``width`` get zero masks.  A text whose matrix would take more bytes
    than it has characters (a few edges on high ids) is left to the general
    parser, so this path never costs more memory than that one.
    """
    head = _CANONICAL_HEAD.match(text)
    # a canonical text is ASCII; its characters are then its bytes, and no
    # chunk can fail to encode
    if head is None or not text.endswith(_CANONICAL_TAIL) or not text.isascii():
        return None
    n = int(head.group(1))
    if n > MAX_NODES:
        return None
    chunks: list[np.ndarray] = []
    last_key, v_max = -1, 0
    a, end = head.end(), len(text) - len(_CANONICAL_TAIL)
    while a < end:
        b = min(a + _CHUNK_CHARS, end)
        if b < end:
            # the next "]" is followed by ",[" unless it ends the body
            cut = text.find("],[", b, b + _PAIR_CHARS + 3)
            if cut < 0 and end - b > _PAIR_CHARS + 1:
                return None
            b = cut + 1 if cut >= 0 else end
        ids = _chunk_ids(text[a:b])
        if ids is None:
            return None
        u, v = ids[0::2], ids[1::2]
        key = u * n + v
        if (u >= v).any() or (v >= n).any() or key[0] <= last_key or (np.diff(key) <= 0).any():
            return None
        chunks.append(ids)
        last_key, v_max = int(key[-1]), max(v_max, int(v.max()))
        a = b + 1
    width = 8 * (v_max // 8 + 1)
    if width * width > len(text):
        return None
    bits = np.zeros((width, width), dtype=bool)
    for ids in chunks:
        u, v = ids[0::2], ids[1::2]
        bits[u, v] = True
        bits[v, u] = True
    return Graph._from_masks(n, masks_from_bits(bits, n))


def _chunk_ids(chunk: str) -> np.ndarray | None:
    """The node ids of ``chunk``, in order, as int64, if it is exactly pairs
    ``[u,v]`` joined by ``,`` with every id a decimal of 1-7 digits and no
    leading zero; else ``None``.

    One pass over the bytes: one ``flatnonzero`` finds where each run of
    digits begins and ends, the runs must lie exactly where those pairs put
    them, the bytes that are not digits must be the punctuation they put
    there, and the ids are summed place by place on arrays of one entry per
    id.
    """
    if chunk[0] != "[" or chunk[-1] != "]":
        return None
    data = chunk.encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    # uint8 wraps every byte below "0", so the digits alone are below 10
    digits = raw - 48
    is_digit = digits < 10
    # the byte before each run of digits, then the run's last digit: as the
    # first and last bytes are no digits, these alternate, four to a pair
    marks = np.flatnonzero(is_digit[1:] != is_digit[:-1])
    if marks.size == 0 or marks.size % 4:
        return None
    before, last = marks[0::2], marks[1::2]
    pairs = marks.size // 4
    # the bytes that are not digits number 4 a pair less one; with three
    # between pairs, that leaves one between the ids of a pair and one at
    # each end, so read in order they fix every byte
    if (before[2::2] - last[1:-1:2] != 3).any() or data.translate(None, _DIGITS) != (
        b"[" + b",],[" * (pairs - 1) + b",]"
    ):
        return None
    lengths = last - before
    longest = int(lengths.max())
    if longest > 7 or ((lengths > 1) & (digits[before + 1] == 0)).any():
        return None
    # Horner over the places of the longest id, in int64 (a digit times a
    # power of ten wraps in uint8); a place left of an id's first digit adds
    # 0 (its index may fall before the chunk, which numpy reads from the end)
    ids = np.zeros(lengths.size, dtype=np.int64)
    for place in range(longest - 1, -1, -1):
        ids *= 10
        ids += digits[last - place] * (lengths > place)
    return ids


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


def graph_from_edge_text(text: str) -> Graph:
    """Read ``n`` and then ``u v`` pairs, whitespace-separated.

    Every token must be ASCII digits: ``int`` would also take signs,
    underscores and other scripts' digits, so ``+1 -0`` and ``1_0`` are
    refused with the token named rather than read as edges.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge-list text")
    digits = "".join(tokens)
    if not (digits.isascii() and digits.isdigit()):
        bad = next(tok for tok in tokens if not (tok.isascii() and tok.isdigit()))
        raise ValueError(f"edge-list token {bad!r} is not a decimal node count or id")
    if len(tokens) % 2 != 1:
        raise ValueError("edge-list text must be 'n' followed by 'u v' pairs")
    n = int(tokens[0])
    pairs = [(int(tokens[i]), int(tokens[i + 1])) for i in range(1, len(tokens), 2)]
    return new_graph(n, pairs)


def parse_graph(text: str) -> Graph:
    """Parse either of the two accepted formats, sniffing on the first byte.

    Text opening with ``{`` or ``[`` goes to :func:`graph_from_json`, so an
    array gets the JSON errors (not an object, nested too deeply): a text of
    at least ``FAST_JSON_MIN_CHARS`` characters is read by one chunked pass
    over its bytes when it is exactly the canonical JSON of its graph, else
    (and below that size) by ``json.loads`` and :func:`new_graph`.  Any
    other text takes :func:`graph_from_edge_text`.
    """
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return graph_from_json(text)
    return graph_from_edge_text(text)
