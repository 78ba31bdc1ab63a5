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

This module owns the graph file format, both ways.  A graph file is bytes,
in one of two forms:

* canonical JSON: ``{"n": <int>, "edges": [[u, v], ...]}`` with ``u < v`` and
  the pairs sorted lexicographically, rendered compactly so equal graphs
  serialize to identical bytes;
* whitespace edge-list text: first line ``n``, then one ``u v`` pair per line.

Graphs are written as canonical JSON only, by walking the set bits of each
mask above the node itself, one run of consecutive neighbors at a time or,
on rows of short runs, one neighbor at a time, so the pairs come out in
lexicographic order without a sort.  :func:`graph_json_pieces` yields the
text in pieces of about 64 KiB, each ending after a node's pairs, so a
writer can stream it one write a piece; :func:`graph_to_json` joins the
same pieces.

:func:`parse_graph` reads bytes only: a file's bytes as read, of which it
drops one leading UTF-8 byte-order mark.  Reading canonical JSON has a fast
path.  Bytes of at least ``FAST_JSON_MIN_CHARS`` are first read in one
undecoded pass, a chunk at a time: the envelope, every byte between the
node ids and the digits of every id must be exactly what
:func:`graph_to_json` writes, and the ids must be in range with ``u < v``
and the pairs strictly increasing.  Those checks accept exactly the texts
that :func:`graph_to_json` re-renders to themselves, the canonical
serializations, for which the general parser (``json.loads`` and
:func:`new_graph`) would have built the same graph; the re-render itself is
not run.  Any other bytes, and all shorter ones, are decoded as UTF-8 and
read by the general parser, which gives every error message.  The fast path
sets each edge's bits in one square bool matrix, allocated before the first
chunk, as soon as the edge's chunk is checked, so no ids of the whole text
are kept; the matrix is ``min(n, isqrt(len))`` wide, no more bytes than the
text has, and a text that names an id past it is left to the general
parser.  Edge-list text always takes its general parser.

:func:`read_canonical_json` runs the same pass on an open file longer than
one block, read a block of ``_CHUNK_CHARS`` bytes at a time into one reused
buffer, so such a file is never held whole.  One chunk cutter,
:func:`_canonical_graph`, serves both: it is fed windows, the whole text for
:func:`parse_graph` and each read behind the partial pair the last read left
for the file.  What the file pass refuses, its caller reads whole and hands
to :func:`parse_graph`.
"""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, count, repeat
from math import isqrt
from typing import BinaryIO, Iterable, Iterator, Sequence

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


def gamma_of(n: int) -> int:
    """ceil(n/2), the maximum r-robustness achievable on n nodes."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n + 1) // 2


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
        for u, a in enumerate(self.adjacency):
            above = a >> (u + 1)
            if above:
                yield from zip(repeat(u), compress(count(u + 1), _bits(above)))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edge set as ``(u, v)`` pairs with ``u < v``, built once from the masks."""
        return frozenset(self.edge_pairs())

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
            if not (0 <= i < self.n):
                raise ValueError(f"node {i} out of range for n={self.n}")
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

# graphs are rendered in pieces of about this many characters, and read in
# chunks of about this many bytes, so the arrays of one chunk (several bytes
# a byte of it) stay small however long the text (read in one chunk, the
# body held about 14 times the text)
_CHUNK_CHARS = 1 << 16

# a row whose runs of consecutive later neighbors hold fewer than this many
# neighbors a run on average is rendered one neighbor at a time
_RUN_NEIGHBORS = 8


def graph_json_pieces(g: Graph) -> Iterator[str]:
    """The canonical JSON of ``g`` in pieces of at least ``_CHUNK_CHARS``
    characters, the last of which may be shorter: each but the last ends
    after a node's pairs, and the last ends with the envelope's tail.

    Node ``u``'s pairs are the labels of its neighbors ``v > u`` joined by
    ``"],[u,"``, and a row is rendered one of two ways, chosen from its
    mask.  By runs: two shifts of the mask mark where each run of
    consecutive neighbors starts and ends, the k-th lowest start pairs with
    the k-th lowest end, and each run is one ``join`` of a slice of the
    label list.  One neighbor at a time: ``compress`` picks the labels off
    the mask's bits, one step a bit.  A row takes the runs when they hold
    at least ``_RUN_NEIGHBORS`` neighbors a run on average.  The
    constructions' rows are one or two runs each, and by runs the n = 800
    (gamma, gamma) graph renders in 5.5 ms, not 11 (warm, on a 2-vCPU VM).
    But each run costs a few operations on the whole mask, and about half
    the rows of a relabelled gamma family graph are short runs: rendered
    all by runs, its n = 400 graph takes 5.5 ms, against 2.8 one neighbor
    at a time and 2.2 with the choice.  Any cut-over from 4 to 16
    measured the same.
    """
    # size counts the pairs of the piece, which alone reach _CHUNK_CHARS
    piece, size = [f'{{"n":{g.n},"edges":['], 0
    labels = [str(i) for i in range(g.n)]
    lead = "["
    for u, a in enumerate(g.adjacency):
        above = a >> (u + 1)
        if not above:
            continue
        sep = f"],[{u},"
        # bit i of above is node u + 1 + i; starts (ends) keeps the bits
        # that open (close) a run of set bits of above
        starts = above & ~(above << 1)
        if above.bit_count() < _RUN_NEIGHBORS * starts.bit_count():
            body = sep.join(compress(labels[u + 1 :], _bits(above)))
        else:
            ends = above & ~(above >> 1)
            runs = []
            while starts:
                first, last = starts & -starts, ends & -ends
                starts ^= first
                ends ^= last
                # (1 << i).bit_length() is i + 1
                runs.append(sep.join(labels[u + first.bit_length() : u + 1 + last.bit_length()]))
            body = sep.join(runs)
        pairs = f"{lead}{u},{body}]"
        piece.append(pairs)
        size += len(pairs)
        if size >= _CHUNK_CHARS:
            yield "".join(piece)
            piece, size = [], 0
        lead = ",["
    piece.append("]}\n")
    yield "".join(piece)


def graph_to_json(g: Graph) -> str:
    """Canonical JSON, byte for byte what ``json.dumps`` gives with compact separators."""
    return "".join(graph_json_pieces(g))


# JSON texts this long or longer try the fast path first; below it the fixed
# cost of the numpy calls on a chunk exceeds what they save over json.loads
# (the two paths cross at 2-4 KB, n of about 24-32 on the constructions)
FAST_JSON_MIN_CHARS = 4096

# the envelope graph_to_json writes around the pairs, and the "],[" between
# two pairs, as bytes; seven digits cover every n up to MAX_NODES
_CANONICAL_HEAD = re.compile(rb'\{"n":([1-9][0-9]{0,6}),"edges":\[')
_CANONICAL_TAIL = b"]}\n"
_PAIR_BREAK = b"],["
# the longest pair, "[1234567,1234567]": from any position in a canonical
# body, the next "]" is at most this many characters on
_PAIR_CHARS = 17
# the most a window of a canonical text leaves after its last "],[": the
# last pair and the tail
_CARRY_CHARS = _PAIR_CHARS + len(_CANONICAL_TAIL)
_DIGITS = b"0123456789"


def _canonical_json_graph(data: bytes) -> Graph | None:
    """The graph whose canonical JSON is exactly the bytes ``data``, else
    ``None``: :func:`_canonical_graph` with the whole text as its one
    window, so no byte of it is copied but into the chunks."""
    return _canonical_graph(iter([(data, len(data), True)]), len(data))


def read_canonical_json(fh: BinaryIO, size: int) -> Graph | None:
    """The graph whose canonical JSON the open binary file ``fh`` holds from
    its offset to its end, read a block at a time, else ``None``.

    ``size`` is the length of the file, as ``fstat`` states it.  The file
    is read into one reused buffer of ``_CHUNK_CHARS`` bytes and the
    partial pair each block leaves for the next, and the buffer's windows
    go to :func:`_canonical_graph`, which applies every rule of
    :func:`parse_graph`'s fast path: one leading UTF-8 byte-order mark is
    dropped, and the matrix is ``min(n, isqrt(size))`` wide, ``size`` less
    the mark.  So a graph it returns is the one :func:`parse_graph` builds
    from the file's bytes.  A file that ends before ``size`` bytes, or goes
    on after them, is refused.  Raises only what a read of ``fh`` raises;
    the caller rereads whatever is refused, from where it started, whole.
    """
    buf = bytearray(_CHUNK_CHARS + _CARRY_CHARS)
    # the mark is read apart, so the windows hold only the text
    kept = fh.readinto(memoryview(buf)[:3])
    if buf[:kept] == codecs.BOM_UTF8:
        kept, size = 0, size - 3
    g = _canonical_graph(_file_windows(fh, buf, kept, size - kept), size)
    return g if g is not None and not fh.read(1) else None


def _file_windows(fh: BinaryIO, buf: bytearray, kept: int, left: int):
    """Windows ``(buf, stop, final)`` of ``buf[:stop]`` over the next
    ``left`` bytes of ``fh``: each holds the bytes the last one left, moved
    to the front (at first the ``kept`` bytes already there), then one read
    of up to ``_CHUNK_CHARS`` more.  The window whose read takes the last of
    them, or gives none, is final.  The cutter sends back how many bytes at
    the end of each window it left."""
    view = memoryview(buf)
    while True:
        got = fh.readinto(view[kept : kept + min(_CHUNK_CHARS, left)])
        left -= got
        stop = kept + got
        kept = yield buf, stop, not (got and left)
        buf[:kept] = buf[stop - kept : stop]


def _canonical_graph(
    windows: Iterator[tuple[bytes | bytearray, int, bool]], size: int
) -> Graph | None:
    """The graph whose canonical JSON is the text the ``windows`` hold, a
    text of ``size`` bytes, else ``None``: the one chunk cutter of both
    readers.

    Each window is ``(window, stop, final)``, its text ``window[:stop]``:
    the text's first bytes at first, then what the last window left and
    the bytes that follow it, and ``final`` on the window that ends the
    text.  A generator of windows is sent how many bytes at the end of
    each window are left for the next.  The first window must open with
    the envelope :func:`graph_to_json` writes, and the final one end with
    its tail.  The body between is cut into chunks of about
    ``_CHUNK_CHARS`` bytes after the ``]`` of a ``],[`` (the ``,`` is
    skipped), and a rest of at most ``_CHUNK_CHARS + _CARRY_CHARS`` bytes
    is one chunk; a window that is not final is cut up to its last ``],[``,
    and whatever follows it, at most a pair and the tail, is left.
    :func:`_chunk_ids` accepts a chunk only if it is pairs ``[u,v]`` joined
    by ``,`` with every id a decimal of at most seven digits and no leading
    zero; the ids must then hold ``0 <= u < v < n`` with ``u * n + v``
    strictly increasing over the whole body.  These are exactly the texts
    :func:`graph_to_json` re-renders to themselves: it writes each edge
    once, as ``u < v``, in lexicographic order, each id as ``str`` does and
    nothing between them but that punctuation.  So the general parser
    (``json.loads`` and :func:`new_graph`) would have built the same graph;
    and as a chunk is cut only at a ``],[``, where it is cut changes
    nothing of that.  A text that is not ``size`` bytes long is refused.
    Never raises but what a window's source raises.

    Each pair sets two distinct bits in a square bool matrix indexed by node
    id as soon as its chunk is checked, so no chunk's ids outlive it;
    :func:`masks_from_bits` turns row ``u`` into the mask of node ``u``.
    The matrix is allocated once, ``room = min(n, isqrt(size))`` wide, so
    it never takes more bytes than the text has, and a text that names an
    id of ``room`` or more (a few edges on high ids) is left to the general
    parser at the chunk that names it, so this path never costs more memory
    than that one.
    """
    window, stop, final = next(windows)
    head = _CANONICAL_HEAD.match(window, 0, stop)
    if head is None:
        return None
    n = int(head.group(1))
    if n > MAX_NODES:
        return None
    # the widest matrix the graph can use, and the widest the text pays for
    room = min(n, isqrt(size))
    bits = np.zeros((room, room), dtype=bool)
    flat = bits.reshape(-1)
    last_key = -1
    a, seen = head.end(), stop
    while True:
        # each chunk is copied once, into bytes: bytearray.translate, which
        # _chunk_ids runs, takes about a quarter longer
        view = memoryview(window)
        if final:
            if window[stop - len(_CANONICAL_TAIL) : stop] != _CANONICAL_TAIL:
                return None
            end = stop - len(_CANONICAL_TAIL)
        else:
            # after the "]" of the last "],[": 0 if there is none
            end = window.rfind(_PAIR_BREAK, a, stop) + 1
        while a < end:
            # a rest of one chunk and a pair is not cut, so a window of the
            # file, at most that long, is one chunk
            b = end if end - a <= _CHUNK_CHARS + _CARRY_CHARS else a + _CHUNK_CHARS
            if b < end:
                # the next "]" is followed by ",[" unless it ends the body
                cut = window.find(_PAIR_BREAK, b, b + _PAIR_CHARS + 3)
                if cut < 0 and end - b > _PAIR_CHARS + 1:
                    return None
                b = cut + 1 if cut >= 0 else end
            ids = _chunk_ids(bytes(view[a:b]))
            if ids is None:
                return None
            u, v = ids[0::2], ids[1::2]
            key = u * room + v
            if (u >= v).any() or (v >= room).any() or key[0] <= last_key or (np.diff(key) <= 0).any():
                return None
            flat[key] = True
            flat[v * room + u] = True
            last_key = int(key[-1])
            a = b + 1
        if final:
            break
        left = stop - a
        if left > _CARRY_CHARS:
            return None
        window, stop, final = windows.send(left)
        a, seen = 0, seen + stop - left
    # the matrix is as wide as a text of size bytes pays for
    if seen != size:
        return None
    return Graph._from_masks(n, masks_from_bits(bits, n))


def _chunk_ids(chunk: bytes) -> np.ndarray | None:
    """The node ids of the bytes ``chunk``, in order, as int64, if it is
    exactly pairs ``[u,v]`` joined by ``,`` with every id a decimal of 1-7
    digits and no leading zero; else ``None``.

    One pass over the bytes: one ``flatnonzero`` finds where each run of
    digits begins and ends, the runs must lie exactly where those pairs put
    them, the bytes that are not digits must be the punctuation they put
    there, and the ids are summed place by place on arrays of one entry per
    id.
    """
    if chunk[:1] != b"[" or chunk[-1:] != b"]":
        return None
    raw = np.frombuffer(chunk, dtype=np.uint8)
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
    if (before[2::2] - last[1:-1:2] != 3).any() or chunk.translate(None, _DIGITS) != (
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
    except json.JSONDecodeError:
        raise
    except ValueError:  # a number past int()'s digit limit
        raise ValueError("graph JSON holds an integer of too many digits") from None
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    if not isinstance(payload["edges"], list):
        raise ValueError("graph JSON 'edges' must be a list of pairs")
    return new_graph(payload["n"], payload["edges"])


def _edge_text_graph(text: str) -> Graph:
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
    try:
        n = int(tokens[0])
        pairs = [(int(tokens[i]), int(tokens[i + 1])) for i in range(1, len(tokens), 2)]
    except ValueError:  # ASCII digits fail only past int()'s digit limit
        raise ValueError(f"edge-list token of {max(map(len, tokens))} digits is too long") from None
    return new_graph(n, pairs)


def parse_graph(data: bytes) -> Graph:
    """Read a graph file's bytes, either format, sniffing on the first byte.

    ``data`` is the file's bytes as read; a ``str`` raises ``TypeError``
    (a caller holding text passes ``text.encode()``).  One leading UTF-8
    byte-order mark is dropped.  At least ``FAST_JSON_MIN_CHARS`` bytes
    that are exactly the canonical JSON of their graph are read by one
    chunked, undecoded pass.  Any other bytes are decoded as UTF-8
    (``UnicodeDecodeError`` if they are not), and no text is read twice:
    text opening with ``{`` or ``[`` goes to ``json.loads`` and
    :func:`new_graph`, so an array gets the JSON errors (not an object,
    nested too deeply), and any other text is read as an edge list.
    """
    if not isinstance(data, bytes):
        raise TypeError(f"parse_graph expects bytes, not {type(data).__name__}")
    data = data.removeprefix(codecs.BOM_UTF8)
    if len(data) >= FAST_JSON_MIN_CHARS and (g := _canonical_json_graph(data)) is not None:
        return g
    text = data.decode()
    if text.lstrip().startswith(("{", "[")):
        return _parsed_json_graph(text)
    return _edge_text_graph(text)
