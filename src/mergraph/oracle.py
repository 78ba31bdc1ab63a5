"""Exact robustness decisions over all disjoint subset pairs.

A nonempty node set S is r-reachable when some member has at least r
neighbors outside S.  A graph is r-robust when, for every pair of disjoint
nonempty node sets, at least one of the two is r-reachable.  The (r, s)
variant counts, per set, the members with >= r outside neighbors
(``reachable_count``) and requires for every pair that one set consists
entirely of such members or that the two counts sum to at least s.

r-robustness is exactly (r, 1)-robustness, and every check asks one
question, decided exactly without walking the ~3^n/2 pairs: what is the
best combination of two per-set values over disjoint nonempty pairs?

Twin classes.  Nodes u and v are twins when N(u) - {v} = N(v) - {u}: false
twins share their open neighborhood (and are not adjacent), true twins
their closed one (and are adjacent).  Grouping the nodes by open mask, and
the nodes left alone there by closed mask, partitions them into twin
classes, ordered by their lowest member.  Swapping two twins is an
automorphism, so every per-set value depends on S only through how many
members of each class it holds: a member of class c has outside degree
sum over the classes d adjacent to c of (|d| - a_d), plus |c| - a_c when
c is a true-twin class, where a_d = |S & d|.

The lattice.  The per-set tables are indexed by count vectors a with
0 <= a_c <= |c|, a C-order array of shape (|c| + 1 for each class c); a
graph without twins has one class per node and 2^n cells, one per subset.
Disjoint pairs (S1, S2) are exactly the count pairs with a + b <= |c| in
every class.  The complement a -> |c| - a is, in mixed radix, the reversed
flat view, and the subset-min (the smallest value over all b <= a) is one
running minimum along each axis.

One pair table holds a uint8 value per cell.  For the (r, s) checks it is
the reachable count x[a], with ``_ABSENT`` over the cells that cannot be in
a failing pair (those whose members all reach r, the empty set among them);
a pair fails when both cells are present and their values sum to <= s - 1.
For the maximum r it is maxout[a], the largest outside degree in the set,
with only the empty cell marked: r-robustness fails exactly when both
maxout values of a pair are below r.  One subset-min gives every cell M the
smallest value at or below it; looked up at every complement through the
reversed view, one combine (``np.add`` for (r, s), ``np.maximum`` for max
r) plus a minimum gives the worst pair.  The combine runs in uint16:
counts and degrees are at most n <= 254, so a pair holding ``_ABSENT``
(255) stays at or above it and every real pair below.  The worst value is
``_ABSENT`` or more when no pair is present, which is above every cap:
max r is at most ceil(n/2) <= 127 and s at most n <= 254, so the answers
are plain minima and a check fails when the worst value is below s.

Every table is one array expression over two (classes, cells) grids: the
counts a_c, and the outside degree of a member of each class (0 where the
set has none).  x[a] sums a_c over the classes whose degree reaches r, and
maxout[a] is the column maximum of the degrees.  The degree grid is the
class degrees minus the link matrix times the counts, that product taken
over a leading (hi) and a trailing (lo) split of the class axes of about
sqrt(cells) cells each and broadcast to the full grid.

Budget.  A graph is decided when its lattice has at most
``EXACT_CELL_BUDGET`` = 2^16 cells, the size of the 2^n table of a
16-node graph, and at most 254 nodes, so that no count reaches
``_ABSENT``.  Both limits are checked from the partition, before any array
exists, and raise ``CapExceededError``.  Single-node graphs are
degenerate: no disjoint nonempty pair exists, so the worst value is
``_ABSENT``, every check holds vacuously and each maximum is its cap.

Witnesses.  Only failing checks read a witness from their pair table, and
it is canonical: the first failing pair in the order below.  ``_witness``
fixes the nodes from 0 upward, each to the smallest digit that some
failing pair still agrees with; the pairs agreeing with the digits fixed
so far are a box of count pairs, tested with the decision's own
subset-min.  Until S2 gains a member its box is the whole lattice, whose
subset-min the decision has just built, so ``_best_pair`` hands that array
on and a failing check transforms the whole lattice once.

Canonical order: each node gets a digit in {0 = unassigned, 1 = S1,
2 = S2}; digit vectors are compared lexicographically with node 0 most
significant, and the lowest-indexed assigned node sits in S1 (the
definitions are symmetric in S1/S2, so the smallest failing digit vector
has it there).  Witnesses are the first failing pair in this order, making
failures reproducible across runs and platforms.  A run of consecutive
nodes of one class is fixed by two bisections, not node by node.

Sweeps.  ``minimality_sweep`` re-decides the target after each single-edge
removal, once per edge orbit.  The class graph has one item per twin class,
colored by the class's size and twin type, with the class's ``link`` row
less its diagonal as neighbor mask.  Twins of the class graph, grouped like
the nodes, can be swapped member by member, an automorphism of g, and so
can twins of g; removing any edge of one orbit of these swaps leaves
isomorphic graphs, with one verdict.  The orbit of an edge is the pair of
class-graph twin classes its ends' classes lie in.  Whether the ends share
a class needs no key of its own: no single node swaps, two swappable
true-twin classes are apart and two swappable false-twin classes joined, or
they would be one class, so the edges inside one class-graph twin class
all lie within classes or all between them.  The sweep reads its input
check and the class graph off one lattice of the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import prod
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graph_core import CapExceededError, Edge, Graph, mask_bits, masks_from_bits, members

EXACT_CELL_BUDGET = 1 << 16


@dataclass(frozen=True)
class SubsetPair:
    """A disjoint pair of nonempty node sets; the unit the definitions quantify over."""

    s1: frozenset[int]
    s2: frozenset[int]

    def __post_init__(self) -> None:
        if not self.s1 or not self.s2:
            raise ValueError("both subsets must be nonempty")
        if self.s1 & self.s2:
            raise ValueError("subsets must be disjoint")


@dataclass(frozen=True)
class RobustnessVerdict:
    """Outcome of an exact check; carries a counterexample iff it failed."""

    holds: bool
    r: int
    s: int | None = None
    witness: SubsetPair | None = None


@dataclass(frozen=True)
class MinimalitySweep:
    """Per-edge ``(edge, holds)`` decisions for single-edge removals against
    a fixed target: r-robustness when ``s`` is None, else (r, s)-robustness.
    They carry no witness: :func:`is_r_robust` or :func:`is_rs_robust` on
    ``g.remove_edge(*edge)`` gives the pair that breaks it."""

    r: int
    s: int | None
    entries: tuple[tuple[Edge, bool], ...]

    @property
    def minimal(self) -> bool:
        return not any(holds for _, holds in self.entries)


def reachable_count(g: Graph, s: Iterable[int], r: int) -> int:
    """Number of nodes in ``s`` with at least ``r`` neighbors outside ``s``."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    mask = g.subset_mask(s)
    if mask == 0:
        raise ValueError("subset must be nonempty")
    outside = ((1 << g.n) - 1) ^ mask
    return sum((g.adjacency[i] & outside).bit_count() >= r for i in members(mask))


def is_r_reachable(g: Graph, s: Iterable[int], r: int) -> bool:
    """True iff some node of ``s`` has at least ``r`` neighbors outside ``s``."""
    return reachable_count(g, s, r) >= 1


# -- twin classes and the lattice tables ---------------------------------------

# Above every count or degree a table holds (both are at most n <= 254), so
# it never wins a minimum; it marks the cells that cannot be in a failing pair.
_ABSENT = np.uint8(255)


class _Lattice(NamedTuple):
    """The twin classes of a graph, the class link matrix, the shape of
    their count lattice and two uint8 grids with one row per class and one
    column per cell (C order): ``counts[c, a]`` = a_c, and ``out[c, a]`` =
    the outside degree of a member of class c in a set with count vector a,
    0 when a_c = 0.

    ``link[c, d]`` = 1 (uint8) when a member of class c counts the members
    of class d outside a set as neighbors: d adjacent to c, or d = c a
    true-twin class, so the diagonal marks the true-twin classes."""

    classes: tuple[tuple[int, ...], ...]
    link: np.ndarray
    shape: tuple[int, ...]
    counts: np.ndarray
    out: np.ndarray


def _twins(keys: Sequence[int]) -> list[tuple[list[int], bool]]:
    """The twin classes of a colored graph on items ``0..k-1``, ordered by
    lowest member, each with whether it is a true-twin class of two or more
    items.  ``keys[i]`` is item i's neighbor mask, with its color, if any,
    in the bits from ``k = len(keys)`` up, so equal keys are equal colors
    and open masks: false twins; the items alone there, grouped by key with
    their own bit set (color and closed mask): true twins (or singletons)."""
    by_open: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        by_open.setdefault(key, []).append(i)
    groups = []
    by_closed: dict[int, list[int]] = {}
    for group in by_open.values():
        if len(group) > 1:
            groups.append((group, False))
        else:
            i = group[0]
            by_closed.setdefault(keys[i] | 1 << i, []).append(i)
    groups += ((group, len(group) > 1) for group in by_closed.values())
    groups.sort()
    return groups


def _class_groups(lat: _Lattice) -> list[int]:
    """``group[c]`` = the lowest class in c's twin class of the class graph:
    one item per class, colored by the class's size and twin type, its
    neighbor mask the class's ``link`` row without the diagonal."""
    link = lat.link
    k = len(lat.classes)
    masks = masks_from_bits(link, k)
    # the color (size, twin type) as the int 2 * size + twin type
    sizes = map(len, lat.classes)
    keys = [
        mask & ~(1 << c) | (2 * size + closed) << k
        for c, (mask, size, closed) in enumerate(zip(masks, sizes, link.diagonal().tolist()))
    ]
    group = [0] * k
    for twins, _ in _twins(keys):
        for c in twins:
            group[c] = twins[0]
    return group


# cached: the same shapes recur from call to call (every twin-free graph on
# n nodes has the lattice (2,) * n)
@lru_cache(maxsize=64)
def _counts(shape: tuple[int, ...]) -> np.ndarray:
    """``counts[c, a]`` = a_c over the cells of ``shape``, read-only."""
    counts = np.indices(shape, dtype=np.uint8).reshape(len(shape), prod(shape))
    counts.flags.writeable = False
    return counts


def _lattice(g: Graph) -> _Lattice:
    """Partition ``g`` into twin classes and build the outside degrees over
    their lattice; refuse, before any array exists, a graph whose tables
    would exceed ``EXACT_CELL_BUDGET`` cells or whose counts could reach
    ``_ABSENT``."""
    if g.n >= _ABSENT:
        raise CapExceededError(
            f"exact robustness check infeasible for n={g.n}"
            f" (uint8 tables hold at most {int(_ABSENT) - 1} nodes)"
        )
    classes, closed = zip(*_twins(g.adjacency))
    # tuples from lists, not generators: CPython sizes a generator's tuple
    # by a guess and resizes it, and over many calls the resized blocks pile
    # up in its per-size tuple free lists (measured: ~170 B more heap per op)
    shape = tuple([len(c) + 1 for c in classes])
    cells = prod(shape)
    if cells > EXACT_CELL_BUDGET:
        raise CapExceededError(
            f"exact robustness check infeasible for n={g.n}: {cells} lattice cells"
            f" (budget is {EXACT_CELL_BUDGET})"
        )
    reps = [c[0] for c in classes]
    link = mask_bits([g.adjacency[u] | cl << u for u, cl in zip(reps, closed)], g.n)[:, reps]
    # out = deg - link @ counts, the product taken over a leading (hi) and a
    # trailing (lo) split of the class axes of about sqrt(cells) cells each;
    # in uint8 no step wraps, as every partial result is an outside degree
    hi, rows = 0, 1
    while rows * rows < cells:
        rows *= shape[hi]
        hi += 1
    deg = link @ (np.array(shape, dtype=np.uint8) - 1)
    counts_hi, counts_lo = _counts(shape[:hi]), _counts(shape[hi:])
    out_hi = deg[:, None] - link[:, :hi] @ counts_hi
    out_lo = link[:, hi:] @ counts_lo
    out = out_hi[:, :, None] - out_lo[:, None, :]
    # times min(a_c, 1), in place: a second full-size temporary costs more
    # than the whole product (page faults on every call, measured)
    out[:hi] *= np.minimum(counts_hi, 1)[:, :, None]
    out[hi:] *= np.minimum(counts_lo, 1)[:, None, :]
    classes = tuple([tuple(c) for c in classes])
    out = out.reshape(len(shape), cells)
    return _Lattice(classes, link, shape, _counts(shape), out)


def _x_count_table(g: Graph, r: int, lat: _Lattice) -> np.ndarray:
    """``x[a]`` = number of members of a set with count vector ``a`` that have
    >= r neighbors outside it, over the lattice ``lat`` of ``g``."""
    # no outside degree reaches n, so every r >= n gives the same table; the
    # clamp keeps the bound inside uint8
    terms = (lat.out >= min(r, g.n)).view(np.uint8)
    terms *= lat.counts
    return terms.sum(0, dtype=np.uint8)


def _pair_table(g: Graph, r: int, lat: _Lattice) -> np.ndarray:
    """The x table with ``_ABSENT`` over the cells whose members all reach r.

    Those cells, the empty one among them (x = 0 = |S|), cannot be in a
    failing pair.
    """
    x = _x_count_table(g, r, lat)
    x[x == lat.counts.sum(0, dtype=np.uint8)] = _ABSENT
    return x


def _subset_min(vals: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``out[a]`` = min of ``vals[b]`` over all cells b <= a of the C-order
    lattice ``shape`` (for shape (2,)*n: over all subsets, the zeta transform).

    A running minimum along each axis, one ``np.minimum`` per position: on
    the length-2 axes of a twin-free graph ``np.minimum.accumulate`` is
    about 17x slower.
    """
    v = vals.copy()
    after = v.size
    for width in shape:
        after //= width
        axis = v.reshape(-1, width, after)
        for j in range(1, width):
            np.minimum(axis[:, j], axis[:, j - 1], out=axis[:, j])
    return v


def _best_pair(t: np.ndarray, shape: tuple[int, ...], combine: np.ufunc) -> tuple[int, np.ndarray]:
    """Smallest ``combine(t[a], t[b])`` over disjoint pairs (a + b <= the
    class sizes), and the subset-min of ``t`` it was read from.  The value
    is ``_ABSENT`` or more if every pair holds an ``_ABSENT`` cell (``t[0]``
    must be one), so it is above every cap a caller takes it under.

    ``combine`` is ``np.add`` or ``np.maximum``; both grow with each
    argument, so the subset-min of ``t`` under the complement of a is a's
    best partner.  uint16 keeps a sum with ``_ABSENT`` at or above it.
    """
    below = _subset_min(t, shape)
    return int(combine(t, below[::-1], dtype=np.uint16).min()), below


# -- witnesses ------------------------------------------------------------------

def _leading(length: int, accepted: Callable[[int], bool]) -> int:
    """How many of k = 0, 1, ..., length - 1 pass ``accepted``, which holds
    on a prefix of them.  k = 0 is tested alone first, as a run often stops
    there (on the families' removals this saves more tests than bisecting
    the whole run); the rest is a bisection."""
    if length == 0 or not accepted(0):
        return 0
    lo, hi = 1, length
    while lo < hi:
        mid = (lo + hi) // 2
        if accepted(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _witness(t: np.ndarray, below: np.ndarray, lat: _Lattice, s: int) -> SubsetPair:
    """The first pair in canonical order whose pair-table values sum to <= s-1.

    Nodes are fixed from 0 upward, each to the smallest digit (unassigned,
    S1, S2) that some failing pair still agrees with.  With p_c members of
    class c fixed in S1, q_c in S2 and f_c still free, the agreeing pairs are
    a = p + x and b = q + y with x + y <= f: the S1 box (p <= a <= p + f)
    read against the subset-min of the S2 box (b >= q) at every complement
    f - x, as in ``_best_pair``.  That subset-min does not depend on f, so
    it is only rebuilt when S2 has gained a member; before that the S2 box
    is the whole lattice, and ``below`` is its subset-min from the decision.

    Swapping two free members of a class maps agreeing failing pairs to
    agreeing failing pairs, and fixing a digit only removes pairs, so a
    digit refused for one member of a class stays refused for its later
    members: ``lowest[c]`` is the smallest digit class c has not refused.
    Digit 2 needs no test, as some failing pair agrees with the digits
    fixed before.

    Runs.  Consecutive nodes of one class are fixed together: in a run,
    the k-th node is left unassigned iff the box with f_c lowered by k + 1
    fails, which shrinks with k, so the unassigned nodes are a leading part
    of the run; of the rest, the k-th goes to S1 iff the box with p_c
    raised by k + 1 (and f_c lowered with it) fails, which shrinks too.
    Each part is found by ``_leading``, a few box tests per run instead of
    one per node.
    """
    grid = t.reshape(lat.shape)
    p, q, lowest = [0] * len(lat.shape), [0] * len(lat.shape), [0] * len(lat.shape)
    free = [w - 1 for w in lat.shape]
    # the S2 box's subset-min and the q it was built for
    below, below_q = below.reshape(lat.shape), q.copy()

    def fails(c: int, p_c: int, free_c: int) -> bool:
        nonlocal below, below_q
        p[c], free[c] = p_c, free_c
        if below_q != q:
            s2_box = grid[tuple([slice(b, None) for b in q])]
            below, below_q = _subset_min(s2_box, s2_box.shape), q.copy()
        s1_box = grid[tuple([slice(a, a + f + 1) for a, f in zip(p, free)])]
        partners = below[tuple([slice(f, None, -1) for f in free])]
        return int(np.add(s1_box, partners, dtype=np.uint16).min()) < s

    class_of = {i: c for c, nodes in enumerate(lat.classes) for i in nodes}
    s1: list[int] = []
    s2: list[int] = []
    for c, run in groupby(range(len(class_of)), class_of.__getitem__):
        run = list(run)
        p_c, free_c = p[c], free[c] - len(run)  # free_c: after the run
        unassigned = in_s1 = 0
        if lowest[c] == 0:
            unassigned = _leading(len(run), lambda k: fails(c, p_c, free_c + len(run) - k - 1))
            lowest[c] = int(unassigned < len(run))
        rest = len(run) - unassigned
        if lowest[c] == 1:
            in_s1 = _leading(rest, lambda k: fails(c, p_c + k + 1, free_c + rest - k - 1))
            lowest[c] = 1 + (in_s1 < rest)
        p[c], q[c], free[c] = p_c + in_s1, q[c] + rest - in_s1, free_c
        s1 += run[unassigned:unassigned + in_s1]
        s2 += run[unassigned + in_s1:]
    return SubsetPair(frozenset(s1), frozenset(s2))


# -- public checks -------------------------------------------------------------

def _failing_pair(g: Graph, r: int, s: int) -> SubsetPair | None:
    """The pair breaking (r, s)-robustness, or None when it holds."""
    lat = _lattice(g)
    t = _pair_table(g, r, lat)
    worst, below = _best_pair(t, lat.shape, np.add)
    return None if worst >= s else _witness(t, below, lat, s)


def is_r_robust(g: Graph, r: int) -> RobustnessVerdict:
    """Exact r-robustness check, the (r, 1) case, with a counterexample witness on failure."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    witness = _failing_pair(g, r, 1)
    return RobustnessVerdict(witness is None, r, witness=witness)


def max_r_robustness(g: Graph) -> int:
    """Largest r >= 1 for which the graph is r-robust, else 0.

    r-robustness fails exactly when some disjoint pair has both maxout
    values below r, so the answer is the smallest max(maxout[S1],
    maxout[S2]) over disjoint nonempty pairs: the same pair transform as
    the (r, s) checks, with ``np.maximum`` for the sum and the empty set
    marked ``_ABSENT``.  It is capped at ceil(n/2), the largest value any
    graph on n nodes can achieve (and the answer when no pair exists).
    0 signals "not even 1-robust" (disconnected or edgeless).
    """
    lat = _lattice(g)
    gamma = (g.n + 1) // 2
    maxout = lat.out.max(0)
    maxout[0] = _ABSENT
    return min(gamma, _best_pair(maxout, lat.shape, np.maximum)[0])


def is_rs_robust(g: Graph, r: int, s: int) -> RobustnessVerdict:
    """Exact (r, s)-robustness check with a counterexample witness on failure."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not (1 <= s <= g.n):
        raise ValueError(f"s must lie in [1, {g.n}]")
    witness = _failing_pair(g, r, s)
    return RobustnessVerdict(witness is None, r, s=s, witness=witness)


def max_s_given_r(g: Graph, r: int) -> int:
    """Largest s in [1, n] with the graph (r, s)-robust; 0 if not even (r, 1).

    (r, s)-robustness is monotone in s, so the answer is the smallest
    pair-table sum over disjoint pairs, capped at n.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    lat = _lattice(g)
    return min(_best_pair(_pair_table(g, r, lat), lat.shape, np.add)[0], g.n)


def minimality_sweep(g: Graph, r: int, s: int | None = None) -> MinimalitySweep:
    """Re-decide the target robustness after each single-edge removal.

    The target is r-robustness, the (r, 1) case, when ``s`` is None, else
    (r, s)-robustness; a graph h meets it iff ``max_s_given_r(h, r)``
    reaches 1 or s.  The input graph must meet it, which is read off its
    lattice, the one the class graph comes from; the sweep then
    reports, edge by edge in lexicographic order, whether the removal keeps
    it.  ``minimal`` is True when none does.

    One removal is decided per edge orbit (see the module docstring,
    "Sweeps"), the first edge of each, and its verdict is copied to the
    rest.  Isomorphic graphs have equal lattices, so a removal over the
    budget raises ``CapExceededError`` at the same edge as deciding every
    edge would.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    need = 1 if s is None else s
    if not (1 <= need <= g.n):
        raise ValueError(f"s must lie in [1, {g.n}]")
    lat = _lattice(g)
    if _best_pair(_pair_table(g, r, lat), lat.shape, np.add)[0] < need:
        raise ValueError("graph does not satisfy the target robustness to begin with")
    group = _class_groups(lat)
    group_of = {u: group[c] for c, nodes in enumerate(lat.classes) for u in nodes}
    verdicts: dict[frozenset[int], bool] = {}
    entries = []
    for u, v in g.edge_pairs():
        orbit = frozenset((group_of[u], group_of[v]))
        if orbit not in verdicts:
            verdicts[orbit] = max_s_given_r(g.remove_edge(u, v), r) >= need
        entries.append(((u, v), verdicts[orbit]))
    return MinimalitySweep(r, s, tuple(entries))
