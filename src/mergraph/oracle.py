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

One pair table holds a uint8 value for each of the 2^n subsets.  For the
(r, s) checks it is the reachable count x[S], with ``_ABSENT`` over the
sets that cannot be in a failing pair (those whose members all reach r,
the empty set among them); a pair fails when both sets are present and
their values sum to <= s - 1.  For the maximum r it is maxout[S], the
largest outside degree in S, with only the empty set marked: r-robustness
fails exactly when both maxout values of a pair are below r.  One
subset-min (zeta) transform gives every set M the smallest value among
its subsets; since full ^ S = full - S, the lookup at every complement is
the reversed view ``t[::-1]``, and one combine (``np.add`` for (r, s),
``np.maximum`` for max r) plus a minimum gives the worst pair.  The
combine runs in uint16: counts and degrees are at most n <= 254, so a
pair holding ``_ABSENT`` (255) stays at or above it and every real pair
below.  Only failing graphs go on to read a witness from the same table.

Each table is built per node from two popcount vectors of length
~2^(n/2), over the low and the high half of the subset bits.

Canonical order: each node gets a digit in {0 = unassigned, 1 = S1,
2 = S2}; digit vectors are compared lexicographically with node 0 most
significant, and the lowest-indexed assigned node sits in S1 (the
definitions are symmetric in S1/S2).  Witnesses are the first failing pair
in this order, making failures reproducible across runs and platforms.

The order is numeric: with w(S) = sum of 3^(n-1-i) over i in S, a pair
ranks as w(S1) + 2*w(S2).  No orientation constraint is needed, because
3^(n-1-i) exceeds the weight of all later nodes together, so the set
holding the lowest assigned node has the larger w, and of the two
orientations of a pair the one with that set as S1 ranks lower.  The
minimum over ordered failing pairs is therefore the canonical witness.  It
takes one subset-min of w per partner budget k in [0, s-1] (sets with
pair-table value <= k), so a witness costs O(s * n * 2^n) numpy work.

Node counts above ``EXACT_ENUMERATION_CAP`` are rejected: it guards the
2^n-entry tables, which grow with every node, so exhaustive checking is a
desk-scale tool by nature.  Single-node graphs are degenerate: no disjoint
nonempty pair exists, so every check holds vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .graph_core import CapExceededError, Edge, Graph, members

EXACT_ENUMERATION_CAP = 16


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


def _check_cap(g: Graph) -> None:
    if g.n > EXACT_ENUMERATION_CAP:
        raise CapExceededError(
            f"exact robustness check infeasible for n={g.n}"
            f" (cap is {EXACT_ENUMERATION_CAP} nodes)"
        )


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


# -- per-subset tables and the pair transform ---------------------------------

# Above every count or degree a table holds (both are at most n), so it never
# wins a minimum; it marks the sets that cannot be in a failing pair.
_ABSENT = np.uint8(255)


def _subset_halves(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The split of subset bits every 2^n table is built over.

    Returns ``(lo_bits, lo, hi, sizes)``: subset S is ``h << lo_bits | l``
    for ``l`` in ``lo`` (the low ``n // 2`` bits) and ``h`` in ``hi``, and
    ``sizes[h, l]`` = |S| as a (hi.size, lo.size) uint8 grid.
    """
    lo_bits = n // 2
    lo = np.arange(1 << lo_bits, dtype=np.uint32)
    hi = np.arange(1 << (n - lo_bits), dtype=np.uint32)
    sizes = np.bitwise_count(hi)[:, None] + np.bitwise_count(lo)
    return lo_bits, lo, hi, sizes


def _member_terms(
    g: Graph, table: np.ndarray, halves: tuple
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per node i: the view of ``table`` over the subsets containing i, and
    the two halves of i's outside degree, broadcast to that view's shape.

    i's outside degree is popcount(a_lo & ~S_lo) + popcount(a_hi & ~S_hi)
    over ``halves``, the split :func:`_subset_halves` gives for ``g.n``, so
    each half is a vector over one half of the bits only.
    """
    lo_bits, lo, hi, _ = halves
    grid = table.reshape(hi.size, lo.size)
    lo_mask = lo.size - 1
    for i, a in enumerate(g.adjacency):
        out_lo = np.bitwise_count((a & lo_mask) & ~lo)
        out_hi = np.bitwise_count((a >> lo_bits) & ~hi)
        if i < lo_bits:
            step = 1 << i
            view = grid.reshape(hi.size, -1, 2 * step)[:, :, step:]
            yield view, out_hi[:, None, None], out_lo.reshape(-1, 2 * step)[None, :, step:]
        else:
            step = 1 << (i - lo_bits)
            view = grid.reshape(-1, 2 * step, lo.size)[:, step:, :]
            yield view, out_hi.reshape(-1, 2 * step)[:, step:, None], out_lo[None, None, :]


def _x_count_table(g: Graph, r: int, halves: tuple) -> np.ndarray:
    """``x[S]`` = number of nodes in subset ``S`` with >= r neighbors outside S,
    built over ``halves``, the split :func:`_subset_halves` gives for ``g.n``."""
    # no outside degree reaches n, so every r >= n gives the same table; the
    # clamp keeps ``need - out_lo`` inside int16
    need = min(r, g.n)
    x = np.zeros(1 << g.n, dtype=np.uint8)
    for view, out_hi, out_lo in _member_terms(g, x, halves):
        view += out_hi >= need - out_lo.astype(np.int16)
    return x


def _pair_table(g: Graph, r: int) -> np.ndarray:
    """The x table with ``_ABSENT`` over the sets whose members all reach r.

    Those sets, the empty set among them (x = 0 = |S|), cannot be in a
    failing pair.  The mark is written in place from a 0/1 byte mask.  The
    subset split is computed once, for the table and the size grid both.
    """
    halves = _subset_halves(g.n)
    x = _x_count_table(g, r, halves)
    sizes = halves[3]
    grid = x.reshape(sizes.shape)
    np.maximum(grid, (grid >= sizes).view(np.uint8) * _ABSENT, out=grid)
    return x


def _maxout_table(g: Graph) -> np.ndarray:
    """``maxout[S]`` = largest outside degree among the members of ``S`` (0 for the empty set)."""
    maxout = np.zeros(1 << g.n, dtype=np.uint8)
    for view, out_hi, out_lo in _member_terms(g, maxout, _subset_halves(g.n)):
        np.maximum(view, out_hi + out_lo, out=view)
    return maxout


def _subset_min(vals: np.ndarray, n: int) -> np.ndarray:
    """``out[M]`` = min of ``vals[S]`` over all subsets S of M (zeta transform)."""
    v = vals.copy()
    for i in range(n):
        step = 1 << i
        vr = v.reshape(-1, 2 * step)
        np.minimum(vr[:, step:], vr[:, :step], out=vr[:, step:])
    return v


def _best_pair(t: np.ndarray, n: int, combine: np.ufunc) -> int | None:
    """Smallest ``combine(t[S1], t[S2])`` over disjoint pairs, None if every
    pair holds an ``_ABSENT`` set (``t[0]`` must be one).

    ``combine`` is ``np.add`` or ``np.maximum``; both grow with each
    argument, so the subset-min of ``t`` under the complement of S1 is S1's
    best partner.  uint16 keeps a sum with ``_ABSENT`` at or above it.
    """
    partner = _subset_min(t, n)[::-1]
    worst = int(combine(t, partner, dtype=np.uint16).min())
    return None if worst >= _ABSENT else worst


# -- canonical witnesses -------------------------------------------------------

def _rank_weights(n: int) -> np.ndarray:
    """``w[S]`` = sum of 3^(n-1-i) over the nodes i of S."""
    w = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        step = 1 << i
        w.reshape(-1, 2 * step)[:, step:] += 3 ** (n - 1 - i)
    return w


def _pair_from_rank(rank: int, n: int) -> SubsetPair:
    """Decode a canonical rank: base-3 digit 1 puts node i in S1, 2 in S2."""
    m1 = m2 = 0
    for i in range(n - 1, -1, -1):
        rank, digit = divmod(rank, 3)
        if digit == 1:
            m1 |= 1 << i
        elif digit == 2:
            m2 |= 1 << i
    return SubsetPair(frozenset(members(m1)), frozenset(members(m2)))


def _canonical_witness(t: np.ndarray, s: int, n: int) -> SubsetPair:
    """First pair in canonical order with pair-table values summing to <= s-1.

    For each partner budget k, one subset-min over the sets with t <= k
    gives, under every complement, the lowest-weight partner; a set S1 with
    t[S1] = s-1-k then ranks its best pair as w[S1] + 2*min.  Both budgets
    are below ``_ABSENT``, so the marked sets never take part.
    """
    w = _rank_weights(n)
    unused = np.int64(3**n)  # above every w, so it never wins a minimum
    best = 3 * unused
    for k in range(s):
        s1 = t == s - 1 - k
        if not s1.any():
            continue
        partner = _subset_min(np.where(t <= k, w, unused), n)
        best = min(best, (w[s1] + 2 * partner[::-1][s1]).min())
    if best >= unused:
        raise AssertionError("decision said not robust but no failing pair found")
    return _pair_from_rank(int(best), n)


# -- public checks -------------------------------------------------------------

def _failing_pair(g: Graph, r: int, s: int) -> SubsetPair | None:
    """The canonical pair breaking (r, s)-robustness, or None when it holds."""
    _check_cap(g)
    t = _pair_table(g, r)
    worst = _best_pair(t, g.n, np.add)
    if worst is None or worst >= s:
        return None
    return _canonical_witness(t, s, g.n)


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
    _check_cap(g)
    gamma = (g.n + 1) // 2
    maxout = _maxout_table(g)
    maxout[0] = _ABSENT
    worst = _best_pair(maxout, g.n, np.maximum)
    return gamma if worst is None else min(gamma, worst)


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
    _check_cap(g)
    worst = _best_pair(_pair_table(g, r), g.n, np.add)
    return g.n if worst is None else min(worst, g.n)


def minimality_sweep(g: Graph, r: int, s: int | None = None) -> MinimalitySweep:
    """Re-decide the target robustness after each single-edge removal.

    The target is r-robustness, the (r, 1) case, when ``s`` is None, else
    (r, s)-robustness; a graph h meets it iff ``max_s_given_r(h, r)``
    reaches 1 or s.  The input graph must meet it; the sweep then reports,
    edge by edge in lexicographic order, whether the removal keeps it.
    ``minimal`` is True when none does.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    need = 1 if s is None else s
    if not (1 <= need <= g.n):
        raise ValueError(f"s must lie in [1, {g.n}]")
    if max_s_given_r(g, r) < need:
        raise ValueError("graph does not satisfy the target robustness to begin with")
    entries = tuple(
        (e, max_s_given_r(g.remove_edge(*e), r) >= need) for e in g.edge_pairs()
    )
    return MinimalitySweep(r, s, entries)
