"""Exact robustness decisions over all disjoint subset pairs.

A nonempty node set S is r-reachable when some member has at least r
neighbors outside S.  A graph is r-robust when, for every pair of disjoint
nonempty node sets, at least one of the two is r-reachable.  The (r, s)
variant counts, per set, the members with >= r outside neighbors
(``reachable_count``) and requires for every pair that one set consists
entirely of such members or that the two counts sum to at least s.

Everything here is decided exactly, without walking the ~3^n/2 pairs.
Per-subset reachable counts are tabulated once over all 2^n subsets
(vectorized with numpy).  A subset-min (zeta) transform then gives, for
every set M, the best partner among the subsets of M, so looking each
candidate S1 up at its complement covers every disjoint pair.  The yes/no
decision runs first; only failing graphs go on to recover a witness.

The 2^n tables hold uint8 (counts and degrees are at most n); 255
marks "no such set" and sums are taken in int64.  A table is built with
the subset bits split into a low half (n // 2 bits) and a high half: node
i's outside degree is popcount(a_lo & ~S_lo) + popcount(a_hi & ~S_hi), two
vectors of length ~2^(n/2), and one broadcast compare of the two halves
updates the view of the table that covers the subsets containing i.  The
maximum r comes from one such table, maxout[S] = largest outside degree
in S: r-robustness fails exactly when a disjoint pair has both maxout
values below r.  Since full ^ S = full - S, the complement lookup
``t[full ^ S]`` over all S is the reversed view ``t[::-1]``, not a gather.

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
takes one subset-min of w over the eligible sets per partner budget
k in [0, s-1] (sets with reachable count <= k), so a witness costs
O(s * n * 2^n) numpy work.

Node counts above ``EXACT_ENUMERATION_CAP`` are rejected: it guards the
2^n-entry tables, which grow with every node, so exhaustive checking is a
desk-scale tool by nature.  Single-node graphs are degenerate: no disjoint
nonempty pair exists, so every check holds vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from .graph_core import CapExceededError, Edge, Graph

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
    """Per-edge verdicts for single-edge removals against a fixed target."""

    kind: str
    r: int
    s: int | None
    entries: tuple[tuple[Edge, RobustnessVerdict], ...]

    @property
    def minimal(self) -> bool:
        return all(not verdict.holds for _, verdict in self.entries)


def _check_cap(g: Graph) -> None:
    if g.n > EXACT_ENUMERATION_CAP:
        raise CapExceededError(
            f"exact robustness check infeasible for n={g.n}"
            f" (cap is {EXACT_ENUMERATION_CAP} nodes)"
        )


def _subset_mask(g: Graph, s: Iterable[int]) -> int:
    mask = g.subset_mask(s)
    if mask == 0:
        raise ValueError("subset must be nonempty")
    return mask


def reachable_count(g: Graph, s: Iterable[int], r: int) -> int:
    """Number of nodes in ``s`` with at least ``r`` neighbors outside ``s``."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    mask = _subset_mask(g, s)
    outside = ((1 << g.n) - 1) ^ mask
    count = 0
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if (g.adjacency[i] & outside).bit_count() >= r:
            count += 1
        m &= m - 1
    return count


def is_r_reachable(g: Graph, s: Iterable[int], r: int) -> bool:
    """True iff some node of ``s`` has at least ``r`` neighbors outside ``s``."""
    return reachable_count(g, s, r) >= 1


# -- per-subset tables and pair-existence transforms --------------------------

# Above every count or degree a table holds (both are at most n), so it never
# wins a minimum; it marks "no such set" in the uint8 tables.
_ABSENT = np.uint8(255)


def _member_terms(
    g: Graph, table: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per node i: the view of ``table`` over the subsets containing i, and
    the two halves of i's outside degree, broadcast to that view's shape.

    Subset ``S`` is split into its low ``n // 2`` bits and its high bits;
    i's outside degree is popcount(a_lo & ~S_lo) + popcount(a_hi & ~S_hi),
    so each half is a vector over one half of the bits only.
    """
    n = g.n
    lo_bits = n // 2
    lo = np.arange(1 << lo_bits, dtype=np.uint32)
    hi = np.arange(1 << (n - lo_bits), dtype=np.uint32)
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


def _x_count_table(g: Graph, r: int) -> np.ndarray:
    """``x[S]`` = number of nodes in subset ``S`` with >= r neighbors outside S."""
    # no outside degree reaches n, so every r >= n gives the same table; the
    # clamp keeps ``need - out_lo`` inside int16
    need = min(r, g.n)
    x = np.zeros(1 << g.n, dtype=np.uint8)
    for view, out_hi, out_lo in _member_terms(g, x):
        view += out_hi >= need - out_lo.astype(np.int16)
    return x


def _maxout_table(g: Graph) -> np.ndarray:
    """``maxout[S]`` = largest outside degree among the members of ``S`` (0 for the empty set)."""
    maxout = np.zeros(1 << g.n, dtype=np.uint8)
    for view, out_hi, out_lo in _member_terms(g, maxout):
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


def _nonreachable(x: np.ndarray) -> np.ndarray:
    """Flags the nonempty subsets with no member reaching r outside neighbors."""
    nonreach = x == 0
    nonreach[0] = False
    return nonreach


def _r_robust_decision(nonreach: np.ndarray, n: int) -> bool:
    """Fast yes/no: is there no disjoint pair with both sets non-reachable?"""
    if not nonreach.any():
        return True
    # 0 marks a non-reachable set; a subset-min of 0 under M means M holds one
    free_min = _subset_min((~nonreach).astype(np.uint8), n)
    return bool(free_min[::-1][nonreach].all())


def _rs_tables(g: Graph, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Reachable counts plus the deficiency flag (some member lacks r outside)."""
    x = _x_count_table(g, r)
    sizes = np.bitwise_count(np.arange(1 << g.n, dtype=np.uint32))
    deficient = x < sizes
    return x, deficient


def _min_partner_sum(g: Graph, x: np.ndarray, deficient: np.ndarray) -> int | None:
    """Smallest ``x[S1] + x[S2]`` over disjoint pairs with both sets deficient.

    Returns None when no such pair exists (every pair then satisfies one of
    the two all-members conditions).
    """
    if not deficient.any():
        return None
    partner_min = _subset_min(np.where(deficient, x, _ABSENT), g.n)
    partner = partner_min[::-1][deficient]
    valid = partner < _ABSENT
    if not valid.any():
        return None
    return int((x[deficient][valid].astype(np.int64) + partner[valid]).min())


# -- canonical witnesses -------------------------------------------------------

def _rank_weights(n: int) -> np.ndarray:
    """``w[S]`` = sum of 3^(n-1-i) over the nodes i of S."""
    w = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        step = 1 << i
        w.reshape(-1, 2 * step)[:, step:] += 3 ** (n - 1 - i)
    return w


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        out.add((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


def _pair_from_rank(rank: int, n: int) -> SubsetPair:
    """Decode a canonical rank: base-3 digit 1 puts node i in S1, 2 in S2."""
    m1 = m2 = 0
    for i in range(n - 1, -1, -1):
        rank, digit = divmod(rank, 3)
        if digit == 1:
            m1 |= 1 << i
        elif digit == 2:
            m2 |= 1 << i
    return SubsetPair(_mask_to_set(m1), _mask_to_set(m2))


def _canonical_witness(
    x: np.ndarray, eligible: np.ndarray, s: int, n: int
) -> SubsetPair:
    """First pair in canonical order with both sets eligible and x summing to <= s-1.

    For each partner budget k, one subset-min over the eligible sets with
    x <= k gives, under every complement, the lowest-weight partner; a set
    S1 with x[S1] = s-1-k then ranks its best pair as w[S1] + 2*min.
    """
    w = _rank_weights(n)
    unused = np.int64(3**n)  # above every w, so it never wins a minimum
    best = 3 * unused
    for k in range(s):
        s1 = eligible & (x == s - 1 - k)
        if not s1.any():
            continue
        partner = _subset_min(np.where(eligible & (x <= k), w, unused), n)
        best = min(best, (w[s1] + 2 * partner[::-1][s1]).min())
    if best >= unused:
        raise AssertionError("decision said not robust but no failing pair found")
    return _pair_from_rank(int(best), n)


# -- public checks -------------------------------------------------------------

def is_r_robust(g: Graph, r: int) -> RobustnessVerdict:
    """Exact r-robustness check with a counterexample witness on failure."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    _check_cap(g)
    x = _x_count_table(g, r)
    nonreach = _nonreachable(x)
    if _r_robust_decision(nonreach, g.n):
        return RobustnessVerdict(True, r)
    return RobustnessVerdict(False, r, witness=_canonical_witness(x, nonreach, 1, g.n))


def max_r_robustness(g: Graph) -> int:
    """Largest r >= 1 for which the graph is r-robust, else 0.

    r-robustness fails exactly when some disjoint pair has both maxout
    values below r, so the answer is the smallest max(maxout[S1],
    maxout[S2]) over disjoint nonempty pairs, capped at ceil(n/2), the
    largest value any graph on n nodes can achieve.  A subset-min of
    maxout gives every S1 its best partner at once.  0 signals "not even
    1-robust" (disconnected or edgeless).
    """
    _check_cap(g)
    gamma = (g.n + 1) // 2
    maxout = _maxout_table(g)
    maxout[0] = _ABSENT
    partner = _subset_min(maxout, g.n)
    return min(gamma, int(np.maximum(maxout, partner[::-1]).min()))


def is_rs_robust(g: Graph, r: int, s: int) -> RobustnessVerdict:
    """Exact (r, s)-robustness check with a counterexample witness on failure."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not (1 <= s <= g.n):
        raise ValueError(f"s must lie in [1, {g.n}]")
    _check_cap(g)
    x, deficient = _rs_tables(g, r)
    worst = _min_partner_sum(g, x, deficient)
    if worst is None or worst >= s:
        return RobustnessVerdict(True, r, s=s)
    witness = _canonical_witness(x, deficient, s, g.n)
    return RobustnessVerdict(False, r, s=s, witness=witness)


def max_s_given_r(g: Graph, r: int) -> int:
    """Largest s in [1, n] with the graph (r, s)-robust; 0 if not even (r, 1).

    (r, s)-robustness is monotone in s, so the answer is the smallest
    reachable-count sum over pairs where neither set has all members
    reachable, capped at n.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    _check_cap(g)
    x, deficient = _rs_tables(g, r)
    worst = _min_partner_sum(g, x, deficient)
    if worst is None:
        return g.n
    return min(worst, g.n)


def minimality_sweep(
    g: Graph,
    kind: Literal["r", "rs"],
    r: int,
    s: int | None = None,
) -> MinimalitySweep:
    """Re-check the target robustness after each single-edge removal.

    The input graph must satisfy the target; the sweep then reports, edge by
    edge in lexicographic order, whether the removal breaks it.  ``minimal``
    is True when every removal does.
    """
    if kind not in ("r", "rs"):
        raise ValueError("kind must be 'r' or 'rs'")
    if kind == "rs":
        if s is None:
            raise ValueError("kind 'rs' needs a target s")
        baseline = is_rs_robust(g, r, s)
    else:
        if s is not None:
            raise ValueError("kind 'r' takes no s")
        baseline = is_r_robust(g, r)
    if not baseline.holds:
        raise ValueError("graph does not satisfy the target robustness to begin with")
    entries = []
    for e in g.edge_pairs():
        h = g.remove_edge(*e)
        verdict = is_rs_robust(h, r, s) if kind == "rs" else is_r_robust(h, r)
        entries.append((e, verdict))
    return MinimalitySweep(kind, r, s, tuple(entries))

