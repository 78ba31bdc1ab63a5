"""Closed-form necessary conditions for maximally robust graphs.

For a graph on n nodes, gamma = ceil(n/2) is the largest achievable
r-robustness.  Several cheap structural conditions are necessary at that
level, and they are collected here as certificate checks:

* edge-count floors for gamma-robustness (odd and even n) and their
  generalization to arbitrary r, which also yield a fast upper bound on any
  graph's robustness from its edge count alone;
* minimum-degree and edge floors for (r, r)-robustness;
* clique-size floors, including the one obtained by combining the
  (gamma, gamma) edge floor with exact Turán numbers;
* a dense-induced-subgraph requirement for even n;
* an exact if-and-only-if test for (gamma, gamma)-robustness from the
  edge count and the degrees (see :func:`prop1_gamma_gamma_check`).

All checks except the last are necessary only: passing never proves
robustness, failing always disproves it.

The dense-subgraph check is the only one that looks at node subsets.  It
meets in the middle: per-node neighbour counts in the subsets of each half
of the nodes build the induced edge counts of all 2^n subsets as a grid,
high-half subsets by low-half subsets, and one read over the runs of that
grid that hold the (gamma+1)-subsets decides it (see
:func:`lemma4_dense_subgraph_holds`).  The grid is 4 MiB at n = 22, so its
budget is a node count, ``MAX_DENSE_NODES``; above it the report records
the check as not evaluated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Literal

import numpy as np

# ``complement`` is no longer called here; it stays importable as
# ``certificates.complement`` because the benchmark tracer (bench/tracing.py,
# TARGETS) hooks it under that name, and tests/test_tracing_targets.py
# requires every hooked name to resolve
from .graph_core import CapExceededError, Graph, complement, gamma_of, max_clique_size  # noqa: F401

Parity = Literal["odd", "even"]

# the report's clique checks run up to this many nodes and are None above it
MAX_CLIQUE_NODES = 40

# the dense-subgraph check raises CapExceededError above this many nodes;
# its grid holds 2^n one-byte counts, 4 MiB at n = 22
MAX_DENSE_NODES = 22


def edge_lb_gamma_odd(gamma: int) -> int:
    """Minimum edges of a gamma-robust graph on n = 2*gamma - 1 (odd) nodes."""
    if gamma < 1:
        raise ValueError("gamma must be positive")
    return 3 * gamma * (gamma - 1) // 2


def edge_lb_gamma_even(gamma: int) -> int:
    """Minimum edges of a gamma-robust graph on n = 2*gamma (even) nodes."""
    if gamma < 1:
        raise ValueError("gamma must be positive")
    return (gamma * (3 * gamma - 2) + 2) // 2


def edge_lb_any_r(r: int, parity: Parity) -> int:
    """Edge floor for any r-robust graph; the even-n form is strictly stronger."""
    if r < 1:
        raise ValueError("r must be positive")
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")
    if parity == "even":
        return edge_lb_gamma_even(r)
    return edge_lb_gamma_odd(r)


def r_upper_bound_from_edges(n: int, m: int) -> int:
    """Largest r whose edge floor fits in m edges, clamped to ceil(n/2).

    A quick upper bound on robustness from counting alone: any r-robust graph
    must carry the r-level edge floor, so levels whose floor exceeds m are
    ruled out.  Returns 0 when even the r = 1 floor fails.
    """
    if m < 0:
        raise ValueError("edge count must be non-negative")
    parity: Parity = "even" if n % 2 == 0 else "odd"
    best = 0
    for r in range(1, gamma_of(n) + 1):
        if edge_lb_any_r(r, parity) <= m:
            best = r
        else:
            break
    return best


def min_degree_lb_rs(r: int, s: int) -> int:
    """Minimum-degree floor for (r, s)-robust graphs."""
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    return 2 * r - 2 if s >= r else r + s - 1


def edge_lb_gamma_gamma(n: int) -> int:
    """Minimum edges of a (gamma, gamma)-robust graph on n nodes.

    Odd n forces the complete graph; even n needs 2*gamma*(gamma-1) edges
    from the degree floor plus ceil(gamma/2) more.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    gamma = gamma_of(n)
    if n % 2 == 1:
        return (gamma - 1) * (2 * gamma - 1)
    return 2 * gamma * (gamma - 1) + (gamma + 1) // 2


def turan_clique_threshold(gamma: int) -> int:
    """Clique size every (gamma, gamma)-robust even-n graph must contain.

    Largest k such that the (gamma, gamma) edge floor strictly exceeds the
    exact Turán number for k-clique-free graphs on n = 2*gamma nodes; every
    graph meeting the floor is then forced to contain a k-clique.  That k is
    2*gamma - floor(gamma/2), returned in closed form; the minimal
    constructions attain it with equality, and it is never below the
    coarser floor(4*gamma/3) + 1 estimate.
    """
    if gamma < 1:
        raise ValueError("gamma must be positive")
    return 2 * gamma - gamma // 2


def necessary_clique_size(n: int) -> int:
    """Clique size every gamma-robust graph on n nodes must contain."""
    if n < 2:
        raise ValueError("n must be at least 2")
    gamma = gamma_of(n)
    if n % 2 == 1:
        return gamma + 1
    return (gamma + 4) // 2


def _dense_subgraph_floor(gamma: int) -> int:
    """Lemma 4's floor: a gamma-robust graph on 2*gamma nodes has a
    (gamma+1)-node subset that induces at least this many edges."""
    return (gamma * gamma + 2) // 2


# per even n: the low-half subsets in popcount order and the flat bounds of
# every row's run of (gamma+1)-subsets in the induced-edge grid, both
# O(2^(n/2)); 40 KB in all for n = 2..22
_RUNS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _popcount_runs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``order`` and ``bounds`` of the even-n grid, built once per n.

    ``order`` lists the low-half subsets (the low ``n // 2`` bits) by
    popcount, ties in increasing order, so the columns of one popcount q
    form one run ``starts[q]:starts[q + 1]``.  Row ``h`` of the grid (a
    high-half subset of popcount p) meets the subsets of size gamma+1 in the
    run of q = gamma+1-p, which is empty only for h = 0.  ``bounds``
    interleaves the run start and end of rows 1, 2, ... as flat indices into
    the grid, the form ``np.maximum.reduceat`` reads (its even-numbered
    segments are the runs); an end at the grid's size is dropped, since the
    last segment runs to the end.
    """
    runs = _RUNS.get(n)
    if runs is None:
        k = n // 2
        width = 1 << k
        popcounts = np.bitwise_count(np.arange(width, dtype=np.uint32))
        order = np.argsort(popcounts, kind="stable").astype(np.min_scalar_type(width - 1))
        starts = np.concatenate(([0], np.cumsum(np.bincount(popcounts))))
        row_starts = np.arange(1, width) * width
        q = k + 1 - popcounts[1:]
        bounds = np.stack([row_starts + starts[q], row_starts + starts[q + 1]], axis=1).ravel()
        if bounds[-1] == width * width:
            bounds = bounds[:-1]
        runs = _RUNS[n] = (order, bounds.astype(np.int32))
        for shared in runs:
            shared.flags.writeable = False
    return runs


def _half_tables(g: Graph, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The induced edge counts of all 2^n subsets of an even-n graph, split.

    The nodes split into a low half and a high half of k = n // 2 nodes
    each, and a subset into ``h << k | l``.  ``order`` is a permutation of
    the 2^k low-half subsets.  ``grid[h, c]`` counts the edges inside
    ``l = order[c]`` and those from ``l`` to ``h``, ``high[h]`` the edges
    inside ``h``, so ``grid[h, c] + high[h]`` is the induced edge count of
    ``h << k | order[c]``.

    Each half's own edges are counted at their higher end: one broadcast
    bit count gives every node's lower neighbours in every subset of its
    half, kept where the node itself is in the subset and summed per
    subset.  The grid's row 0 is the low half's own edges; it then doubles
    over the high-half nodes only, one add of each node's neighbour counts
    in the low subsets (the cross edges) per node.  The dtype holds
    C(n, 2), so the counts never wrap.
    """
    n = g.n
    k = n // 2
    width = 1 << k
    low, high = g.adjacency[:k], g.adjacency[k:]
    masks = np.array(
        [
            [a & ((1 << i) - 1) for i, a in enumerate(low)],
            [a >> k & ((1 << i) - 1) for i, a in enumerate(high)],
            [a & (width - 1) for a in high],
        ],
        dtype=np.uint32,
    )
    subsets = np.arange(width, dtype=np.uint32)
    member = (subsets >> np.arange(k, dtype=np.uint32)[:, None]).astype(np.uint8) & 1
    dtype = np.min_scalar_type(comb(n, 2))
    own = (np.bitwise_count(masks[:2, :, None] & subsets) * member).sum(axis=1, dtype=dtype)
    cross = np.bitwise_count(masks[2, :, None] & order)
    grid = np.empty((width, width), dtype=dtype)
    grid[0] = own[0, order]
    for t in range(k):
        rows = 1 << t
        np.add(grid[:rows], cross[t], out=grid[rows : 2 * rows])
    return grid, own[1]


def lemma4_dense_subgraph_holds(g: Graph) -> bool:
    """Even-n check: some (gamma+1)-node subset induces >= floor((gamma^2+2)/2) edges.

    Necessary for gamma-robustness on even n.  A meet in the middle: the
    induced edge counts of all 2^n subsets are a (2^(n/2) x 2^(n/2)) grid,
    high-half subsets by low-half subsets, plus one count per row for the
    edges inside the high half (:func:`_half_tables`).  The columns are in
    popcount order, so each row's (gamma+1)-subsets are one contiguous run
    (:func:`_popcount_runs`): one ``np.maximum.reduceat`` over those runs,
    plus each row's own count, gives the densest (gamma+1)-subset with no
    loop over subsets.  At n = 22 the grid is 4 MiB of uint8 and the call
    peaks at about 4.1 MiB.  Above ``MAX_DENSE_NODES`` nodes it raises
    ``CapExceededError`` before any table is built.
    """
    if g.n % 2 != 0:
        raise ValueError("dense-subgraph condition applies to even n only")
    n = g.n
    if n > MAX_DENSE_NODES:
        raise CapExceededError(
            f"dense-subgraph table of 2^{n} subsets infeasible"
            f" (cap is {MAX_DENSE_NODES} nodes)"
        )
    order, bounds = _popcount_runs(n)
    grid, high = _half_tables(g, order)
    densest = np.maximum.reduceat(grid.ravel(), bounds)[::2] + high[1:]
    return bool(densest.max() >= _dense_subgraph_floor(n // 2))


def prop1_gamma_gamma_check(g: Graph) -> bool:
    """Exact (gamma, gamma)-robustness test, if and only if.

    Odd n: true exactly for the complete graph.  Even n: true exactly when
    the complement has maximum degree <= 1 and at most floor(gamma/2) edges,
    that is when at most floor(gamma/2) pairs are missing and every degree is
    at least n - 2; the complement itself is never built.
    The even case works because the minimal (gamma, gamma)-robust graphs on
    2*gamma nodes are precisely the complements of matchings with
    floor(gamma/2) edges, and a graph contains one of them as a spanning
    subgraph iff its complement is a sub-matching of that size (any smaller
    matching extends: at least two vertices stay uncovered while fewer than
    floor(gamma/2) edges are placed).  Agrees with the exhaustive oracle on
    every input.
    """
    if g.n < 2:
        raise ValueError("n must be at least 2")
    m = g.edge_count
    if g.n % 2 == 1:
        return m == comb(g.n, 2)
    gamma = g.n // 2
    if comb(g.n, 2) - m > gamma // 2:
        return False
    return all(mask.bit_count() >= g.n - 2 for mask in g.adjacency)


# -- aggregated report ---------------------------------------------------------

@dataclass(frozen=True)
class CertificateCheck:
    """One named necessary-condition verdict with its threshold attached."""

    name: str
    passed: bool | None  # None = not evaluated (over the combinatorial budget)
    required: int | None
    observed: int | None
    scope: str  # which robustness claim the condition is necessary for


@dataclass(frozen=True)
class CertificateReport:
    """All certificate verdicts for one graph plus the implied robustness cap."""

    n: int
    gamma: int
    edge_count: int
    checks: tuple[CertificateCheck, ...]
    implied_r_upper_bound: int
    prop1_gamma_gamma: bool
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        """The fields as a JSON-ready dict (tuples encode as arrays), plus a note."""
        return {
            **vars(self),
            "checks": [dict(vars(c)) for c in self.checks],
            "note": "all checks except prop1_gamma_gamma are necessary only",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def certificate_report(g: Graph) -> CertificateReport:
    """Evaluate every certificate on one graph.

    Clique-based and dense-subgraph checks are skipped (verdict None) above
    their budgets; the closed-form counting checks always run.
    """
    n = g.n
    gamma = gamma_of(n)
    m = g.edge_count
    parity: Parity = "even" if n % 2 == 0 else "odd"
    checks: list[CertificateCheck] = []
    r_claim, rs_claim = f"{gamma}-robust", f"({gamma},{gamma})-robust"

    def at_least(name: str, required: int, observed: int | None, scope: str) -> None:
        passed = None if observed is None else observed >= required
        checks.append(CertificateCheck(name, passed, required, observed, scope=scope))

    at_least("edge_floor_gamma", edge_lb_any_r(gamma, parity), m, r_claim)
    if n >= 2:
        at_least("edge_floor_gamma_gamma", edge_lb_gamma_gamma(n), m, rs_claim)
        min_degree = min(a.bit_count() for a in g.adjacency)
        at_least("min_degree_gamma_gamma", min_degree_lb_rs(gamma, gamma), min_degree, rs_claim)
        clique = max_clique_size(g) if n <= MAX_CLIQUE_NODES else None
        at_least("clique_gamma", necessary_clique_size(n), clique, r_claim)
    if n % 2 == 0:
        at_least("clique_gamma_gamma_turan", turan_clique_threshold(gamma), clique, rs_claim)
        dense_need = _dense_subgraph_floor(gamma)
        try:
            dense_ok = lemma4_dense_subgraph_holds(g)
        except CapExceededError:
            dense_ok = None
        checks.append(
            CertificateCheck("dense_subgraph_gamma", dense_ok, dense_need, None, scope=r_claim)
        )

    implied = r_upper_bound_from_edges(n, m)
    flags = []
    if implied < gamma:
        flags.append(f"cannot be {gamma}-robust: edge count {m} is below the floor")
    prop1 = prop1_gamma_gamma_check(g) if n >= 2 else False
    return CertificateReport(
        n=n,
        gamma=gamma,
        edge_count=m,
        checks=tuple(checks),
        implied_r_upper_bound=implied,
        prop1_gamma_gamma=prop1,
        flags=tuple(flags),
    )
