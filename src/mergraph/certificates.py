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
tabulates the induced edge count of all 2^n subsets in one numpy table
(see :func:`lemma4_dense_subgraph_holds`), so its budget is a node count,
``MAX_DENSE_NODES``; above it the report records the check as not
evaluated.
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
from .graph_core import CapExceededError, Graph, complement, max_clique_size  # noqa: F401

Parity = Literal["odd", "even", "unknown"]

# the report's clique checks run up to this many nodes and are None above it
MAX_CLIQUE_NODES = 40

# the dense-subgraph check raises CapExceededError above this many nodes;
# its table holds 2^n counts, 4 MiB at n = 22
MAX_DENSE_NODES = 22


def gamma_of(n: int) -> int:
    """ceil(n/2), the maximum r-robustness achievable on n nodes."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n + 1) // 2


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


def edge_lb_any_r(r: int, parity: Parity = "unknown") -> int:
    """Edge floor for any r-robust graph; the even-n form is strictly stronger."""
    if r < 1:
        raise ValueError("r must be positive")
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


def turan_number(n: int, k: int) -> int:
    """Maximum edges of an n-node graph with no k-clique (k >= 2).

    Realized by the complete (k-1)-partite graph with balanced parts; counted
    exactly rather than through the quadratic upper-bound form, which is loose
    whenever k - 1 does not divide n.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    parts = k - 1
    if parts >= n:
        return n * (n - 1) // 2
    q, rem = divmod(n, parts)
    internal = rem * comb(q + 1, 2) + (parts - rem) * comb(q, 2)
    return comb(n, 2) - internal


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


def _induced_edge_table(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``induced[S]`` = number of edges with both ends in subset ``S``, and
    ``sizes[S]`` = ``|S|``, over all 2^n subsets.

    Filled by doubling over the nodes: for S within nodes 0..i-1,
    induced[S | 1 << i] = induced[S] + popcount(adj[i] & S).  Subset S is
    ``h << lo_bits | l`` for ``l`` in ``lo`` (the low ``n // 2`` bits) and
    ``h`` in ``hi``, and the popcount is split the same way, so each node
    costs two vectors of length ~2^(n/2) and broadcast adds into the new
    half of the table; ``sizes`` is summed from the half popcounts as a
    (hi.size, lo.size) grid.  The dtype holds C(n, 2), so the counts never
    wrap.
    """
    n = g.n
    # table first, then the halves and sizes: the other order raised the
    # peak RSS of a run of certificate reports at n=16-20 by about 0.9 MB
    induced = np.zeros(1 << n, dtype=np.min_scalar_type(comb(n, 2)))
    lo_bits = n // 2
    lo = np.arange(1 << lo_bits, dtype=np.uint32)
    hi = np.arange(1 << (n - lo_bits), dtype=np.uint32)
    sizes = np.bitwise_count(hi)[:, None] + np.bitwise_count(lo)
    for i, a in enumerate(g.adjacency):
        below = induced[: 1 << i]
        new = induced[1 << i : 2 << i]
        in_lo = np.bitwise_count(lo & (a & (lo.size - 1)))
        if i < lo_bits:
            np.add(below, in_lo[: 1 << i], out=new)
        else:
            rows = 1 << (i - lo_bits)
            in_hi = np.bitwise_count(hi[:rows] & (a >> lo_bits))
            grid = new.reshape(rows, lo.size)
            np.add(below.reshape(rows, lo.size), in_hi[:, None], out=grid)
            grid += in_lo
    return induced, sizes.ravel()


def lemma4_dense_subgraph_holds(g: Graph) -> bool:
    """Even-n check: some (gamma+1)-node subset induces >= floor((gamma^2+2)/2) edges.

    Necessary for gamma-robustness on even n.  The induced edge count of
    every one of the 2^n subsets is tabulated at once
    (:func:`_induced_edge_table`) and read at the subsets of size gamma+1,
    with no loop over subsets.  Above ``MAX_DENSE_NODES`` nodes it raises
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
    gamma = n // 2
    need = (gamma * gamma + 2) // 2
    induced, sizes = _induced_edge_table(g)
    return bool(np.any((sizes == gamma + 1) & (induced >= need)))


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

    def check(self, name: str) -> CertificateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

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
        dense_need = (gamma * gamma + 2) // 2
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
