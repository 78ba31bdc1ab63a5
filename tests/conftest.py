"""Shared test helpers: random graphs and independent brute-force oracles.

The brute-force functions below check definitions directly over explicit
subset enumerations (itertools-based, no bitmask tricks) so they stay
independent of the code paths they validate.  ``subset_pair_assignments``
walks the ~3^n/2 pairs in the oracle's canonical witness order; it is the
reference the oracle's lattice witness is compared with up to n = 16.
``count_pair_first_failing_pair`` finds the same pair by looping over the
count pairs of the twin classes, the reference above that.
``brute_best_pair`` is the pair loop that the oracle's pair transform is
compared with.  ``twin_rich_graph`` grows a random graph by cloning true and
false twins, the structure the oracle's twin-class lattice compresses, and
``copied_class_graph`` adds a copy of a whole class, so that two classes
can be swapped, the symmetry the minimality sweep's edge orbits use.
``brute_dense_subgraph`` is the subset scan that the dense-subgraph
certificate's induced-edge table is compared with.
``wmsr_retained``, ``wmsr_step`` and ``nominal_step`` are the scalar
trimmed update, and ``reference_run_simulation`` the per-agent W-MSR round
built on them that the simulator's array round is compared with, byte for
byte.  ``PerValue`` gives a test strategy written one value at a time the
simulator's array method; ``trajectory_states_from_csv`` reads a
trajectory CSV back into its state matrix.
``reference_graph_to_json`` and ``reference_graph_to_edge_text`` write a
graph by sorting its edge set, the bytes the bit-walking serializers must
match; ``reference_turan_clique_threshold`` finds the Turán clique threshold
by scanning k, the reference for its closed form.
"""

from __future__ import annotations

import json
import math
import random
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from mergraph import AgentRole, Graph, Trajectory, new_graph
from mergraph.certificates import edge_lb_gamma_gamma, turan_number


def subset_pair_assignments(n: int) -> Iterator[tuple[int, int]]:
    """Yield ``(s1_mask, s2_mask)`` for every disjoint nonempty unordered pair.

    Pairs appear exactly once, in canonical order: each node gets a digit in
    {0 = unassigned, 1 = S1, 2 = S2}, digit vectors are compared
    lexicographically with node 0 most significant, and the lowest-indexed
    assigned node sits in S1.
    """

    def rec(i: int, m1: int, m2: int) -> Iterator[tuple[int, int]]:
        if i == n:
            if m1 and m2:
                yield (m1, m2)
            return
        bit = 1 << i
        yield from rec(i + 1, m1, m2)
        yield from rec(i + 1, m1 | bit, m2)
        if m1:
            yield from rec(i + 1, m1, m2 | bit)

    return rec(0, 0, 0)


def all_disjoint_pairs(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """Unordered disjoint nonempty pairs via itertools, for small-n cross-checks.

    Independent of :func:`subset_pair_assignments`; tests use it to confirm
    the canonical enumerator is complete and duplicate-free.
    """
    nodes = list(range(n))
    seen = set()
    for k1 in range(1, n + 1):
        for s1 in combinations(nodes, k1):
            rest = [v for v in nodes if v not in s1]
            for k2 in range(1, len(rest) + 1):
                for s2 in combinations(rest, k2):
                    key = frozenset((frozenset(s1), frozenset(s2)))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield frozenset(s1), frozenset(s2)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return new_graph(n, edges)


def brute_outside_degree(g: Graph, node: int, s: frozenset[int]) -> int:
    return sum(1 for j in g.neighbors(node) if j not in s)


def brute_reachable_count(g: Graph, s: frozenset[int], r: int) -> int:
    return sum(1 for i in s if brute_outside_degree(g, i, s) >= r)


def brute_is_r_robust(g: Graph, r: int) -> bool:
    for s1, s2 in all_disjoint_pairs(g.n):
        if brute_reachable_count(g, s1, r) == 0 and brute_reachable_count(g, s2, r) == 0:
            return False
    return True


def brute_max_r(g: Graph) -> int:
    """Largest r in [1, ceil(n/2)] with the graph r-robust, else 0 (linear descent)."""
    for r in range((g.n + 1) // 2, 0, -1):
        if brute_is_r_robust(g, r):
            return r
    return 0


def brute_is_rs_robust(g: Graph, r: int, s: int) -> bool:
    for s1, s2 in all_disjoint_pairs(g.n):
        x1 = brute_reachable_count(g, s1, r)
        x2 = brute_reachable_count(g, s2, r)
        if x1 == len(s1) or x2 == len(s2) or x1 + x2 >= s:
            continue
        return False
    return True


def brute_first_failing_pair(
    g: Graph, r: int, s: int = 1
) -> tuple[frozenset[int], frozenset[int]] | None:
    """First pair of the canonical scan that breaks (r, s)-robustness, or None.

    With s = 1 this is the first pair breaking plain r-robustness: both
    counts must then be 0.
    """
    counts: dict[int, tuple[frozenset[int], int]] = {}

    def lookup(mask: int) -> tuple[frozenset[int], int]:
        if mask not in counts:
            nodes = frozenset(i for i in range(g.n) if mask >> i & 1)
            counts[mask] = (nodes, brute_reachable_count(g, nodes, r))
        return counts[mask]

    for m1, m2 in subset_pair_assignments(g.n):
        s1, x1 = lookup(m1)
        s2, x2 = lookup(m2)
        if x1 < len(s1) and x2 < len(s2) and x1 + x2 <= s - 1:
            return s1, s2
    return None


def twin_classes(g: Graph) -> list[list[int]]:
    """The twin classes by definition: u and v are twins when
    N(u) - {v} = N(v) - {u}, an equivalence; each node joins the class of
    its lowest twin, so the classes are ordered by their lowest member."""
    classes: list[list[int]] = []
    for v in range(g.n):
        for c in classes:
            if g.neighbors(c[0]) - {v} == g.neighbors(v) - {c[0]}:
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def count_pair_first_failing_pair(
    g: Graph, r: int, s: int = 1
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The pair :func:`brute_first_failing_pair` finds, or None, from a loop
    over count pairs instead of subset pairs.

    For counts a, b per twin class (a_c + b_c <= |c|), S2 takes the b_c
    highest-indexed members of each class and S1 the a_c just below them:
    of all pairs with these counts, the one lowest in canonical order, whose
    rank w(S1) + 2 w(S2) with w(S) = sum of 3^(n-1-i) over i in S weighs
    the later nodes least.  The lowest rank over the failing ordered pairs
    is the canonical witness, and its lowest assigned node lies in S1.
    """
    classes = twin_classes(g)
    neighbors = [g.neighbors(i) for i in range(g.n)]
    weight = [3 ** (g.n - 1 - i) for i in range(g.n)]

    @lru_cache(maxsize=None)
    def reach(nodes: frozenset[int]) -> int:
        return sum(1 for i in nodes if len(neighbors[i] - nodes) >= r)

    best = None
    for a in product(*(range(len(c) + 1) for c in classes)):
        for b in product(*(range(len(c) + 1 - k) for c, k in zip(classes, a))):
            s1 = frozenset(i for c, j, k in zip(classes, a, b)
                           for i in c[len(c) - k - j : len(c) - k])
            s2 = frozenset(i for c, k in zip(classes, b) for i in c[len(c) - k :])
            if not s1 or not s2:
                continue
            x1, x2 = reach(s1), reach(s2)
            if x1 < len(s1) and x2 < len(s2) and x1 + x2 <= s - 1:
                rank = sum(weight[i] for i in s1) + 2 * sum(weight[i] for i in s2)
                if best is None or rank < best[0]:
                    best = (rank, s1, s2)
    return None if best is None else best[1:]


def brute_best_pair(t, shape, combine) -> int | None:
    """Smallest ``combine(t[a], t[b])`` over the pairs of cells a, b of the
    C-order lattice ``shape`` with a + b <= shape - 1 in every axis and
    neither value 255 (absent); None when no such pair exists.

    A loop over every cell a, with its partners b taken from an explicit
    coordinate list: the reference for the oracle's subset-min pair
    transform.  For shape (2,)*n the cells are the subsets and the pairs
    the disjoint ones.
    """
    coords = np.array(list(product(*(range(w) for w in shape))))
    t = np.asarray(t, dtype=np.int64)
    best = None
    for i, a in enumerate(coords):
        partners = t[((coords + a) < shape).all(axis=1) & (t != 255)]
        if t[i] == 255 or partners.size == 0:
            continue
        value = int(combine(t[i], partners).min())
        if best is None or value < best:
            best = value
    return best


def twin_rich_graph(rng: random.Random, n: int, base: int, p: float) -> Graph:
    """A random graph on ``base`` nodes grown to ``n`` by cloning: each new
    node copies a random node's neighborhood and joins it (a true twin) or
    not (a false twin).  The labels are then shuffled, so the classes are
    not runs of consecutive nodes."""
    masks = [0] * base
    for i, j in combinations(range(base), 2):
        if rng.random() < p:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    for v in range(base, n):
        u = rng.randrange(v)
        mask = masks[u] | (1 << u if rng.random() < 0.5 else 0)
        for w in range(v):
            if mask >> w & 1:
                masks[w] |= 1 << v
        masks.append(mask)
    label = list(range(n))
    rng.shuffle(label)
    return new_graph(n, [(label[u], label[w]) for u, w in combinations(range(n), 2)
                         if masks[u] >> w & 1])


def copied_class_graph(rng: random.Random, n: int, base: int, p: float) -> Graph:
    """A ``twin_rich_graph`` with one twin class (of two or more members
    when there is one) copied onto new nodes, outside links included.  The
    copy is joined to every member of the class when the class is a
    false-twin one and to none when it is a true-twin one, which keeps the
    two apart as swappable classes.  The labels are shuffled again."""
    g = twin_rich_graph(rng, n, base, p)
    classes = twin_classes(g)
    c = rng.choice([c for c in classes if len(c) > 1] or classes)
    copy = {u: n + k for k, u in enumerate(c)}
    edges = list(g.edges)
    edges += [(copy[u], copy[w]) for u, w in combinations(c, 2) if g.has_edge(u, w)]
    edges += [(w, copy[u]) for u in c for w in g.neighbors(u) - set(c)]
    if len(c) == 1 or not g.has_edge(c[0], c[1]):
        edges += [(u, copy[w]) for u in c for w in c]
    label = list(range(n + len(c)))
    rng.shuffle(label)
    return new_graph(len(label), [(label[u], label[w]) for u, w in edges])


def brute_max_clique(g: Graph) -> int:
    best = 1
    for k in range(2, g.n + 1):
        found = False
        for subset in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                found = True
                break
        if found:
            best = k
        else:
            break
    return best


def brute_dense_subgraph(g: Graph) -> bool:
    """Even n: some (gamma+1)-node subset induces >= floor((gamma^2+2)/2) edges.

    The subset-by-subset scan that ``lemma4_dense_subgraph_holds`` replaced
    with a table over all 2^n subsets; it is the reference for that table.
    """
    if g.n % 2 != 0:
        raise ValueError("dense-subgraph condition applies to even n only")
    gamma = g.n // 2
    need = (gamma * gamma + 2) // 2
    for subset in combinations(range(g.n), gamma + 1):
        if sum(1 for e in combinations(subset, 2) if e in g.edges) >= need:
            return True
    return False


def _left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: the summation order of every update."""
    total = 0.0
    for v in values:
        total += v
    return total


def wmsr_retained(own: float, neighbor_values: Sequence[float], f: int) -> list[float]:
    """Neighbor values surviving the trim: drop up to ``f`` strictly above own
    (largest first) and up to ``f`` strictly below (smallest first).

    The survivors keep their input order, so with f = 0 the subsequent
    average sums every value in input order.  Ties among equal extremes are
    broken by dropping earlier-positioned duplicates first; any consistent
    rule leaves the same retained multiset.
    """
    if f < 0:
        raise ValueError("f must be non-negative")
    above = sorted(v for v in neighbor_values if v > own)
    below = sorted(v for v in neighbor_values if v < own)
    drop: dict[float, int] = {}
    for v in above[max(0, len(above) - f):]:
        drop[v] = drop.get(v, 0) + 1
    for v in below[: min(f, len(below))]:
        drop[v] = drop.get(v, 0) + 1
    kept = []
    for v in neighbor_values:
        if drop.get(v, 0) > 0:
            drop[v] -= 1
            continue
        kept.append(v)
    return kept


def wmsr_step(own: float, neighbor_values: Sequence[float], f: int) -> float:
    """One trimmed-consensus update; result lies in [min, max] of own + retained."""
    kept = wmsr_retained(own, neighbor_values, f)
    return (own + _left_sum(kept)) / (1 + len(kept))


def nominal_step(own: float, neighbor_values: Sequence[float]) -> float:
    """Uniform-weight convex combination of own state and all neighbor values:
    the trimmed update with nothing trimmed."""
    return wmsr_step(own, neighbor_values, 0)


class PerValue:
    """Mixin for a test strategy written one value at a time: its ``send``,
    the array method ``run_simulation`` calls, loops over the scalar
    ``value(agent, receiver, t)`` on the ints of each element of the
    broadcast arguments, in C order."""

    def send(self, agents, receivers, t) -> np.ndarray:
        grid = np.broadcast(agents, receivers, t)
        out = np.empty(grid.shape)
        out.flat = [self.value(*(int(a) for a in key)) for key in grid]
        return out


def reference_run_simulation(config, adversary=None):
    """Per-agent, per-neighbor W-MSR rounds: the reference for ``run_simulation``.

    Every normal agent asks each neighbor, in ascending order, for the value
    it sends, trims with the scalar :func:`wmsr_retained` and folds the
    survivors left to right from 0.0, as Python's ``sum`` did on floats
    before 3.12.  A strategy's ``send`` is called one value at a time; a
    malicious agent sends every receiver what it sends its lowest-indexed
    neighbor.  Adversary roles are checked, strategy values are taken as
    given (no NaN check), and a normal agent whose update sums +inf and
    -inf raises the error ``run_simulation`` raises.
    """
    g = config.graph
    n = g.n
    roles = config.roles
    if any(r is not AgentRole.NORMAL for r in roles) and not hasattr(adversary, "send"):
        raise ValueError("adversarial roles present but strategy has no send")

    neighbor_lists = [sorted(g.neighbors(i)) for i in range(n)]

    def sent(j: int, receiver: int, t: int, x: list[float]) -> float:
        role = roles[j]
        if role is AgentRole.NORMAL:
            return x[j]
        if role is AgentRole.MALICIOUS:
            receiver = neighbor_lists[j][0]
        return float(adversary.send(j, receiver, t))

    states = np.empty((config.steps + 1, n), dtype=np.float64)
    x = [float(v) for v in config.initial_states]
    for t in range(config.steps + 1):
        for i in range(n):
            if roles[i] is AgentRole.NORMAL:
                states[t, i] = x[i]
            elif neighbor_lists[i]:
                states[t, i] = sent(i, neighbor_lists[i][0], t, x)
            else:
                states[t, i] = 0.0
        if t == config.steps:
            break
        new_x = list(x)
        for i in range(n):
            if roles[i] is not AgentRole.NORMAL:
                continue
            received = [sent(j, i, t, x) for j in neighbor_lists[i]]
            kept = wmsr_retained(x[i], received, config.f)
            weight = 1.0 / (1 + len(kept))
            new_x[i] = (x[i] + _left_sum(kept)) * weight
            if math.isnan(new_x[i]):
                raise ValueError(f"agent {i} summed +inf and -inf at step {t}")
        x = new_x
    return Trajectory(states=states, roles=roles, f=config.f)


def trajectory_states_from_csv(text: str) -> np.ndarray:
    """The (steps+1, n) state matrix of a trajectory CSV."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or not lines[0].startswith("t,"):
        raise ValueError("not a trajectory CSV")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append([float(c) for c in cells[1:]])
    return np.asarray(rows, dtype=np.float64)


@lru_cache(maxsize=1)
def _sorted_edges(g: Graph) -> list[tuple[int, int]]:
    # one sort serves both references when a test writes a graph both ways
    return sorted(g.edges)


def reference_graph_to_json(g: Graph) -> str:
    """Canonical graph JSON from the sorted edge set."""
    payload = {"n": g.n, "edges": [list(e) for e in _sorted_edges(g)]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def reference_graph_to_edge_text(g: Graph) -> str:
    """Edge-list text from the sorted edge set."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in _sorted_edges(g))
    return "\n".join(lines) + "\n"


def reference_turan_clique_threshold(gamma: int) -> int:
    """Largest k whose exact Turán number on 2*gamma nodes is below the
    (gamma, gamma) edge floor, found by scanning k upwards."""
    n = 2 * gamma
    floor_edges = edge_lb_gamma_gamma(n)
    best = 2
    for k in range(2, n + 1):
        if floor_edges > turan_number(n, k):
            best = k
        else:
            break
    return best
