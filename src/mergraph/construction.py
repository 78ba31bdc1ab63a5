"""Deterministic builders for maximally robust graphs with minimal edge sets.

Two families, both parameterized only by the node count n (gamma = ceil(n/2)),
and all four of their graphs have one shape: a *hub* of nodes adjacent to
every other node, every other node adjacent to the hub alone, and then a
few disjoint *removed pairs* lose their edge.

* ``construct_gamma_merg``: gamma-robust with the fewest possible edges.
  The hub is nodes 0..gamma-1.  Odd n removes nothing; this is the paper's
  graph of a (gamma+1)-clique whose other nodes are attached to gamma of
  its members, because the clique's extra member, node gamma, is like each
  attached node adjacent to the gamma hub nodes and to nothing else.  Even
  n removes floor((gamma-1)/2) disjoint hub pairs (0,1), (2,3), ....
* ``construct_gamma_gamma_merg``: (gamma, gamma)-robust with the fewest
  possible edges.  The hub is every node, so before removals the graph is
  complete.  Odd n removes nothing.  Even n removes the tail of the
  adjacent-index perfect matching, the pairs (2i, 2i+1) for i in
  [ceil(gamma/2), gamma); every node has 2*(gamma-1) neighbors before the
  first ceil(gamma/2) matching pairs are taken back.

The lowest-index choices are one canonical pick among many admissible ones;
robustness is label-invariant, and a ``variant`` seed applies a recorded
label permutation to the hub and the removed pairs for generating
differently labeled instances.  Every builder writes only a recipe and
returns it together with the graph that :func:`replay_recipe` builds from
it, so the recipe is the single source of each graph's edges.
:func:`replay_recipe` is the one recipe boundary: it checks the recipe's
size, kind, node ids (their type included) and pairs first, then emits the
neighbor bitmasks directly, with no edge list in between.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .graph_core import MAX_NODES, Edge, Graph, gamma_of

KIND_GAMMA = "gamma"
KIND_GAMMA_GAMMA = "gamma_gamma"

# the most edges a replayed recipe may have before its removals: the masks
# of a dense graph take about n^2/8 bytes, so a recipe or construction within
# the node limit must not be able to ask for more.  The largest construction
# used anywhere, (gamma, gamma) at n = 800, has 319,600 edges; the limit
# admits that family up to n = 5793 and the gamma family up to n = 6688.
MAX_EDGES = 1 << 24


@dataclass(frozen=True)
class ConstructionRecipe:
    """The exact choices made while instantiating a construction.

    The graph is ``hub``, a group of distinct nodes each adjacent to every
    other node, with every node outside it adjacent to the hub alone, less
    the edges of the disjoint ``removed_pairs``.  ``kind``, ``n`` and
    ``gamma`` name the family and its size.  Replaying a recipe reproduces
    the graph bit-exactly, including under variant label permutations,
    which relabel the hub and the pairs.
    """

    kind: str
    n: int
    gamma: int
    hub: tuple[int, ...]
    removed_pairs: tuple[Edge, ...] = ()
    variant: int | None = None

    def to_json(self) -> str:
        """``json.dumps(vars(self), indent=2, sort_keys=True) + "\\n"``, byte
        for byte, without the pure-Python encoder that ``indent`` takes: the
        keys and the layout are fixed (one hub id a line, each removed pair
        a list of two lines), so the C encoder writes each field on one line
        whose item separators carry the line breaks and indents."""
        hub = json.dumps(self.hub, separators=(",\n    ", ":"))
        if len(hub) > 2:
            hub = f"[\n    {hub[1:-1]}\n  ]"
        pairs = json.dumps(self.removed_pairs, separators=(",\n      ", ":"))
        if len(pairs) > 2:
            pairs = pairs[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
            pairs = f"[\n    [\n      {pairs}\n    ]\n  ]"
        return (f'{{\n  "gamma": {json.dumps(self.gamma)},\n  "hub": {hub},\n'
                f'  "kind": {json.dumps(self.kind)},\n  "n": {json.dumps(self.n)},\n'
                f'  "removed_pairs": {pairs},\n  "variant": {json.dumps(self.variant)}\n}}\n')


def _check_edges(n: int, hub_size: int) -> None:
    """Refuse a hub of ``hub_size`` nodes on n nodes above ``MAX_EDGES`` edges."""
    edges = hub_size * (hub_size - 1) // 2 + hub_size * (n - hub_size)
    if edges > MAX_EDGES:
        raise ValueError(f"recipe has {edges} edges, above the limit of {MAX_EDGES}")


def replay_recipe(recipe: ConstructionRecipe) -> Graph:
    """Rebuild the graph a recipe describes, as neighbor bitmasks.

    Each hub node's mask is every other node, any other node's mask is the
    hub, and each removed pair then clears its two bits; the family does
    not enter.  This is the one check of a recipe from outside the builders,
    such as one decoded from a ``.recipe.json`` sidecar.  The node count
    must be an ``int`` in [1, ``MAX_NODES``] and the edges before removals
    must not exceed ``MAX_EDGES``.  The hub must be a tuple or list of ids
    and the removed pairs a tuple or list of two-id tuples or lists, or a
    ``ValueError`` names the field.  Every node id must be an ``int`` (a
    ``bool`` or a float is refused, as by ``new_graph``) in [0, n); then the
    hub is checked for a repeated node and every removed pair for a
    self-pair, for a pair that is no edge (neither end in the hub) and for a
    node another pair has too, all before any mask is built, so a recipe of
    the declared shape (a tuple of ids, a tuple of pairs) with a bad value
    raises ``ValueError`` instead of describing a wrong graph.  Disjoint
    pairs each hold a hub node of their own, so the masks of their other
    ends take at most about 2 * ``MAX_EDGES`` + n bits.
    """
    n, hub = recipe.n, recipe.hub
    if type(n) is not int or n < 1:
        raise ValueError(f"recipe node count {n!r} is not a positive integer")
    if n > MAX_NODES:
        raise ValueError(f"recipe node count {n} exceeds the limit of {MAX_NODES} nodes")
    if recipe.kind not in (KIND_GAMMA, KIND_GAMMA_GAMMA):
        raise ValueError(f"unknown recipe kind {recipe.kind!r}")
    if not isinstance(hub, (tuple, list)):
        raise ValueError(f"recipe hub of type {type(hub).__name__} is not a sequence of node ids")
    if not isinstance(recipe.removed_pairs, (tuple, list)):
        raise ValueError(f"recipe removed_pairs of type {type(recipe.removed_pairs).__name__}"
                         " is not a sequence of pairs")
    for pair in recipe.removed_pairs:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ValueError(f"recipe removed_pairs holds {pair!r}, not a pair of node ids")
    _check_edges(n, len(hub))
    for v in chain(hub, *recipe.removed_pairs):
        if type(v) is not int:
            raise ValueError(f"recipe node id {v!r} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"recipe node {v} out of range for n={n}")
    if len(set(hub)) != len(hub):
        raise ValueError("recipe hub repeats a node")
    group = sum(1 << v for v in hub)
    for u, v in recipe.removed_pairs:
        if u == v:
            raise ValueError(f"recipe pair ({u}, {v}) is a self-pair")
        if not (group >> u | group >> v) & 1:
            raise ValueError(f"recipe removes ({u}, {v}), a pair outside the hub's edges")
    ends = list(chain.from_iterable(recipe.removed_pairs))
    if len(set(ends)) != len(ends):
        raise ValueError("recipe removed pairs share a node")

    full = (1 << n) - 1
    masks = [full ^ (1 << u) if group >> u & 1 else group for u in range(n)]
    for u, v in recipe.removed_pairs:
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
    return Graph._from_masks(n, masks)


def _apply_variant(recipe: ConstructionRecipe, variant: int | None) -> ConstructionRecipe:
    """The recipe with its hub and removed pairs relabeled by the variant
    seed's permutation of the nodes; a negative seed is refused."""
    if variant is None:
        return recipe
    if variant < 0:
        raise ValueError(f"variant must be non-negative, got {variant}")
    perm = np.random.Generator(np.random.PCG64(variant)).permutation(recipe.n).tolist()
    return replace(
        recipe,
        hub=tuple(sorted(perm[v] for v in recipe.hub)),
        removed_pairs=tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in recipe.removed_pairs)
        ),
        variant=variant,
    )


def _family_gamma(n: int) -> int:
    """gamma for a construction on n nodes; n must lie in [2, MAX_NODES]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the limit of {MAX_NODES} nodes")
    return gamma_of(n)


def _build(
    kind: str, n: int, gamma: int, hub_size: int, removed: range, variant: int | None
) -> tuple[Graph, ConstructionRecipe]:
    """The graph and recipe of the hub 0..hub_size-1 less the matching pairs
    (2i, 2i+1) for i in ``removed``, relabeled by the variant seed.  The
    edge count is checked before the hub is listed."""
    _check_edges(n, hub_size)
    hub = tuple(range(hub_size))
    pairs = tuple((2 * i, 2 * i + 1) for i in removed)
    recipe = _apply_variant(ConstructionRecipe(kind, n, gamma, hub, pairs), variant)
    return replay_recipe(recipe), recipe


def construct_gamma_merg(
    n: int, variant: int | None = None
) -> tuple[Graph, ConstructionRecipe]:
    """Build the gamma-robust graph with the minimal edge count for n nodes."""
    gamma = _family_gamma(n)
    # odd n removes no pair, even n the first floor((gamma-1)/2) matching pairs
    removed = range(0 if n % 2 else (gamma - 1) // 2)
    return _build(KIND_GAMMA, n, gamma, gamma, removed, variant)


def construct_gamma_gamma_merg(
    n: int, variant: int | None = None
) -> tuple[Graph, ConstructionRecipe]:
    """Build the (gamma, gamma)-robust graph with the minimal edge count."""
    gamma = _family_gamma(n)
    # odd n removes no pair, even n the matching after its first ceil(gamma/2)
    removed = range(gamma if n % 2 else (gamma + 1) // 2, gamma)
    return _build(KIND_GAMMA_GAMMA, n, gamma, n, removed, variant)
