"""Deterministic builders for maximally robust graphs with minimal edge sets.

Two families, both parameterized only by the node count n (gamma = ceil(n/2)):

* ``construct_gamma_merg``: gamma-robust with the fewest possible edges.
  Odd n: nodes 0..gamma form a (gamma+1)-clique and each remaining node is
  attached to the gamma lowest-indexed clique members.  Even n: nodes
  0..gamma-1 form a hub adjacent to every node (non-hub pairs stay
  non-adjacent), then ceil((gamma-2)/2) disjoint hub pairs (0,1), (2,3), ...
  lose their edge.
* ``construct_gamma_gamma_merg``: (gamma, gamma)-robust with the fewest
  possible edges.  Odd n: the complete graph.  Even n: the complete graph
  minus the tail of the adjacent-index perfect matching, keeping the first
  ceil(gamma/2) matching pairs as edges; equivalently, every node has
  2*(gamma-1) neighbors before those pairs are reconnected.

The lowest-index choices are one canonical pick among many admissible ones;
robustness is label-invariant, and a ``variant`` seed applies a recorded
label permutation for generating differently labeled instances.  Every
builder writes only a recipe and returns it together with the graph that
:func:`replay_recipe` builds from it, so the recipe is the single source of
each graph's edges.  Replay checks every node id and pair of the recipe
first, then emits the neighbor bitmasks directly (a clique or the complete
graph is a few masks, a removed pair clears two bits), with no edge list in
between.  :func:`recipe_from_dict` checks the types of a recipe read from
JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .certificates import gamma_of
from .graph_core import MAX_NODES, Edge, Graph

KIND_GAMMA = "gamma"
KIND_GAMMA_GAMMA = "gamma_gamma"


@dataclass(frozen=True)
class ConstructionRecipe:
    """The exact choices made while instantiating a construction.

    Replaying a recipe reproduces the graph bit-exactly, including under
    variant label permutations.  A family leaves the node groups and pair
    lists it does not use empty.
    """

    kind: str
    n: int
    gamma: int
    clique_or_hub: tuple[int, ...] = ()
    attachment_map: tuple[tuple[int, tuple[int, ...]], ...] = ()
    removed_pairs: tuple[Edge, ...] = ()
    added_pairs: tuple[Edge, ...] = ()
    variant: int | None = None

    def to_dict(self) -> dict:
        """The fields as a JSON-ready dict; tuples encode as arrays."""
        return dict(vars(self))

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


def _int(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"recipe value {value!r} is not an integer")
    return value


def _ints(values: object) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"recipe entry {values!r} is not a list of node ids")
    return tuple(_int(v) for v in values)


def _pair(value: object) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"recipe entry {value!r} is not a pair")
    return tuple(value)


def recipe_from_dict(payload: dict) -> ConstructionRecipe:
    """The recipe a :meth:`ConstructionRecipe.to_dict` payload, or the JSON
    it encodes to, describes; its groups and pairs may be tuples or lists.

    Refuses, with ``ValueError``, an unknown ``kind``, a count or node id
    that is not an ``int`` (a ``bool`` is refused too) and an entry that is
    not a pair where a pair belongs.  Ranges, and the node count against
    ``MAX_NODES``, are checked on replay.
    """
    if payload["kind"] not in (KIND_GAMMA, KIND_GAMMA_GAMMA):
        raise ValueError(f"unknown recipe kind {payload['kind']!r}")
    variant = payload.get("variant")
    return ConstructionRecipe(
        kind=payload["kind"],
        n=_int(payload["n"]),
        gamma=_int(payload["gamma"]),
        clique_or_hub=_ints(payload["clique_or_hub"]),
        attachment_map=tuple(
            (_int(node), _ints(nbrs))
            for node, nbrs in map(_pair, payload["attachment_map"])
        ),
        removed_pairs=tuple(_ints(_pair(e)) for e in payload["removed_pairs"]),
        added_pairs=tuple(_ints(_pair(e)) for e in payload["added_pairs"]),
        variant=None if variant is None else _int(variant),
    )


def replay_recipe(recipe: ConstructionRecipe) -> Graph:
    """Rebuild the graph a recipe describes, as neighbor bitmasks.

    The node count must lie in [1, ``MAX_NODES``].  Every node id is
    range-checked, and every pair checked for a self-pair, before any bit
    is set, so a bad recipe raises ``ValueError`` instead of describing a
    wrong graph.
    """
    n = recipe.n
    if type(n) is not int or n < 1:
        raise ValueError(f"recipe node count {n!r} is not a positive integer")
    if n > MAX_NODES:
        raise ValueError(f"recipe node count {n} exceeds the limit of {MAX_NODES} nodes")
    if recipe.kind not in (KIND_GAMMA, KIND_GAMMA_GAMMA):
        raise ValueError(f"unknown recipe kind {recipe.kind!r}")

    def check_ids(ids: tuple[int, ...]) -> None:
        if ids and not (0 <= min(ids) and max(ids) < n):
            bad = next(v for v in ids if not 0 <= v < n)
            raise ValueError(f"recipe node {bad} out of range for n={n}")

    check_ids(recipe.clique_or_hub)
    odd_gamma = recipe.kind == KIND_GAMMA and n % 2 == 1
    if odd_gamma and len(set(recipe.clique_or_hub)) != len(recipe.clique_or_hub):
        raise ValueError("recipe clique repeats a node, a self-pair")
    for node, nbrs in recipe.attachment_map:
        check_ids((node, *nbrs))
        if node in nbrs:
            raise ValueError(f"recipe attaches node {node} to itself")
    for u, v in recipe.removed_pairs + recipe.added_pairs:
        check_ids((u, v))
        if u == v:
            raise ValueError(f"recipe pair ({u}, {v}) is a self-pair")

    group = 0
    for v in recipe.clique_or_hub:
        group |= 1 << v
    full = (1 << n) - 1
    if odd_gamma:
        # the clique, then the attached nodes, set together per neighbor
        # set (the construction gives them all the same one)
        masks = [group ^ (1 << u) if group >> u & 1 else 0 for u in range(n)]
        attached: dict[tuple[int, ...], list[int]] = {}
        for node, nbrs in recipe.attachment_map:
            attached.setdefault(nbrs, []).append(node)
        for nbrs, nodes in attached.items():
            nbr_mask = node_mask = 0
            for v in nbrs:
                nbr_mask |= 1 << v
            for u in nodes:
                node_mask |= 1 << u
            for v in nbrs:
                masks[v] |= node_mask
            for u in nodes:
                masks[u] |= nbr_mask
    elif recipe.kind == KIND_GAMMA:
        # a hub node meets every other node, any other node the hub
        masks = [full ^ (1 << u) if group >> u & 1 else group for u in range(n)]
    else:
        masks = [full ^ (1 << u) for u in range(n)]
    for u, v in recipe.removed_pairs:
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
    return Graph._from_masks(n, masks)


def _apply_variant(recipe: ConstructionRecipe, variant: int | None) -> ConstructionRecipe:
    """The recipe relabeled by the variant seed's permutation of the nodes."""
    if variant is None:
        return recipe
    rng = np.random.Generator(np.random.PCG64(variant))
    perm = [int(p) for p in rng.permutation(recipe.n)]
    return replace(
        recipe,
        clique_or_hub=tuple(sorted(perm[v] for v in recipe.clique_or_hub)),
        attachment_map=tuple(
            sorted(
                (perm[node], tuple(sorted(perm[v] for v in nbrs)))
                for node, nbrs in recipe.attachment_map
            )
        ),
        removed_pairs=tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in recipe.removed_pairs)
        ),
        added_pairs=tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in recipe.added_pairs)
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


def construct_gamma_merg(
    n: int, variant: int | None = None
) -> tuple[Graph, ConstructionRecipe]:
    """Build the gamma-robust graph with the minimal edge count for n nodes."""
    gamma = _family_gamma(n)
    if n % 2 == 1:
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA,
            n=n,
            gamma=gamma,
            clique_or_hub=tuple(range(gamma + 1)),
            attachment_map=tuple(
                (node, tuple(range(gamma))) for node in range(gamma + 1, n)
            ),
        )
    else:
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA,
            n=n,
            gamma=gamma,
            clique_or_hub=tuple(range(gamma)),
            removed_pairs=tuple((2 * i, 2 * i + 1) for i in range((gamma - 1) // 2)),
        )
    recipe = _apply_variant(recipe, variant)
    return replay_recipe(recipe), recipe


def construct_gamma_gamma_merg(
    n: int, variant: int | None = None
) -> tuple[Graph, ConstructionRecipe]:
    """Build the (gamma, gamma)-robust graph with the minimal edge count."""
    gamma = _family_gamma(n)
    if n % 2 == 1:
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA_GAMMA,
            n=n,
            gamma=gamma,
            clique_or_hub=tuple(range(n)),
        )
    else:
        matching = tuple((2 * i, 2 * i + 1) for i in range(gamma))
        keep = (gamma + 1) // 2  # reconnected pairs
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA_GAMMA,
            n=n,
            gamma=gamma,
            removed_pairs=matching[keep:],
            added_pairs=matching[:keep],
        )
    recipe = _apply_variant(recipe, variant)
    return replay_recipe(recipe), recipe
