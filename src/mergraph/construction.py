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
each graph's edges.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .certificates import gamma_of
from .graph_core import Edge, Graph, new_graph

KIND_GAMMA = "gamma"
KIND_GAMMA_GAMMA = "gamma_gamma"


@dataclass(frozen=True)
class ConstructionRecipe:
    """The exact choices made while instantiating a construction.

    Replaying a recipe reproduces the graph bit-exactly, including under
    variant label permutations.
    """

    kind: str
    n: int
    gamma: int
    clique_or_hub: tuple[int, ...]
    attachment_map: tuple[tuple[int, tuple[int, ...]], ...]
    removed_pairs: tuple[Edge, ...]
    added_pairs: tuple[Edge, ...]
    variant: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "gamma": self.gamma,
            "clique_or_hub": list(self.clique_or_hub),
            "attachment_map": [[node, list(nbrs)] for node, nbrs in self.attachment_map],
            "removed_pairs": [list(e) for e in self.removed_pairs],
            "added_pairs": [list(e) for e in self.added_pairs],
            "variant": self.variant,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def recipe_from_dict(payload: dict) -> ConstructionRecipe:
    return ConstructionRecipe(
        kind=payload["kind"],
        n=int(payload["n"]),
        gamma=int(payload["gamma"]),
        clique_or_hub=tuple(payload["clique_or_hub"]),
        attachment_map=tuple(
            (node, tuple(nbrs)) for node, nbrs in payload["attachment_map"]
        ),
        removed_pairs=tuple(tuple(e) for e in payload["removed_pairs"]),
        added_pairs=tuple(tuple(e) for e in payload["added_pairs"]),
        variant=payload.get("variant"),
    )


def replay_recipe(recipe: ConstructionRecipe) -> Graph:
    """Rebuild the graph a recipe describes."""
    if recipe.kind == KIND_GAMMA:
        if recipe.n % 2 == 1:
            edges = list(combinations(sorted(recipe.clique_or_hub), 2))
            for node, nbrs in recipe.attachment_map:
                edges.extend((node, v) for v in nbrs)
            return new_graph(recipe.n, edges)
        in_hub = set(recipe.clique_or_hub)
        hub = sorted(in_hub)
        removed = {tuple(sorted(e)) for e in recipe.removed_pairs}
        edges = []
        for u in range(recipe.n):
            # a hub node meets every later node, any other node the later hub
            later = range(u + 1, recipe.n) if u in in_hub else hub[bisect_right(hub, u):]
            edges.extend((u, v) for v in later if (u, v) not in removed)
        return new_graph(recipe.n, edges)
    if recipe.kind == KIND_GAMMA_GAMMA:
        removed = {tuple(sorted(e)) for e in recipe.removed_pairs}
        edges = [e for e in combinations(range(recipe.n), 2) if e not in removed]
        return new_graph(recipe.n, edges)
    raise ValueError(f"unknown recipe kind {recipe.kind!r}")


def _apply_variant(recipe: ConstructionRecipe, variant: int | None) -> ConstructionRecipe:
    """The recipe relabeled by the variant seed's permutation of the nodes."""
    if variant is None:
        return recipe
    rng = np.random.Generator(np.random.PCG64(variant))
    perm = [int(p) for p in rng.permutation(recipe.n)]
    return ConstructionRecipe(
        kind=recipe.kind,
        n=recipe.n,
        gamma=recipe.gamma,
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


def construct_gamma_merg(
    n: int, variant: int | None = None
) -> tuple[Graph, ConstructionRecipe]:
    """Build the gamma-robust graph with the minimal edge count for n nodes."""
    if n < 2:
        raise ValueError("n must be at least 2")
    gamma = gamma_of(n)
    if n % 2 == 1:
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA,
            n=n,
            gamma=gamma,
            clique_or_hub=tuple(range(gamma + 1)),
            attachment_map=tuple(
                (node, tuple(range(gamma))) for node in range(gamma + 1, n)
            ),
            removed_pairs=(),
            added_pairs=(),
        )
    else:
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA,
            n=n,
            gamma=gamma,
            clique_or_hub=tuple(range(gamma)),
            attachment_map=(),
            removed_pairs=tuple((2 * i, 2 * i + 1) for i in range((gamma - 1) // 2)),
            added_pairs=(),
        )
    recipe = _apply_variant(recipe, variant)
    return replay_recipe(recipe), recipe


def construct_gamma_gamma_merg(
    n: int, variant: int | None = None
) -> tuple[Graph, ConstructionRecipe]:
    """Build the (gamma, gamma)-robust graph with the minimal edge count."""
    if n < 2:
        raise ValueError("n must be at least 2")
    gamma = gamma_of(n)
    if n % 2 == 1:
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA_GAMMA,
            n=n,
            gamma=gamma,
            clique_or_hub=tuple(range(n)),
            attachment_map=(),
            removed_pairs=(),
            added_pairs=(),
        )
    else:
        matching = tuple((2 * i, 2 * i + 1) for i in range(gamma))
        keep = (gamma + 1) // 2  # reconnected pairs
        recipe = ConstructionRecipe(
            kind=KIND_GAMMA_GAMMA,
            n=n,
            gamma=gamma,
            clique_or_hub=(),
            attachment_map=(),
            removed_pairs=matching[keep:],
            added_pairs=matching[:keep],
        )
    recipe = _apply_variant(recipe, variant)
    return replay_recipe(recipe), recipe
