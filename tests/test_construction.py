from __future__ import annotations

import dataclasses
import json
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergraph import (
    complete_graph,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    edge_lb_gamma_even,
    edge_lb_gamma_gamma,
    edge_lb_gamma_odd,
    gamma_of,
    is_rs_robust,
    max_clique_size,
    max_r_robustness,
    new_graph,
    prop1_gamma_gamma_check,
)
from mergraph.construction import MAX_EDGES, replay_recipe
from mergraph.graph_core import MAX_MASK_BITS, MAX_NODES
from conftest import degree, recipe_from_dict


class TestGammaMerg:
    def test_edge_counts_meet_floors_exactly(self):
        for n in range(2, 41):
            g, recipe = construct_gamma_merg(n)
            gamma = gamma_of(n)
            expected = (
                edge_lb_gamma_odd(gamma) if n % 2 == 1 else edge_lb_gamma_even(gamma)
            )
            assert len(g.edges) == expected, n
            assert recipe.gamma == gamma

    def test_spot_values(self):
        assert len(construct_gamma_merg(9)[0].edges) == 30
        assert len(construct_gamma_merg(10)[0].edges) == 33
        assert len(construct_gamma_merg(49)[0].edges) == 900
        assert len(construct_gamma_merg(50)[0].edges) == 913

    def test_max_cliques(self):
        assert max_clique_size(construct_gamma_merg(9)[0]) == 6
        assert max_clique_size(construct_gamma_merg(10)[0]) == 4

    def test_n4_is_one_edge_short_of_complete(self):
        g, _ = construct_gamma_merg(4)
        assert len(g.edges) == 5
        assert max_r_robustness(g) == 2

    def test_oracle_confirms_maximum_robustness(self):
        for n in range(2, 15):
            g, _ = construct_gamma_merg(n)
            assert max_r_robustness(g) == gamma_of(n), n

    def test_removed_pairs_are_disjoint_and_inside_hub(self):
        for n in range(2, 30, 2):
            _, recipe = construct_gamma_merg(n)
            gamma = gamma_of(n)
            assert len(recipe.removed_pairs) == (gamma - 1) // 2
            used = [v for pair in recipe.removed_pairs for v in pair]
            assert len(used) == len(set(used))
            assert all(v < gamma for v in used)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            construct_gamma_merg(1)


class TestGammaGammaMerg:
    def test_edge_counts_meet_floor_exactly(self):
        for n in range(2, 41):
            g, _ = construct_gamma_gamma_merg(n)
            assert len(g.edges) == edge_lb_gamma_gamma(n), n

    def test_spot_values(self):
        assert construct_gamma_gamma_merg(9)[0] == complete_graph(9)
        assert len(construct_gamma_gamma_merg(10)[0].edges) == 43
        assert max_clique_size(construct_gamma_gamma_merg(10)[0]) == 8
        assert construct_gamma_gamma_merg(2)[0].edges == frozenset({(0, 1)})

    def test_oracle_confirms_robustness(self):
        for n in range(2, 15):
            g, _ = construct_gamma_gamma_merg(n)
            gamma = gamma_of(n)
            assert is_rs_robust(g, gamma, gamma).holds, n

    def test_prop1_accepts_every_output(self):
        for n in range(2, 30):
            g, _ = construct_gamma_gamma_merg(n)
            assert prop1_gamma_gamma_check(g), n

    def test_even_degree_profile(self):
        # exactly 2*ceil(gamma/2) nodes of degree 2*gamma-1, the rest 2*gamma-2
        for n in range(4, 30, 2):
            g, _ = construct_gamma_gamma_merg(n)
            gamma = n // 2
            degrees = sorted(degree(g, i) for i in range(n))
            high = sum(1 for d in degrees if d == 2 * gamma - 1)
            low = sum(1 for d in degrees if d == 2 * gamma - 2)
            assert high == 2 * ((gamma + 1) // 2)
            assert high + low == n

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            construct_gamma_gamma_merg(1)


class TestDeterminismAndRecipes:
    @pytest.mark.parametrize("n", [2, 5, 9, 10, 16, 25])
    def test_repeat_invocations_identical(self, n):
        assert construct_gamma_merg(n) == construct_gamma_merg(n)
        assert construct_gamma_gamma_merg(n) == construct_gamma_gamma_merg(n)

    @pytest.mark.parametrize("n", [2, 4, 7, 9, 10, 13, 20])
    def test_replay_reproduces_bit_exactly(self, n):
        for builder in (construct_gamma_merg, construct_gamma_gamma_merg):
            g, recipe = builder(n)
            assert replay_recipe(recipe) == g

    def test_recipe_json_round_trip(self):
        g, recipe = construct_gamma_merg(11)
        restored = recipe_from_dict(json.loads(recipe.to_json()))
        assert restored == recipe
        assert replay_recipe(restored) == g

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=300),
        variant=st.none() | st.integers(min_value=0, max_value=2**64),
    )
    def test_recipe_round_trip_replays_the_paper_edge_count(self, n, variant):
        gamma = gamma_of(n)
        floors = (
            (construct_gamma_merg,
             edge_lb_gamma_odd(gamma) if n % 2 else edge_lb_gamma_even(gamma)),
            (construct_gamma_gamma_merg, edge_lb_gamma_gamma(n)),
        )
        for builder, floor in floors:
            g, recipe = builder(n, variant=variant)
            assert recipe_from_dict(json.loads(recipe.to_json())) == recipe
            assert replay_recipe(recipe) == g
            assert g.edge_count == floor

    def test_recipe_json_bytes_are_pinned(self):
        gamma = (
            '{\n  "gamma": 3,\n  "hub": [\n    1,\n    2,\n    4\n  ],\n'
            '  "kind": "gamma",\n  "n": 5,\n  "removed_pairs": [],\n'
            '  "variant": 3\n}\n'
        )
        gamma_gamma = (
            '{\n  "gamma": 3,\n  "hub": [\n    0,\n    1,\n    2,\n    3,\n'
            '    4,\n    5\n  ],\n  "kind": "gamma_gamma",\n  "n": 6,\n'
            '  "removed_pairs": [\n    [\n      4,\n      5\n    ]\n  ],\n'
            '  "variant": null\n}\n'
        )
        assert construct_gamma_merg(5, variant=3)[1].to_json() == gamma
        assert construct_gamma_gamma_merg(6)[1].to_json() == gamma_gamma

    @pytest.mark.parametrize("n", [*range(2, 41), 199, 200, 799, 800])
    def test_recipe_json_is_the_stdlib_indent_layout(self, n):
        # the fixed layout against the pure-Python encoder's, both kinds,
        # with and without a variant
        for builder in (construct_gamma_merg, construct_gamma_gamma_merg):
            for variant in (None, 11):
                recipe = builder(n, variant=variant)[1]
                expected = json.dumps(vars(recipe), indent=2, sort_keys=True) + "\n"
                assert recipe.to_json() == expected, (builder.__name__, n, variant)

    def test_replayed_recipe_without_pairs_writes_the_stdlib_layout(self):
        recipe = recipe_from_dict(json.loads(construct_gamma_merg(9, variant=2)[1].to_json()))
        assert recipe.removed_pairs == ()
        replay_recipe(recipe)
        assert recipe.to_json() == json.dumps(vars(recipe), indent=2, sort_keys=True) + "\n"
        assert '"removed_pairs": [],' in recipe.to_json()

    @pytest.mark.parametrize("n", [*range(2, 41), 200, 201])
    @pytest.mark.parametrize("variant", [None, 4])
    def test_replay_matches_the_paper_description(self, variant, n):
        # each family built pair by pair from the paper's own description
        # through new_graph, relabeled by the variant's permutation
        gamma = gamma_of(n)
        matching = [(2 * i, 2 * i + 1) for i in range(gamma)]
        if n % 2:
            # a (gamma+1)-clique, every other node attached to gamma of its members
            gamma_pairs = [*combinations(range(gamma + 1), 2),
                           *((u, v) for v in range(gamma + 1, n) for u in range(gamma))]
            gamma_gamma_pairs = list(combinations(range(n), 2))
        else:
            # a hub of gamma nodes adjacent to all, less floor((gamma-1)/2) hub pairs
            cut = set(matching[: (gamma - 1) // 2])
            gamma_pairs = [(u, v) for u, v in combinations(range(n), 2)
                           if u < gamma and (u, v) not in cut]
            # the complete graph less the matching after its first ceil(gamma/2)
            cut = set(matching[(gamma + 1) // 2 :])
            gamma_gamma_pairs = [e for e in combinations(range(n), 2) if e not in cut]
        perm = list(range(n))
        if variant is not None:
            perm = np.random.Generator(np.random.PCG64(variant)).permutation(n).tolist()
        for builder, pairs in ((construct_gamma_merg, gamma_pairs),
                               (construct_gamma_gamma_merg, gamma_gamma_pairs)):
            expected = new_graph(n, [(perm[u], perm[v]) for u, v in pairs])
            assert builder(n, variant=variant)[0] == expected, (builder.__name__, n)


def _gamma_recipe_dict(n: int, variant: int | None = None) -> dict:
    return json.loads(construct_gamma_merg(n, variant=variant)[1].to_json())


class TestRecipeBoundary:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("hub", [0, 1, "2", 3, 4]),
            ("hub", [0, 1, True, 3, 4]),
            ("hub", 5),
            ("removed_pairs", [[0]]),
            ("removed_pairs", [[0, 1, 2]]),
            ("removed_pairs", [0]),
            ("removed_pairs", [[0, 1.0]]),
            ("n", 10.0),
            ("n", True),
            ("variant", "3"),
            ("kind", "gamma_prime"),
        ],
    )
    def test_recipe_from_dict_rejects_malformed_entries(self, field, value):
        payload = _gamma_recipe_dict(10)
        payload[field] = value
        with pytest.raises(ValueError):
            recipe_from_dict(payload)

    @pytest.mark.parametrize(
        "n, field, value",
        [
            (10, "hub", [0, 1, 2, 3, 99]),
            (10, "hub", [-1, 1, 2, 3, 4]),
            (10, "hub", [0, 1, 2, 3, 3]),
            (10, "removed_pairs", [[1, 1]]),
            (10, "removed_pairs", [[0, 99]]),
            (10, "removed_pairs", [[-1, 0]]),
            (9, "hub", [0, 1, 2, 3, 9]),
            (9, "hub", [4, 0, 1, 2, 4]),
            (9, "removed_pairs", [[5, 5]]),
            (9, "removed_pairs", [[5, 6]]),
        ],
    )
    def test_replay_rejects_out_of_range_ids_and_self_pairs(self, n, field, value):
        payload = _gamma_recipe_dict(n)
        payload[field] = value
        recipe = recipe_from_dict(payload)
        with pytest.raises(ValueError):
            replay_recipe(recipe)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hub", (0, True, 2)),
            ("hub", (0, 1.0, 2)),
            ("hub", (0, [1], 2)),
            ("removed_pairs", ((0, True),)),
            ("removed_pairs", ((0, 1.0),)),
        ],
    )
    def test_replay_refuses_node_ids_that_are_not_ints(self, field, value):
        # unchecked, a bool would replay as node 0 or 1, and a float or a
        # list would raise TypeError
        recipe = dataclasses.replace(construct_gamma_merg(5)[1], **{field: value})
        with pytest.raises(ValueError, match="is not an integer"):
            replay_recipe(recipe)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hub", 5, "recipe hub of type int is not a sequence of node ids"),
            ("removed_pairs", 0, "recipe removed_pairs of type int is not a sequence of pairs"),
            ("removed_pairs", (0,), "recipe removed_pairs holds 0, not a pair of node ids"),
            ("removed_pairs", ((0, 1, 2),),
             "recipe removed_pairs holds (0, 1, 2), not a pair of node ids"),
            ("removed_pairs", ((0,),), "recipe removed_pairs holds (0,), not a pair of node ids"),
        ],
    )
    def test_replay_names_the_field_of_a_wrongly_shaped_recipe(self, field, value, message):
        # unchecked, these raised TypeError from len() or iteration, or a
        # ValueError from unpacking that named neither recipe nor field
        recipe = dataclasses.replace(construct_gamma_merg(6)[1], **{field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replay_recipe(recipe)

    def test_replay_rejects_an_unknown_kind_or_node_count(self):
        _, recipe = construct_gamma_merg(10)
        with pytest.raises(ValueError, match="unknown recipe kind"):
            replay_recipe(dataclasses.replace(recipe, kind="gamma_prime"))
        with pytest.raises(ValueError, match="node count"):
            replay_recipe(dataclasses.replace(recipe, n=0))

    @pytest.mark.parametrize("n", [10**18, MAX_NODES + 1])
    def test_oversized_node_count_is_refused_first(self, n):
        payload = _gamma_recipe_dict(10)
        payload["n"] = n
        recipe = recipe_from_dict(payload)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit of"):
                replay_recipe(recipe)
            with pytest.raises(ValueError, match="exceeds the limit of"):
                construct_gamma_merg(n)
            with pytest.raises(ValueError, match="exceeds the limit of"):
                construct_gamma_gamma_merg(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "builder, n",
        [(construct_gamma_merg, 6689), (construct_gamma_gamma_merg, 5794),
         (construct_gamma_merg, MAX_NODES), (construct_gamma_gamma_merg, MAX_NODES)],
    )
    def test_construction_above_the_edge_limit_is_refused_first(self, builder, n):
        # the masks alone would take about n^2/8 bytes: 4 MB at n = 5794,
        # 128 GiB at MAX_NODES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="above the limit of"):
                builder(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_the_edge_limit_admits_the_largest_constructions_below_it(self):
        g, _ = construct_gamma_merg(6688)
        assert g.edge_count == edge_lb_gamma_even(3344) <= MAX_EDGES
        # n^2 bits bound the masks of any graph on n nodes, so the files of
        # both families parse without counting mask bits
        assert g.n * g.n <= MAX_MASK_BITS
        g, _ = construct_gamma_gamma_merg(5793)
        assert g.edge_count == edge_lb_gamma_gamma(5793) <= MAX_EDGES

    def test_hand_written_recipe_above_the_edge_limit_is_refused(self):
        # a hub of 97 on 173,010 nodes has C(97, 2) + 97 * 172,913 edges,
        # one above the limit
        payload = {"kind": "gamma", "n": 173010, "gamma": 86505,
                   "hub": list(range(97)), "removed_pairs": []}
        recipe = recipe_from_dict(payload)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{MAX_EDGES + 1} edges, above the limit"):
                replay_recipe(recipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_removed_pairs_sharing_a_node_are_refused(self):
        # 1,000 pairs through hub node 0 would give each other end a mask
        # as wide as the hub's highest id, 65,535
        payload = {"kind": "gamma", "n": 1 << 16, "gamma": 1 << 15, "hub": [0, (1 << 16) - 1],
                   "removed_pairs": [[i, 0] for i in range(1, 1001)]}
        recipe = recipe_from_dict(payload)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="removed pairs share a node"):
                replay_recipe(recipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18
        with pytest.raises(ValueError, match="removed pairs share a node"):
            replay_recipe(dataclasses.replace(construct_gamma_merg(10)[1],
                                              removed_pairs=((0, 1), (1, 2))))

    def test_hand_written_recipe_replays(self):
        # the hub {1, 2, 3} with nodes 0 and 4 attached: the 4-clique 0..3
        # with node 4 attached to three of its members
        payload = {"kind": "gamma", "n": 5, "gamma": 3, "hub": [1, 2, 3], "removed_pairs": []}
        g = replay_recipe(recipe_from_dict(payload))
        assert g == new_graph(5, [*combinations(range(4), 2), (1, 4), (2, 4), (3, 4)])


class TestVariants:
    def test_variant_permutes_labels_but_keeps_size(self):
        base, _ = construct_gamma_merg(10)
        varied, recipe = construct_gamma_merg(10, variant=99)
        assert varied != base
        assert len(varied.edges) == len(base.edges)
        assert recipe.variant == 99
        assert replay_recipe(recipe) == varied

    def test_variant_is_deterministic(self):
        assert construct_gamma_merg(12, variant=5) == construct_gamma_merg(12, variant=5)
        assert construct_gamma_gamma_merg(12, variant=5) == construct_gamma_gamma_merg(12, variant=5)

    @pytest.mark.parametrize("builder", [construct_gamma_merg, construct_gamma_gamma_merg])
    def test_negative_variant_is_named(self, builder):
        with pytest.raises(ValueError, match="^variant must be non-negative, got -1$"):
            builder(10, variant=-1)

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_robustness_is_label_invariant(self, variant):
        g, _ = construct_gamma_merg(9, variant=variant)
        assert max_r_robustness(g) == 5
        gg, _ = construct_gamma_gamma_merg(10, variant=variant)
        assert is_rs_robust(gg, 5, 5).holds
        assert prop1_gamma_gamma_check(gg)
