from __future__ import annotations

import inspect
import random
import re
import sys
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergraph import (
    Graph,
    complement,
    complete_graph,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    graph_from_edge_text,
    graph_from_json,
    graph_to_json,
    max_clique_size,
    new_graph,
    parse_graph,
)
from mergraph.graph_core import (
    FAST_JSON_MIN_CHARS,
    MAX_MASK_BITS,
    MAX_NODES,
    _CHUNK_CHARS,
    _canonical_json_graph,
    _chunk_ids,
    _parsed_json_graph,
    mask_bits,
    masks_from_bits,
    members,
)
from conftest import (
    brute_max_clique,
    random_graph,
    reference_graph_to_edge_text,
    reference_graph_to_json,
)


@st.composite
def edge_lists(draw, max_n: int = 10):
    """A node count and a list of pairs, with repeats and reversed pairs."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ordered = list(permutations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(ordered), max_size=2 * len(ordered))) if ordered else []
    return n, edges


@st.composite
def graphs(draw, max_n: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    return new_graph(n, edges)


class TestNewGraph:
    def test_dedup_of_reversed_pair(self):
        g = new_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            new_graph(2, [(0, 0)])

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            new_graph(0, [])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            new_graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "n, edges",
        [(0, []), (2, [(0, 0)]), (3, [(0, 3)]), (3, [(-1, 2)]), (3, [(0, 1), (2, 2)])],
    )
    def test_each_edge_is_checked(self, n, edges):
        with pytest.raises(ValueError):
            new_graph(n, edges)

    def test_masks_and_hash_ignore_pair_order(self):
        g = new_graph(4, [(0, 1), (1, 3), (2, 3)])
        assert hash(g) == hash(new_graph(4, [(3, 2), (1, 0), (3, 1), (0, 1)]))
        assert g.adjacency == (0b0010, 0b1001, 0b1000, 0b0110)

    def test_graph_has_no_public_constructor(self):
        with pytest.raises(TypeError):
            Graph(4, [(0, 1)])

    def test_complete_graph_degrees(self):
        g = complete_graph(9)
        assert len(g.edges) == 36
        assert all(g.degree(i) == 8 for i in range(9))


class TestNeighbors:
    def test_k4(self):
        assert complete_graph(4).neighbors(2) == {0, 1, 3}

    def test_path_midpoint(self):
        g = new_graph(3, [(0, 1), (1, 2)])
        assert g.neighbors(1) == {0, 2}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            complete_graph(3).neighbors(3)

    def test_max_r_construction_core_degrees(self):
        # every node of the dense core of the 9-node construction has degree >= 5
        g, _ = construct_gamma_merg(9)
        assert all(g.degree(i) >= 5 for i in range(6))


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete_graph(4)).edges == frozenset()

    def test_empty_to_complete(self):
        g = new_graph(3, [])
        assert complement(g) == complete_graph(3)

    def test_minimal_rs_graph_complement_is_tiny(self):
        g, _ = construct_gamma_gamma_merg(10)
        assert len(complement(g).edges) == 45 - 43 == 2

    @settings(max_examples=60)
    @given(graphs(max_n=12))
    def test_edges_are_the_missing_pairs(self, g):
        missing = {e for e in combinations(range(g.n), 2) if e not in g.edges}
        assert complement(g).edges == missing

    @settings(max_examples=60)
    @given(graphs(max_n=12))
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestMaxClique:
    def test_complete(self):
        assert max_clique_size(complete_graph(7)) == 7

    def test_cycle(self):
        c5 = new_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert max_clique_size(c5) == 2

    def test_10_node_max_r_construction(self):
        g, _ = construct_gamma_merg(10)
        assert max_clique_size(g) == 4

    def test_against_subset_enumeration(self):
        rng = random.Random(11)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]))
            assert max_clique_size(g) == brute_max_clique(g)

    def test_clique_deeper_than_the_recursion_limit(self):
        limit = len(inspect.stack()) + 50
        g = complete_graph(limit + 50)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            size = max_clique_size(g)
        finally:
            sys.setrecursionlimit(old)
        assert size == limit + 50


@settings(max_examples=80)
@given(graphs(max_n=12))
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(i) for i in range(g.n)) == 2 * len(g.edges)


class TestMasksAreTheGraph:
    @settings(max_examples=80)
    @given(edge_lists(max_n=12))
    def test_edges_are_the_set_bits(self, case):
        n, edges = case
        g = new_graph(n, edges)
        drawn = {(min(e), max(e)) for e in edges}
        bits = {(u, v) for u in range(n) for v in range(n) if g.adjacency[u] >> v & 1}
        assert bits == drawn | {(v, u) for u, v in drawn}
        assert all(a >> n == 0 for a in g.adjacency)
        assert g.edges == drawn
        assert list(g.edge_pairs()) == sorted(drawn)
        assert g.edge_count == len(drawn)

    @settings(max_examples=80)
    @given(graphs(max_n=12))
    def test_bit_tests_agree_with_the_edge_set(self, g):
        for u in range(g.n):
            assert g.neighbors(u) == {v for v in range(g.n) if (min(u, v), max(u, v)) in g.edges}
            for v in range(g.n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)

    def test_edge_set_is_built_once(self):
        g, _ = construct_gamma_merg(10)
        assert g.edges is g.edges

    def test_equal_graphs_from_every_builder_hash_alike(self):
        g, _ = construct_gamma_gamma_merg(10)
        rebuilt = (
            new_graph(10, g.edges),
            complement(complement(g)),
            g.remove_edge(0, 1).remove_edge(3, 2),
        )
        assert len({g, *rebuilt[:2]}) == 1
        assert rebuilt[2] == new_graph(10, g.edges - {(0, 1), (2, 3)})

    def test_remove_edge_clears_both_bits(self):
        g = complete_graph(4).remove_edge(2, 1)
        assert g.adjacency == (0b1110, 0b1001, 0b1001, 0b0111)
        with pytest.raises(ValueError, match="not present"):
            g.remove_edge(1, 2)
        with pytest.raises(ValueError, match="not present"):
            g.remove_edge(0, 4)


class TestSerialization:
    @pytest.mark.parametrize("n", [*range(2, 40), 200, 201, 400, 401, 800])
    def test_bytes_match_the_sorted_references(self, n):
        for build in (construct_gamma_merg, construct_gamma_gamma_merg):
            for variant in (None, 61):
                g, _ = build(n, variant=variant)
                assert graph_to_json(g) == reference_graph_to_json(g)

    @settings(max_examples=80)
    @given(graphs(max_n=12))
    def test_parse_round_trips(self, g):
        assert graph_to_json(g) == reference_graph_to_json(g)
        assert parse_graph(graph_to_json(g)) == g
        assert parse_graph(reference_graph_to_edge_text(g)) == g

    def test_json_round_trip(self):
        g, _ = construct_gamma_merg(10)
        assert graph_from_json(graph_to_json(g)) == g

    def test_json_is_canonical(self):
        g = new_graph(4, [(2, 3), (0, 1)])
        assert graph_to_json(g) == '{"n":4,"edges":[[0,1],[2,3]]}\n'

    def test_edge_text_round_trip(self):
        g, _ = construct_gamma_gamma_merg(10)
        assert graph_from_edge_text(reference_graph_to_edge_text(g)) == g

    def test_parse_sniffs_format(self):
        g = new_graph(3, [(0, 2)])
        assert parse_graph(graph_to_json(g)) == g
        assert parse_graph(reference_graph_to_edge_text(g)) == g
        assert parse_graph("3\n0 2\n") == g

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            graph_from_json('{"nodes": 3}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "edges": [[0, 1.5]]}',
            '{"n": 3, "edges": [[0, true]]}',
            '{"n": 3.7, "edges": [[0, 1]]}',
            '{"n": true, "edges": []}',
            '{"n": "3", "edges": []}',
            '{"n": 3, "edges": [[5]]}',
            '{"n": 3, "edges": [[0, 1, 2]]}',
            '{"n": 3, "edges": [5]}',
            '{"n": 3, "edges": 5}',
            '{"n": 3, "edges": [["a", "b"]]}',
            '{"n": 3, "edges": [[0, null]]}',
        ],
    )
    def test_malformed_json_graph_rejected(self, text):
        with pytest.raises(ValueError):
            graph_from_json(text)

    @pytest.mark.parametrize("n, edges", [(2.0, []), (3, [(0, 1.0)]), (3, [(False, 1)]), (3, [0])])
    def test_new_graph_requires_int_pairs(self, n, edges):
        with pytest.raises(ValueError):
            new_graph(n, edges)

    def test_bad_edge_text_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edge_text("3\n0 1 2\n")
        # text with no token at all, before any count is read
        for parse, text in [(graph_from_edge_text, ""), (parse_graph, " \n")]:
            with pytest.raises(ValueError, match="^empty edge-list text$"):
                parse(text)
        # tokens int() takes but that are not ASCII digits, named in the error
        for text, token in [
            ("12\n0 1_0\n+1 -0\n", "1_0"),
            ("3\n+1 2\n", "+1"),
            ("3\n0 -0\n", "-0"),
            ("+3\n0 1\n", "+3"),
            ("3\n0 ١\n", "١"),
            ("3\n0 １\n", "１"),
            ("3\n0 ²\n", "²"),
            ("3\n0 0x1\n", "0x1"),
            ("3\n0 1.0\n", "1.0"),
        ]:
            for parse in (graph_from_edge_text, parse_graph):
                with pytest.raises(ValueError, match=f"token {re.escape(repr(token))} is not"):
                    parse(text)


def assert_same_graph(got, expected):
    assert got == expected
    assert got.n == expected.n and got.adjacency == expected.adjacency


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: a graph, or the message it raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def chunk_cuts(text: str) -> list[int]:
    """Where the fast reader cuts ``text`` into chunks: at the "]" of the
    first "],[" ``_CHUNK_CHARS`` or more characters into each chunk."""
    cuts, start = [], text.index("[[") + 1
    while (cut := text.find("],[", start + _CHUNK_CHARS)) >= 0:
        cuts.append(cut)
        start = cut + 2
    return cuts


# canonical texts of one chunk (n = 50) and of two (n = 150), with their cuts
MUTATION_BASES = [
    (text, chunk_cuts(text))
    for build in (construct_gamma_merg, construct_gamma_gamma_merg)
    for text in (graph_to_json(build(n)[0]) for n in (50, 150))
]


class TestFastJsonPath:
    """The one-pass reader of canonical JSON against json.loads + new_graph."""

    @pytest.mark.parametrize("build", [construct_gamma_merg, construct_gamma_gamma_merg])
    @pytest.mark.parametrize(
        "n, variant",
        [(n, v) for n in (24, 25, 31, 32, 33, 47, 50, 63, 64) for v in (None, 7, 61)]
        + [(400, None)],
    )
    def test_constructions_match_the_reference(self, build, n, variant):
        text = graph_to_json(build(n, variant=variant)[0])
        expected = _parsed_json_graph(text)
        assert_same_graph(_canonical_json_graph(text), expected)
        assert_same_graph(graph_from_json(text), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=24, max_value=64),
        st.sampled_from([0.3, 0.5, 0.8, 1.0]),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_random_graphs_above_the_gate_match_the_reference(self, n, p, seed):
        text = graph_to_json(random_graph(random.Random(seed), n, p))
        expected = _parsed_json_graph(text)
        fast = _canonical_json_graph(text)
        if len(text) >= FAST_JSON_MIN_CHARS:
            assert fast is not None
        if fast is not None:
            assert_same_graph(fast, expected)
        assert_same_graph(graph_from_json(text), expected)

    @pytest.mark.parametrize("build", [construct_gamma_merg, construct_gamma_gamma_merg])
    @pytest.mark.parametrize("n", [400, 800])
    def test_peak_memory_is_a_few_times_the_text(self, build, n):
        # the ids of the whole text (about 1.6 times it) and the arrays of one
        # chunk: about 3 times the text at n = 400 and 2 at n = 800; read in
        # one chunk, the body would hold about 14 times it
        text = graph_to_json(build(n)[0])
        tracemalloc.start()
        try:
            assert _canonical_json_graph(text) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_character_mutations_read_as_the_reference_reads_them(self, data):
        text, cuts = data.draw(st.sampled_from(MUTATION_BASES))
        if cuts and data.draw(st.booleans()):
            # within 3 bytes of the "]" the reader cuts a chunk after
            at = data.draw(st.sampled_from(cuts)) + data.draw(st.integers(-3, 3))
        else:
            at = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.sampled_from("0123456789[], "))
        edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        text = text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert") :]
        fast = _canonical_json_graph(text)
        expected = parse_outcome(_parsed_json_graph, text)
        if fast is None:
            # every text that re-renders to itself takes the fast path
            assert isinstance(expected, str) or graph_to_json(expected) != text
        else:
            assert_same_graph(fast, expected)
            assert graph_to_json(fast) == text

    @pytest.mark.parametrize("low, chars, fast", [(110, 40_070, True), (120, 31_620, False)])
    def test_the_matrix_guard_on_both_sides(self, low, chars, fast):
        # the bit matrix is indexed by node id: 200 rows of 200 bits here,
        # 40,000 bytes, taken only by a text at least that long
        text = graph_to_json(new_graph(200, combinations(range(low, 200), 2)))
        assert len(text) == chars
        expected = _parsed_json_graph(text)
        got = _canonical_json_graph(text)
        if fast:
            assert_same_graph(got, expected)
        else:
            assert got is None
        assert_same_graph(graph_from_json(text), expected)

    @pytest.mark.parametrize(
        "chunk",
        [
            "1[2,]3",  # digits outside the pairs
            "[1,2]3,4[,],[5,6]",  # a pair break moved into the ids
            "[1,]2,3[,4]",  # ids moved across the punctuation
        ],
    )
    def test_punctuation_in_order_with_digits_out_of_place_is_refused(self, chunk):
        # the bytes that are not digits are those of two or three pairs, but
        # the ids would be read with "[", "," or "]" bytes among their digits
        assert _chunk_ids(chunk) is None

    def test_a_body_that_cannot_be_cut_is_refused_before_a_chunk_is_read(self):
        # a chunk's arrays hold about 14 times its text, so a body with no
        # "],[" where a cut is due must not become one long chunk
        text = '{"n":3,"edges":[[0,1' + ",1" * 100_000 + "]]}\n"
        tracemalloc.start()
        try:
            assert _canonical_json_graph(text) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _CHUNK_CHARS

    CANONICAL_50 = graph_to_json(construct_gamma_merg(50)[0])

    @pytest.mark.parametrize(
        "old, new",
        [
            (",49]", ",049]"),  # a leading zero
            ("[0,2]", "[2,0]"),  # a reversed pair
            ("[0,2],", "[0,2],[0,2],"),  # a duplicate pair
            ("],[", "], ["),  # inner spaces
            ("[0,2]", "[0,2.0]"),
            ("[0,2]", "[0,true]"),
            ("[0,2]", "[-1,2]"),
            (",49]", ",50]"),  # an id >= n
            (",49]", ",1234567890123456789012345]"),
            ('"n":50', '"n":' + "7" * 5000),
            ("[0,2]", "[2,2]"),  # a self-loop
            ("[0,2]", "[0,2,3]"),  # an odd count of ids
            ("]}\n", "]}\nx"),  # trailing garbage
            ("]}\n", "]}"),  # no final newline
            ("[0,2],[0,3]", "[0,2,[0],3]"),  # the same ids, punctuation moved
            ("[0,2]", "[0,,2]"),
            ("[10,", "[010,"),  # a leading zero on a u
            ("[0,2]", "[0,00000002]"),  # an 8-digit id
            ("[24,49]]", "[49,24]]"),  # a reversed pair still in key order
            ("[24,49]]", "[24,18446744073709551665]]"),  # 2^64 + 49
            ("[0,2]", "[0,\u0662]"),  # a digit that is not ASCII
            ("[0,2]", "[0,2\ud800]"),  # a lone surrogate, which cannot encode
        ],
    )
    def test_non_canonical_texts_read_as_the_reference_reads_them(self, old, new):
        assert old in self.CANONICAL_50
        text = self.CANONICAL_50.replace(old, new, 1)
        assert len(text) >= FAST_JSON_MIN_CHARS
        assert _canonical_json_graph(text) is None
        expected = parse_outcome(_parsed_json_graph, text)
        for parse in (graph_from_json, parse_graph):
            got = parse_outcome(parse, text)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert_same_graph(got, expected)


class TestMembers:
    def test_matches_a_per_bit_reference(self):
        rng = random.Random(3)
        masks = [0, 1, 1 << 64, (1 << 64) - 1, (1 << 130) | 5]
        masks += [rng.getrandbits(rng.choice([8, 64, 65, 200])) for _ in range(200)]
        for mask in masks:
            expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
            assert list(members(mask)) == expected, mask


class TestMaskBits:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 65])
    def test_matches_a_per_bit_reference(self, n):
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
        bits = mask_bits(masks, n)
        assert bits.shape == (len(masks), n)
        assert bits.tolist() == [[mask >> i & 1 for i in range(n)] for mask in masks]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 65])
    def test_masks_from_bits_inverts_it(self, n):
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(n + 20)]
        assert masks_from_bits(mask_bits(masks[:n], n), n) == masks[:n]
        # rows past n are dropped, and rows missing below n read as 0
        assert masks_from_bits(mask_bits(masks, n), n) == masks[:n]
        for rows in range(n):
            assert masks_from_bits(mask_bits(masks[:rows], n), n) == masks[:rows] + [0] * (n - rows)


class TestDeclaredSize:
    """A declared node count above MAX_NODES is refused before anything is
    allocated for it."""

    @staticmethod
    def refused_without_allocating(parse, text):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit of"):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("parse", [graph_from_json, parse_graph])
    @pytest.mark.parametrize("n", [10**18, MAX_NODES + 1])
    def test_json(self, parse, n):
        self.refused_without_allocating(parse, f'{{"n":{n},"edges":[[0,1]]}}')

    @pytest.mark.parametrize("parse", [graph_from_edge_text, parse_graph])
    @pytest.mark.parametrize("n", [10**18, MAX_NODES + 1])
    def test_edge_text(self, parse, n):
        self.refused_without_allocating(parse, f"{n}\n0 1\n")

    @pytest.mark.parametrize("parse", [graph_from_json, parse_graph])
    def test_json_above_the_fast_path_gate(self, parse):
        pairs = ",".join(f"[0,{v}]" for v in range(1, 1000))
        text = f'{{"n":{MAX_NODES + 1},"edges":[{pairs}]}}\n'
        assert len(text) >= FAST_JSON_MIN_CHARS
        self.refused_without_allocating(parse, text)

    def test_high_ids_cost_the_fast_path_no_more_than_the_reference(self):
        n = 1 << 17
        text = graph_to_json(new_graph(n, [(i, n - 1) for i in range(300)]))

        def peak(parse):
            tracemalloc.start()
            try:
                g = parse(text)
                return g, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        expected, reference_peak = peak(_parsed_json_graph)
        fast, fast_peak = peak(_canonical_json_graph)
        assert fast is None or fast == expected
        assert fast_peak <= reference_peak
        assert_same_graph(graph_from_json(text), expected)

    def test_the_limit_itself_is_admitted(self):
        assert graph_from_json(f'{{"n":{MAX_NODES},"edges":[[0,1]]}}').edge_count == 1


class TestMaskBound:
    """An edge list whose masks would pass MAX_MASK_BITS is refused before
    they do, however few edges it has."""

    @pytest.mark.parametrize("edges", [100, 10_000])
    def test_high_ids_are_refused_with_bounded_memory(self, edges):
        # 100 edges are 1,098 bytes of text; unbounded, they held 22.4 MB
        # after the parse, and 10,000 would hold about 1.3 GB
        text = f"{MAX_NODES}\n" + "".join(f"{i} {MAX_NODES - 1}\n" for i in range(edges))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"above {MAX_MASK_BITS} bits$"):
                parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the node list (8 bytes a node), the masks and the text's tokens
        assert peak < 8 * MAX_NODES + MAX_MASK_BITS // 8 + (4 << 20)

    def test_the_bound_itself_is_admitted(self):
        # each edge (i, n - 1) widens mask i to n bits and mask n - 1 by one
        n = 1 << 16
        k = MAX_MASK_BITS // n - 1
        edges = [(i, n - 1) for i in range(k + 1)]
        assert k * n + k <= MAX_MASK_BITS < (k + 1) * (n + 1)
        assert new_graph(n, edges[:k]).edge_count == k
        with pytest.raises(ValueError, match=rf"^edge \({k}, {n - 1}\) takes the adjacency masks"):
            new_graph(n, edges)

    @pytest.mark.parametrize("build", [construct_gamma_merg, construct_gamma_gamma_merg])
    def test_the_largest_benchmark_files_parse(self, build):
        g, _ = build(800, variant=61)
        assert parse_graph(reference_graph_to_edge_text(g)) == g
        assert parse_graph(graph_to_json(g)) == g
        assert _parsed_json_graph(graph_to_json(g)) == g
