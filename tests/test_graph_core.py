from __future__ import annotations

import codecs
import inspect
import io
import json
import random
import re
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, cycle, permutations
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergraph import (
    Graph,
    complement,
    complete_graph,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    graph_core,
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
    _RUN_NEIGHBORS,
    _canonical_json_graph,
    _chunk_ids,
    _edge_text_graph,
    _parsed_json_graph,
    graph_json_pieces,
    mask_bits,
    masks_from_bits,
    members,
    read_canonical_json,
)
from conftest import (
    MUTATION_BASES,
    brute_max_clique,
    degree,
    graph_of_chars,
    has_edge,
    neighbors,
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


@st.composite
def graphs_of_runs(draw, max_n: int = 100):
    """A graph whose rows above the diagonal are each empty, scattered
    single nodes or drawn runs of consecutive nodes: up to six runs, each
    1 node long up to the rest of the row, between gaps of 1-12 nodes, the
    first run at the row's first node or after a gap, the last run ending
    at the row's last node or before one."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for u in range(n - 1):
        kind = draw(st.sampled_from(["empty", "runs", "scattered"]))
        if kind == "runs":
            v = u + 1 + draw(st.integers(min_value=0, max_value=3))
            for _ in range(6):
                if v >= n:
                    break
                rest = n - v
                length = rest if draw(st.booleans()) else draw(st.integers(1, min(rest, 24)))
                edges += [(u, w) for w in range(v, v + length)]
                v += length + draw(st.integers(min_value=1, max_value=12))
        elif kind == "scattered":
            later = range(u + 1, n)
            edges += [(u, v) for v in set(draw(st.lists(st.sampled_from(later), max_size=len(later))))]
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
        assert all(degree(g, i) == 8 for i in range(9))


class TestNeighbors:
    def test_k4(self):
        assert neighbors(complete_graph(4), 2) == {0, 1, 3}

    def test_path_midpoint(self):
        g = new_graph(3, [(0, 1), (1, 2)])
        assert neighbors(g, 1) == {0, 2}

    def test_max_r_construction_core_degrees(self):
        # every node of the dense core of the 9-node construction has degree >= 5
        g, _ = construct_gamma_merg(9)
        assert all(degree(g, i) >= 5 for i in range(6))


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
    assert sum(degree(g, i) for i in range(g.n)) == 2 * len(g.edges)


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
        # the conftest helpers every reference reads a graph through
        for u in range(g.n):
            assert neighbors(g, u) == {v for v in range(g.n) if (min(u, v), max(u, v)) in g.edges}
            assert degree(g, u) == sum(1 for e in g.edges if u in e)
            for v in range(g.n):
                assert has_edge(g, u, v) == ((min(u, v), max(u, v)) in g.edges)

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

    def test_rows_of_runs_match_the_reference(self):
        # rows are rendered by runs or one neighbor at a time, chosen by
        # their neighbors a run; the rows of each kind are counted here,
        # from bit tests, and both must have been drawn
        rows = Counter()

        @settings(max_examples=120, deadline=None)
        @given(graphs_of_runs())
        def check(g):
            assert graph_to_json(g) == "".join(graph_json_pieces(g)) == reference_graph_to_json(g)
            for u in range(g.n):
                later = [v for v in range(u + 1, g.n) if has_edge(g, u, v)]
                runs = sum(v - 1 == u or not has_edge(g, u, v - 1) for v in later)
                if later:
                    rows["by runs" if len(later) >= _RUN_NEIGHBORS * runs else "each"] += 1

        check()
        assert rows["by runs"] and rows["each"], rows

    @settings(max_examples=80)
    @given(graphs(max_n=12))
    def test_parse_round_trips(self, g):
        assert graph_to_json(g) == reference_graph_to_json(g)
        assert parse_graph(graph_to_json(g).encode()) == g
        assert parse_graph(reference_graph_to_edge_text(g).encode()) == g

    def test_json_round_trip(self):
        g, _ = construct_gamma_merg(10)
        assert parse_graph(graph_to_json(g).encode()) == g

    def test_json_is_canonical(self):
        g = new_graph(4, [(2, 3), (0, 1)])
        assert graph_to_json(g) == '{"n":4,"edges":[[0,1],[2,3]]}\n'

    def test_edge_text_round_trip(self):
        g, _ = construct_gamma_gamma_merg(10)
        assert _edge_text_graph(reference_graph_to_edge_text(g)) == g

    def test_parse_sniffs_format(self):
        g = new_graph(3, [(0, 2)])
        assert parse_graph(graph_to_json(g).encode()) == g
        assert parse_graph(reference_graph_to_edge_text(g).encode()) == g
        assert parse_graph(b"3\n0 2\n") == g

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            parse_graph(b'{"nodes": 3}')

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
            parse_graph(text.encode())

    @pytest.mark.parametrize("n, edges", [(2.0, []), (3, [(0, 1.0)]), (3, [(False, 1)]), (3, [0])])
    def test_new_graph_requires_int_pairs(self, n, edges):
        with pytest.raises(ValueError):
            new_graph(n, edges)

    def test_bad_edge_text_rejected(self):
        with pytest.raises(ValueError):
            parse_graph(b"3\n0 1 2\n")
        # text with no token at all, before any count is read
        for parse, data in [(_edge_text_graph, ""), (parse_graph, b" \n")]:
            with pytest.raises(ValueError, match="^empty edge-list text$"):
                parse(data)
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
            for parse, data in [(_edge_text_graph, text), (parse_graph, text.encode())]:
                with pytest.raises(ValueError, match=f"token {re.escape(repr(token))} is not"):
                    parse(data)

    # ids past int()'s digit limit (4300 by default) are refused with a
    # message about the input, not about the interpreter's setting
    LONG_ID = "1" * 5000

    @pytest.mark.parametrize("text", [f"3\n0 {LONG_ID}\n", f"{LONG_ID}\n0 1\n"], ids=["id", "n"])
    def test_an_over_long_edge_list_token_is_named(self, text):
        with pytest.raises(ValueError) as info:
            parse_graph(text.encode())
        assert str(info.value) == "edge-list token of 5000 digits is too long"

    @pytest.mark.parametrize("text", [f'{{"n": 3, "edges": [[0, {LONG_ID}]]}}',
                                      f'{{"n": {LONG_ID}, "edges": []}}'], ids=["id", "n"])
    def test_an_over_long_json_integer_is_named(self, text):
        with pytest.raises(ValueError) as info:
            parse_graph(text.encode())
        assert str(info.value) == "graph JSON holds an integer of too many digits"
        # a JSON syntax error before the number keeps json's own message
        with pytest.raises(json.JSONDecodeError, match="^Expecting property name"):
            parse_graph(text.replace('"n"', "n", 1).encode())


class TestParseGraphTakesBytes:
    """parse_graph owns the file format: bytes only, one leading UTF-8
    byte-order mark dropped, whichever path reads the rest."""

    @pytest.mark.parametrize("text", [
        graph_to_json(construct_gamma_merg(50)[0]),
        '{"n":3,"edges":[[0,1]]}\n',
        "4\n0 1\n1 2\n2 3\n0 3\n",
    ], ids=["json-above-the-gate", "json", "edge-list"])
    def test_a_marked_text_reads_as_the_plain_text(self, monkeypatch, text):
        plain = parse_graph(text.encode())
        if len(text) >= FAST_JSON_MIN_CHARS:
            # the fast path takes the marked bytes: the general parser is never called
            def general(text):
                raise AssertionError("the canonical text left the fast path")

            monkeypatch.setattr(graph_core, "_parsed_json_graph", general)
        assert_same_graph(parse_graph(codecs.BOM_UTF8 + text.encode()), plain)

    def test_only_one_mark_is_dropped(self):
        message = "edge-list token '\\ufeff3' is not a decimal node count or id"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph(codecs.BOM_UTF8 * 2 + b"3\n0 1\n")

    def test_text_is_refused(self):
        with pytest.raises(TypeError, match="^parse_graph expects bytes, not str$"):
            parse_graph("3\n0 1\n")


class TestJsonPieces:
    """graph_json_pieces renders pieces of at least _CHUNK_CHARS characters,
    the last excepted, each cut between two nodes' pairs."""

    @staticmethod
    def assert_pieces(g):
        pieces = list(graph_json_pieces(g))
        assert all(len(piece) >= _CHUNK_CHARS for piece in pieces[:-1])
        for piece, after in zip(pieces, pieces[1:]):
            # a node's pairs end one piece, and the next opens on a later node
            if after != "]}\n":
                last_u = int(piece[piece.rindex("[") + 1 : piece.rindex(",")])
                assert after.startswith(",[") and int(after[2 : after.index(",", 2)]) > last_u
        assert "".join(pieces) == graph_to_json(g) == reference_graph_to_json(g)
        return pieces

    # canonical labels, whose rows are one or two runs each, and a
    # relabelling, about half of whose gamma family rows are short runs
    @pytest.mark.parametrize("variant", [None, 61])
    @pytest.mark.parametrize("build", [construct_gamma_merg, construct_gamma_gamma_merg])
    @pytest.mark.parametrize("n", [200, 800])
    def test_constructions(self, build, n, variant):
        pieces = self.assert_pieces(build(n, variant=variant)[0])
        assert len(pieces) > 1

    # the text just below, at and just above 64 KiB, then its pairs (the
    # text less its 19-character head and 3-character tail) just below, at
    # and just above it: from there the pairs alone fill a piece, and the
    # tail is a piece of its own
    @pytest.mark.parametrize("extra", [-1, 0, 1, 21, 22, 23])
    def test_texts_about_one_piece_long(self, extra):
        g = graph_of_chars(_CHUNK_CHARS + extra)
        assert len(graph_to_json(g)) == _CHUNK_CHARS + extra
        pieces = self.assert_pieces(g)
        assert len(pieces) == (1 if extra < 22 else 2)


def assert_same_graph(got, expected):
    assert got == expected
    assert got.n == expected.n and got.adjacency == expected.adjacency


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: a graph, or the message it raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_graph(got, expected)


def draw_mutation(data) -> str:
    """One of ``MUTATION_BASES`` with one character inserted, deleted or
    replaced, half the time within 3 bytes of a "]" the reader cuts after."""
    text, cuts = data.draw(st.sampled_from(MUTATION_BASES))
    if cuts and data.draw(st.booleans()):
        at = data.draw(st.sampled_from(cuts)) + data.draw(st.integers(-3, 3))
    else:
        at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from("0123456789[], "))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    return text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert") :]


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
        assert_same_graph(_canonical_json_graph(text.encode()), expected)
        assert_same_graph(parse_graph(text.encode()), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=24, max_value=64),
        st.sampled_from([0.3, 0.5, 0.8, 1.0]),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_random_graphs_above_the_gate_match_the_reference(self, n, p, seed):
        text = graph_to_json(random_graph(random.Random(seed), n, p))
        expected = _parsed_json_graph(text)
        fast = _canonical_json_graph(text.encode())
        if len(text) >= FAST_JSON_MIN_CHARS:
            assert fast is not None
        if fast is not None:
            assert_same_graph(fast, expected)
        assert_same_graph(parse_graph(text.encode()), expected)

    @pytest.mark.parametrize("build", [construct_gamma_merg, construct_gamma_gamma_merg])
    @pytest.mark.parametrize("n", [400, 800])
    def test_peak_memory_is_a_few_times_the_text(self, build, n):
        # the arrays of one chunk (about 15 bytes a byte of it) and the
        # n-by-n bit matrix with the masks read off it, no ids of the whole
        # text: 1.16-1.23 MB at n = 400 (2.1-2.2 / 1.5-1.6 times the text,
        # gamma / (gamma,gamma)) and 1.64-1.71 MB at n = 800 (0.7 / 0.55
        # times it); read in one chunk, the body would hold about 14 times it
        data = graph_to_json(build(n)[0]).encode()
        tracemalloc.start()
        try:
            assert _canonical_json_graph(data) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * _CHUNK_CHARS + 2 * n * n

    @pytest.mark.parametrize("text", [
        # n = 400 with edges only among ids 0..199: a matrix sized from n
        # (160,000 bytes) would not fit the text of 127,248 bytes; one
        # isqrt(len) = 356 wide (126,736 bytes) does
        graph_to_json(new_graph(400, construct_gamma_merg(200)[0].edge_pairs())),
        # two 130-cliques: the first chunk names ids below 130 only and the
        # second names 259, which the matrix allocated before the first
        # chunk (260 wide, from n) already holds
        graph_to_json(new_graph(260, [e for k in (0, 130)
                                      for e in combinations(range(k, k + 130), 2)])),
    ], ids=["isolated-high-ids", "high-ids-after-the-first-chunk"])
    def test_the_matrix_is_sized_once_from_n_and_the_text(self, text):
        assert len(text) > _CHUNK_CHARS
        expected = _parsed_json_graph(text)
        for got in (_canonical_json_graph(text.encode()), parse_graph(text.encode())):
            assert_same_graph(got, expected)

    # a complete graph on ids 0..47 (8,581 bytes of text with one more edge
    # on two-digit ids), plus the edge (0, 91): 91 lies below isqrt(8581) =
    # 92, so the matrix holds it, though below 8 * (92 // 8) = 88 it would
    # not; (0, 92) names an id past the matrix
    @example(n=200, k=200, p=1.0, seed=0, extra=[(0, 91)])
    @example(n=200, k=200, p=1.0, seed=0, extra=[(0, 92)])
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=48, max_value=1000),
        k=st.integers(min_value=48, max_value=1000),
        p=st.sampled_from([0.7, 0.85, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
        extra=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=6),
    )
    def test_the_fast_path_takes_exactly_the_ids_below_the_matrix_width(
        self, n, k, p, seed, extra
    ):
        # edges among ids < k <= n: a dense block on ids 0..47 makes the
        # text long enough for the fast path, and the extra edges reach up
        # to k - 1, past the matrix width min(n, isqrt(len)) or not
        k = min(k, n)
        pairs = list(random_graph(random.Random(seed), 48, p).edge_pairs())
        pairs += [(a % k, b % k) for a, b in extra if a % k != b % k]
        text = graph_to_json(new_graph(n, pairs))
        assert len(text) >= FAST_JSON_MIN_CHARS
        top = max(max(pair) for pair in pairs)
        expected = _parsed_json_graph(text)
        fast = _canonical_json_graph(text.encode())
        assert (fast is None) == (top >= min(n, isqrt(len(text))))
        if fast is not None:
            assert_same_graph(fast, expected)
        assert_same_graph(parse_graph(text.encode()), expected)

    @pytest.mark.parametrize("at", [0, 40, -3], ids=["head", "body", "tail"])
    def test_bytes_that_are_not_utf8_raise_a_decode_error(self, at):
        # above the gate: the fast path refuses the bytes, and decoding them
        # for the general parser raises
        data = bytearray(self.CANONICAL_50.encode())
        data[at:at] = b"\xff"
        with pytest.raises(UnicodeDecodeError, match="'utf-8' codec can't decode byte 0xff"):
            parse_graph(bytes(data))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_character_mutations_read_as_the_reference_reads_them(self, data):
        text = draw_mutation(data)
        fast = _canonical_json_graph(text.encode())
        expected = parse_outcome(_parsed_json_graph, text)
        if fast is None:
            # every text that re-renders to itself takes the fast path
            assert isinstance(expected, str) or graph_to_json(expected) != text
        else:
            assert_same_graph(fast, expected)
            assert graph_to_json(fast) == text
        # parse_graph reads the bytes as the general parser of the format
        # they open with reads the text
        if not text.lstrip().startswith(("{", "[")):
            expected = parse_outcome(_edge_text_graph, text)
        assert_same_outcome(parse_outcome(parse_graph, text.encode()), expected)

    @pytest.mark.parametrize("low, chars, fast", [(110, 40_070, True), (120, 31_620, False)])
    def test_the_matrix_guard_on_both_sides(self, low, chars, fast):
        # the bit matrix is indexed by node id: 200 rows of 200 bits here,
        # 40,000 bytes, taken only by a text at least that long
        text = graph_to_json(new_graph(200, combinations(range(low, 200), 2)))
        assert len(text) == chars
        expected = _parsed_json_graph(text)
        got = _canonical_json_graph(text.encode())
        if fast:
            assert_same_graph(got, expected)
        else:
            assert got is None
        assert_same_graph(parse_graph(text.encode()), expected)

    @pytest.mark.parametrize(
        "chunk",
        [
            b"1[2,]3",  # digits outside the pairs
            b"[1,2]3,4[,],[5,6]",  # a pair break moved into the ids
            b"[1,]2,3[,4]",  # ids moved across the punctuation
        ],
    )
    def test_punctuation_in_order_with_digits_out_of_place_is_refused(self, chunk):
        # the bytes that are not digits are those of two or three pairs, but
        # the ids would be read with "[", "," or "]" bytes among their digits
        assert _chunk_ids(chunk) is None

    def test_a_body_that_cannot_be_cut_is_refused_before_a_chunk_is_read(self):
        # a chunk's arrays hold about 14 times its text, so a body with no
        # "],[" where a cut is due must not become one long chunk
        data = b'{"n":3,"edges":[[0,1' + b",1" * 100_000 + b"]]}\n"
        tracemalloc.start()
        try:
            assert _canonical_json_graph(data) is None
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
        ],
    )
    def test_non_canonical_texts_read_as_the_reference_reads_them(self, old, new):
        assert old in self.CANONICAL_50
        text = self.CANONICAL_50.replace(old, new, 1)
        assert len(text) >= FAST_JSON_MIN_CHARS
        assert _canonical_json_graph(text.encode()) is None
        assert_same_outcome(parse_outcome(parse_graph, text.encode()),
                            parse_outcome(_parsed_json_graph, text))


class ShortReads(io.BytesIO):
    """The bytes ``data`` as a file whose reads stop after the next of
    ``sizes`` bytes, the sizes taken in turn and over again."""

    def __init__(self, data: bytes, sizes: list[int]):
        super().__init__(data)
        self.sizes = cycle(sizes)

    def readinto(self, view) -> int:
        return super().readinto(memoryview(view)[: next(self.sizes)])


class TestStreamedReader:
    """read_canonical_json cuts the same chunks' checks out of a file's
    reads, wherever the reads stop."""

    # a read of 64 bytes or more holds the head, and, after a window's
    # carry of at most 20 bytes, a "],[" or the rest of the text
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_reads_give_the_fast_paths_graph(self, data):
        text = (draw_mutation(data) if data.draw(st.booleans())
                else data.draw(st.sampled_from(MUTATION_BASES))[0])
        body = text.encode()
        raw = data.draw(st.sampled_from([b"", codecs.BOM_UTF8])) + body
        sizes = data.draw(st.lists(st.integers(1, _CHUNK_CHARS + 30), min_size=1, max_size=4))
        got = read_canonical_json(ShortReads(raw, sizes), len(raw))
        fast = _canonical_json_graph(body)
        if got is not None:
            assert fast is not None
            assert_same_graph(got, fast)
        elif fast is not None:
            assert min(sizes) < 64

    # the matrix is sized from the stated length, and the pass reads no
    # more than it: a text that ends before it, or goes on after it, is
    # refused
    @pytest.mark.parametrize("extra, stated", [(b"", 1), (b"", 1 << 20), (b"\n", 0),
                                               (b"x" * 70_000, 0)],
                             ids=["short-1", "short-1MiB", "after-1", "after-a-block"])
    def test_a_text_of_another_length_than_stated_is_refused(self, extra, stated):
        data = MUTATION_BASES[1][0].encode()
        assert read_canonical_json(io.BytesIO(data), len(data)) is not None
        assert read_canonical_json(io.BytesIO(data + extra), len(data) + stated) is None

    def test_peak_memory_of_a_long_body_that_cannot_be_cut(self):
        # a body with no "],[" in a window is refused at the window's end,
        # never carried into the next
        data = b'{"n":3,"edges":[[0,1' + b",1" * 400_000 + b"]]}\n"
        tracemalloc.start()
        try:
            assert read_canonical_json(io.BytesIO(data), len(data)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _CHUNK_CHARS


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
    def refused_without_allocating(text):
        data = text.encode()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit of"):
                parse_graph(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [10**18, MAX_NODES + 1])
    def test_json(self, n):
        self.refused_without_allocating(f'{{"n":{n},"edges":[[0,1]]}}')

    @pytest.mark.parametrize("n", [10**18, MAX_NODES + 1])
    def test_edge_text(self, n):
        self.refused_without_allocating(f"{n}\n0 1\n")

    def test_json_above_the_fast_path_gate(self):
        pairs = ",".join(f"[0,{v}]" for v in range(1, 1000))
        text = f'{{"n":{MAX_NODES + 1},"edges":[{pairs}]}}\n'
        assert len(text) >= FAST_JSON_MIN_CHARS
        self.refused_without_allocating(text)

    def test_high_ids_cost_the_fast_path_no_more_than_the_reference(self):
        n = 1 << 17
        text = graph_to_json(new_graph(n, [(i, n - 1) for i in range(300)]))

        def peak(parse, text):
            tracemalloc.start()
            try:
                g = parse(text)
                return g, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        expected, reference_peak = peak(_parsed_json_graph, text)
        fast, fast_peak = peak(_canonical_json_graph, text.encode())
        assert fast is None or fast == expected
        assert fast_peak <= reference_peak
        assert_same_graph(parse_graph(text.encode()), expected)

    def test_the_limit_itself_is_admitted(self):
        assert parse_graph(f'{{"n":{MAX_NODES},"edges":[[0,1]]}}'.encode()).edge_count == 1


class TestMaskBound:
    """An edge list whose masks would pass MAX_MASK_BITS is refused before
    they do, however few edges it has."""

    @pytest.mark.parametrize("edges", [100, 10_000])
    def test_high_ids_are_refused_with_bounded_memory(self, edges):
        # 100 edges are 1,098 bytes of text; unbounded, they held 22.4 MB
        # after the parse, and 10,000 would hold about 1.3 GB
        text = f"{MAX_NODES}\n" + "".join(f"{i} {MAX_NODES - 1}\n" for i in range(edges))
        data = text.encode()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"above {MAX_MASK_BITS} bits$"):
                parse_graph(data)
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
        assert parse_graph(reference_graph_to_edge_text(g).encode()) == g
        assert parse_graph(graph_to_json(g).encode()) == g
        assert _parsed_json_graph(graph_to_json(g)) == g
