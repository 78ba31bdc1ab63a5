from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc
from itertools import accumulate
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mergraph import (
    cli,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    graph_to_json,
    max_r_robustness,
    new_graph,
    parse_graph,
    reachable_count,
)
from mergraph.cli import (
    CliError,
    _load_graph,
    _parse_args,
    _read_graph,
    _plain_namespace,
    _write,
    build_parser,
    main,
)
from mergraph.graph_core import (
    _CHUNK_CHARS,
    FAST_JSON_MIN_CHARS,
    MAX_MASK_BITS,
    MAX_NODES,
    _parsed_json_graph,
)
from conftest import MUTATION_BASES, graph_of_chars, random_graph


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def g9(tmp_path):
    path = tmp_path / "g9.json"
    assert run_cli("construct", "--n", "9", "--kind", "r", "--out", str(path)) == 0
    return path


class TestConstruct:
    def test_writes_graph_and_recipe(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run_cli("construct", "--n", "10", "--kind", "rs", "--out", str(out), "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edges"] == 43
        assert payload["gamma"] == 5
        g = parse_graph(out.read_bytes())
        assert len(g.edges) == 43
        recipe = json.loads((tmp_path / "g.recipe.json").read_text())
        assert recipe["kind"] == "gamma_gamma"

    def test_usage_error_on_n1(self, tmp_path):
        assert run_cli("construct", "--n", "1", "--kind", "r", "--out", str(tmp_path / "x.json")) == 1

    def test_missing_flag_is_an_error(self):
        assert run_cli("construct", "--n", "9") == 1

    def test_negative_variant_is_named(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run_cli(
            "construct", "--n", "9", "--kind", "r", "--variant", "-1", "--out", str(out)
        ) == 1
        assert capsys.readouterr().err == "error: variant must be non-negative, got -1\n"
        assert list(tmp_path.glob("x*")) == []

    def test_identical_flags_identical_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("construct", "--n", "12", "--kind", "r", "--out", str(a))
        run_cli("construct", "--n", "12", "--kind", "r", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRobustness:
    def test_requested_level_holds(self, g9, capsys):
        assert run_cli("robustness", "--graph", str(g9), "--r", "5", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True

    def test_requested_level_fails_with_witness(self, g9, tmp_path, capsys):
        g = parse_graph(g9.read_bytes()).remove_edge(3, 8)
        damaged = tmp_path / "damaged.json"
        damaged.write_text(graph_to_json(g))
        assert run_cli("robustness", "--graph", str(damaged), "--r", "5", "--json") == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["witness"] is not None
        assert max_r_robustness(g) == 4

    def test_max_r_default(self, g9, capsys):
        assert run_cli("robustness", "--graph", str(g9), "--json") == 0
        assert json.loads(capsys.readouterr().out)["max_r"] == 5

    def test_max_s_mode(self, g9, capsys):
        assert run_cli("robustness", "--graph", str(g9), "--rs", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"r": 5, "max_s": 1}

    def test_rs_level_check(self, tmp_path, capsys):
        out = tmp_path / "gg.json"
        run_cli("construct", "--n", "10", "--kind", "rs", "--out", str(out))
        capsys.readouterr()
        assert run_cli("robustness", "--graph", str(out), "--rs", "--r", "5", "--s", "5") == 0

    def test_infeasible_size(self, tmp_path, capsys):
        # the even n = 50 gamma family has 3^12 * 2 * 26 lattice cells
        out = tmp_path / "g50.json"
        run_cli("construct", "--n", "50", "--kind", "r", "--out", str(out))
        assert run_cli("robustness", "--graph", str(out), "--r", "25") == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("complete", [True, False])
    def test_more_than_254_nodes_exit_3(self, tmp_path, capsys, complete):
        # K_300 is one class and the edgeless graph another: both fit the
        # cell budget, but their counts would wrap the uint8 tables
        path = tmp_path / "g300.txt"
        pairs = [(i, j) for i in range(300) for j in range(i + 1, 300)] if complete else []
        path.write_text("300\n" + "".join(f"{i} {j}\n" for i, j in pairs))
        assert run_cli("robustness", "--graph", str(path)) == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["r", "rs"])
    def test_section_vii_graphs_at_n49_are_decided(self, tmp_path, capsys, kind):
        out = tmp_path / f"{kind}49.json"
        run_cli("construct", "--n", "49", "--kind", kind, "--out", str(out))
        capsys.readouterr()
        assert run_cli("robustness", "--graph", str(out), "--json") == 0
        assert json.loads(capsys.readouterr().out) == {"max_r": 25, "n": 49}
        assert run_cli("robustness", "--graph", str(out), "--rs", "--json") == 0
        assert json.loads(capsys.readouterr().out)["max_s"] == (1 if kind == "r" else 49)
        assert run_cli("robustness", "--graph", str(out), "--r", "26", "--json") == 2
        witness = json.loads(capsys.readouterr().out)["witness"]
        g = parse_graph(out.read_bytes())
        s1, s2 = set(witness["s1"]), set(witness["s2"])
        assert s1 and s2 and not s1 & s2
        assert reachable_count(g, s1, 26) == 0 and reachable_count(g, s2, 26) == 0

    def test_unreadable_graph(self, tmp_path):
        assert run_cli("robustness", "--graph", str(tmp_path / "nope.json")) == 1

    @pytest.mark.parametrize("command", ["robustness", "bounds"])
    def test_graph_file_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n":3,"edges":[[0,1]]}\xff\n')
        assert run_cli(command, "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read graph file {path}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    # above the fast path's gate, a byte that is not UTF-8 in the body of a
    # canonical text, or after it, is refused by the byte reader and then
    # fails to decode: the same message, and nothing parsed
    @pytest.mark.parametrize("at", [100, None], ids=["body", "end"])
    def test_large_graph_file_that_is_not_utf8(self, tmp_path, capsys, at):
        data = bytearray(graph_to_json(construct_gamma_merg(50)[0]).encode())
        assert len(data) >= FAST_JSON_MIN_CHARS
        at = len(data) if at is None else at
        data[at:at] = b"\xff"
        path = tmp_path / "latin1.json"
        path.write_bytes(bytes(data))
        assert run_cli("bounds", "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read graph file {path}: 'utf-8' codec can't decode "
                              f"byte 0xff in position {at}")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "text",
        [
            '{"n":3,"edges":[[0,1.5]]}',
            '{"n":3,"edges":[[0,true]]}',
            '{"n":3.7,"edges":[[0,1]]}',
            '{"n":3,"edges":[[5]]}',
            '{"n":3,"edges":[5]}',
            '{"n":3,"edges":5}',
            '{"n":3,"edges":[["a","b"]]}',
        ],
    )
    def test_malformed_graph_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli("robustness", "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse graph file {path}: ")
        assert "Traceback" not in err


class TestBounds:
    def test_cycle_flagged(self, tmp_path, capsys):
        path = tmp_path / "c4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        assert run_cli("bounds", "--graph", str(path), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implied_r_upper_bound"] == 1
        assert any("cannot be 2-robust" in flag for flag in payload["flags"])

    # JSON nested deeper than the interpreter's recursion limit, on either
    # side of the size above which graph JSON tries the fast path first
    @pytest.mark.parametrize("depth", [3000, 200_000])
    def test_deeply_nested_graph_file(self, tmp_path, capsys, depth):
        path = tmp_path / "deep.json"
        path.write_text('{"n":3,"edges":' + "[" * depth)
        assert (path.stat().st_size >= FAST_JSON_MIN_CHARS) == (depth > FAST_JSON_MIN_CHARS)
        assert run_cli("bounds", "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse graph file {path}: ")
        assert "graph JSON is nested too deeply" in err
        assert "Traceback" not in err

    # a top-level array is JSON too: it gets the JSON parser's errors, not
    # the edge-list parser's complaint about its first token
    @pytest.mark.parametrize("text, message", [
        ("[1,2]", "graph JSON must be an object with 'n' and 'edges'"),
        ("[" * 200_000, "graph JSON is nested too deeply"),
    ])
    def test_json_array_graph_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "array.json"
        path.write_text(text)
        assert run_cli("bounds", "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse graph file {path}: ")
        assert message in err
        assert "Traceback" not in err

    # a UTF-8 byte-order mark before either format, and before JSON above
    # the fast path's gate, reads as the text without it
    @pytest.mark.parametrize("text", [
        '{"n":3,"edges":[[0,1]]}\n',
        "4\n0 1\n1 2\n2 3\n0 3\n",
        graph_to_json(construct_gamma_merg(50)[0]),
    ], ids=["json", "edge-list", "json-above-the-gate"])
    def test_byte_order_mark(self, tmp_path, capsys, text):
        plain = tmp_path / "plain"
        marked = tmp_path / "marked"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert run_cli("bounds", "--graph", str(plain)) == 0
        expected = capsys.readouterr()
        assert run_cli("bounds", "--graph", str(marked)) == 0
        assert capsys.readouterr() == expected

    # the canonical texts of one chunk and of two, read from a file with and
    # without a byte-order mark, give the graph the general parser reads
    @pytest.mark.parametrize("text", [text for text, _ in MUTATION_BASES])
    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
    def test_canonical_files_read_as_their_text(self, tmp_path, text, mark):
        path = tmp_path / "g.json"
        path.write_bytes(mark + text.encode())
        got, expected = _load_graph(str(path)), _parsed_json_graph(text)
        assert got == expected and got.adjacency == expected.adjacency

    def test_report_for_construction(self, g9, capsys):
        assert run_cli("bounds", "--graph", str(g9)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implied_r_upper_bound"] == 5

    def test_edgeless_million_node_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"n":1000000,"edges":[]}')
        assert run_cli("bounds", "--graph", str(path), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        checks = {c["name"]: c for c in payload["checks"]}
        assert payload["edge_count"] == 0
        assert checks["dense_subgraph_gamma"]["passed"] is None
        assert checks["clique_gamma_gamma_turan"]["required"] == 10**6 - 250_000
        assert checks["min_degree_gamma_gamma"]["observed"] == 0
        assert payload["prop1_gamma_gamma"] is False


class TestDeclaredSize:
    @pytest.mark.parametrize(
        "text", ['{"n":1000000000000000000,"edges":[]}', "1000000000000000000\n0 1\n"]
    )
    def test_oversized_graph_file_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert run_cli("bounds", "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse graph file {path}: node count")

    def test_high_node_ids_exit_1_with_bounded_memory(self, tmp_path, capsys):
        # 1,098 bytes naming node 2^20 - 1 a hundred times: unbounded, the
        # masks held 22.4 MB after the parse and peaked at 30.8 MB
        text = f"{MAX_NODES}\n" + "".join(f"{i} {MAX_NODES - 1}\n" for i in range(100))
        assert len(text) == 1098
        path = tmp_path / "high.txt"
        path.write_text(text)
        tracemalloc.start()
        try:
            assert run_cli("bounds", "--graph", str(path)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MAX_NODES + MAX_MASK_BITS // 8 + (4 << 20)
        err = capsys.readouterr().err
        # edge k widens the masks by 2^20 + 1 bits
        first = MAX_MASK_BITS // (MAX_NODES + 1)
        prefix = f"error: cannot parse graph file {path}: edge ({first}, {MAX_NODES - 1})"
        assert err.startswith(prefix)


@functools.cache
def canonical_bytes(kind: str, n: int, variant: int | None = None) -> bytes:
    build = construct_gamma_merg if kind == "r" else construct_gamma_gamma_merg
    return graph_to_json(build(n, variant=variant)[0]).encode()


def load_outcome(path) -> object:
    """What ``_load_graph`` gives for ``path``: a graph, or the type of the
    error behind its ``CliError`` and the CLI's message."""
    try:
        return _load_graph(str(path))
    except CliError as exc:
        return type(exc.__cause__), str(exc)


def bytes_outcome(path, data: bytes) -> object:
    """What ``parse_graph`` gives for ``data``: a graph, or the type of its
    error and the message the CLI reports it by for a file at ``path``."""
    try:
        return parse_graph(data)
    except UnicodeDecodeError as exc:
        return type(exc), f"cannot read graph file {path}: {exc}"
    except ValueError as exc:
        return type(exc), f"cannot parse graph file {path}: {exc}"


def assert_same_outcome(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got == expected and got.adjacency == expected.adjacency


class TestStreamedGraphFiles:
    """A regular file longer than one block is read a block at a time, and
    only what that pass refuses is read whole: ``_load_graph`` gives
    exactly what ``parse_graph`` gives for the file's bytes."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """The lengths of the texts handed to ``parse_graph``, in order."""
        seen = []

        def spy(data):
            seen.append(len(data))
            return parse_graph(data)

        monkeypatch.setattr(cli, "parse_graph", spy)
        return seen

    def check(self, path, calls, streamed: bool | None = None):
        expected = bytes_outcome(path, path.read_bytes())
        assert_same_outcome(load_outcome(path), expected)
        if streamed is not None:
            assert calls == ([] if streamed else [path.stat().st_size])

    @pytest.mark.parametrize("variant", [None, 7])
    @pytest.mark.parametrize("kind", ["r", "rs"])
    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_constructions_are_streamed(self, tmp_path, calls, kind, n, variant):
        path = tmp_path / "g.json"
        path.write_bytes(canonical_bytes(kind, n, variant))
        assert path.stat().st_size > _CHUNK_CHARS
        self.check(path, calls, streamed=True)

    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
    def test_a_random_graph_is_streamed(self, tmp_path, calls, mark):
        path = tmp_path / "g.json"
        path.write_bytes(mark + graph_to_json(random_graph(random.Random(3), 300, 0.3)).encode())
        assert path.stat().st_size > _CHUNK_CHARS
        self.check(path, calls, streamed=True)

    # a text of at most one block is read whole, one of a block and a byte
    # a block at a time (its ids, below 200, all fit the matrix)
    @pytest.mark.parametrize("extra, streamed", [(0, False), (1, True)])
    def test_only_files_longer_than_one_block_are_streamed(self, tmp_path, calls, extra, streamed):
        path = tmp_path / "g.json"
        path.write_bytes(graph_to_json(graph_of_chars(_CHUNK_CHARS + extra, 200)).encode())
        self.check(path, calls, streamed=streamed)

    # (gamma, gamma) at n = 200, 176,630 bytes: three blocks, the carry of
    # each window moved to the front of the next
    BASE = ("rs", 200)
    SPOTS = {"first": 100, "first-edge": _CHUNK_CHARS + 2, "middle": 100_000,
             "middle-edge": 2 * _CHUNK_CHARS + 1, "last": -30, "tail": -2}

    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
    @pytest.mark.parametrize("spot", SPOTS)
    @pytest.mark.parametrize("edit", ["digit", "comma", "space", "bracket", "non-utf8",
                                      "insert", "delete", "truncate"])
    def test_damaged_files_read_as_their_bytes(self, tmp_path, calls, mark, spot, edit):
        data = bytearray(canonical_bytes(*self.BASE))
        at = self.SPOTS[spot] % len(data)
        if edit == "truncate":
            del data[at:]
        elif edit == "insert":
            data[at:at] = b"7"
        elif edit == "delete":
            del data[at]
        else:
            data[at] = {"digit": b"9", "comma": b",", "space": b" ", "bracket": b"]",
                        "non-utf8": b"\xff"}[edit][0]
        path = tmp_path / "g.json"
        path.write_bytes(mark + bytes(data))
        self.check(path, calls)

    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
    def test_a_file_without_its_tail(self, tmp_path, calls, mark):
        path = tmp_path / "g.json"
        path.write_bytes(mark + canonical_bytes(*self.BASE)[:-3])
        self.check(path, calls, streamed=False)
        assert isinstance(load_outcome(path), tuple)

    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
    @pytest.mark.parametrize("shift, streamed", [(-1, True), (0, False), (1, False)],
                             ids=["below", "at", "past"])
    def test_an_id_at_the_matrix_width(self, tmp_path, calls, mark, shift, streamed):
        # the gamma graph on 200 nodes as a graph on 1000, so the matrix is
        # isqrt(size) wide, plus one edge (0, w) with w just below, at or
        # just past that width: at or past it the pass refuses the text,
        # which the general parser reads
        pairs = list(construct_gamma_merg(200)[0].edge_pairs())
        width = isqrt(len(graph_to_json(new_graph(1000, pairs + [(0, 500)]))))
        text = graph_to_json(new_graph(1000, pairs + [(0, width + shift)]))
        assert isqrt(len(text)) == width
        path = tmp_path / "g.json"
        path.write_bytes(mark + text.encode())
        self.check(path, calls, streamed=streamed)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("data", [canonical_bytes("rs", 200), b"3\n0 1\n1 2\n"],
                             ids=["canonical", "edge-list"])
    def test_a_named_pipe_is_read_whole(self, tmp_path, calls, monkeypatch, data):
        def refused(*args):
            raise AssertionError("a pipe was read a block at a time")

        monkeypatch.setattr(cli, "read_canonical_json", refused)
        path = tmp_path / "g.fifo"
        os.mkfifo(path)

        def feed():
            with open(path, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = load_outcome(path)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert_same_outcome(got, parse_graph(data))
        assert calls == [len(data)]

    # a stated size that is not the length of the bytes read makes the pass
    # refuse the text at its end, or (at most one block) never start it
    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
    @pytest.mark.parametrize("stated", [-1, 1, 3, -_CHUNK_CHARS, _CHUNK_CHARS, 1 << 20, None],
                             ids=["short-1", "long-1", "long-3", "short-block", "long-block",
                                  "long-1MiB", "none"])
    def test_a_stated_size_that_is_wrong(self, mark, stated):
        data = mark + canonical_bytes("r", 200, 7)
        size = None if stated is None else len(data) + stated
        assert_same_outcome(_read_graph(io.BytesIO(data), size), parse_graph(data))

    # a damaged text, and a canonical one with bytes after it that the
    # stated size leaves out, raise what parse_graph raises for all of it
    @pytest.mark.parametrize("damage", ["comma", "after"])
    @pytest.mark.parametrize("stated", [0, 100, 10**9])
    def test_a_stated_size_that_is_wrong_on_a_damaged_text(self, damage, stated):
        text = canonical_bytes("r", 200, 7)
        if damage == "comma":
            data = text.replace(b"],[", b"],[,", 1)
        else:
            data, stated = text + b"[]\n", stated - 3
        with pytest.raises(json.JSONDecodeError) as expected:
            parse_graph(data)
        with pytest.raises(json.JSONDecodeError) as got:
            _read_graph(io.BytesIO(data), len(data) + stated)
        assert str(got.value) == str(expected.value)

    def test_peak_memory_is_below_the_file_size(self, tmp_path):
        # the (gamma, gamma) graph at n = 800 (3,106,130 bytes): a block,
        # one chunk's arrays and the 640,000-byte bit matrix, 1.6 MiB; read
        # whole, the text alone took its size, and the peak was 4.5 MiB
        path = tmp_path / "g800.json"
        path.write_bytes(canonical_bytes("rs", 800))
        tracemalloc.start()
        try:
            g = _load_graph(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 800
        assert peak <= 0.7 * path.stat().st_size


class TestMinimality:
    def test_minimal_construction(self, tmp_path, capsys):
        out = tmp_path / "g7.json"
        run_cli("construct", "--n", "7", "--kind", "r", "--out", str(out))
        capsys.readouterr()
        assert run_cli("minimality", "--graph", str(out), "--kind", "r", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimal"] is True
        assert len(payload["entries"]) == 18

    def test_triangle_not_minimal(self, tmp_path, capsys):
        path = tmp_path / "k3.txt"
        path.write_text("3\n0 1\n1 2\n0 2\n")
        assert run_cli("minimality", "--graph", str(path), "--kind", "r", "--r", "1", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimal"] is False

    def test_failing_target_is_an_error(self, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        assert run_cli("minimality", "--graph", str(path), "--kind", "r") == 1

    def test_zero_s_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "gg.json"
        run_cli("construct", "--n", "10", "--kind", "rs", "--out", str(out))
        capsys.readouterr()
        assert run_cli("minimality", "--graph", str(out), "--kind", "rs", "--s", "0") == 1
        assert capsys.readouterr().err == "error: s must lie in [1, 10]\n"

    def test_kind_r_takes_no_s(self, g9, capsys):
        assert run_cli("minimality", "--graph", str(g9), "--kind", "r", "--s", "3") == 1
        assert capsys.readouterr() == ("", "error: kind 'r' takes no s\n")

    def test_infeasible_size(self, tmp_path, capsys):
        # P_17 has no twins: 2^17 lattice cells
        path = tmp_path / "p17.txt"
        path.write_text("17\n" + "".join(f"{i} {i + 1}\n" for i in range(16)))
        assert run_cli("minimality", "--graph", str(path), "--kind", "r") == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["r", "rs"])
    def test_section_vii_graphs_at_n49_are_minimal(self, tmp_path, capsys, kind):
        out = tmp_path / f"{kind}49.json"
        run_cli("construct", "--n", "49", "--kind", kind, "--out", str(out))
        capsys.readouterr()
        assert run_cli("minimality", "--graph", str(out), "--kind", kind, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimal"] is True
        assert len(payload["entries"]) == (900 if kind == "r" else 1176)


class TestSimulate:
    def test_writes_all_outputs(self, g9, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--seed", "1", "--out", str(out), "--json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        csv_text = out.read_text()
        assert csv_text.startswith("t,node_0")
        assert len(csv_text.splitlines()) == 32
        roles = json.loads((tmp_path / "traj.roles.json").read_text())
        assert roles == {"roles": ["byzantine", "byzantine"] + ["normal"] * 7, "F": 2}
        metrics = json.loads((tmp_path / "traj.metrics.json").read_text())
        assert metrics["scenario"] == "viiB-gamma"
        assert metrics["within_hull"] is True

    def test_default_removal_edge(self, g9, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--seed", "1", "--remove-edge", "default", "--out", str(out), "--json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False
        metrics = json.loads((tmp_path / "traj.metrics.json").read_text())
        assert metrics["removed_edge"] == [3, 8]
        assert metrics["spread_final"] > 10

    def test_default_removal_edge_reaches_a_normal_agent(self, tmp_path, capsys):
        graph = tmp_path / "rs10.json"
        assert run_cli("construct", "--n", "10", "--kind", "rs", "--out", str(graph)) == 0
        capsys.readouterr()
        out = tmp_path / "traj.csv"
        code = run_cli(
            "simulate", "--graph", str(graph), "--scenario", "viiB-gammagamma",
            "--seed", "1", "--remove-edge", "default", "--out", str(out),
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "scenario=viiB-gammagamma f=4 steps=30 seed=1",
            "spread(0)=75.7802 spread(30)=35.465",
        ]
        metrics = json.loads((tmp_path / "traj.metrics.json").read_text())
        assert metrics["removed_edge"] == [7, 9]

    def test_no_default_removal_edge(self, g9, tmp_path, capsys):
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "none",
            "--remove-edge", "default", "--out", str(tmp_path / "x.csv"),
        ) == 1
        assert "no documented default removal edge for none at n=9" in capsys.readouterr().err

    def test_absent_edge_rejected(self, g9, tmp_path):
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--remove-edge", "6,7", "--out", str(tmp_path / "x.csv"),
        ) == 1

    # int() reads "0_1" as 1, so "0_1,5" used to remove edge (1, 5)
    @pytest.mark.parametrize("arg", ["abc", "0_1,5", "+0,5", " 0,5", "0,5 ", "\u0660,5", "0,\u00b2",
                                     "0,5,6", "0,", ",5", ""])
    def test_bad_removal_syntax(self, g9, tmp_path, capsys, arg):
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--remove-edge", arg, "--out", str(tmp_path / "x.csv"),
        ) == 1
        assert f"--remove-edge expects 'u,v' or 'default', got {arg!r}" in capsys.readouterr().err
        assert list(tmp_path.glob("x*")) == []

    # past int()'s digit limit (4300 by default) the message names the
    # option, not the interpreter's setting
    @pytest.mark.parametrize("arg", ["0," + "1" * 5000, "1" * 5000 + ",0"], ids=["v", "u"])
    def test_over_long_removal_id(self, g9, tmp_path, capsys, arg):
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--remove-edge", arg, "--out", str(tmp_path / "x.csv"),
        ) == 1
        assert capsys.readouterr().err == "error: --remove-edge id of 5000 digits is too long\n"
        assert list(tmp_path.glob("x*")) == []

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, g9, tmp_path, capsys, tol):
        out = tmp_path / "x.csv"
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            f"--tol={tol}", "--out", str(out),
        ) == 1
        assert "tol must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.glob("x*")) == []

    def test_negative_f_is_named(self, g9, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--f", "-1", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == "error: f must be non-negative\n"
        assert list(tmp_path.glob("x*")) == []

    def test_negative_seed_is_named(self, g9, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--seed", "-1", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert list(tmp_path.glob("x*")) == []

    def test_oversized_trajectory_is_refused(self, g9, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--steps", str(10**11), "--out", str(out),
        ) == 1
        assert "exceed the trajectory limit" in capsys.readouterr().err
        assert list(tmp_path.glob("x*")) == []

    def test_trig_scenario_requires_f(self, g9, tmp_path):
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiA-malicious",
            "--out", str(tmp_path / "x.csv"),
        ) == 1

    def test_large_malicious_run_converges(self, tmp_path, capsys):
        graph_path = tmp_path / "g49.json"
        run_cli("construct", "--n", "49", "--kind", "r", "--out", str(graph_path))
        capsys.readouterr()
        out = tmp_path / "big.csv"
        code = run_cli(
            "simulate", "--graph", str(graph_path), "--scenario", "viiA-malicious",
            "--f", "12", "--seed", "0", "--out", str(out), "--json",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    def test_reproducible_bytes(self, g9, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run_cli(
                "simulate", "--graph", str(g9), "--scenario", "viiB-gammagamma",
                "--seed", "9", "--out", str(out),
            )
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.metrics.json").read_bytes() == (tmp_path / "b.metrics.json").read_bytes()


class TestBatchedWrites:
    """``_write`` takes a str or its pieces and sends each piece in one
    write: the bytes are those of the joined text written at once, whatever
    the file held before.  ``construct`` hands it the pieces of at least
    ``_CHUNK_CHARS`` characters that ``graph_json_pieces`` renders."""

    SIZES = [0, 100, _CHUNK_CHARS - 1, _CHUNK_CHARS, _CHUNK_CHARS + 1, 3 * _CHUNK_CHARS + 17]

    @staticmethod
    def pieces(size):
        # "é" is two bytes in UTF-8, so bytes run ahead of characters
        rng = random.Random(size)
        pieces, left = [], size
        while left:
            k = min(left, rng.choice([1, 7, 300, 5000]))
            pieces.append("".join(rng.choice("ab,[]\né") for _ in range(k)))
            left -= k
        return pieces

    @pytest.fixture()
    def writes(self, monkeypatch):
        """The byte count of every ``os.write`` from here on, in order."""
        counts = []
        real_write = os.write

        def counted(fd, data):
            counts.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counted)
        return counts

    @pytest.mark.parametrize("size", SIZES)
    def test_pieces_write_the_bytes_of_one_write(self, tmp_path, size, writes):
        pieces = self.pieces(size)
        text = "".join(pieces)
        assert _write(tmp_path / "whole", text)
        writes.clear()
        assert _write(tmp_path / "pieces", iter(pieces))
        assert (tmp_path / "pieces").read_bytes() == (tmp_path / "whole").read_bytes() == text.encode()
        # one write a piece, of the piece's bytes
        assert writes == [len(piece.encode()) for piece in pieces]

    @pytest.mark.parametrize("size", SIZES)
    def test_a_longer_file_is_cut_to_length(self, tmp_path, size):
        pieces = self.pieces(size)
        expected = "".join(pieces).encode()
        path = tmp_path / "out"
        path.write_bytes(b"#" * (len(expected) + _CHUNK_CHARS + 5))
        inode = path.stat().st_ino
        assert _write(path, iter(pieces))
        assert path.read_bytes() == expected
        assert path.stat().st_ino == inode

    @pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                        reason="needs a POSIX null device")
    @pytest.mark.parametrize("size", [100, 3 * _CHUNK_CHARS + 17])
    def test_the_null_device_takes_the_pieces(self, size):
        assert _write(os.devnull, iter(self.pieces(size))) is False

    def test_construct_streams_a_large_graph(self, tmp_path, capsys, writes):
        # the n = 800 (gamma,gamma) text is 3.1 MB; rendered in 64 KiB pieces
        # and written a piece at a write, construct peaks at about 0.7 MB (the
        # build, one piece and its bytes), where holding the text cost 6.4 MB
        path = tmp_path / "g800.json"
        tracemalloc.start()
        try:
            assert run_cli("construct", "--n", "800", "--kind", "rs", "--out", str(path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3_000_000
        assert peak < size // 3
        assert f"edges={parse_graph(path.read_bytes()).edge_count}" in capsys.readouterr().out
        # the graph's writes come first, then the recipe's: every one but the
        # graph's last carries 64 KiB or more
        graph_writes = writes[: list(accumulate(writes)).index(size) + 1]
        assert all(w >= 65536 for w in graph_writes[:-1])
        assert len(graph_writes) <= size // 65536 + 1


class TestOutputsInPlace:
    """Every output file is overwritten in place and cut to length: the
    bytes are those of a run into a fresh directory, whatever was there."""

    OUTPUTS = {
        "construct": ("g.json", "g.recipe.json"),
        "simulate": ("t.csv", "t.roles.json", "t.metrics.json"),
    }

    @staticmethod
    def argv(command, g9, directory):
        if command == "construct":
            return ("construct", "--n", "9", "--kind", "r", "--out", str(directory / "g.json"))
        return ("simulate", "--graph", str(g9), "--scenario", "viiB-gamma", "--seed", "1",
                "--out", str(directory / "t.csv"))

    def fresh_bytes(self, command, g9, tmp_path):
        directory = tmp_path / "fresh"
        directory.mkdir()
        assert run_cli(*self.argv(command, g9, directory)) == 0
        return {name: (directory / name).read_bytes() for name in self.OUTPUTS[command]}

    @staticmethod
    def prefill(path, expected):
        path.write_bytes(b"#" * (len(expected) + 1000))

    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_longer_files_are_cut(self, g9, tmp_path, command):
        expected = self.fresh_bytes(command, g9, tmp_path)
        for name in expected:
            self.prefill(tmp_path / name, expected[name])
        inodes = {name: (tmp_path / name).stat().st_ino for name in expected}
        assert run_cli(*self.argv(command, g9, tmp_path)) == 0
        assert {name: (tmp_path / name).read_bytes() for name in expected} == expected
        assert {name: (tmp_path / name).stat().st_ino for name in expected} == inodes

    @pytest.mark.skipif(os.name != "posix", reason="symlinks need POSIX")
    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_symlinks_are_kept_and_their_targets_rewritten(self, g9, tmp_path, command):
        expected = self.fresh_bytes(command, g9, tmp_path)
        targets = tmp_path / "targets"
        targets.mkdir()
        for name in expected:
            self.prefill(targets / name, expected[name])
            (tmp_path / name).symlink_to(targets / name)
        assert run_cli(*self.argv(command, g9, tmp_path)) == 0
        assert all((tmp_path / name).is_symlink() for name in expected)
        assert {name: (targets / name).read_bytes() for name in expected} == expected

    @pytest.mark.skipif(os.name != "posix", reason="file modes need POSIX")
    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_modes_are_kept(self, g9, tmp_path, command):
        expected = self.fresh_bytes(command, g9, tmp_path)
        for name in expected:
            self.prefill(tmp_path / name, expected[name])
            (tmp_path / name).chmod(0o640)
        assert run_cli(*self.argv(command, g9, tmp_path)) == 0
        assert {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in expected} == {0o640}
        assert {name: (tmp_path / name).read_bytes() for name in expected} == expected

    # /dev/null cannot be truncated.  A link to it is treated as the device
    # it names: the trajectory goes through the link, and no sidecars are
    # written beside it.
    @pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                        reason="needs a POSIX null device")
    def test_trajectory_to_the_null_device(self, g9, tmp_path, capsys):
        (tmp_path / "t.csv").symlink_to(os.devnull)
        assert run_cli(*self.argv("simulate", g9, tmp_path)) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "t.csv").is_symlink()
        assert not (tmp_path / "t.roles.json").exists()
        assert not (tmp_path / "t.metrics.json").exists()

    NULL_SIDECARS = {
        "construct": ("recipe_path",),
        "simulate": ("roles_path", "metrics_path"),
    }

    @staticmethod
    def null_sidecar_states(out=os.devnull):
        # a stale file there (from a run before sidecars skipped devices) is
        # left alone; the run must neither create nor touch one
        states = {}
        for suffix in (".recipe.json", ".roles.json", ".metrics.json"):
            try:
                st = os.stat(out + suffix)
            except FileNotFoundError:
                states[suffix] = None
            else:
                states[suffix] = (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        return states

    # --out /dev/null itself gets no sidecars: beside it they would land in /dev
    @pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                        reason="needs a POSIX null device")
    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_the_null_device_gets_no_sidecars(self, g9, tmp_path, capsys, command):
        argv = self.argv(command, g9, tmp_path)[:-1] + (os.devnull,)
        capsys.readouterr()
        before = self.null_sidecar_states()
        assert run_cli(*argv, "--json") == 0
        assert self.null_sidecar_states() == before
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert all(payload[key] is None for key in self.NULL_SIDECARS[command])
        assert payload["graph_path" if command == "construct" else "trajectory_path"] == os.devnull
        assert sorted(os.listdir(tmp_path)) == ["g9.json", "g9.recipe.json"]

    @pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                        reason="needs a POSIX null device")
    def test_construct_to_the_null_device_reports_no_recipe(self, capsys):
        before = self.null_sidecar_states()
        assert run_cli("construct", "--n", "9", "--kind", "r", "--out", os.devnull) == 0
        assert self.null_sidecar_states() == before
        assert capsys.readouterr().out.splitlines()[1:] == [f"graph: {os.devnull}", "recipe: none"]

    # /dev/stdout is a link to the process's fd 1, here a pipe: the output
    # goes down the pipe and no sidecar lands in /dev.  A subprocess, since
    # pytest's own fd 1 may be a regular file.
    @pytest.mark.skipif(not os.path.exists("/dev/stdout") or os.name != "posix",
                        reason="needs /dev/stdout")
    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_standard_output_gets_no_sidecars(self, g9, tmp_path, command):
        expected = self.fresh_bytes(command, g9, tmp_path)[self.OUTPUTS[command][0]]
        argv = self.argv(command, g9, tmp_path)[:-1] + ("/dev/stdout", "--json")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        before = self.null_sidecar_states("/dev/stdout")
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from mergraph.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
        )
        assert self.null_sidecar_states("/dev/stdout") == before
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.startswith(expected)
        payload = json.loads(done.stdout[len(expected):])
        assert all(payload[key] is None for key in self.NULL_SIDECARS[command])

    @staticmethod
    def spawn(argv, shell_redirect="", **kwargs):
        """Run ``python -m mergraph.cli argv`` in a subprocess, through
        ``sh`` with ``shell_redirect`` applied when one is given."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        command = [sys.executable, "-m", "mergraph.cli", *argv]
        if shell_redirect:
            command = ["sh", "-c", f'"$@" {shell_redirect}', "sh", *command]
        return subprocess.run(command, stderr=subprocess.PIPE, env=env, check=False, **kwargs)

    # stdout redirected to a regular file, and --out naming that file
    # through fd 1: the output goes through fd 1, so the report printed
    # after it follows it rather than overwriting its start, and no sidecar
    # is tried beside /proc/self/fd/1.  (/dev/stdout would do the same, but
    # code that missed the stdout case would write sidecars into /dev.)
    @pytest.mark.skipif(not os.path.exists("/proc/self/fd/1"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_standard_output_redirected_to_a_file(self, g9, tmp_path, command, as_json):
        expected = self.fresh_bytes(command, g9, tmp_path)[self.OUTPUTS[command][0]]
        argv = self.argv(command, g9, tmp_path)[:-1] + ("/proc/self/fd/1",)
        argv += ("--json",) * as_json
        stdout_path = tmp_path / "stdout.txt"
        with open(stdout_path, "wb") as stdout:
            done = self.spawn(argv, stdout=stdout)
        assert (done.returncode, done.stderr) == (0, b"")
        written = stdout_path.read_bytes()
        assert written.startswith(expected)
        report = written[len(expected):].decode()
        if as_json:
            payload = json.loads(report)
            assert all(payload[key] is None for key in self.NULL_SIDECARS[command])
        elif command == "construct":
            assert report.splitlines()[1:] == ["graph: /proc/self/fd/1", "recipe: none"]
        else:
            assert report.splitlines()[-1] == "trajectory: /proc/self/fd/1"
        assert sorted(os.listdir(tmp_path)) == ["fresh", "g9.json", "g9.recipe.json", "stdout.txt"]

    # a graph of many batches to /dev/stdout redirected to a regular file:
    # each batch goes through fd 1 after the last, and the report follows
    @pytest.mark.skipif(not os.path.exists("/dev/stdout") or os.name != "posix",
                        reason="needs /dev/stdout")
    def test_a_large_graph_to_standard_output_redirected_to_a_file(self, tmp_path):
        fresh = tmp_path / "g800.json"
        argv = ("construct", "--n", "800", "--kind", "rs", "--out")
        assert run_cli(*argv, str(fresh)) == 0
        expected = fresh.read_bytes()
        assert len(expected) > 40 * _CHUNK_CHARS
        stdout_path = tmp_path / "stdout.txt"
        with open(stdout_path, "wb") as stdout:
            done = self.spawn((*argv, "/dev/stdout"), stdout=stdout)
        assert (done.returncode, done.stderr) == (0, b"")
        written = stdout_path.read_bytes()
        assert written.startswith(expected)
        assert written[len(expected):].decode().splitlines()[1:] == [
            "graph: /dev/stdout", "recipe: none"]

    # with stdout closed, the --out file itself may get fd 1: it is still a
    # regular file that takes its sidecars, and the report goes nowhere
    @pytest.mark.skipif(os.name != "posix", reason="closing fd 1 needs a POSIX shell")
    def test_closed_standard_output(self, g9, tmp_path):
        expected = self.fresh_bytes("simulate", g9, tmp_path)
        done = self.spawn(self.argv("simulate", g9, tmp_path), ">&-")
        assert (done.returncode, done.stderr) == (0, b"")
        assert {name: (tmp_path / name).read_bytes() for name in expected} == expected

    @pytest.mark.parametrize("command", ["construct", "simulate"])
    def test_missing_directory(self, g9, tmp_path, capsys, command):
        missing = tmp_path / "missing"
        argv = self.argv(command, g9, missing)
        assert run_cli(*argv) == 1
        out = missing / self.OUTPUTS[command][0]
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not missing.exists()


class TestParserReuse:
    def test_repeated_calls_match_fresh_parsers(self, g9, tmp_path, capsys):
        traj = str(tmp_path / "t.csv")
        calls = [
            ("robustness", "--graph", str(g9), "--json"),
            ("robustness", "--graph", str(g9), "--r", "5"),
            ("construct", "--n", "9"),  # parse error: missing flags
            ("robustness", "--graph", str(g9), "--rs"),
            ("bounds", "--graph", str(g9), "--json"),
            ("minimality", "--graph", str(g9), "--kind", "r"),
            ("simulate", "--graph", str(g9), "--scenario", "viiB-gamma", "--out", traj, "--json"),
            ("simulate", "--graph", str(g9), "--out", traj),
            ("robustness", "--graph", str(g9), "--rs", "--s", "2", "--json"),
        ]

        def outcome(argv):
            code = run_cli(*argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert build_parser() is build_parser()
        for _ in range(2):
            assert [outcome(argv) for argv in calls] == fresh


def option_actions(name):
    """The options of subcommand ``name``'s parser, its help left out."""
    return [action for action in build_parser().subcommands[name]._actions
            if action.option_strings and action.dest != "help"]


def valid_value(action):
    return action.choices[0] if action.choices else {int: "3", float: "0.5", None: "g.json"}[action.type]


# values that test the plain step's rules: what int() and float() take
# beyond plain ASCII digits, and strings that start with "-"
ODD_VALUES = ["nan", "inf", "-1", "1_0", "+3", " 7", "\u0663", "", "-", "--", "-x", "-1e3",
              "1e-3", "0", "12", "g.json", "0,1", "default"]


@st.composite
def subcommand_argv(draw):
    """A subcommand, then its options in full, each once, in any order,
    most with a valid value; then a few odd tokens anywhere: abbreviations,
    ``--opt=value`` forms, repeats, ``-h``, stray and odd values, each
    choice and near-misses of it."""
    name = draw(st.sampled_from(TestDispatch.SUBCOMMANDS))
    actions = build_parser().subcommands[name]._actions
    strings = [string for action in actions for string in action.option_strings]
    choices = [choice for action in actions if action.choices for choice in action.choices]
    near_misses = [miss for c in choices for miss in (c.upper(), c + " ", c[:-1], c + "x")]
    value = st.sampled_from(ODD_VALUES + choices + near_misses)
    odd = st.one_of(
        st.sampled_from(strings),
        st.sampled_from(strings).map(lambda string: string[:-1]),
        st.builds("{}={}".format, st.sampled_from(strings), value),
        value,
    )
    argv = [name]
    for action in draw(st.permutations(option_actions(name))):
        if draw(st.integers(0, 9)) < (9 if action.required else 4):
            argv.append(action.option_strings[0])
            pick = draw(st.integers(0, 5)) if action.nargs != 0 else 0
            if pick:  # 0: no value, 1: an odd one, else a valid one
                argv.append(draw(value) if pick == 1 else valid_value(action))
    if draw(st.integers(0, 2)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(odd))
    return argv


def parse_outcome(parse):
    """What ``parse()`` gives: the namespace's items in order, NaN made
    equal to itself, or argparse's error or exit with what it printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse()
    except CliError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return [(key, "nan" if value != value else value) for key, value in vars(args).items()]


class TestDispatch:
    SUBCOMMANDS = ("construct", "robustness", "bounds", "minimality", "simulate")
    PARSED = [
        ("construct", "--n", "9", "--kind", "r", "--out", "g.json"),
        ("construct", "--n", "10", "--kind", "rs", "--variant", "3", "--out", "g.json", "--json"),
        ("robustness", "--graph", "g.json"),
        ("robustness", "--graph", "g.json", "--r", "4", "--rs", "--s", "2", "--json"),
        ("robustness", "--graph=g.json", "--r", "4"),
        ("bounds", "--graph", "g.json"),
        ("bounds", "--json", "--graph", "g.json"),
        ("minimality", "--graph", "g.json", "--kind", "r"),
        ("minimality", "--graph", "g.json", "--kind", "rs", "--r", "3", "--s", "4", "--json"),
        ("simulate", "--graph", "g.json", "--out", "t.csv"),
        ("simulate", "--graph", "g.json", "--scenario", "viiB-gamma", "--f", "2", "--steps", "5",
         "--seed", "7", "--remove-edge", "default", "--tol", "1e-3", "--out", "t.csv", "--json"),
        ("simulate", "--gr", "g.json", "--remove-edge=0,1", "--out", "t.csv"),
    ]
    # the full parser's cases, then errors and help of a subcommand's parser
    FALLBACKS = [(), ("nosuch",), ("--help",), ("-h", "bounds"), ("--kind", "x"),
                 ("robustness", "-h"), ("robustness", "--r", "3"), ("bounds", "--graph"),
                 ("bounds", "--graph", "g.json", "extra"), ("robustness", "--graph", "g", "--"),
                 ("construct", "--n", "x", "--kind", "r", "--out", "g.json"),
                 ("simulate", "--graph", "g.json", "--out", "t.csv", "--scenario", "bad")]

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_namespace_is_the_full_parsers(self, argv):
        assert vars(_parse_args(list(argv))) == vars(build_parser().parse_args(list(argv)))

    def test_every_subcommand_is_covered(self):
        assert set(build_parser().subcommands) == set(self.SUBCOMMANDS)
        assert {argv[0] for argv in self.PARSED} == set(self.SUBCOMMANDS)

    # whichever step reads it, the namespace is the one the subcommand's
    # parser gives on its own, abbreviated and --opt=value spellings included
    def test_a_subcommand_is_parsed_by_its_own_parser_alone(self):
        for argv in self.PARSED:
            sub = build_parser().subcommands[argv[0]]
            alone = sub.parse_args(list(argv[1:]), argparse.Namespace(command=argv[0]))
            assert list(vars(_parse_args(list(argv))).items()) == list(vars(alone).items())

    # the plain step builds argparse's namespace, key order included, and
    # what it declines goes to the full parser, which gives what the
    # subcommand's parser gives
    @settings(max_examples=400, deadline=None)
    @given(argv=subcommand_argv())
    @example(argv=["construct", "--n", "3", "--kind", "R", "--out", "g.json"])
    @example(argv=["construct", "--n", "1_0", "--kind", "r", "--out", "g.json"])
    @example(argv=["simulate", "--graph", "g.json", "--seed", "-1", "--out", "t.csv"])
    @example(argv=["simulate", "--graph", "g.json", "--tol", "nan", "--out", "t.csv"])
    @example(argv=["bounds", "--graph", "a.json", "--graph", "b.json"])
    @example(argv=["bounds", "--graph", "g.json", "--json", "--json"])
    @example(argv=["bounds", "--gr", "g.json"])
    @example(argv=["bounds", "--graph=g.json"])
    @example(argv=["bounds", "--graph", "g.json", "-h"])
    @example(argv=["bounds", "--graph"])
    @example(argv=["bounds", "--json"])
    def test_the_plain_step_is_argparse(self, argv):
        parser = build_parser()
        sub = parser.subcommands[argv[0]]
        expected = parse_outcome(lambda: sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
        plain = _plain_namespace(parser.plain[argv[0]], argv)
        event("plain step" if plain is not None else "argparse")
        if plain is not None:
            assert parse_outcome(lambda: plain) == expected
        assert parse_outcome(lambda: _parse_args(list(argv))) == expected

    # the argv shapes the benchmark sends
    BENCH = [
        ("robustness", "--graph", "g.json", "--json"),
        ("robustness", "--graph", "g.json", "--rs", "--json"),
        ("robustness", "--graph", "g.json", "--r", "6", "--json"),
        ("robustness", "--graph", "g.json", "--r", "6", "--s", "6", "--json"),
        ("minimality", "--graph", "g.json", "--kind", "rs", "--json"),
        ("bounds", "--graph", "g.json", "--json"),
        ("simulate", "--graph", "g.json", "--scenario", "viiB-gamma", "--seed", "5", "--f", "2",
         "--remove-edge", "default", "--out", "t.csv", "--json"),
        ("construct", "--n", "200", "--kind", "rs", "--variant", "3", "--out", "g.json", "--json"),
    ]

    # a silent fallback to argparse would change no output, only the cost
    def test_plain_argv_never_reaches_argparse(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("argparse ran")

        parser = build_parser()
        for p in (parser, *parser.subcommands.values()):
            monkeypatch.setattr(p, "parse_args", refused)
            monkeypatch.setattr(p, "parse_known_args", refused)
        every_option = []
        for name in self.SUBCOMMANDS:
            argv = [name]
            for action in option_actions(name):
                argv.append(action.option_strings[0])
                if action.nargs != 0:
                    argv.append(valid_value(action))
            every_option.append(argv)
        plain_parsed = [argv for argv in self.PARSED
                        if not {"--graph=g.json", "--gr", "--remove-edge=0,1"} & set(argv)]
        assert len(plain_parsed) == len(self.PARSED) - 2
        for argv in every_option + plain_parsed + self.BENCH:
            assert _parse_args(list(argv)).command == argv[0]

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", FALLBACKS, ids=lambda argv: " ".join(argv) or "none")
    def test_errors_and_help_are_the_full_parsers(self, argv, capsys, monkeypatch):
        got = self.outcome(argv, capsys)
        monkeypatch.setattr("mergraph.cli._parse_args", lambda argv: build_parser().parse_args(argv))
        assert got == self.outcome(argv, capsys)

    def test_fallback_messages(self, capsys):
        code, out, err = self.outcome((), capsys)
        assert (code, out, err) == (1, "", "error: the following arguments are required: command\n")
        code, out, err = self.outcome(("nosuch",), capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: argument command: invalid choice: 'nosuch' (choose from ")
        code, out, err = self.outcome(("--help",), capsys)
        assert code == 0 and err == "" and out.startswith("usage: mergraph [-h]")
        assert all(name in out.split("positional arguments:")[1] for name in self.SUBCOMMANDS)
        code, out, err = self.outcome(("robustness", "-h"), capsys)
        assert code == 0 and err == "" and out.startswith("usage: mergraph robustness [-h] --graph")
        code, out, err = self.outcome(("--kind", "x"), capsys)
        assert code == 1 and out == "" and err.startswith("error: ")
        code, out, err = self.outcome(("robustness", "--r", "3"), capsys)
        assert (code, out, err) == (1, "", "error: the following arguments are required: --graph\n")

    def test_no_argv_reads_sys_argv(self, g9, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["mergraph", "robustness", "--graph", str(g9), "--json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out) == {"max_r": 5, "n": 9}
