from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mergraph import (
    construct_gamma_merg,
    graph_from_json,
    graph_to_json,
    is_r_reachable,
    max_r_robustness,
)
from mergraph.cli import build_parser, main
from mergraph.graph_core import FAST_JSON_MIN_CHARS, MAX_MASK_BITS, MAX_NODES


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
        g = graph_from_json(out.read_text())
        assert len(g.edges) == 43
        recipe = json.loads((tmp_path / "g.recipe.json").read_text())
        assert recipe["kind"] == "gamma_gamma"

    def test_usage_error_on_n1(self, tmp_path):
        assert run_cli("construct", "--n", "1", "--kind", "r", "--out", str(tmp_path / "x.json")) == 1

    def test_missing_flag_is_an_error(self):
        assert run_cli("construct", "--n", "9") == 1

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
        g = graph_from_json(g9.read_text()).remove_edge(3, 8)
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
        g = graph_from_json(out.read_text())
        s1, s2 = set(witness["s1"]), set(witness["s2"])
        assert s1 and s2 and not s1 & s2
        assert not is_r_reachable(g, s1, 26) and not is_r_reachable(g, s2, 26)

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

    def test_bad_removal_syntax(self, g9, tmp_path):
        assert run_cli(
            "simulate", "--graph", str(g9), "--scenario", "viiB-gamma",
            "--remove-edge", "abc", "--out", str(tmp_path / "x.csv"),
        ) == 1

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
