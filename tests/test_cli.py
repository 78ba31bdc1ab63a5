from __future__ import annotations

import json

import pytest

from mergraph import graph_from_json, max_r_robustness
from mergraph.cli import build_parser, main


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
        from mergraph import graph_to_json

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
        out = tmp_path / "g49.json"
        run_cli("construct", "--n", "49", "--kind", "r", "--out", str(out))
        assert run_cli("robustness", "--graph", str(out), "--r", "25") == 3
        assert "infeasible" in capsys.readouterr().err

    def test_unreadable_graph(self, tmp_path):
        assert run_cli("robustness", "--graph", str(tmp_path / "nope.json")) == 1


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

    def test_infeasible_size(self, tmp_path, capsys):
        path = tmp_path / "k17.txt"
        path.write_text("17\n" + "".join(f"{i} {j}\n" for i in range(17) for j in range(i + 1, 17)))
        assert run_cli("minimality", "--graph", str(path), "--kind", "r") == 3
        assert "infeasible" in capsys.readouterr().err


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
