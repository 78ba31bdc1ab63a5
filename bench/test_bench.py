"""Tests of the benchmark itself, on tiny inputs.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import checks
import run
import tracing
import workloads
from workloads import Construct, Op, Plan


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload):
    assert workloads.plan(workload, 3) == workloads.plan(workload, 3)
    assert workloads.plan(workload, 3).ops != workloads.plan(workload, 4).ops


def test_consensus_keeps_the_known_defect_op_once():
    ops = workloads.plan("consensus", 5).ops
    defects = [op for op in ops if op.known_defect]
    assert len(defects) == 1
    assert {"viiB-gammagamma", "default"} <= set(defects[0].argv)
    assert defects[0].expect["spread_at_least"] == 10.0


@pytest.fixture
def path_graph(tmp_path):
    """0-1-2-3: not 2-robust; ({0}, {3}) is a witness, ({1}, {3}) is not."""
    path = tmp_path / "path.json"
    path.write_text(workloads.graph_json(4, [(0, 1), (1, 2), (2, 3)]))
    return str(path)


def _witness_op(graph):
    return Op(("robustness", "--graph", graph, "--r", "2", "--json"), "witness",
              {"kind": "r", "r": 2, "s": 2})


def _verdict(s1, s2):
    return json.dumps({"r": 2, "holds": False, "witness": {"s1": s1, "s2": s2}})


def test_checker_accepts_a_true_witness(path_graph):
    assert checks.check(_witness_op(path_graph), 2, _verdict([0], [3]), "") == []


def test_checker_rejects_a_corrupted_witness(path_graph):
    assert checks.check(_witness_op(path_graph), 2, _verdict([1], [3]), "")
    assert checks.check(_witness_op(path_graph), 2, _verdict([0], [0, 3]), "")


def test_checker_rejects_a_wrong_exit_code(path_graph):
    assert checks.check(_witness_op(path_graph), 0, _verdict([0], [3]), "")
    infeasible = Op(("robustness", "--graph", path_graph, "--json"), "infeasible")
    assert checks.check(infeasible, 1, "", "error: exact check infeasible")


def test_checker_rejects_a_wrong_max_r():
    op = Op(("robustness", "--graph", "g.json", "--json"), "max_r", {"n": 16, "max_r": 8})
    assert checks.check(op, 0, json.dumps({"max_r": 8, "n": 16}), "") == []
    assert checks.check(op, 0, json.dumps({"max_r": 7, "n": 16}), "")


def test_failed_checks_count_in_the_measured_failures(path_graph):
    answers = iter([_verdict([0], [3]), _verdict([1], [3])] * 3)

    def main(argv):
        print(next(answers))
        return 2

    plan = Plan("witness", 0, "work", (), (_witness_op(path_graph),) * 2)
    m = run.measure({"cli": SimpleNamespace(main=main)}, plan, 0.0, passes=3)
    assert m.ops == 6
    assert len(m.failures) == 3
    assert run.end_to_end(m, [1.0])["ok_rate"] == pytest.approx(0.5)


def test_output_digest_ignores_the_work_directory(tmp_path):
    digests = []
    for wd in ("one", "two"):
        out = tmp_path / wd / "sim.csv"
        out.parent.mkdir()
        out.write_text("t,node_0\n0,1\n")
        stdout = json.dumps({"trajectory_path": str(out)})
        digests.append(run.output_digest(0, stdout, [str(out)], str(tmp_path / wd)))
    assert digests[0] == digests[1]


def _tiny_plan(tmp_path):
    wd = str(tmp_path / "work")
    graph = f"{wd}/r6.json"
    return Plan("exact", 0, wd, (Construct(graph, 6, "r"),), (
        Op(("robustness", "--graph", graph, "--json"), "max_r", {"n": 6, "max_r": 3}),
        Op(("bounds", "--graph", graph, "--json"), "bounds"),
    ))


@pytest.fixture
def tiny_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(workloads, "plan", lambda *args: _tiny_plan(tmp_path))
    return lambda trace: run.run("exact", 0, 0.05, trace)


def _per_layer_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}, {m["name"] for m in spec["end_to_end"]}


def test_traced_run_restores_every_wrapped_function(tiny_run):
    program = run.load_program()
    before = {(m, a): getattr(program[m], a) for m, a, _, _ in tracing.TARGETS}
    result = tiny_run(True)
    assert {(m, a): getattr(program[m], a) for m, a, _, _ in tracing.TARGETS} == before
    per_layer, _ = _per_layer_names()
    assert set(result["metrics"]) == per_layer
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["oracle.decide.ms"] > 0
    assert result["metrics"]["graph_core.max_clique_size.ms"] > 0


def test_untraced_metrics_never_come_from_a_traced_run(tiny_run, monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    result = tiny_run(False)
    per_layer, end_to_end = _per_layer_names()
    assert set(result["metrics"]) == end_to_end
    assert result["correct"] and result["record"]["passes"] >= run.MIN_PASSES


def test_construction_closed_forms_agree():
    for n in (9, 10, 11, 12):
        for kind in ("r", "rs"):
            degrees = checks.expected_degrees(n, kind)
            assert sum(degrees) == 2 * workloads.edge_count(n, kind)
        edges = workloads.gamma_family_edges(n)
        counted = [sum(1 for e in edges if i in e) for i in range(n)]
        assert sorted(counted) == checks.expected_degrees(n, "r")
