"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np
import pytest

from mergraph import (
    AgentRole,
    SimConfig,
    build_scenario,
    complete_graph,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    edge_lb_any_r,
    edge_lb_gamma_even,
    edge_lb_gamma_gamma,
    edge_lb_gamma_odd,
    gamma_of,
    is_r_robust,
    is_rs_robust,
    lemma4_dense_subgraph_holds,
    max_clique_size,
    max_r_robustness,
    max_s_given_r,
    minimality_sweep,
    necessary_clique_size,
    new_graph,
    prop1_gamma_gamma_check,
    run_simulation,
    trajectory_metrics,
    trajectory_to_csv,
)
from mergraph.wmsr import (
    SCENARIO_BYZ_CONST,
    SCENARIO_BYZ_SPLIT,
    SCENARIO_TRIG_MALICIOUS,
)
from conftest import PerValue, degree, nominal_step, random_graph, wmsr_step

DATA = Path(__file__).parent / "data"

VIIA_SEED = 0
VIIB_SEED = 1
SPREAD_RATIO_LIMIT = 0.05
DIVERGENCE_FLOOR = 10.0


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_edge_count_tightness():
    start = time.perf_counter()
    for n in (3, 5, 7, 9, 11, 13):
        g, _ = construct_gamma_merg(n)
        assert len(g.edges) == edge_lb_gamma_odd(gamma_of(n)), n
    for n in (4, 6, 8, 10, 12, 14):
        g, _ = construct_gamma_merg(n)
        assert len(g.edges) == edge_lb_gamma_even(gamma_of(n)), n
    spots = {9: 30, 10: 33, 49: 900, 50: 913}
    for n, m in spots.items():
        assert len(construct_gamma_merg(n)[0].edges) == m, n
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (edge-count tightness)",
        elapsed < 1.0,
        f"all exact, {elapsed * 1000:.0f} ms",
    )


# checked beside n <= 12: n = 13-16 and the Section VII size 49.  n = 50 has
# 3^12 * 2 * 26 (gamma) and 14.3M ((gamma, gamma)) lattice cells, above the
# exact oracle's budget
EXACT_SIZES = (*range(13, 17), 49)


def test_criterion_2_oracle_confirms_maximum_robustness():
    start = time.perf_counter()
    for n in (*range(3, 13), *EXACT_SIZES):
        g, _ = construct_gamma_merg(n)
        assert max_r_robustness(g) == gamma_of(n), n
        gg, _ = construct_gamma_gamma_merg(n)
        assert max_r_robustness(gg) == gamma_of(n), n
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (max r-robustness, n in [3,16] and 49)",
        True,
        f"all equal ceil(n/2), {elapsed:.2f} s",
    )


def test_criterion_3_gamma_gamma_constructions():
    for n in (*range(2, 13), *EXACT_SIZES):
        g, _ = construct_gamma_gamma_merg(n)
        gamma = gamma_of(n)
        assert is_rs_robust(g, gamma, gamma).holds, n
        assert len(g.edges) == edge_lb_gamma_gamma(n), n
    assert len(construct_gamma_gamma_merg(9)[0].edges) == 36
    assert len(construct_gamma_gamma_merg(10)[0].edges) == 43
    report("criterion 3 ((gamma,gamma) constructions, n in [2,16] and 49)", True)


def test_criterion_4_minimality():
    start = time.perf_counter()
    for n in (*range(5, 28), *range(29, 60, 2)):
        gamma = gamma_of(n)
        g, _ = construct_gamma_merg(n)
        assert minimality_sweep(g, gamma).minimal, ("r", n)
        gg, _ = construct_gamma_gamma_merg(n)
        assert minimality_sweep(gg, gamma, gamma).minimal, ("rs", n)
    gg10, _ = construct_gamma_gamma_merg(10)
    for e in sorted(gg10.edges):
        assert max_s_given_r(gg10.remove_edge(*e), 5) <= 4, e
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (single-edge minimality, n in [5,27] and odd n in [29,59])",
        True,
        f"every removal breaks the target; n=10 rs removals all cap at s=4; {elapsed:.1f} s",
    )


@pytest.fixture(scope="module")
def suite5_graphs():
    """>= 1000 seeded density-stratified random graphs on n in {4,6,8,10},
    plus both constructions (and their single-edge deletions) on small n."""
    rng = random.Random(987654321)
    graphs = []
    densities = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    for n in (4, 6, 8, 10):
        for p in densities:
            for _ in range(25):
                graphs.append(random_graph(rng, n, p))
    for n in (4, 5, 6, 8, 9, 10):
        for builder in (construct_gamma_merg, construct_gamma_gamma_merg):
            g, _ = builder(n)
            graphs.append(g)
            graphs.extend(g.remove_edge(*e) for e in sorted(g.edges))
    return graphs


def test_criterion_5_prop1_equivalence(suite5_graphs):
    disagreements = 0
    for g in suite5_graphs:
        gamma = gamma_of(g.n)
        if prop1_gamma_gamma_check(g) != is_rs_robust(g, gamma, gamma).holds:
            disagreements += 1
    report(
        "criterion 5 (spanning-subgraph iff-check vs oracle)",
        disagreements == 0,
        f"{len(suite5_graphs)} graphs, {disagreements} disagreements",
    )


def test_criterion_6_lemma_property_suites(suite5_graphs):
    certified = 0
    violations = []
    for g in suite5_graphs:
        gamma = gamma_of(g.n)
        if not is_r_robust(g, gamma).holds:
            continue
        certified += 1
        m = len(g.edges)
        if max_clique_size(g) < necessary_clique_size(g.n):
            violations.append(("clique", g))
        if m < edge_lb_any_r(gamma, "odd"):
            violations.append(("edge floor (any parity)", g))
        if g.n % 2 == 0:
            if not lemma4_dense_subgraph_holds(g):
                violations.append(("dense subgraph", g))
            if m < edge_lb_any_r(gamma, "even"):
                violations.append(("edge floor (even)", g))
        if is_rs_robust(g, gamma, gamma).holds:
            if min(degree(g, i) for i in range(g.n)) < 2 * (gamma - 1):
                violations.append(("min degree", g))
            if m < g.n * (gamma - 1):
                violations.append(("(r,r) edge floor", g))
    report(
        "criterion 6 (structural floors on certified graphs)",
        certified > 0 and not violations,
        f"{certified} certified maximally robust graphs, {len(violations)} violations",
    )


def _viia_run(kind: str, n: int, f: int):
    builder = construct_gamma_merg if kind == "r" else construct_gamma_gamma_merg
    g, _ = builder(n)
    config, strategy = build_scenario(
        g, SCENARIO_TRIG_MALICIOUS, f=f, steps=30, seed=VIIA_SEED
    )
    return run_simulation(config, strategy)


def test_criterion_7a_consensus_with_malicious_broadcasts():
    details = []
    for kind, f in (("r", 12), ("rs", 24)):
        for n in (49, 50):
            metrics = trajectory_metrics(_viia_run(kind, n, f))
            assert metrics["within_hull"], (kind, n)
            ratio = metrics["spread"][30] / metrics["spread"][0]
            assert ratio < SPREAD_RATIO_LIMIT, (kind, n, ratio)
            details.append(f"{kind}/n={n}: ratio {ratio:.1e}")
    stored = (DATA / "trig_n49_f12_seed0.csv").read_text()
    assert trajectory_to_csv(_viia_run("r", 49, 12)) == stored
    report(
        "criterion 7a (malicious-broadcast consensus, n=49/50)",
        True,
        "; ".join(details) + "; n=49 trajectory matches pinned regression",
    )


VIIB_CASES = (
    (SCENARIO_BYZ_SPLIT, "r", 9, (3, 8), "byz_split_n9_removed_3_8_seed1.csv"),
    (SCENARIO_BYZ_SPLIT, "r", 10, (4, 9), "byz_split_n10_removed_4_9_seed1.csv"),
    (SCENARIO_BYZ_CONST, "rs", 9, (7, 8), "byz_const_n9_removed_7_8_seed1.csv"),
    (SCENARIO_BYZ_CONST, "rs", 10, (7, 9), "byz_const_n10_removed_7_9_seed1.csv"),
)


def _viib_run(scenario: str, kind: str, n: int, remove=None):
    builder = construct_gamma_merg if kind == "r" else construct_gamma_gamma_merg
    g, _ = builder(n)
    if remove is not None:
        g = g.remove_edge(*remove)
    config, strategy = build_scenario(g, scenario, steps=30, seed=VIIB_SEED)
    return run_simulation(config, strategy)


def test_criterion_7b_intact_runs_converge():
    for scenario, kind in ((SCENARIO_BYZ_SPLIT, "r"), (SCENARIO_BYZ_CONST, "rs")):
        for n in (9, 10):
            metrics = trajectory_metrics(_viib_run(scenario, kind, n))
            assert metrics["within_hull"], (scenario, n)
            ratio = metrics["spread"][30] / metrics["spread"][0]
            assert ratio < SPREAD_RATIO_LIMIT, (scenario, n, ratio)
    report("criterion 7b (intact Byzantine runs converge)", True)


def test_criterion_7b_edge_removals_break_consensus():
    details = []
    for scenario, kind, n, edge, regression in VIIB_CASES:
        traj = _viib_run(scenario, kind, n, remove=edge)
        spread = trajectory_metrics(traj)["spread"][30]
        assert spread > DIVERGENCE_FLOOR, (scenario, n, edge, spread)
        assert trajectory_to_csv(traj) == (DATA / regression).read_text(), regression
        details.append(f"{scenario}/n={n}/-{edge}: spread(30)={spread:.1f}")
    report(
        "criterion 7b (removed-edge runs diverge)",
        True,
        "; ".join(details) + "; trajectories match pinned regressions",
    )


def test_criterion_8_trim_unit_behavior_and_hull_monotonicity():
    assert wmsr_step(5, [1, 4, 9, 10], 1) == 6
    assert wmsr_step(7, [7, 7], 2) == 7
    assert wmsr_step(0, [100, 100], 2) == 0
    assert wmsr_step(4.5, [], 3) == 4.5
    assert wmsr_step(1.0, [2.0, 3.0], 0) == nominal_step(1.0, [2.0, 3.0])

    class StatelessNoise(PerValue):
        def __init__(self, seed: int):
            self.seed = seed

        def _value(self, *key: int) -> float:
            return float(hash((self.seed, *key)) % 4001 - 2000)

        def value(self, agent: int, receiver: int, t: int) -> float:
            return self._value(agent, receiver, t)

    rng = random.Random(424242)
    runs = 0
    while runs < 100:
        n = rng.randint(4, 12)
        g = random_graph(rng, n, 0.3 + 0.6 * rng.random())
        f = rng.randint(0, 3)
        roles = [AgentRole.NORMAL] * n
        for i in rng.sample(range(n), rng.randint(0, f)):
            roles[i] = rng.choice([AgentRole.MALICIOUS, AgentRole.BYZANTINE])
        if all(role is not AgentRole.NORMAL for role in roles):
            continue
        config = SimConfig(
            graph=g,
            roles=tuple(roles),
            f=f,
            steps=10,
            initial_states=tuple(rng.uniform(-100, 100) for _ in range(n)),
        )
        traj = run_simulation(config, StatelessNoise(runs))
        runs += 1
        normal = traj.normal_states()
        tops = normal.max(axis=1)
        bottoms = normal.min(axis=1)
        assert (np.diff(tops) <= 1e-9).all(), runs
        assert (np.diff(bottoms) >= -1e-9).all(), runs
    report(
        "criterion 8 (trim-rule units + hull monotonicity)",
        True,
        "hand examples exact; 100 random seeded runs monotone",
    )
