from __future__ import annotations

import json
import math
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mergraph import (
    AgentRole,
    SimConfig,
    Trajectory,
    build_scenario,
    complete_graph,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    is_r_robust,
    is_rs_robust,
    is_f_local,
    is_f_total,
    new_graph,
    run_simulation,
    trajectory_metrics,
    trajectory_to_csv,
    trig_malicious_value,
)
from mergraph import wmsr
from mergraph.cli import main as cli_main
from mergraph.graph_core import mask_bits
from mergraph.wmsr import (
    _CSV_BLOCK_CELLS,
    MAX_TRAJECTORY_CELLS,
    SCENARIO_BYZ_CONST,
    SCENARIO_BYZ_SPLIT,
    SCENARIO_NONE,
    SCENARIO_TABLE,
    SCENARIO_TRIG_MALICIOUS,
    SCENARIOS,
    ConstByAgent,
    SplitByReceiver,
    TrigMalicious,
    get_scenario,
)
from conftest import (
    PerValue,
    nominal_step,
    random_graph,
    reference_run_simulation,
    reference_trajectory_to_csv,
    trajectory_states_from_csv,
    wmsr_retained,
    wmsr_step,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSteps:
    def test_nominal_fixed_point(self):
        assert nominal_step(5, [5, 5, 5]) == 5

    def test_nominal_two_agents(self):
        assert nominal_step(0, [10]) == 5

    def test_nominal_average(self):
        assert nominal_step(3, [0, 6, 9]) == 4.5

    def test_trim_hand_example(self):
        assert wmsr_step(5, [1, 4, 9, 10], 1) == 6

    def test_trim_keeps_equal_values(self):
        assert wmsr_step(7, [7, 7], 2) == 7

    def test_trim_can_remove_everything_above(self):
        assert wmsr_step(0, [100, 100], 2) == 0

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            wmsr_step(0, [1], -1)

    @settings(max_examples=100)
    @given(finite_floats, st.lists(finite_floats, max_size=10))
    def test_f_zero_equals_nominal(self, own, values):
        assert wmsr_step(own, values, 0) == nominal_step(own, values)

    @settings(max_examples=100)
    @given(finite_floats, st.lists(finite_floats, max_size=12), st.integers(0, 5))
    def test_filter_bound_and_range(self, own, values, f):
        kept = wmsr_retained(own, values, f)
        assert len(values) - len(kept) <= 2 * f
        result = wmsr_step(own, values, f)
        lo = min([own] + kept)
        hi = max([own] + kept)
        assert lo - 1e-9 <= result <= hi + 1e-9

    def test_sums_fold_left_without_compensation(self):
        # a compensated sum (Python >= 3.12's sum) gives 1.0 / 4 here
        assert nominal_step(0.0, [1e16, 1.0, -1e16]) == 0.0
        assert wmsr_step(0.0, [1e16, 1.0, -1e16], 0) == 0.0

    def test_retained_is_multiset_of_survivors(self):
        kept = wmsr_retained(5.0, [9.0, 1.0, 9.0, 5.0, 2.0], 1)
        assert sorted(kept) == [2.0, 5.0, 9.0]


class TestAdversaryValues:
    def test_trig_values(self):
        assert trig_malicious_value(0, 0) == 1080.0
        assert trig_malicious_value(1, 0) == 0.0
        assert trig_malicious_value(2, 5) == pytest.approx(1080 * math.cos(1))
        assert trig_malicious_value(3, 5) == pytest.approx(1080 * math.sin(1))

    def test_trig_array_values(self):
        values = TrigMalicious().send(np.array([0, 1, 2, 3]), 0, np.array([0, 0, 5, 5]))
        assert values[:2].tolist() == [1080.0, 0.0]
        assert values[2] == pytest.approx(1080 * math.cos(1))
        assert values[3] == pytest.approx(1080 * math.sin(1))
        steps = np.arange(4)[:, None]
        grid = TrigMalicious().send(np.array([4, 7]), np.array([1, 2]), steps)
        assert grid.tolist() == [[trig_malicious_value(a, t) for a in (4, 7)] for t in range(4)]

    def test_split_values(self):
        split = SplitByReceiver(9)
        assert split.send(0, 2, 0) == 100.0
        assert split.send(1, 8, 3) == 0.0
        assert split.send(0, 5, 0) == 100.0
        assert split.send(0, 6, 0) == 0.0
        values = split.send(np.array([0, 1, 0, 0]), np.array([2, 8, 5, 6]), 3)
        assert values.tolist() == [100.0, 0.0, 100.0, 0.0]

    def test_const_values(self):
        const = ConstByAgent()
        assert const.send(3, 7, 2) == 100.0
        assert const.send(1, 7, 2) == 0.0
        values = const.send(np.array([3, 1, 0, 3]), np.array([7, 7, 5, 4]), 2)
        assert values.tolist() == [100.0, 0.0, 0.0, 100.0]

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario 'other'"):
            get_scenario("other")
        with pytest.raises(ValueError, match="unknown scenario 'other'"):
            build_scenario(complete_graph(9), "other")


class TestScopeModels:
    def test_f_local(self):
        k5 = complete_graph(5)
        assert not is_f_local(k5, {0, 1}, 1)
        assert is_f_local(k5, set(), 0)
        star = new_graph(5, [(0, i) for i in range(1, 5)])
        assert is_f_local(star, {0}, 1)

    def test_f_total(self):
        roles = (AgentRole.MALICIOUS, AgentRole.NORMAL, AgentRole.BYZANTINE)
        assert is_f_total(roles, 2)
        assert not is_f_total(roles, 1)


class TestInitialStates:
    def test_trig_scenario_interval(self):
        states = get_scenario(SCENARIO_TRIG_MALICIOUS).initial_states(49, seed=0)
        assert states.shape == (49,)
        assert ((states >= -1000) & (states <= 1000)).all()

    def test_split_scenario_bands(self):
        for n in (9, 10):
            states = get_scenario(SCENARIO_BYZ_SPLIT).initial_states(n, seed=3)
            assert states[0] == states[1] == 0.0  # cosmetic adversary slots
            assert all(15 <= states[i] <= 100 for i in range(2, 6))
            assert all(0 <= states[i] <= 7 for i in range(6, n - 1))
            assert 8 <= states[n - 1] <= 14

    def test_const_scenario_bands(self):
        states = get_scenario(SCENARIO_BYZ_CONST).initial_states(10, seed=3)
        assert all(states[i] == 0.0 for i in range(4))
        assert all(50 <= states[i] <= 100 for i in range(4, 9))
        assert 1 <= states[9] <= 50

    def test_reproducible(self):
        a = get_scenario(SCENARIO_BYZ_SPLIT).initial_states(10, seed=12)
        b = get_scenario(SCENARIO_BYZ_SPLIT).initial_states(10, seed=12)
        assert (a == b).all()

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            get_scenario("mystery").initial_states(10, seed=0)


def make_config(g, roles, f, steps, initial):
    return SimConfig(
        graph=g,
        roles=tuple(roles),
        f=f,
        steps=steps,
        initial_states=tuple(float(v) for v in initial),
    )


class TestRunSimulation:
    def test_consensus_fixed_point_without_adversaries(self):
        g = complete_graph(5)
        config = make_config(g, [AgentRole.NORMAL] * 5, 1, 10, [3.25] * 5)
        traj = run_simulation(config)
        assert (traj.states == 3.25).all()

    @pytest.mark.parametrize("role", [AgentRole.MALICIOUS, AgentRole.BYZANTINE])
    def test_role_strategy_mismatch(self, role):
        g = complete_graph(4)
        config = make_config(g, [role] + [AgentRole.NORMAL] * 3, 1, 5, [0.0] * 4)
        message = "^adversarial roles present but strategy has no send$"
        for strategy in (None, object()):
            for simulate in (run_simulation, reference_run_simulation):
                with pytest.raises(ValueError, match=message):
                    simulate(config, strategy)

    def test_byzantine_logged_value_goes_to_lowest_neighbor(self):
        # 0 is byzantine with neighbors {1, 3}; the trajectory logs what it
        # sends to node 1
        g = new_graph(4, [(0, 1), (0, 3), (1, 2), (2, 3), (1, 3)])
        roles = [AgentRole.BYZANTINE] + [AgentRole.NORMAL] * 3

        class Probe(PerValue):
            def value(self, agent, receiver, t):
                return 1000.0 + receiver

        config = make_config(g, roles, 1, 3, [0.0, 1.0, 2.0, 3.0])
        traj = run_simulation(config, Probe())
        assert (traj.states[:, 0] == 1001.0).all()

    def test_malicious_agent_broadcasts_what_it_sends_its_lowest_neighbor(self):
        # 0 is malicious with neighbors {2, 3}: every receiver gets 1002.0,
        # and the NaN it would send node 3 is never asked for in a round
        g = new_graph(4, [(0, 2), (0, 3), (1, 2), (2, 3), (1, 3)])
        roles = [AgentRole.MALICIOUS] + [AgentRole.NORMAL] * 3

        class Probe(PerValue):
            def value(self, agent, receiver, t):
                return math.nan if receiver == 3 else 1000.0 + receiver

        config = make_config(g, roles, 0, 3, [0.0, 1.0, 2.0, 3.0])
        traj = run_simulation(config, Probe())
        assert (traj.states[:, 0] == 1002.0).all()
        assert traj.states[1, 3] == (3.0 + 1002.0 + 1.0 + 2.0) / 4
        assert trajectory_to_csv(traj) == trajectory_to_csv(reference_run_simulation(config, Probe()))

    def test_malicious_broadcast_logged(self):
        g = complete_graph(3)
        roles = [AgentRole.MALICIOUS, AgentRole.NORMAL, AgentRole.NORMAL]
        config = make_config(g, roles, 1, 4, [0.0, 2.0, 4.0])
        traj = run_simulation(config, TrigMalicious())
        expected = [trig_malicious_value(0, t) for t in range(5)]
        assert traj.states[:, 0].tolist() == expected

    def test_determinism_bit_exact(self):
        g, _ = construct_gamma_merg(10)
        config, strategy = build_scenario(g, SCENARIO_BYZ_SPLIT, steps=25, seed=7)
        a = run_simulation(config, strategy)
        b = run_simulation(config, strategy)
        assert (a.states == b.states).all()

    def test_config_validation(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            make_config(g, [AgentRole.NORMAL] * 2, 0, 5, [0.0] * 3)
        with pytest.raises(ValueError):
            make_config(g, [AgentRole.NORMAL] * 3, -1, 5, [0.0] * 3)
        with pytest.raises(ValueError):
            make_config(g, [AgentRole.NORMAL] * 3, 0, 0, [0.0] * 3)
        with pytest.raises(ValueError, match="^initial_states must cover every node$"):
            make_config(g, [AgentRole.NORMAL] * 3, 0, 5, [0.0] * 2)

    def test_trajectory_cell_limit(self):
        g = complete_graph(4)
        steps = MAX_TRAJECTORY_CELLS // 4 - 1
        make_config(g, [AgentRole.NORMAL] * 4, 0, steps, [0.0] * 4)
        with pytest.raises(ValueError, match="exceed the trajectory limit"):
            make_config(g, [AgentRole.NORMAL] * 4, 0, steps + 1, [0.0] * 4)

    def test_oversized_run_is_refused_before_allocating(self):
        g, _ = construct_gamma_merg(9)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceed the trajectory limit"):
                build_scenario(g, SCENARIO_BYZ_SPLIT, steps=10**11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_initial_state_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_config(complete_graph(3), [AgentRole.NORMAL] * 3, 0, 5, [0.0, bad, 1.0])


class RandomAdversary(PerValue):
    """Deterministic stateless noise per (agent, receiver, t)."""

    def __init__(self, seed: int):
        self.seed = seed

    def _noise(self, *key: int) -> float:
        h = hash((self.seed, *key)) % 10_000
        return (h - 5_000.0)

    def value(self, agent: int, receiver: int, t: int) -> float:
        return self._noise(agent, receiver, t)


class TestSafetyProperties:
    def test_hull_safety_and_monotonicity_random_runs(self):
        rng = random.Random(2026)
        runs = 0
        while runs < 60:
            n = rng.randint(4, 12)
            g = random_graph(rng, n, 0.4 + 0.5 * rng.random())
            f = rng.randint(0, 3)
            adv_count = rng.randint(0, f)
            roles = [AgentRole.NORMAL] * n
            for i in rng.sample(range(n), adv_count):
                roles[i] = rng.choice([AgentRole.MALICIOUS, AgentRole.BYZANTINE])
            if all(role is not AgentRole.NORMAL for role in roles):
                continue
            config = make_config(g, roles, f, 12, [rng.uniform(-50, 50) for _ in range(n)])
            traj = run_simulation(config, RandomAdversary(runs))
            runs += 1
            m0, big_m = trajectory_metrics(traj)["hull"]
            normal = traj.normal_states()
            assert (normal >= m0 - 1e-9).all() and (normal <= big_m + 1e-9).all()
            spreads_max = normal.max(axis=1)
            spreads_min = normal.min(axis=1)
            assert (np.diff(spreads_max) <= 1e-9).all()
            assert (np.diff(spreads_min) >= -1e-9).all()


class TestScenarioAssembly:
    def test_default_f_values(self):
        g, _ = construct_gamma_merg(9)
        config, strategy = build_scenario(g, SCENARIO_BYZ_SPLIT, seed=0)
        assert config.f == 2
        assert config.roles[:2] == (AgentRole.BYZANTINE, AgentRole.BYZANTINE)
        assert isinstance(strategy, SplitByReceiver)
        assert is_f_total(config.roles, config.f)

    def test_trig_needs_explicit_f(self):
        g, _ = construct_gamma_merg(9)
        with pytest.raises(ValueError):
            build_scenario(g, SCENARIO_TRIG_MALICIOUS, seed=0)

    def test_f_total_enforced(self):
        g, _ = construct_gamma_merg(10)
        with pytest.raises(ValueError):
            build_scenario(g, SCENARIO_BYZ_CONST, f=3, seed=0)

    @pytest.mark.parametrize(
        "scenario, n, message",
        [
            (SCENARIO_BYZ_SPLIT, 1, "scenario 'viiB-gamma' needs n >= 8"),
            (SCENARIO_BYZ_SPLIT, 7, "scenario 'viiB-gamma' needs n >= 8"),
            (SCENARIO_BYZ_CONST, 3, "scenario 'viiB-gammagamma' needs n >= 6"),
            (SCENARIO_BYZ_CONST, 5, "scenario 'viiB-gammagamma' needs n >= 6"),
        ],
    )
    def test_too_few_nodes(self, scenario, n, message):
        # fewer nodes than the scenario's adversaries is a ValueError too
        with pytest.raises(ValueError, match=message):
            build_scenario(complete_graph(n), scenario)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_negative_f_is_named_first(self, scenario):
        with pytest.raises(ValueError, match="^f must be non-negative$"):
            build_scenario(complete_graph(9), scenario, f=-1)

    def test_trig_needs_f_below_n(self):
        for f in (0, 9):
            with pytest.raises(ValueError, match="scenario 'viiA-malicious' needs 1 <= f < n"):
                build_scenario(complete_graph(9), SCENARIO_TRIG_MALICIOUS, f=f)

    def test_none_scenario_runs_plain_consensus(self):
        g = complete_graph(6)
        config, strategy = build_scenario(g, SCENARIO_NONE, steps=40, seed=5)
        spread = trajectory_metrics(run_simulation(config, strategy))["spread"]
        assert spread[40] < 1e-6 * spread[0]


class TestTrajectoryOutputs:
    def test_normal_states_needs_a_normal_agent(self):
        traj = Trajectory(states=np.zeros((2, 2)), roles=(AgentRole.BYZANTINE,) * 2, f=2)
        with pytest.raises(ValueError, match="^trajectory has no normal agents$"):
            traj.normal_states()

    def test_csv_round_trip_is_lossless(self):
        g, _ = construct_gamma_merg(9)
        config, strategy = build_scenario(g, SCENARIO_BYZ_SPLIT, steps=15, seed=2)
        traj = run_simulation(config, strategy)
        text = trajectory_to_csv(traj)
        assert text.splitlines()[0] == "t," + ",".join(f"node_{i}" for i in range(9))
        back = trajectory_states_from_csv(text)
        assert (back == traj.states).all()

    def test_csv_renders_special_values_like_format(self):
        special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
                   2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                   0.1, -1 / 3, 1e16, 123456789.0]
        bits = np.random.default_rng(3).integers(-(1 << 63), 1 << 63, size=2000, dtype=np.int64)
        row = np.concatenate((special, bits.view(np.float64)))
        traj = Trajectory(states=row[None, :], roles=(AgentRole.NORMAL,) * row.size, f=0)
        cells = trajectory_to_csv(traj).splitlines()[1].split(",")
        assert cells == ["0"] + [format(v, ".17g") for v in row.tolist()]

    # bit patterns the renderer's keys must keep apart: +-0.0, NaNs of both
    # signs with distinct payloads (one signalling), +-inf, +-5e-324
    CSV_SPECIAL_BITS = [0, 1 << 63, 0x7FF8 << 48, 0xFFF8 << 48, (0x7FF8 << 48) | 1,
                        (0xFFF0 << 48) | 1, 0x7FF << 52, 0xFFF << 52, 1, (1 << 63) | 1]

    # no shrinking: an example is tens of thousands of cells, so shrinking a
    # failure takes minutes, and the drawn arguments already name the case
    @settings(max_examples=60, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        table=st.lists(
            st.one_of(
                st.sampled_from(CSV_SPECIAL_BITS),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
                st.floats().map(lambda v: struct.unpack("<Q", struct.pack("<d", v))[0]),
            ),
            min_size=1, max_size=12,
        ),
        n=st.sampled_from([1, 2, 7, 130, _CSV_BLOCK_CELLS + 1]),
        block_rows=st.sampled_from([0, 1, 2]),
        extra_rows=st.sampled_from([-1, 0, 1]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_csv_matches_the_per_row_reference(self, table, n, block_rows, extra_rows, seed):
        # row counts around whole blocks, so the last block is cut short,
        # exact or holds a single row; n = 1 and n above a block included
        per_block = max(1, _CSV_BLOCK_CELLS // n)
        steps = max(1, block_rows * per_block + extra_rows)
        cells = np.random.default_rng(seed).integers(0, len(table), size=(steps, n))
        states = np.array(table, dtype=np.uint64)[cells].view(np.float64)
        traj = Trajectory(states=states, roles=(AgentRole.NORMAL,) * n, f=0)
        assert trajectory_to_csv(traj) == reference_trajectory_to_csv(traj)

    def test_csv_of_distinct_values_peaks_near_the_reference(self):
        states = np.random.default_rng(5).standard_normal((257, 1024))
        traj = Trajectory(states=states, roles=(AgentRole.NORMAL,) * 1024, f=0)

        def peak(render):
            tracemalloc.start()
            try:
                text = render(traj)
                return text, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        text, got = peak(trajectory_to_csv)
        expected, reference = peak(reference_trajectory_to_csv)
        assert text == expected
        assert got <= 1.1 * reference

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        config = make_config(complete_graph(3), [AgentRole.NORMAL] * 3, 0, 2, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            trajectory_metrics(run_simulation(config), tol=tol)

    # NaN rows are wanted here, so numpy's all-NaN warnings are too
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_metrics_match_the_per_figure_methods(self):
        # each figure computed on its own, row by row off the normal states
        rng = np.random.default_rng(11)
        special = np.array([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1.0, -1.0])
        for case in range(200):
            n = int(rng.integers(1, 7))
            roles = tuple(AgentRole.NORMAL if rng.random() < 0.7 else AgentRole.MALICIOUS
                          for _ in range(n))
            if AgentRole.NORMAL not in roles:
                continue
            states = rng.uniform(-3, 3, size=(int(rng.integers(2, 6)), n))
            cells = rng.random(states.shape) < 0.3
            states[cells] = rng.choice(special, size=int(cells.sum()))
            states[0] = np.where(np.isfinite(states[0]), states[0], 0.5)
            traj = Trajectory(states=states, roles=roles, f=1)
            normal = traj.normal_states()
            m0, big_m0 = float(normal[0].min()), float(normal[0].max())
            expected = {
                "hull": [m0, big_m0],
                "spread": [float(row.max() - row.min()) for row in normal],
                "within_hull": bool((normal >= m0).all() and (normal <= big_m0).all()),
            }
            metrics = trajectory_metrics(traj)
            # compared as JSON text: a NaN spread equals itself there
            assert json.dumps(metrics) == json.dumps({**metrics, **expected}), case

    def test_metrics_shape(self):
        g, _ = construct_gamma_merg(9)
        config, strategy = build_scenario(g, SCENARIO_BYZ_SPLIT, steps=10, seed=2)
        traj = run_simulation(config, strategy)
        metrics = trajectory_metrics(traj, tol=1e-6)
        assert len(metrics["spread"]) == 11
        assert metrics["hull"][0] <= metrics["hull"][1]
        assert metrics["within_hull"] is True
        assert metrics["f"] == 2


class TieAdversary(PerValue):
    """Deterministic values per key: small integers and signed zeros, so the
    trim meets ties at its thresholds, or else sevenths in [-143, 143].  With
    ``infinite``, about one value in eleven is +inf or -inf instead."""

    def __init__(self, seed: int, integers: bool, infinite: bool = False):
        self.seed = seed
        self.integers = integers
        self.infinite = infinite

    def _value(self, *key: int) -> float:
        h = hash((self.seed, *key)) % 2003
        if self.infinite and h % 11 == 0:
            return math.inf if h % 2 else -math.inf
        if not self.integers:
            return (h - 1000) / 7.0
        if h % 5 == 0:
            return -0.0 if h % 2 else 0.0
        return float(h % 7 - 3)

    def value(self, agent: int, receiver: int, t: int) -> float:
        return self._value(agent, receiver, t)


def _random_run(rng: random.Random, case: int, max_n: int = 14, infinite: bool = False):
    n = rng.randint(1, max_n)
    g = random_graph(rng, n, rng.random())
    roles = [AgentRole.NORMAL] * n
    for i in rng.sample(range(n), rng.randint(0, n)):
        roles[i] = rng.choice([AgentRole.MALICIOUS, AgentRole.BYZANTINE])
    integers = rng.random() < 0.5
    if integers:
        initial = [float(rng.randint(-3, 3)) for _ in range(n)]
        initial = [-0.0 if v == 0 and rng.random() < 0.5 else v for v in initial]
    else:
        initial = [rng.uniform(-5.0, 5.0) for _ in range(n)]
    config = SimConfig(
        graph=g,
        roles=tuple(roles),
        f=rng.randint(0, 6),
        steps=rng.randint(1, 8),
        initial_states=tuple(initial),
    )
    return config, TieAdversary(case, integers, infinite)


def _received(config, adversary, states: np.ndarray, t: int, i: int) -> list[float]:
    """What normal agent ``i`` receives at step ``t``, in ascending neighbor order."""
    g = config.graph
    out = []
    for j in sorted(g.neighbors(i)):
        role = config.roles[j]
        if role is AgentRole.NORMAL:
            out.append(float(states[t, j]))
        else:
            # a malicious agent broadcasts what it sends its lowest neighbor
            receiver = i if role is AgentRole.BYZANTINE else min(g.neighbors(j))
            out.append(adversary.value(j, receiver, t))
    return out


def _cut_splits_a_run(own: float, values: list[float], f: int) -> bool:
    """True iff the f-th value beyond own on either side has an equal copy
    beyond the cut, so the trim must choose which copies to drop."""
    below = sorted(v for v in values if v < own)
    above = sorted((v for v in values if v > own), reverse=True)
    return f >= 1 and any(len(side) > f and side[f - 1] == side[f] for side in (below, above))


def _outcome(simulate, config, adversary):
    try:
        return trajectory_to_csv(simulate(config, adversary))
    except ValueError as exc:
        return f"ValueError: {exc}"


# signed zeros, the least subnormal, the least normal and infinities, among
# ordinary values; a run draws a few of them, so its values repeat
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                  1.0, -1.0, 2.5)
any_value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False, width=64))


class TableAdversary(PerValue):
    """Each (agent, receiver, t) picks a value of ``table``."""

    def __init__(self, table: tuple[float, ...], seed: int):
        self.table = table
        self.seed = seed

    def value(self, agent: int, receiver: int, t: int) -> float:
        return self.table[hash((self.seed, agent, receiver, t)) % len(self.table)]


@st.composite
def hypothesis_runs(draw):
    n = draw(st.integers(1, 64))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, draw(st.floats(0, 1)))
    roles = draw(st.lists(st.sampled_from(list(AgentRole)), min_size=n, max_size=n))
    table = tuple(draw(st.lists(any_value, min_size=1, max_size=5)))
    finite = [v for v in table if math.isfinite(v)] or [0.0]
    initial = draw(st.lists(st.sampled_from(finite), min_size=n, max_size=n))
    config = SimConfig(
        graph=g,
        roles=tuple(roles),
        f=draw(st.integers(0, n - 1)),
        steps=draw(st.integers(1, 3)),
        initial_states=tuple(initial),
    )
    return config, TableAdversary(table, draw(st.integers(0, 2**16)))


def _scalar_gather_index(g, rows) -> list[list[int]]:
    """Each row node's neighbors ascending, padded with the node itself to
    the widest degree, then the node once more: one column per row node."""
    width = max((g.degree(r) for r in rows), default=0)
    columns = [sorted(g.neighbors(r)) for r in rows]
    columns = [c + [r] * (width + 1 - len(c)) for r, c in zip(rows, columns)]
    return [list(row) for row in zip(*columns)] if rows else [[]]


class TestGatherIndex:
    def _check(self, g, rows):
        adj = mask_bits(g.adjacency, g.n).view(bool)
        index = wmsr._gather_index(adj, np.array(rows, dtype=np.intp))
        assert index.dtype == np.intp and index.flags.c_contiguous
        assert index.tolist() == _scalar_gather_index(g, rows)

    @pytest.mark.parametrize("n", [2, 3, 9, 10, 49, 50, 200])
    @pytest.mark.parametrize("builder", [construct_gamma_merg, construct_gamma_gamma_merg])
    def test_families_match_the_scalar_index(self, builder, n):
        g, _ = builder(n)
        self._check(g, list(range(n)))
        self._check(g, list(range(n // 3, n)))

    def test_random_graphs_match_the_scalar_index(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1, 40)
            g = random_graph(rng, n, rng.random())
            rows = sorted(rng.sample(range(n), rng.randint(0, n)))
            if len(rows) == 1:
                # a lone normal agent's column is gathered twice
                rows = rows * 2
            self._check(g, rows)


class TestArrayRoundMatchesReference:
    """The array round writes the bytes of the scalar per-agent loop."""

    @settings(max_examples=200, deadline=None)
    @given(hypothesis_runs())
    def test_hypothesis_runs_match_the_reference(self, run):
        config, adversary = run
        expected = _outcome(reference_run_simulation, config, adversary)
        assert _outcome(run_simulation, config, adversary) == expected

    def test_random_graphs_and_role_mixes(self):
        rng = random.Random(41)
        seen = {"ties": 0, "isolated": 0, "f_ge_degree": 0}
        for case in range(600):
            config, adversary = _random_run(rng, case)
            expected = _outcome(reference_run_simulation, config, adversary)
            assert _outcome(run_simulation, config, adversary) == expected, case
            g = config.graph
            degrees = [g.degree(i) for i in range(g.n)]
            seen["ties"] += adversary.integers
            seen["isolated"] += 0 in degrees
            seen["f_ge_degree"] += config.f >= max(degrees)
        assert min(seen.values()) >= 20, seen

    def test_infinite_values_and_long_columns(self):
        # up to 39 values per column, longer than numpy's 8-wide pairwise
        # block; a kept +inf meeting a kept -inf is an error naming the agent
        rng = random.Random(43)
        seen = {"infinite": 0, "nan": 0, "long": 0, "split": 0}
        for case in range(300):
            config, adversary = _random_run(rng, case, max_n=40, infinite=True)
            expected = _outcome(reference_run_simulation, config, adversary)
            assert _outcome(run_simulation, config, adversary) == expected, case
            if expected.startswith("ValueError"):
                assert re.fullmatch(r"ValueError: agent \d+ summed \+inf and -inf at step \d+",
                                    expected), case
                seen["nan"] += 1
                continue
            states = trajectory_states_from_csv(expected)
            g = config.graph
            normal = [i for i, role in enumerate(config.roles) if role is AgentRole.NORMAL]
            received = [
                (float(states[t, i]), _received(config, adversary, states, t, i))
                for t in range(config.steps)
                for i in normal
            ]
            seen["infinite"] += any(math.isinf(v) for _, values in received for v in values)
            seen["long"] += max((g.degree(i) for i in normal), default=0) > 8
            seen["split"] += any(_cut_splits_a_run(own, values, config.f) for own, values in received)
        assert min(seen.values()) >= 20, seen

    def test_tie_ranks_above_255(self):
        # agent 257 sees 257 copies of 1.0 below its 5.0 and drops the first
        # two: ranks up to 257 must not wrap around a byte
        n = 258
        config = make_config(complete_graph(n), [AgentRole.NORMAL] * n, 2, 2, [1.0] * (n - 1) + [5.0])
        expected = trajectory_to_csv(reference_run_simulation(config))
        assert trajectory_to_csv(run_simulation(config)) == expected

    @pytest.mark.parametrize("n", [255, 256])
    def test_tie_ranks_past_one_byte(self, n):
        # 256 rows count their ties in two bytes; small integers make ties
        rng = random.Random(n)
        roles = [AgentRole.BYZANTINE] * 30 + [AgentRole.MALICIOUS] * 30 + [AgentRole.NORMAL] * (n - 60)
        initial = [float(rng.randint(-3, 3)) for _ in range(n)]
        config = make_config(complete_graph(n), roles, 100, 2, initial)
        adversary = TieAdversary(n, integers=True)
        traj = reference_run_simulation(config, adversary)
        received = _received(config, adversary, traj.states, 0, n - 1)
        assert _cut_splits_a_run(traj.states[0, n - 1], received, config.f)
        assert trajectory_to_csv(run_simulation(config, adversary)) == trajectory_to_csv(traj)

    @pytest.mark.parametrize("receivers", [1, 6])
    def test_columns_fold_left(self, receivers):
        # left to right from 0.0 these sum to 8.0; numpy's pairwise sum of a
        # lone column gives 5.0 and a compensated sum 7.0
        values = (1.0, 1.0, 1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0)
        k = len(values)
        edges = [(j, k + i) for j in range(k) for i in range(receivers)]
        roles = [AgentRole.MALICIOUS] * k + [AgentRole.NORMAL] * receivers
        config = make_config(new_graph(k + receivers, edges), roles, 0, 3, [0.0] * (k + receivers))
        adversary = FoldAdversary(values)
        traj = run_simulation(config, adversary)
        assert (traj.states[1, k:] == 8.0 * (1.0 / (k + 1))).all()
        expected = trajectory_to_csv(reference_run_simulation(config, adversary))
        assert trajectory_to_csv(traj) == expected

    def test_all_negative_zero_states(self):
        # Python's sum starts from 0, so a total of -0.0 values is +0.0
        config = make_config(complete_graph(4), [AgentRole.NORMAL] * 4, 1, 2, [-0.0] * 4)
        text = trajectory_to_csv(run_simulation(config))
        assert text == trajectory_to_csv(reference_run_simulation(config))
        assert text.splitlines()[1:3] == ["0,-0,-0,-0,-0", "1,0,0,0,0"]

    def test_lone_column_of_negative_zeros(self):
        # one normal agent: its column is folded apart from the others'
        roles = [AgentRole.MALICIOUS] * 3 + [AgentRole.NORMAL]
        config = make_config(complete_graph(4), roles, 1, 2, [-0.0] * 4)
        adversary = ConstantAdversary(-0.0)
        text = trajectory_to_csv(run_simulation(config, adversary))
        assert text == trajectory_to_csv(reference_run_simulation(config, adversary))
        assert text.splitlines()[2] == "1,-0,-0,-0,0"

    @pytest.mark.parametrize("n", [9, 10, 49, 50])
    @pytest.mark.parametrize("kind", ["r", "rs"])
    def test_packaged_scenarios(self, kind, n):
        builder = construct_gamma_merg if kind == "r" else construct_gamma_gamma_merg
        intact, _ = builder(n)
        gamma = (n + 1) // 2
        for scenario in SCENARIOS:
            graphs = [intact]
            removal = SCENARIO_TABLE[scenario].removals.get(n)
            if removal is not None and intact.has_edge(*removal):
                graphs.append(intact.remove_edge(*removal))
            f = None
            if scenario == SCENARIO_TRIG_MALICIOUS:
                f = (gamma - 1) // 2 if kind == "r" else gamma - 1
            for g in graphs:
                config, strategy = build_scenario(g, scenario, f=f, steps=30, seed=1)
                expected = trajectory_to_csv(reference_run_simulation(config, strategy))
                assert trajectory_to_csv(run_simulation(config, strategy)) == expected


class FoldAdversary(PerValue):
    """Malicious agent j always broadcasts ``values[j]``."""

    def __init__(self, values: tuple[float, ...]):
        self.values = values

    def value(self, agent: int, receiver: int, t: int) -> float:
        return self.values[agent]


class ConstantAdversary(PerValue):
    def __init__(self, constant: float):
        self.constant = constant

    def value(self, agent: int, receiver: int, t: int) -> float:
        return self.constant


class PoisonedAdversary(PerValue):
    """Sends 1.0, or NaN for the listed ``(agent, receiver, t)``."""

    def __init__(self, poison):
        self.poison = poison

    def value(self, agent: int, receiver: int, t: int) -> float:
        return math.nan if (agent, receiver, t) in self.poison else 1.0


class CountingAdversary(TieAdversary):
    """A TieAdversary that counts the calls of ``send``."""

    def __init__(self, seed: int, integers: bool):
        super().__init__(seed, integers)
        self.calls = 0

    def send(self, agents, receivers, t):
        self.calls += 1
        return super().send(agents, receivers, t)


class TestStrategyCalls:
    def test_send_is_called_at_most_steps_plus_one_times(self):
        rng = random.Random(47)
        seen = 0
        for case in range(200):
            config, _ = _random_run(rng, case)
            adversary = CountingAdversary(case, integers=True)
            expected = trajectory_to_csv(reference_run_simulation(config, adversary))
            adversary.calls = 0
            assert trajectory_to_csv(run_simulation(config, adversary)) == expected, case
            assert adversary.calls <= config.steps + 1, (case, adversary.calls)
            seen += adversary.calls == config.steps + 1
        assert seen >= 20

    def test_strategies_are_not_called_for_absent_roles(self):
        adversary = CountingAdversary(0, integers=True)
        config = make_config(complete_graph(4), [AgentRole.NORMAL] * 4, 1, 6, [0.0, 1.0, 2.0, 3.0])
        run_simulation(config, adversary)
        assert adversary.calls == 0


class TestNonFiniteAdversaryValues:
    """On the 5-robust n=9 construction with F=2 adversaries."""

    def _config(self, role):
        g, _ = construct_gamma_merg(9)
        initial = get_scenario(SCENARIO_TRIG_MALICIOUS).initial_states(9, seed=0)
        return make_config(g, [role] * 2 + [AgentRole.NORMAL] * 7, 2, 30, initial)

    @pytest.mark.parametrize("role", [AgentRole.MALICIOUS, AgentRole.BYZANTINE])
    def test_nan_is_rejected_naming_agent_and_step(self, role):
        with pytest.raises(ValueError, match="agent 0 sent NaN at step 0"):
            run_simulation(self._config(role), ConstantAdversary(float("nan")))

    @pytest.mark.parametrize(
        "poison, message",
        [
            # a value sent to a normal agent two steps before a broadcast NaN
            ({(1, 4, 1), (2, 0, 3)}, "agent 1 sent NaN at step 1"),
            # at one step, the broadcast comes before what a lower-numbered
            # Byzantine agent sends a receiver
            ({(1, 4, 2), (2, 0, 2)}, "agent 2 sent NaN at step 2"),
            # what a Byzantine agent sends its lowest neighbor at the last
            # step is logged and checked, though no round uses it
            ({(1, 0, 4)}, "agent 1 sent NaN at step 4"),
        ],
    )
    def test_nan_names_the_first_agent_and_step(self, poison, message):
        # agent 1 is Byzantine, agent 2 malicious, agents 0, 3 and 4 normal
        roles = [AgentRole.NORMAL, AgentRole.BYZANTINE, AgentRole.MALICIOUS] + [AgentRole.NORMAL] * 2
        config = make_config(complete_graph(5), roles, 1, 4, [0.0, 0.0, 0.0, 1.0, 2.0])
        adversary = PoisonedAdversary(poison)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_simulation(config, adversary)

    def test_nan_from_the_cli_exits_1(self, tmp_path, monkeypatch, capsys):
        graph = tmp_path / "g9.json"
        assert cli_main(["construct", "--n", "9", "--kind", "r", "--out", str(graph)]) == 0
        monkeypatch.setattr(
            wmsr, "trig_malicious_value", lambda agent, t: float("nan") if t == 3 else 1.0
        )
        out = tmp_path / "run.csv"
        argv = ["simulate", "--graph", str(graph), "--scenario", SCENARIO_TRIG_MALICIOUS,
                "--f", "2", "--out", str(out)]
        assert cli_main(argv) == 1
        assert "agent 0 sent NaN at step 3" in capsys.readouterr().err

    def test_opposite_infinities_are_trimmed_without_a_warning(self):
        # each receiver gets +inf from one Byzantine agent and -inf from the
        # other; the suite turns numpy's inf - inf warning into an error
        class OppositeInfinities(PerValue):
            def value(self, agent: int, receiver: int, t: int) -> float:
                return math.inf if (agent + receiver) % 2 else -math.inf

        traj = run_simulation(self._config(AgentRole.BYZANTINE), OppositeInfinities())
        assert np.isfinite(traj.normal_states()).all()

    @pytest.mark.parametrize("role", [AgentRole.MALICIOUS, AgentRole.BYZANTINE])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_values_are_trimmed(self, role, value):
        traj = run_simulation(self._config(role), ConstantAdversary(value))
        metrics = trajectory_metrics(traj)
        assert np.isfinite(traj.normal_states()).all()
        assert metrics["within_hull"]
        assert metrics["spread"][30] < 1e-3 * metrics["spread"][0]

    # with F = 0 nothing is trimmed; on K_4 agents 0 and 1 are malicious
    NON_FINITE_UPDATES = [
        # agents 2 and 3 keep +inf and -inf; the suite turns numpy's inf -
        # inf warning into an error
        pytest.param((math.inf, -math.inf), (0.0,) * 4, "agent 2 summed +inf and -inf at step 0",
                     id="opposite-infinities"),
        # two finite values sum past the largest float; the suite turns
        # numpy's overflow warning into an error
        pytest.param((1.5e308, 1.5e308), (0.0, 0.0, 1.0, 2.0), "agent 2 overflowed at step 0",
                     id="overflow"),
    ]

    @pytest.mark.parametrize("values, initial, message", NON_FINITE_UPDATES)
    @pytest.mark.parametrize("simulate", [run_simulation, reference_run_simulation])
    def test_a_non_finite_update_is_an_error(self, simulate, values, initial, message):
        roles = [AgentRole.MALICIOUS] * 2 + [AgentRole.NORMAL] * 2
        config = make_config(complete_graph(4), roles, 0, 3, initial)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(config, FoldAdversary(values))

    @pytest.mark.parametrize("values, initial, message", NON_FINITE_UPDATES)
    def test_a_non_finite_update_from_the_cli_exits_1(
        self, tmp_path, monkeypatch, capsys, values, initial, message
    ):
        graph = tmp_path / "k4.json"
        graph.write_text(json.dumps({"n": 4, "edges": [[u, v] for v in range(4) for u in range(v)]}))
        roles = (AgentRole.MALICIOUS,) * 2 + (AgentRole.NORMAL,) * 2

        def non_finite(g, scenario, f=None, steps=30, seed=0):
            config = SimConfig(graph=g, roles=roles, f=0, steps=steps, initial_states=initial)
            return config, FoldAdversary(values)

        monkeypatch.setattr(wmsr, "build_scenario", non_finite)
        argv = ["simulate", "--graph", str(graph), "--out", str(tmp_path / "run.csv")]
        assert cli_main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("simulate", [run_simulation, reference_run_simulation])
    def test_a_kept_infinity_is_legal_and_its_metrics_do_not_warn(self, simulate):
        # F = 0 on K_4: every normal agent keeps agent 0's +inf, even where
        # its finite values alone would sum past the largest float; the
        # suite turns numpy's overflow and inf - inf warnings into errors,
        # which the initial spread, 3e308, and the later ones would raise
        roles = [AgentRole.MALICIOUS] + [AgentRole.NORMAL] * 3
        config = make_config(complete_graph(4), roles, 0, 3, [0.0, 1.5e308, 1.5e308, -1.5e308])
        traj = simulate(config, FoldAdversary((math.inf,)))
        assert (traj.normal_states()[1:] == math.inf).all()
        metrics = trajectory_metrics(traj)
        assert math.isinf(metrics["spread"][0])
        assert all(math.isnan(v) for v in metrics["spread"][1:])
        assert metrics["converged"] is False and metrics["within_hull"] is False


class TestDefaultRemovals:
    """Every demonstration edge in the table damages what the scenario needs."""

    FAMILIES = {
        SCENARIO_BYZ_SPLIT: (construct_gamma_merg, lambda g, gamma: is_r_robust(g, gamma)),
        SCENARIO_BYZ_CONST: (
            construct_gamma_gamma_merg,
            lambda g, gamma: is_rs_robust(g, gamma, gamma),
        ),
    }
    ENTRIES = [
        pytest.param(name, n, edge, id=f"{name}-n{n}-{edge[0]}-{edge[1]}")
        for name, row in SCENARIO_TABLE.items()
        for n, edge in sorted(row.removals.items())
    ]

    def test_only_the_byzantine_scenarios_have_removals(self):
        assert {entry.values[0] for entry in self.ENTRIES} == set(self.FAMILIES)

    @pytest.mark.parametrize("scenario, n, edge", ENTRIES)
    def test_edge_breaks_the_target_and_touches_a_normal_agent(self, scenario, n, edge):
        builder, target = self.FAMILIES[scenario]
        g, _ = builder(n)
        assert g.has_edge(*edge)
        gamma = (n + 1) // 2
        assert target(g, gamma).holds
        assert not target(g.remove_edge(*edge), gamma).holds
        row = SCENARIO_TABLE[scenario]
        roles = row.roles(n, row.default_f)
        assert AgentRole.NORMAL in (roles[edge[0]], roles[edge[1]])
