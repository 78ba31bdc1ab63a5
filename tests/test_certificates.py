from __future__ import annotations

import json
import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from mergraph import (
    CapExceededError,
    certificate_report,
    certificates,
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
    min_degree_lb_rs,
    necessary_clique_size,
    new_graph,
    prop1_gamma_gamma_check,
    r_upper_bound_from_edges,
    turan_clique_threshold,
    turan_number,
)
from mergraph.certificates import MAX_DENSE_NODES, _induced_edge_table
from conftest import (
    brute_dense_subgraph,
    brute_max_clique,
    random_graph,
    reference_turan_clique_threshold,
)


def cycle(n: int):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestEdgeFloors:
    @pytest.mark.parametrize(
        "gamma,expected", [(1, 0), (2, 3), (5, 30), (25, 900)]
    )
    def test_odd_floor(self, gamma, expected):
        assert edge_lb_gamma_odd(gamma) == expected

    @pytest.mark.parametrize(
        "gamma,expected", [(1, 1), (2, 5), (5, 33), (25, 913)]
    )
    def test_even_floor(self, gamma, expected):
        assert edge_lb_gamma_even(gamma) == expected

    def test_any_r_uses_parity(self):
        assert edge_lb_any_r(5) == 30
        assert edge_lb_any_r(5, "odd") == 30
        assert edge_lb_any_r(5, "even") == 33
        assert edge_lb_any_r(2, "even") == 5

    def test_even_floor_is_strictly_stronger(self):
        for r in range(2, 30):
            assert edge_lb_any_r(r, "even") > edge_lb_any_r(r, "unknown")

    def test_validation(self):
        with pytest.raises(ValueError):
            edge_lb_gamma_odd(0)
        with pytest.raises(ValueError):
            edge_lb_any_r(0)


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "check, args, message",
        [
            (gamma_of, (0,), "n must be positive"),
            (edge_lb_gamma_even, (0,), "gamma must be positive"),
            (r_upper_bound_from_edges, (4, -1), "edge count must be non-negative"),
            (min_degree_lb_rs, (0, 1), "r and s must be positive"),
            (edge_lb_gamma_gamma, (1,), "n must be at least 2"),
            (turan_number, (5, 1), "k must be at least 2"),
            (turan_clique_threshold, (0,), "gamma must be positive"),
            (necessary_clique_size, (1,), "n must be at least 2"),
            (prop1_gamma_gamma_check, (complete_graph(1),), "n must be at least 2"),
        ],
    )
    def test_out_of_range_arguments(self, check, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(*args)

    def test_unknown_check_name(self):
        with pytest.raises(KeyError, match="no_such_check"):
            certificate_report(complete_graph(4)).check("no_such_check")


class TestRUpperBound:
    @pytest.mark.parametrize(
        "n,m,expected", [(9, 30, 5), (9, 29, 4), (10, 32, 4), (10, 33, 5), (4, 4, 1)]
    )
    def test_values(self, n, m, expected):
        assert r_upper_bound_from_edges(n, m) == expected

    def test_clamped_to_ceiling(self):
        assert r_upper_bound_from_edges(3, 1000) == 2

    def test_soundness_against_oracle(self):
        rng = random.Random(101)
        for _ in range(500):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, rng.random())
            assert max_r_robustness(g) <= r_upper_bound_from_edges(n, len(g.edges))


class TestDegreeAndGammaGammaFloors:
    def test_min_degree_cases(self):
        assert min_degree_lb_rs(5, 5) == 8
        assert min_degree_lb_rs(5, 1) == 5
        assert min_degree_lb_rs(1, 1) == 0

    @pytest.mark.parametrize("n,expected", [(2, 1), (9, 36), (10, 43)])
    def test_gamma_gamma_floor(self, n, expected):
        assert edge_lb_gamma_gamma(n) == expected

    def test_gamma_gamma_floor_odd_is_complete(self):
        for n in (3, 5, 7, 9, 11):
            assert edge_lb_gamma_gamma(n) == n * (n - 1) // 2


class TestTuran:
    def test_turan_number_against_exhaustive_search(self):
        # independent oracle: maximum edges over all graphs without a k-clique,
        # found by enumerating every labeled graph on up to 6 nodes
        for n in range(2, 7):
            all_pairs = list(combinations(range(n), 2))
            best_without = {k: 0 for k in range(2, n + 2)}
            for bits in range(1 << len(all_pairs)):
                edges = [all_pairs[i] for i in range(len(all_pairs)) if bits >> i & 1]
                omega = max_clique_size(new_graph(n, edges))
                for k in best_without:
                    if omega < k:
                        best_without[k] = max(best_without[k], len(edges))
            for k, best in best_without.items():
                assert turan_number(n, k) == best, (n, k)

    def test_threshold_values(self):
        assert [turan_clique_threshold(g) for g in range(1, 9)] == [2, 3, 5, 6, 8, 9, 11, 12]

    def test_threshold_closed_form(self):
        for gamma in range(1, 40):
            assert turan_clique_threshold(gamma) == 2 * gamma - gamma // 2

    def test_closed_form_matches_the_scan_over_k(self):
        for gamma in range(1, 401):
            assert turan_clique_threshold(gamma) == reference_turan_clique_threshold(gamma), gamma

    def test_threshold_never_below_coarse_estimate(self):
        for gamma in range(1, 40):
            assert turan_clique_threshold(gamma) >= (4 * gamma) // 3 + 1

    def test_gamma_5_consistent_with_minimal_graph(self):
        g, _ = construct_gamma_gamma_merg(10)
        assert max_clique_size(g) == turan_clique_threshold(5) == 8

    def test_gamma_6_forced_nine_clique_brute(self):
        # at n=12, 63 edges force a 9-clique (complement has <= 3 edges, so a
        # vertex cover of <= 3 leaves 9 pairwise-adjacent nodes), while some
        # 62-edge graph has none (complement a perfect matching on 8 nodes)
        assert turan_clique_threshold(6) == 9
        assert edge_lb_gamma_gamma(12) == 63
        assert turan_number(12, 9) == 62
        counterexample = new_graph(
            12, [e for e in combinations(range(12), 2) if e not in {(0, 1), (2, 3), (4, 5), (6, 7)}]
        )
        assert len(counterexample.edges) == 62
        assert max_clique_size(counterexample) == 8


class TestCliqueAndDenseSubgraph:
    @pytest.mark.parametrize("n,expected", [(2, 2), (9, 6), (10, 4)])
    def test_necessary_clique_size(self, n, expected):
        assert necessary_clique_size(n) == expected

    def test_dense_subgraph_on_minimal_even_graph(self):
        g, _ = construct_gamma_merg(10)
        assert lemma4_dense_subgraph_holds(g)

    def test_dense_subgraph_fails_on_cycle(self):
        assert not lemma4_dense_subgraph_holds(cycle(10))

    def test_dense_subgraph_on_complete(self):
        assert lemma4_dense_subgraph_holds(complete_graph(10))

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            lemma4_dense_subgraph_holds(complete_graph(9))

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(certificates, "MAX_DENSE_NODES", 10)
        with pytest.raises(CapExceededError):
            lemma4_dense_subgraph_holds(complete_graph(12))


def dense_need(n: int) -> int:
    return (n // 2 * (n // 2) + 2) // 2


class TestDenseSubgraphMatchesScan:
    def test_table_counts_every_subset(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.random())
            induced, sizes = _induced_edge_table(g)
            for mask in range(1 << n):
                nodes = [i for i in range(n) if mask >> i & 1]
                assert sizes[mask] == len(nodes)
                assert induced[mask] == sum(1 for e in combinations(nodes, 2) if e in g.edges)

    def test_random_graphs_around_the_threshold(self):
        # a (gamma+1)-node core with a few edges fewer or more than needed,
        # plus random edges elsewhere that other subsets can reach it with
        rng = random.Random(29)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            n = rng.choice([2, 4, 6, 8, 10, 12])
            inside = list(combinations(sorted(rng.sample(range(n), n // 2 + 1)), 2))
            planted = rng.sample(inside, max(0, min(len(inside), dense_need(n) + rng.randint(-2, 1))))
            others = [e for e in combinations(range(n), 2) if e not in set(inside)]
            p = rng.choice([0.0, 0.2, 0.5, 0.8])
            g = new_graph(n, planted + [e for e in others if rng.random() < p])
            expected = brute_dense_subgraph(g)
            assert lemma4_dense_subgraph_holds(g) == expected
            verdicts[expected] += 1
        assert min(verdicts.values()) >= 100

    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("build", [construct_gamma_merg, construct_gamma_gamma_merg])
    def test_every_single_edge_removal_of_the_families(self, build, n):
        g, _ = build(n)
        assert lemma4_dense_subgraph_holds(g)
        for u, v in sorted(g.edges):
            h = g.remove_edge(u, v)
            assert lemma4_dense_subgraph_holds(h) == brute_dense_subgraph(h)

    def test_n22_at_the_threshold(self):
        assert lemma4_dense_subgraph_holds(complete_graph(22))
        core = list(combinations(range(12), 2))
        need = dense_need(22)
        assert not lemma4_dense_subgraph_holds(new_graph(22, core[: need - 1]))
        assert lemma4_dense_subgraph_holds(new_graph(22, core[:need]))

    def test_node_cap_admits_what_the_candidate_budget_did(self):
        # the cap replaced a budget of 2,000,000 candidate subsets
        # C(n, n/2 + 1), which held for exactly the even n <= 22
        assert [n for n in range(2, 41, 2) if comb(n, n // 2 + 1) <= 2_000_000] == list(
            range(2, MAX_DENSE_NODES + 1, 2)
        )

    def test_node_cap_message(self):
        with pytest.raises(
            CapExceededError,
            match=r"^dense-subgraph table of 2\^24 subsets infeasible \(cap is 22 nodes\)$",
        ):
            lemma4_dense_subgraph_holds(cycle(24))

    def test_n_10_6_raises_before_any_table(self):
        g = new_graph(10**6, [])
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=r"2\^1000000 subsets"):
                lemma4_dense_subgraph_holds(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_report_leaves_the_check_unevaluated_above_the_budget(self):
        assert certificate_report(cycle(22)).check("dense_subgraph_gamma").passed is False
        assert certificate_report(cycle(24)).check("dense_subgraph_gamma").passed is None


class TestProp1:
    def test_complete_odd(self):
        assert prop1_gamma_gamma_check(complete_graph(9))
        assert not prop1_gamma_gamma_check(complete_graph(9).remove_edge(0, 1))

    def test_minimal_even_graph(self):
        g, _ = construct_gamma_gamma_merg(10)
        assert prop1_gamma_gamma_check(g)

    def test_cycle_6(self):
        assert not prop1_gamma_gamma_check(cycle(6))

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.choice([2, 4, 6, 8, 10])
            g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.85, 0.95, 1.0]))
            gamma = gamma_of(n)
            assert prop1_gamma_gamma_check(g) == is_rs_robust(g, gamma, gamma).holds

    def test_missing_pairs_must_form_a_matching(self):
        k10 = complete_graph(10)
        assert prop1_gamma_gamma_check(k10.remove_edge(0, 1).remove_edge(2, 3))
        # two missing pairs is within floor(5/2), but they share node 0
        assert not prop1_gamma_gamma_check(k10.remove_edge(0, 1).remove_edge(0, 2))

    def test_sparse_graph_decided_without_a_complement(self):
        g = new_graph(3000, [])
        tracemalloc.start()
        try:
            assert prop1_gamma_gamma_check(g) is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestLemmaProperties:
    def test_certified_graphs_meet_structural_floors(self):
        rng = random.Random(83)
        certified = 0
        for _ in range(400):
            n = rng.choice([4, 6, 8, 10])
            g = random_graph(rng, n, rng.choice([0.6, 0.8, 0.9, 1.0]))
            gamma = gamma_of(n)
            if not is_r_robust(g, gamma).holds:
                continue
            certified += 1
            assert max_clique_size(g) >= necessary_clique_size(n)
            assert lemma4_dense_subgraph_holds(g)
            assert len(g.edges) >= edge_lb_any_r(gamma, "even")
            if is_rs_robust(g, gamma, gamma).holds:
                assert min(g.degree(i) for i in range(n)) >= 2 * (gamma - 1)
                assert len(g.edges) >= n * (gamma - 1)
                assert max_clique_size(g) >= turan_clique_threshold(gamma)
        assert certified > 0


class TestReport:
    def test_cycle_4_cannot_be_2_robust(self):
        report = certificate_report(cycle(4))
        assert report.implied_r_upper_bound == 1
        assert any("cannot be 2-robust" in flag for flag in report.flags)
        assert not report.check("edge_floor_gamma").passed

    def test_minimal_9_node_graph(self):
        g, _ = construct_gamma_merg(9)
        report = certificate_report(g)
        assert report.implied_r_upper_bound == 5
        assert report.check("edge_floor_gamma").passed
        assert report.check("clique_gamma").passed
        assert not report.prop1_gamma_gamma

    def test_complete_10(self):
        report = certificate_report(complete_graph(10))
        assert all(c.passed for c in report.checks)
        assert report.prop1_gamma_gamma
        assert not report.flags

    def test_thresholds_recompute_from_n_and_gamma(self):
        g, _ = construct_gamma_merg(10)
        report = certificate_report(g)
        gamma = report.gamma
        assert report.check("edge_floor_gamma").required == edge_lb_gamma_even(gamma)
        assert report.check("edge_floor_gamma_gamma").required == edge_lb_gamma_gamma(10)
        assert report.check("min_degree_gamma_gamma").required == min_degree_lb_rs(gamma, gamma)
        assert report.check("clique_gamma").required == necessary_clique_size(10)
        assert report.check("clique_gamma_gamma_turan").required == turan_clique_threshold(gamma)

    def test_json_round_trip_and_stability(self):
        g, _ = construct_gamma_gamma_merg(10)
        report = certificate_report(g)
        payload = json.loads(report.to_json())
        assert payload["edge_count"] == 43
        assert payload["prop1_gamma_gamma"] is True
        assert report.to_json() == certificate_report(g).to_json()

    def test_json_bytes_are_pinned(self):
        # rendered before the report was serialized from its fields
        expected = """{
  "checks": [
    {
      "name": "edge_floor_gamma",
      "observed": 6,
      "passed": false,
      "required": 11,
      "scope": "3-robust"
    },
    {
      "name": "edge_floor_gamma_gamma",
      "observed": 6,
      "passed": false,
      "required": 14,
      "scope": "(3,3)-robust"
    },
    {
      "name": "min_degree_gamma_gamma",
      "observed": 2,
      "passed": false,
      "required": 4,
      "scope": "(3,3)-robust"
    },
    {
      "name": "clique_gamma",
      "observed": 2,
      "passed": false,
      "required": 3,
      "scope": "3-robust"
    },
    {
      "name": "clique_gamma_gamma_turan",
      "observed": 2,
      "passed": false,
      "required": 5,
      "scope": "(3,3)-robust"
    },
    {
      "name": "dense_subgraph_gamma",
      "observed": null,
      "passed": false,
      "required": 5,
      "scope": "3-robust"
    }
  ],
  "edge_count": 6,
  "flags": [
    "cannot be 3-robust: edge count 6 is below the floor"
  ],
  "gamma": 3,
  "implied_r_upper_bound": 2,
  "n": 6,
  "note": "all checks except prop1_gamma_gamma are necessary only",
  "prop1_gamma_gamma": false
}
"""
        assert certificate_report(cycle(6)).to_json() == expected

    def test_implied_bound_sound_for_constructions(self):
        for n in range(3, 13):
            g, _ = construct_gamma_merg(n)
            report = certificate_report(g)
            assert report.implied_r_upper_bound >= max_r_robustness(g)
