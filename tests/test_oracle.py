from __future__ import annotations

import random
import re
import time
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergraph import (
    CapExceededError,
    complete_graph,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    is_r_reachable,
    is_r_robust,
    is_rs_robust,
    max_r_robustness,
    max_s_given_r,
    minimality_sweep,
    new_graph,
    oracle,
    reachable_count,
)
from conftest import (
    all_disjoint_pairs,
    brute_best_pair,
    brute_first_failing_pair,
    brute_is_r_robust,
    brute_is_rs_robust,
    brute_max_r,
    brute_outside_degree,
    brute_reachable_count,
    copied_class_graph,
    count_pair_first_failing_pair,
    random_graph,
    reference_class_groups,
    subset_pair_assignments,
    twin_classes,
    twin_rich_graph,
)


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def path3():
    return path(3)


class TestReachability:
    def test_whole_vertex_set_never_reachable(self):
        g = complete_graph(6)
        assert not is_r_reachable(g, set(range(6)), 1)
        assert reachable_count(g, set(range(6)), 3) == 0

    def test_single_node_in_complete_graph(self):
        assert is_r_reachable(complete_graph(5), {0}, 4)

    def test_peripheral_nodes_of_9_node_construction(self):
        g, _ = construct_gamma_merg(9)
        assert is_r_reachable(g, {6, 7, 8}, 5)

    def test_k6_triple(self):
        assert reachable_count(complete_graph(6), {0, 1, 2}, 3) == 3

    def test_counts_certify_every_balanced_partition_of_minimal_rs_graph(self):
        # the minimal (5,5)-robust graph on 10 nodes: every 5/5 split must
        # satisfy the definition through reachable counts alone
        g, _ = construct_gamma_gamma_merg(10)
        for s1 in combinations(range(10), 5):
            s2 = tuple(v for v in range(10) if v not in s1)
            x1 = reachable_count(g, s1, 5)
            x2 = reachable_count(g, s2, 5)
            assert x1 == 5 or x2 == 5 or x1 + x2 >= 5, (s1, x1, x2)

    def test_validation(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            is_r_reachable(g, set(), 1)
        with pytest.raises(ValueError):
            is_r_reachable(g, {0}, 0)
        with pytest.raises(ValueError):
            reachable_count(g, {9}, 1)

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 8), rng.random())
            nodes = frozenset(
                rng.sample(range(g.n), rng.randint(1, g.n))
            )
            r = rng.randint(1, 4)
            assert reachable_count(g, nodes, r) == brute_reachable_count(g, nodes, r)


class TestSubsetPair:
    @pytest.mark.parametrize(
        "s1, s2, message",
        [
            ((), (1,), "both subsets must be nonempty"),
            ((0,), (), "both subsets must be nonempty"),
            ((0, 1), (1, 2), "subsets must be disjoint"),
        ],
    )
    def test_validation(self, s1, s2, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            oracle.SubsetPair(frozenset(s1), frozenset(s2))


class TestRRobust:
    def test_complete_graphs_hit_the_ceiling(self):
        for n in range(3, 11):
            assert is_r_robust(complete_graph(n), (n + 1) // 2).holds

    def test_path_witness(self):
        verdict = is_r_robust(path3(), 2)
        assert not verdict.holds
        assert verdict.witness.s1 == frozenset({0})
        assert verdict.witness.s2 == frozenset({2})

    def test_9_node_construction_is_5_robust(self):
        g, _ = construct_gamma_merg(9)
        assert is_r_robust(g, 5).holds

    def test_validation(self):
        with pytest.raises(ValueError):
            is_r_robust(path3(), 0)

    def test_cap(self):
        # P_17 has no twins, so its lattice is all 2^17 subsets
        with pytest.raises(CapExceededError):
            is_r_robust(path(17), 1)

    def test_single_node_is_vacuously_robust(self):
        assert is_r_robust(new_graph(1, []), 7).holds


class TestMaxR:
    def test_complete_9(self):
        assert max_r_robustness(complete_graph(9)) == 5

    def test_complete_17_is_one_class(self):
        assert oracle._lattice(complete_graph(17)).shape == (18,)
        assert max_r_robustness(complete_graph(17)) == 9

    def test_cycle_4(self):
        c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert max_r_robustness(c4) == 1

    def test_disconnected(self):
        assert max_r_robustness(new_graph(4, [(0, 1), (2, 3)])) == 0

    def test_never_exceeds_ceiling(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), rng.random())
            assert max_r_robustness(g) <= (g.n + 1) // 2

    def test_matches_brute_force_descent(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            assert max_r_robustness(g) == brute_max_r(g)

    @pytest.mark.parametrize("n", [15, 16])
    def test_family_removals_agree_with_level_checks(self, n):
        gamma = (n + 1) // 2
        for build in (construct_gamma_merg, construct_gamma_gamma_merg):
            g, _ = build(n)
            for e in sorted(g.edges):
                h = g.remove_edge(*e)
                best = max_r_robustness(h)
                assert (best >= gamma) == is_r_robust(h, gamma).holds, e
                assert (best >= gamma - 1) == is_r_robust(h, gamma - 1).holds, e


class TestRsRobust:
    def test_complete_5_at_maximum(self):
        assert is_rs_robust(complete_graph(5), 3, 5).holds

    def test_s1_equivalent_to_plain_r(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8), rng.random())
            for r in range(1, (g.n + 1) // 2 + 1):
                plain, rs = is_r_robust(g, r), is_rs_robust(g, r, 1)
                assert rs.holds == plain.holds
                assert rs.witness == plain.witness

    def test_removing_an_edge_from_minimal_10_node_graph(self):
        g, _ = construct_gamma_gamma_merg(10)
        assert not is_rs_robust(g.remove_edge(0, 2), 5, 5).holds

    def test_validation(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            is_rs_robust(g, 0, 1)
        with pytest.raises(ValueError):
            is_rs_robust(g, 1, 0)
        with pytest.raises(ValueError):
            is_rs_robust(g, 1, 5)


class TestMaxS:
    def test_complete_9(self):
        assert max_s_given_r(complete_graph(9), 5) == 9

    def test_validation(self):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            max_s_given_r(complete_graph(4), 0)

    def test_9_node_construction_regression(self):
        # frozen oracle output: the minimal 5-robust graph on 9 nodes is
        # (5, 1)-robust but not (5, 2)-robust
        g, _ = construct_gamma_merg(9)
        assert max_s_given_r(g, 5) == 1

    def test_damaged_minimal_10_node_graph(self):
        g, _ = construct_gamma_gamma_merg(10)
        assert max_s_given_r(g.remove_edge(0, 2), 5) == 4

    def test_matches_linear_scan(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), rng.random())
            r = rng.randint(1, (g.n + 1) // 2)
            got = max_s_given_r(g, r)
            scan = 0
            for s in range(1, g.n + 1):
                if brute_is_rs_robust(g, r, s):
                    scan = s
                else:
                    break
            assert got == scan


class TestAgainstBruteForce:
    def test_r_and_rs_decisions(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8, 0.95]))
            for r in range(1, (n + 1) // 2 + 1):
                assert is_r_robust(g, r).holds == brute_is_r_robust(g, r)
                for s in (1, (n + 1) // 2, n):
                    assert is_rs_robust(g, r, s).holds == brute_is_rs_robust(g, r, s)


class TestTables:
    @staticmethod
    def graphs():
        """Twin-free and twin-rich random graphs, n = 1..9: both even and odd
        hi/lo splits, singleton, false-twin and true-twin classes."""
        rng = random.Random(43)
        for n in range(1, 10):
            for _ in range(2):
                yield random_graph(rng, n, rng.random())
                yield twin_rich_graph(rng, n, rng.randint(1, 3), rng.random())

    def test_classes_are_the_twin_classes(self):
        for g in self.graphs():
            classes = oracle._lattice(g).classes
            assert sorted(i for c in classes for i in c) == list(range(g.n))
            assert [c[0] for c in classes] == sorted(c[0] for c in classes)
            label = {i: k for k, c in enumerate(classes) for i in c}
            for u, v in combinations(range(g.n), 2):
                twins = g.neighbors(u) - {v} == g.neighbors(v) - {u}
                assert twins == (label[u] == label[v]), (g, u, v)

    def test_tables_match_brute_force_on_every_subset(self):
        for g in self.graphs():
            n = g.n
            subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
            lat = oracle._lattice(g)
            # every subset reads the cell of its count vector
            cells = [int(np.ravel_multi_index([len(s.intersection(c)) for c in lat.classes],
                                              lat.shape)) for s in subsets]
            for r in range(1, (n + 1) // 2 + 2):
                x = oracle._x_count_table(g, r, lat)
                assert x.dtype == np.uint8 and x.size == prod(lat.shape)
                assert x[cells].tolist() == [brute_reachable_count(g, s, r) for s in subsets]
            assert not oracle._x_count_table(g, 10**9, lat).any()
            maxout = lat.out.max(0)[cells].tolist()
            assert maxout == [max((brute_outside_degree(g, i, s) for i in s), default=0)
                              for s in subsets]


class TestBestPair:
    COMBINES = [np.add, np.maximum]
    SHAPES = [(2,) * n for n in range(1, 9)] + [(3,), (9,), (4, 2), (3, 3, 2), (2, 5, 3), (6, 4)]

    @pytest.mark.parametrize("combine", COMBINES)
    def test_matches_pair_loop_on_random_tables(self, combine):
        rng = np.random.default_rng(59)
        for shape in self.SHAPES:
            cells = prod(shape)
            for absent_share in (0.0, 0.3, 0.7, 0.95):
                t = rng.integers(0, len(shape) + 1, size=cells, dtype=np.uint8)
                t[rng.random(cells) < absent_share] = oracle._ABSENT
                t[0] = oracle._ABSENT  # the empty set is never in a pair
                worst, below = oracle._best_pair(t, shape, combine)
                expected = brute_best_pair(t, shape, combine)
                if expected is None:
                    assert worst >= oracle._ABSENT
                else:
                    assert worst == expected
                assert (below == oracle._subset_min(t, shape)).all()

    @pytest.mark.parametrize("combine", COMBINES)
    def test_no_present_pair_gives_absent(self, combine):
        for shape in self.SHAPES:
            absent = np.full(prod(shape), oracle._ABSENT, dtype=np.uint8)
            assert oracle._best_pair(absent, shape, combine)[0] >= oracle._ABSENT
            only_full = absent.copy()
            only_full[-1] = 0
            assert brute_best_pair(only_full, shape, combine) is None
            assert oracle._best_pair(only_full, shape, combine)[0] >= oracle._ABSENT


def brute_max_s(g, r):
    """Largest s in [1, n] with the graph (r, s)-robust by brute force, else 0."""
    return max((s for s in range(1, g.n + 1) if brute_is_rs_robust(g, r, s)), default=0)


class TestNoPair:
    """Graphs where no failing pair can exist answer with their caps."""

    def test_single_node(self):
        g = new_graph(1, [])
        assert max_r_robustness(g) == brute_max_r(g) == 1
        for r in (1, 2, 3):
            assert max_s_given_r(g, r) == brute_max_s(g, r) == 1
            assert is_rs_robust(g, r, 1).holds
            assert brute_is_rs_robust(g, r, 1)

    def test_k2(self):
        g = complete_graph(2)
        assert max_s_given_r(g, 1) == brute_max_s(g, 1) == 2


class TestWitnesses:
    @pytest.mark.parametrize("check", [
        lambda g: is_r_robust(g, 2), lambda g: is_rs_robust(g, 2, 3)])
    def test_failing_check_transforms_the_lattice_once(self, check, monkeypatch):
        # the decision's subset-min over the whole lattice is the witness's
        # first S2 box; every later box is a strictly smaller one
        sizes = []
        real = oracle._subset_min
        monkeypatch.setattr(
            oracle, "_subset_min", lambda v, shape: sizes.append(v.size) or real(v, shape))
        rng = random.Random(31)
        failed = 0
        for k in range(40):
            p = rng.random()
            g = twin_rich_graph(rng, 9, 3, p) if k % 2 else random_graph(rng, 9, p)
            sizes.clear()
            if check(g).holds:
                continue
            cells = oracle._lattice(g).counts.shape[1]
            assert sizes.count(cells) == 1, (g, sizes)
            assert max(sizes) == cells
            failed += 1
        assert failed >= 10, failed

    def test_witnesses_replay_the_failure(self):
        rng = random.Random(13)
        seen = 0
        while seen < 60:
            g = random_graph(rng, rng.randint(3, 9), rng.random() * 0.7)
            r = rng.randint(1, (g.n + 1) // 2)
            verdict = is_r_robust(g, r)
            if verdict.holds:
                continue
            seen += 1
            w = verdict.witness
            assert not is_r_reachable(g, w.s1, r)
            assert not is_r_reachable(g, w.s2, r)
            assert not (w.s1 & w.s2)
            s = rng.randint(1, g.n)
            rs = is_rs_robust(g, r, s)
            if not rs.holds:
                ws = rs.witness
                x1 = reachable_count(g, ws.s1, r)
                x2 = reachable_count(g, ws.s2, r)
                assert x1 < len(ws.s1) and x2 < len(ws.s2)
                assert x1 + x2 <= s - 1

    def test_witness_is_deterministic(self):
        g = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        a = is_r_robust(g, 2)
        b = is_r_robust(g, 2)
        assert a == b
        assert not a.holds

    @staticmethod
    def assert_canonical(g, r, s=None):
        verdict = is_r_robust(g, r) if s is None else is_rs_robust(g, r, s)
        expected = brute_first_failing_pair(g, r, 1 if s is None else s)
        if expected is None:
            assert verdict.holds
            return False
        assert not verdict.holds
        assert (verdict.witness.s1, verdict.witness.s2) == expected
        return True

    def test_witness_is_first_in_canonical_order(self):
        rng = random.Random(17)
        checked_r = checked_rs = 0
        while checked_r < 60 or checked_rs < 60:
            n = rng.randint(3, 9)
            g = random_graph(rng, n, rng.random() * 0.8)
            r = rng.randint(1, (n + 1) // 2)
            checked_r += self.assert_canonical(g, r)
            checked_rs += self.assert_canonical(g, r, rng.randint(2, n))

    @pytest.mark.parametrize("n", [9, 10])
    def test_family_removal_witnesses_are_canonical(self, n):
        gamma = (n + 1) // 2
        g, _ = construct_gamma_merg(n)
        for e in sorted(g.edges):
            assert self.assert_canonical(g.remove_edge(*e), gamma), e
        gg, _ = construct_gamma_gamma_merg(n)
        for e in sorted(gg.edges):
            assert self.assert_canonical(gg.remove_edge(*e), gamma, gamma), e


class TestWitnessesAbove16Nodes:
    """Above 16 nodes the canonical scan is out of reach; the witness is
    compared with the count-pair reference, which takes its twin classes
    from the definition."""

    def test_count_pair_reference_matches_the_canonical_scan(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(2, 9)
            if rng.random() < 0.5:
                g = random_graph(rng, n, rng.random())
            else:
                g = twin_rich_graph(rng, n, rng.randint(1, 3), rng.random())
            r = rng.randint(1, (n + 1) // 2)
            for s in {1, rng.randint(1, n)}:
                assert count_pair_first_failing_pair(g, r, s) == brute_first_failing_pair(g, r, s)

    def test_witnesses_match_the_count_pair_reference(self):
        # lattices of at most 500 cells keep the reference's pair loop short
        rng = random.Random(67)
        failing = 0
        while failing < 16:
            n = rng.randint(17, 24)
            g = twin_rich_graph(rng, n, rng.randint(2, 4), rng.random())
            if prod(len(c) + 1 for c in twin_classes(g)) > 500:
                continue
            r = rng.randint(1, (n + 1) // 2)
            s = rng.randint(1, n)
            for verdict, expected in ((is_r_robust(g, r), count_pair_first_failing_pair(g, r)),
                                      (is_rs_robust(g, r, s), count_pair_first_failing_pair(g, r, s))):
                assert verdict.holds == (expected is None), (g, r, s)
                if expected is not None:
                    failing += 1
                    assert (verdict.witness.s1, verdict.witness.s2) == expected, (g, r, s)

    def test_long_class_runs_match_the_count_pair_reference(self):
        # twin-rich graphs relabelled so that every class is a run of
        # consecutive nodes, the runs the witness fixes by bisection
        rng = random.Random(73)
        failing = 0
        while failing < 24:
            n = rng.randint(6, 24)
            g = twin_rich_graph(rng, n, rng.randint(2, 3), rng.random())
            classes = twin_classes(g)
            if max(map(len, classes)) < 4 or prod(len(c) + 1 for c in classes) > 500:
                continue
            rng.shuffle(classes)
            label = {u: k for k, u in enumerate(u for c in classes for u in c)}
            g = new_graph(n, [(label[u], label[v]) for u, v in g.edges])
            r = rng.randint(1, (n + 1) // 2)
            s = rng.randint(1, n)
            for verdict, expected in ((is_r_robust(g, r), count_pair_first_failing_pair(g, r)),
                                      (is_rs_robust(g, r, s), count_pair_first_failing_pair(g, r, s))):
                assert verdict.holds == (expected is None), (g, r, s)
                if expected is not None:
                    failing += 1
                    assert (verdict.witness.s1, verdict.witness.s2) == expected, (g, r, s)

    @staticmethod
    def failing_cases():
        rng = random.Random(71)
        made = 0
        while made < 40:
            n = rng.randint(17, 24)
            g = twin_rich_graph(rng, n, rng.randint(2, 4), rng.random())
            r = rng.randint(1, (n + 1) // 2)
            s = rng.randint(1, n)
            try:
                most = max_s_given_r(g, r)
            except CapExceededError:
                continue
            if most < s:
                made += 1
                yield g, r, s

    def test_witnesses_fail_by_definition(self):
        for g, r, s in self.failing_cases():
            verdict = is_rs_robust(g, r, s)
            assert not verdict.holds
            w = verdict.witness
            assert w.s1 and w.s2 and not (w.s1 & w.s2)
            x1, x2 = reachable_count(g, w.s1, r), reachable_count(g, w.s2, r)
            assert x1 < len(w.s1) and x2 < len(w.s2) and x1 + x2 <= s - 1, (g, r, s)
            if x1 + x2 == 0 or max_r_robustness(g) < r:
                plain = is_r_robust(g, r)
                assert not plain.holds
                assert not is_r_reachable(g, plain.witness.s1, r)
                assert not is_r_reachable(g, plain.witness.s2, r)

    def test_k315_witnesses_are_canonical(self):
        # K_{3,15}: classes A = {0, 1, 2} and B = {3..17}, shape (4, 16).
        # Every set of B members alone fails 4-robustness, so the first
        # failing pair puts the two highest nodes, 16 and 17, one per side.
        k315 = new_graph(18, [(i, j) for i in range(3) for j in range(3, 18)])
        assert oracle._lattice(k315).shape == (4, 16)
        verdict = is_rs_robust(k315, 4, 1)
        assert verdict.witness == oracle.SubsetPair(frozenset({16}), frozenset({17}))
        # For (2, 17) the first failing pair reaches 2 + 14 = 16 <= s - 1:
        # S1 = {0, 1, 3} reaches through 0 and 1, S2 = {2, 4..17} through
        # its 14 members of B.
        verdict = is_rs_robust(k315, 2, 17)
        assert verdict.witness == oracle.SubsetPair(
            frozenset({0, 1, 3}), frozenset({2, *range(4, 18)}))
        assert reachable_count(k315, verdict.witness.s1, 2) == 2
        assert reachable_count(k315, verdict.witness.s2, 2) == 14
        for r, s in ((4, 1), (2, 17)):
            witness = is_rs_robust(k315, r, s).witness
            assert (witness.s1, witness.s2) == count_pair_first_failing_pair(k315, r, s)


class TestBudget:
    def test_largest_uint8_graphs_do_not_wrap(self):
        # n = 254 is the largest admitted: every count stays below _ABSENT
        assert max_r_robustness(complete_graph(254)) == 127
        assert max_s_given_r(complete_graph(254), 127) == 254
        assert max_r_robustness(new_graph(254, [])) == 0

    @pytest.mark.parametrize("n", [255, 300])
    def test_more_than_254_nodes_are_refused(self, n):
        for g in (complete_graph(n), new_graph(n, [])):
            with pytest.raises(CapExceededError, match="infeasible"):
                max_r_robustness(g)

    @pytest.mark.parametrize("n, build", [
        (200, construct_gamma_merg), (200, construct_gamma_gamma_merg),
        (400, construct_gamma_merg), (400, construct_gamma_gamma_merg),
        (800, construct_gamma_gamma_merg),
    ])
    def test_benchmark_infeasible_graphs_raise_before_any_table(self, n, build, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built above the budget")

        g, _ = build(n)
        for name in ("_x_count_table", "_counts"):
            monkeypatch.setattr(oracle, name, refuse)
        start = time.perf_counter()
        for check in (max_r_robustness, lambda g: max_s_given_r(g, n // 2),
                      lambda g: is_rs_robust(g, n // 2, n // 2)):
            with pytest.raises(CapExceededError, match="infeasible"):
                check(g)
        assert time.perf_counter() - start < 1.0


class TestEnumeration:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_matches_closed_form_and_direct_filter(self, n):
        pairs = list(subset_pair_assignments(n))
        assert len(pairs) == (3**n - 2 * 2**n + 1) // 2
        assert len(set(pairs)) == len(pairs)
        canonical = {
            frozenset(
                (
                    frozenset(i for i in range(n) if m1 >> i & 1),
                    frozenset(i for i in range(n) if m2 >> i & 1),
                )
            )
            for m1, m2 in pairs
        }
        direct = {frozenset((a, b)) for a, b in all_disjoint_pairs(n)}
        assert canonical == direct

    def test_canonical_side_assignment(self):
        for m1, m2 in subset_pair_assignments(5):
            lowest_assigned_bit = (m1 | m2) & -(m1 | m2)
            assert m1 & lowest_assigned_bit


class TestMonotonicity:
    def test_in_r(self):
        rng = random.Random(29)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 9), rng.random())
            for r in range(2, (g.n + 1) // 2 + 1):
                if is_r_robust(g, r).holds:
                    assert is_r_robust(g, r - 1).holds

    def test_in_edges(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8), rng.random() * 0.8)
            missing = [
                e for e in combinations(range(g.n), 2) if e not in g.edges
            ]
            if not missing:
                continue
            extra = rng.choice(missing)
            h = new_graph(g.n, list(g.edges) + [extra])
            assert max_r_robustness(h) >= max_r_robustness(g)
            r = rng.randint(1, (g.n + 1) // 2)
            assert max_s_given_r(h, r) >= max_s_given_r(g, r)


class TestMinimalitySweep:
    def test_9_node_construction_is_minimal(self):
        g, _ = construct_gamma_merg(9)
        sweep = minimality_sweep(g, 5)
        assert len(sweep.entries) == 30
        assert sweep.minimal

    def test_triangle_is_not_minimal_for_1_robustness(self):
        sweep = minimality_sweep(complete_graph(3), 1)
        assert not sweep.minimal
        assert all(holds for _, holds in sweep.entries)

    def test_minimal_rs_graph_on_10_nodes(self):
        g, _ = construct_gamma_gamma_merg(10)
        sweep = minimality_sweep(g, 5, 5)
        assert len(sweep.entries) == 43
        assert sweep.minimal

    def test_rejects_graph_that_fails_the_target(self):
        c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError):
            minimality_sweep(c4, 2)

    @pytest.mark.parametrize(
        "r, s, message",
        [
            (5, 0, "s must lie in [1, 10]"),
            (5, 11, "s must lie in [1, 10]"),
            (0, 5, "r must be a positive integer"),
            (0, None, "r must be a positive integer"),
        ],
    )
    def test_out_of_range_targets(self, r, s, message):
        g, _ = construct_gamma_gamma_merg(10)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            minimality_sweep(g, r, s)


def sweep_levels(rng, g):
    """Two targets ``g`` meets, r-robustness and (r, s)-robustness at random
    levels, as (graph, r, s) with s None for r-robustness; none when ``g``
    is not even 1-robust."""
    top = max_r_robustness(g)
    if top == 0:
        return []
    r1, r2 = rng.randint(1, top), rng.randint(1, top)
    return [(g, r1, None), (g, r2, rng.randint(1, max_s_given_r(g, r2)))]


def sweep_cases():
    """Targets every sweep test runs, as (graph, r, s) with s None for
    r-robustness: both families at their own level for n = 2..12, then 200
    connected random graphs with n <= 9, each at random levels it meets.
    The rest have twin classes to swap, as the sweep's edge orbits do: both
    families relabelled by a variant seed at their own level and, with one
    edge removed, at random levels; then 50 twin-rich graphs and 50 with a
    copied class, at random levels."""
    for n in range(2, 13):
        gamma = (n + 1) // 2
        yield construct_gamma_merg(n)[0], gamma, None
        yield construct_gamma_gamma_merg(n)[0], gamma, gamma
    rng = random.Random(17)
    made = 0
    while made < 200:
        levels = sweep_levels(rng, random_graph(rng, rng.randint(2, 9), rng.random()))
        made += bool(levels)
        yield from levels
    rng = random.Random(19)
    for n in range(2, 13):
        gamma = (n + 1) // 2
        for build, s in ((construct_gamma_merg, None), (construct_gamma_gamma_merg, gamma)):
            g = build(n, variant=rng.randrange(1 << 16))[0]
            yield g, gamma, s
            yield from sweep_levels(rng, g.remove_edge(*rng.choice(sorted(g.edges))))
    made = 0
    while made < 100:
        make = (twin_rich_graph, copied_class_graph)[made % 2]
        n = rng.randint(3, 12)
        levels = sweep_levels(rng, make(rng, n, rng.randint(1, 4), rng.random()))
        made += bool(levels)
        yield from levels


class TestSweepDecisions:
    def test_entries_match_the_per_removal_checks(self):
        seen = {True: 0, False: 0}
        for g, r, s in sweep_cases():
            sweep = minimality_sweep(g, r, s)
            expected = []
            for e in sorted(g.edges):
                h = g.remove_edge(*e)
                verdict = is_r_robust(h, r) if s is None else is_rs_robust(h, r, s)
                expected.append((e, verdict.holds))
                seen[verdict.holds] += 1
            assert list(sweep.entries) == expected, (g, r, s)
            assert sweep.minimal == (not any(h for _, h in expected))
        assert min(seen.values()) >= 500, seen

    def test_no_sweep_recovers_a_witness(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sweep asked for a witness")

        monkeypatch.setattr(oracle, "_witness", refuse)
        for g, r, s in sweep_cases():
            minimality_sweep(g, r, s)


class TestEdgeOrbits:
    @staticmethod
    def recorded_decisions(monkeypatch):
        """The graphs that later ``max_s_given_r`` calls decide, in order."""
        decided = []
        real = oracle.max_s_given_r
        monkeypatch.setattr(oracle, "max_s_given_r", lambda g, r: decided.append(g) or real(g, r))
        return decided

    @pytest.mark.parametrize("n, build, orbits", [
        (9, construct_gamma_merg, 2), (9, construct_gamma_gamma_merg, 1),
        (10, construct_gamma_merg, 4), (10, construct_gamma_gamma_merg, 3),
        (20, construct_gamma_merg, 5), (20, construct_gamma_gamma_merg, 3),
        (49, construct_gamma_merg, 2), (49, construct_gamma_gamma_merg, 1),
    ])
    def test_one_decision_per_edge_orbit(self, n, build, orbits, monkeypatch):
        # one max_s_given_r call per orbit; the input is checked on its own
        # lattice, the one the orbits are read from
        decided = self.recorded_decisions(monkeypatch)
        g, _ = build(n)
        gamma = (n + 1) // 2
        s = None if build is construct_gamma_merg else gamma
        assert minimality_sweep(g, gamma, s).minimal
        assert len(decided) == orbits
        assert g not in decided

    def test_grouped_classes_swap_by_an_automorphism(self):
        rng = random.Random(23)
        swaps = 0
        for k in range(200):
            make = (twin_rich_graph, copied_class_graph)[k % 2]
            g = make(rng, rng.randint(2, 12), rng.randint(1, 4), rng.random())
            lat = oracle._lattice(g)
            classes, closed, group = lat.classes, lat.link.diagonal(), oracle._class_groups(lat)
            for c, d in combinations(range(len(classes)), 2):
                if group[c] != group[d]:
                    continue
                # swappable classes are never single nodes, and two of them
                # are joined exactly when they are false-twin classes
                assert len(classes[c]) > 1
                assert g.has_edge(classes[c][0], classes[d][0]) != closed[c]
                image = list(range(g.n))
                for u, v in zip(classes[c], classes[d], strict=True):
                    image[u], image[v] = v, u
                for u in range(g.n):
                    mapped = sum(1 << image[w] for w in g.neighbors(u))
                    assert mapped == g.adjacency[image[u]], (g, classes[c], classes[d])
                swaps += 1
        assert swaps >= 100, swaps

    @staticmethod
    def graphs(family):
        """340 twin-rich, copied-class or random graphs, or both families at
        n = 2-59, as built and relabelled by a variant seed."""
        rng = random.Random(31)
        if family == "families":
            return [build(n, variant=variant)[0] for n in range(2, 60)
                    for build in (construct_gamma_merg, construct_gamma_gamma_merg)
                    for variant in (None, 67)]
        if family == "random":
            return [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(340)]
        make = twin_rich_graph if family == "twin-rich" else copied_class_graph
        return [make(rng, rng.randint(2, 24), rng.randint(1, 4), rng.random()) for _ in range(340)]

    # (family, graphs decided, graphs with two swappable classes): 1,094
    # decided in all, as some graphs exceed the budget from n = 20 on
    @pytest.mark.parametrize("family, least, swaps", [
        ("twin-rich", 300, 70), ("copied-class", 270, 270), ("random", 340, 10),
        ("families", 170, 40),
    ], ids=["twin-rich", "copied-class", "random", "families"])
    def test_class_groups_match_the_pairwise_reference(self, family, least, swaps):
        decided = swapped = 0
        for g in self.graphs(family):
            try:
                lat = oracle._lattice(g)
            except CapExceededError:
                continue
            group = oracle._class_groups(lat)
            assert group == reference_class_groups(lat.classes, lat.link), g
            decided += 1
            swapped += group != list(range(len(group)))
        assert decided >= least and swapped >= swaps, (decided, swapped)

    def test_budget_refusal_comes_at_the_same_edge(self, monkeypatch):
        # 14 single nodes and a true-twin class of 3: exactly 2^16 cells.
        # Removing an edge at the class splits it, 3/2 times the budget.
        rng = random.Random(29)
        while True:
            g = random_graph(rng, 14, 0.5)
            hub = rng.sample(range(14), 7)
            edges = [*g.edges, (14, 15), (14, 16), (15, 16)]
            edges += [(u, t) for u in hub for t in (14, 15, 16)]
            g = new_graph(17, edges)
            if prod(len(c) + 1 for c in twin_classes(g)) == oracle.EXACT_CELL_BUDGET:
                break
        assert max_r_robustness(g) >= 1
        refused = None
        for e in g.edge_pairs():
            try:
                max_s_given_r(g.remove_edge(*e), 1)
            except CapExceededError as err:
                refused, expected = e, str(err)
                break
        assert refused is not None
        decided = self.recorded_decisions(monkeypatch)
        with pytest.raises(CapExceededError, match=f"^{re.escape(expected)}$"):
            minimality_sweep(g, 1)
        assert decided[-1] == g.remove_edge(*refused)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_verdicts_are_pure_functions(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    r = rng.randint(1, (n + 1) // 2)
    assert is_r_robust(g, r) == is_r_robust(g, r)
    s = rng.randint(1, n)
    assert is_rs_robust(g, r, s) == is_rs_robust(g, r, s)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10**6))
def test_twin_rich_graphs_match_brute_force(n, base, seed):
    """On graphs grown by cloning twins, the lattice decides like the brute
    force: max r and max s hold at their value and fail one above it, with
    the canonical witness."""
    rng = random.Random(seed)
    g = twin_rich_graph(rng, n, min(base, n), rng.random())
    gamma = (n + 1) // 2
    top = max_r_robustness(g)
    if n <= 7:
        assert top == brute_max_r(g)
    for r in {max(top, 1), min(top + 1, gamma)}:
        verdict = is_r_robust(g, r)
        expected = brute_first_failing_pair(g, r)
        assert verdict.holds == (expected is None) == (r <= top)
        if expected is not None:
            assert (verdict.witness.s1, verdict.witness.s2) == expected
    r = rng.randint(1, gamma)
    most = max_s_given_r(g, r)
    for s in {max(most, 1), min(most + 1, n)}:
        verdict = is_rs_robust(g, r, s)
        expected = brute_first_failing_pair(g, r, s)
        assert verdict.holds == (expected is None) == (s <= most)
        if n <= 7:
            assert verdict.holds == brute_is_rs_robust(g, r, s)
        if expected is not None:
            assert (verdict.witness.s1, verdict.witness.s2) == expected
