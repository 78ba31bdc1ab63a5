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
    has_edge,
    neighbors,
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


# graphs that _lattice refuses: P17's lattice has 2^17 cells, and P255 is
# past the uint8 limit.  A bad level must still raise its own ValueError,
# so the level checks come before any table.
REFUSED_PATHS = (17, 255)


class TestReachability:
    def test_whole_vertex_set_never_reachable(self):
        g = complete_graph(6)
        assert reachable_count(g, set(range(6)), 1) == 0
        assert reachable_count(g, set(range(6)), 3) == 0

    def test_single_node_in_complete_graph(self):
        assert reachable_count(complete_graph(5), {0}, 4) == 1

    def test_peripheral_nodes_of_9_node_construction(self):
        g, _ = construct_gamma_merg(9)
        assert reachable_count(g, {6, 7, 8}, 5) == 3

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
        with pytest.raises(ValueError, match="^subset must be nonempty$"):
            reachable_count(g, set(), 1)
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            reachable_count(g, {0}, 0)
        with pytest.raises(ValueError, match="^node 9 out of range for n=4$"):
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

    @pytest.mark.parametrize("n", (3, *REFUSED_PATHS))
    def test_validation(self, n):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            is_r_robust(path(n), 0)

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

    @pytest.mark.parametrize("g", [complete_graph(4), *map(path, REFUSED_PATHS)],
                             ids=lambda g: f"n{g.n}")
    @pytest.mark.parametrize("r, s_of, message", [
        (0, lambda n: 1, "r must be a positive integer"),
        (1, lambda n: 0, "s must lie in [1, {n}]"),
        (1, lambda n: n + 1, "s must lie in [1, {n}]"),
    ], ids=["r=0", "s=0", "s=n+1"])
    def test_validation(self, g, r, s_of, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(n=g.n))}$"):
            is_rs_robust(g, r, s_of(g.n))


class TestMaxS:
    def test_complete_9(self):
        assert max_s_given_r(complete_graph(9), 5) == 9

    @pytest.mark.parametrize("g", [complete_graph(4), *map(path, REFUSED_PATHS)],
                             ids=lambda g: f"n{g.n}")
    def test_validation(self, g):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            max_s_given_r(g, 0)

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
                twins = neighbors(g, u) - {v} == neighbors(g, v) - {u}
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
            maxout = oracle._maxout_table(lat)[cells].tolist()
            assert maxout == [max((brute_outside_degree(g, i, s) for i in s), default=0)
                              for s in subsets]

    def test_count_terms_match_their_definitions(self):
        # the per-half-shape terms the tables are built from: a_c, |c| - a_c,
        # min(a_c, 1) and the sum of a_c, one column per cell in C order
        rng = random.Random(47)
        shapes = [(), (2,), (255,)] + [
            tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 6))) for _ in range(40)]
        for shape in shapes:
            terms = oracle._counts(shape)
            counts = np.indices(shape).reshape(len(shape), prod(shape))
            sizes = np.array(shape, dtype=int)[:, None] - 1
            assert terms.counts.tolist() == counts.tolist()
            assert terms.left.tolist() == (sizes - counts).tolist()
            assert terms.present.tolist() == np.minimum(counts, 1).tolist()
            assert terms.size.tolist() == counts.sum(0).tolist()
            for term in terms:
                assert term.dtype == np.uint8 and not term.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    term[...] = 0


def per_position_subset_min(vals: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The subset-min as a running minimum along each axis, one
    ``np.minimum`` per position: the reference for ``oracle._subset_min``."""
    v = np.array(vals, dtype=vals.dtype).reshape(shape)
    for axis, width in enumerate(shape):
        lines = np.moveaxis(v, axis, 0)
        for j in range(1, width):
            np.minimum(lines[j:j + 1], lines[j - 1:j], out=lines[j:j + 1])
    return v.ravel()


class TestSubsetMin:
    # random widths 2-12 take both paths (an axis at least 4 wide is
    # accumulated); so do these 200+ wide axes
    WIDE = [(201,), (2, 210), (247, 3, 2, 2, 2, 2, 2, 2), (247, 4, 2, 2, 2, 2, 2),
            (3, 230, 5), (256, 256)]

    @staticmethod
    def random_shapes(rng: random.Random, count: int) -> list[tuple[int, ...]]:
        shapes = []
        while len(shapes) < count:
            shape = tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 5)))
            if prod(shape) <= oracle.EXACT_CELL_BUDGET:
                shapes.append(shape)
        return shapes

    @pytest.mark.parametrize("sliced", [False, True], ids=["whole", "sliced"])
    def test_matches_per_position_loop(self, sliced):
        # a sliced box is what the witness reads: the lattice from offsets q up
        rng = random.Random(61)
        values = np.random.default_rng(61)
        for shape in self.random_shapes(rng, 150) + self.WIDE:
            grid = values.integers(0, 256, size=prod(shape), dtype=np.uint8).reshape(shape)
            box = grid[tuple(slice(rng.randrange(w) if sliced else 0, None) for w in shape)]
            before = box.copy()
            got = oracle._subset_min(box, box.shape)
            assert (got.ravel() == per_position_subset_min(before, box.shape)).all(), shape
            assert (box == before).all()


class TestBestPair:
    COMBINES = [np.add, np.maximum]
    SHAPES = [(2,) * n for n in range(1, 9)] + [(3,), (9,), (4, 2), (3, 3, 2), (2, 5, 3), (6, 4)]

    @staticmethod
    def both_paths(t, shape, combine):
        """The worst value ``_best_pair`` reads on the path the shape picks,
        and on the subset-min path."""
        return [oracle._best_pair(t, shape, combine)[0],
                box_path(oracle._best_pair, t, shape, combine)[0]]

    @pytest.mark.parametrize("combine", COMBINES)
    def test_matches_pair_loop_on_random_tables(self, combine):
        # every shape but (2,) * 8 is under the pair budget
        assert [oracle._count_pairs(shape) is None for shape in self.SHAPES].count(True) == 1
        rng = np.random.default_rng(59)
        for shape in self.SHAPES:
            cells = prod(shape)
            for absent_share in (0.0, 0.3, 0.7, 0.95):
                t = rng.integers(0, len(shape) + 1, size=cells, dtype=np.uint8)
                t[rng.random(cells) < absent_share] = oracle._ABSENT
                t[0] = oracle._ABSENT  # the empty set is never in a pair
                expected = brute_best_pair(t, shape, combine)
                for worst in self.both_paths(t, shape, combine):
                    if expected is None:
                        assert worst >= oracle._ABSENT
                    else:
                        assert worst == expected

    @pytest.mark.parametrize("combine", COMBINES)
    def test_no_present_pair_gives_absent(self, combine):
        for shape in self.SHAPES:
            absent = np.full(prod(shape), oracle._ABSENT, dtype=np.uint8)
            assert min(self.both_paths(absent, shape, combine)) >= oracle._ABSENT
            only_full = absent.copy()
            only_full[-1] = 0
            assert brute_best_pair(only_full, shape, combine) is None
            assert min(self.both_paths(only_full, shape, combine)) >= oracle._ABSENT


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
        # above the pair budget, the decision's subset-min over the whole
        # lattice is the witness's first S2 box; every later box is a
        # strictly smaller one
        sizes = []
        real = oracle._subset_min
        monkeypatch.setattr(
            oracle, "_subset_min", lambda v, shape: sizes.append(v.size) or real(v, shape))
        rng = random.Random(31)
        failed = 0
        for k in range(60):
            p = rng.random()
            g = twin_rich_graph(rng, 9, 5, p) if k % 2 else random_graph(rng, 9, p)
            shape = oracle._lattice(g).shape
            if oracle._count_pairs(shape) is not None:
                continue
            sizes.clear()
            if check(g).holds:
                continue
            cells = prod(shape)
            assert sizes.count(cells) == 1, (g, sizes)
            assert max(sizes) == cells
            failed += 1
        assert failed >= 10, failed

    @pytest.mark.parametrize("check", [
        lambda g: is_r_robust(g, 2), lambda g: is_rs_robust(g, 2, 3)])
    def test_failing_check_on_a_small_lattice_transforms_nothing(self, check, monkeypatch):
        # under the pair budget the worst pair of every check, max r among
        # them, and the witness are read off the count pairs
        def refuse(*args):
            raise AssertionError("a small lattice ran a subset-min")

        monkeypatch.setattr(oracle, "_subset_min", refuse)
        rng = random.Random(37)
        failed = 0
        while failed < 20:
            g = twin_rich_graph(rng, rng.randint(3, 12), rng.randint(1, 3), rng.random())
            if oracle._count_pairs(oracle._lattice(g).shape) is None:
                continue
            failed += not check(g).holds
            max_s_given_r(g, 2)
            max_r_robustness(g)

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
            assert reachable_count(g, w.s1, r) == 0
            assert reachable_count(g, w.s2, r) == 0
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

    @staticmethod
    def s2_before_a_later_run(g, witness) -> bool:
        """Whether a member of S2 has a later twin in another run of its
        class: the scan then fixes S2 members of a class that still has
        free members, and its next box tests read a rebuilt partner table
        that keeps that class's axis."""
        label = {u: k for k, c in enumerate(twin_classes(g)) for u in c}
        for u in witness.s2:
            later = [v for v in range(u + 1, g.n) if label[v] == label[u]]
            if later and any(label[w] != label[u] for w in range(u + 1, later[-1])):
                return True
        return False

    @pytest.mark.parametrize("n", [9, 10])
    def test_relabelled_family_witnesses_are_canonical(self, n):
        # a variant relabels the family, so its twin classes interleave in
        # node order and a class can be split over several runs
        gamma = (n + 1) // 2
        interleaved = 0
        for build, s in ((construct_gamma_merg, None), (construct_gamma_gamma_merg, gamma)):
            g, _ = build(n, variant=2)
            assert not self.assert_canonical(g, gamma, s)
            for e in sorted(g.edges):
                h = g.remove_edge(*e)
                assert self.assert_canonical(h, gamma, s), e
                verdict = is_r_robust(h, gamma) if s is None else is_rs_robust(h, gamma, s)
                interleaved += self.s2_before_a_later_run(h, verdict.witness)
        assert interleaved >= 20, interleaved

    def test_twin_rich_witnesses_are_canonical(self):
        rng = random.Random(79)
        checked = interleaved = 0
        while checked < 80:
            n = rng.randint(4, 10)
            g = twin_rich_graph(rng, n, rng.randint(2, 4), rng.random())
            r = rng.randint(1, (n + 1) // 2)
            for s in (None, rng.randint(2, n)):
                if self.assert_canonical(g, r, s):
                    checked += 1
                    verdict = is_r_robust(g, r) if s is None else is_rs_robust(g, r, s)
                    interleaved += self.s2_before_a_later_run(g, verdict.witness)
        assert interleaved >= 5, interleaved

    def test_witnesses_on_full_lattices(self):
        # twin-free graphs on 16 nodes fill the 2^16-cell budget, out of the
        # brute force's reach: pinned witnesses, each replayed as a failure
        cases = [(path(16), 2, 1, {13, 14}, {15})]
        g = random_graph(random.Random(1), 16, 0.35)
        cases += [(g, 3, 1, {8}, {10}), (g, 3, 4, {10}, {11, 15})]
        for g, r, s, s1, s2 in cases:
            assert prod(oracle._lattice(g).shape) == oracle.EXACT_CELL_BUDGET
            verdict = is_r_robust(g, r) if s == 1 else is_rs_robust(g, r, s)
            assert verdict.witness == oracle.SubsetPair(frozenset(s1), frozenset(s2))
            x1, x2 = reachable_count(g, s1, r), reachable_count(g, s2, r)
            assert x1 < len(s1) and x2 < len(s2) and x1 + x2 <= s - 1

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
                assert reachable_count(g, plain.witness.s1, r) == 0
                assert reachable_count(g, plain.witness.s2, r) == 0

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


def box_path(check, *args):
    """``check(*args)`` decided by the subset-min and box scan, whatever the
    lattice's pair count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_count_pairs", lambda shape: None)
        return check(*args)


def occupied_lattices(rng):
    """Random graphs on 2..8 nodes, whose 3^n pairs (for twin-free ones)
    lie on both sides of the pair budget, twin-rich graphs on up to 16 nodes
    and one single-edge removal of both families per lattice shape at
    n = 9..13."""
    for _ in range(12):
        yield random_graph(rng, rng.randint(2, 8), rng.random())
    for _ in range(16):
        yield twin_rich_graph(rng, rng.randint(2, 16), rng.randint(1, 4), rng.random())
    for n in range(9, 14):
        for build in (construct_gamma_merg, construct_gamma_gamma_merg):
            g = build(n)[0]
            shapes = {}
            for e in sorted(g.edges):
                h = g.remove_edge(*e)
                shapes.setdefault(oracle._lattice(h).shape, h)
            yield from shapes.values()


class TestCountPairPath:
    """Under ``_PAIR_BUDGET`` disjoint count pairs (and n <= 39) a check
    reads the worst pair and the witness off the count pairs."""

    def test_count_pairs_lists_every_disjoint_pair_once(self):
        for shape in ((2,), (3, 2), (2, 4, 3), (5,), (2,) * 7):
            a, b = oracle._count_pairs(shape)
            cells = np.indices(shape).reshape(len(shape), -1)
            pairs = {(x, y) for x in range(prod(shape)) for y in range(prod(shape))
                     if (cells[:, x] + cells[:, y] < shape).all()}
            assert sorted(zip(a.tolist(), b.tolist())) == sorted(pairs), shape
            assert len(pairs) == prod(w * (w + 1) // 2 for w in shape)
            assert a.dtype == b.dtype == np.int32
            assert not a.flags.writeable and not b.flags.writeable

    def test_budget_bounds_the_pairs_and_the_nodes(self):
        # 3^7 twin-free pairs fit, 3^8 do not; K_39 fits, K_40 is past the
        # int64 rank though its 861 pairs are under the budget
        assert oracle._count_pairs((2,) * 7) is not None
        assert oracle._count_pairs((2,) * 8) is None
        assert oracle._count_pairs((40,)) is not None
        assert oracle._count_pairs((41,)) is None

    def test_pair_path_matches_the_box_path_and_the_reference(self):
        rng = random.Random(43)
        paths = {True: 0, False: 0}
        referenced = 0
        for g in occupied_lattices(rng):
            small = oracle._count_pairs(oracle._lattice(g).shape) is not None
            paths[small] += 1
            pairs = prod((len(c) + 1) * (len(c) + 2) // 2 for c in twin_classes(g))
            max_r = max_r_robustness(g)
            assert max_r == box_path(max_r_robustness, g), g
            if g.n <= 8:
                assert max_r == brute_max_r(g), g
            for r in range(1, g.n + 1):
                most = max_s_given_r(g, r)
                assert most == box_path(max_s_given_r, g, r), (g, r)
                assert is_r_robust(g, r) == box_path(is_r_robust, g, r), (g, r)
                for s in range(1, g.n + 1):
                    verdict = is_rs_robust(g, r, s)
                    assert verdict == box_path(is_rs_robust, g, r, s), (g, r, s)
                    assert verdict.holds == (s <= most)
                    # the pure-Python reference at every level where its
                    # loop is short, else at the first failing level, for
                    # up to twice the budget's pairs and r up to gamma + 1
                    if pairs <= 100 or (pairs <= 2 * oracle._PAIR_BUDGET and s == most + 1
                                        and r <= (g.n + 3) // 2):
                        expected = count_pair_first_failing_pair(g, r, s)
                        witness = verdict.witness
                        assert expected == (None if witness is None else (witness.s1, witness.s2))
                        referenced += 1
        assert min(paths.values()) >= 20, paths
        assert referenced >= 400, referenced

    @pytest.mark.parametrize("n, small", [(39, True), (40, False)])
    def test_complete_graphs_at_the_rank_bound(self, n, small, monkeypatch):
        g = complete_graph(n)
        assert (oracle._count_pairs(oracle._lattice(g).shape) is not None) == small
        for r, s in (((n + 1) // 2 + 1, None), ((n + 3) // 2, 3), (n - 1, n)):
            check, args = (is_r_robust, (g, r)) if s is None else (is_rs_robust, (g, r, s))
            verdict = check(*args)
            assert not verdict.holds
            assert verdict == box_path(check, *args)
            expected = count_pair_first_failing_pair(g, r, s or 1)
            assert (verdict.witness.s1, verdict.witness.s2) == expected, (r, s)
        # the path taken: the box scan's witness only above the rank bound
        used = []
        monkeypatch.setattr(oracle, "_witness", lambda *a: used.append("box"))
        monkeypatch.setattr(oracle, "_pair_witness", lambda *a: used.append("pair"))
        is_r_robust(g, (n + 1) // 2 + 1)
        assert used == ["pair" if small else "box"]


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

    @pytest.mark.parametrize("g", [construct_gamma_gamma_merg(10)[0], *map(path, REFUSED_PATHS)],
                             ids=lambda g: f"n{g.n}")
    @pytest.mark.parametrize(
        "r, s_of, message",
        [
            (5, lambda n: 0, "s must lie in [1, {n}]"),
            (5, lambda n: n + 1, "s must lie in [1, {n}]"),
            (0, lambda n: 5, "r must be a positive integer"),
            (0, lambda n: None, "r must be a positive integer"),
        ],
        ids=["s=0", "s=n+1", "r=0", "r=0-s=None"],
    )
    def test_out_of_range_targets(self, g, r, s_of, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(n=g.n))}$"):
            minimality_sweep(g, r, s_of(g.n))


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
        monkeypatch.setattr(oracle, "_pair_witness", refuse)
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
                assert has_edge(g, classes[c][0], classes[d][0]) != closed[c]
                image = list(range(g.n))
                for u, v in zip(classes[c], classes[d], strict=True):
                    image[u], image[v] = v, u
                for u in range(g.n):
                    mapped = sum(1 << image[w] for w in neighbors(g, u))
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
