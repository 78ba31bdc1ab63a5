#!/usr/bin/env python3
"""Cheap necessary conditions versus the expensive exact oracle.

Exhaustive robustness checking is exponential, so closed-form certificates
earn their keep: an edge count below the r-level floor rules out r-robustness
instantly, and for the maximum (gamma, gamma) level the spanning-subgraph
characterization decides the question exactly in O(n^2).
"""

import random
import time

from mergraph import (
    certificate_report,
    complete_graph,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    gamma_of,
    is_rs_robust,
    max_clique_size,
    max_r_robustness,
    new_graph,
    prop1_gamma_gamma_check,
    r_upper_bound_from_edges,
    turan_clique_threshold,
)


def random_graph(rng, n, p):
    return new_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def main() -> None:
    print("=== edge counts alone bound robustness from above ===")
    rng = random.Random(2)
    print(f"{'n':>3} {'edges':>6} {'upper bound':>11} {'oracle max r':>12}")
    for _ in range(6):
        n = rng.randint(6, 12)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        ub = r_upper_bound_from_edges(n, len(g.edges))
        print(f"{n:>3} {len(g.edges):>6} {ub:>11} {max_r_robustness(g):>12}")

    print()
    print("=== a full certificate report ===")
    g, _ = construct_gamma_merg(10)
    report = certificate_report(g)
    print(f"n={report.n} gamma={report.gamma} edges={report.edge_count}")
    for check in report.checks:
        verdict = {True: "pass", False: "FAIL", None: "n/a"}[check.passed]
        print(f"  {check.name:<28} required>={check.required:<4} observed={check.observed}  [{verdict}] ({check.scope})")
    print("implied robustness upper bound:", report.implied_r_upper_bound)
    print("exact (gamma,gamma) test:", report.prop1_gamma_gamma)

    print()
    print("=== forced clique sizes at the (gamma,gamma) level ===")
    print("gamma:     ", list(range(1, 11)))
    print("clique >= :", [turan_clique_threshold(x) for x in range(1, 11)])
    gg10, _ = construct_gamma_gamma_merg(10)
    print(f"the minimal 10-node graph attains the bound with an {max_clique_size(gg10)}-clique")

    print()
    print("=== exact iff-check vs exhaustive oracle ===")
    rng = random.Random(5)
    graphs = [random_graph(rng, 10, rng.uniform(0.7, 1.0)) for _ in range(300)]
    t0 = time.perf_counter()
    fast = [prop1_gamma_gamma_check(g) for g in graphs]
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = [is_rs_robust(g, 5, 5).holds for g in graphs]
    t_slow = time.perf_counter() - t0
    print(f"300 dense graphs on 10 nodes: agreement={fast == slow}")
    print(f"complement check: {t_fast * 1000:.1f} ms   exhaustive oracle: {t_slow * 1000:.1f} ms")

    print()
    print("=== the odd case is all-or-nothing ===")
    k9 = complete_graph(9)
    print("K9 is (5,5)-robust:", prop1_gamma_gamma_check(k9))
    print("K9 minus one edge:", prop1_gamma_gamma_check(k9.remove_edge(0, 1)))
    print("(matches the oracle:", is_rs_robust(k9.remove_edge(0, 1), 5, 5).holds, ")")


if __name__ == "__main__":
    main()
