#!/usr/bin/env python3
"""Build maximally robust graphs with minimal edge sets and verify them.

For n nodes the largest achievable r-robustness is gamma = ceil(n/2).  The
two constructors produce a gamma-robust graph and a (gamma, gamma)-robust
graph whose edge counts meet the theoretical floors exactly, and the exact
oracle confirms the robustness levels, deciding over the twin-class lattice
without walking the subset pairs one by one.
"""

from mergraph import (
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    edge_lb_gamma_even,
    edge_lb_gamma_gamma,
    edge_lb_gamma_odd,
    gamma_of,
    graph_to_json,
    is_rs_robust,
    max_clique_size,
    max_r_robustness,
)


def main() -> None:
    print("=== gamma-robust graphs with minimal edges ===")
    print(f"{'n':>3} {'gamma':>5} {'edges':>6} {'floor':>6} {'clique':>6} {'oracle max r':>12}")
    for n in range(4, 13):
        g, recipe = construct_gamma_merg(n)
        gamma = gamma_of(n)
        floor = edge_lb_gamma_odd(gamma) if n % 2 else edge_lb_gamma_even(gamma)
        print(
            f"{n:>3} {gamma:>5} {len(g.edges):>6} {floor:>6}"
            f" {max_clique_size(g):>6} {max_r_robustness(g):>12}"
        )

    print()
    print("=== (gamma,gamma)-robust graphs with minimal edges ===")
    print(f"{'n':>3} {'gamma':>5} {'edges':>6} {'floor':>6} {'clique':>6} {'(g,g)-robust':>12}")
    for n in range(4, 13):
        g, _ = construct_gamma_gamma_merg(n)
        gamma = gamma_of(n)
        verdict = is_rs_robust(g, gamma, gamma)
        print(
            f"{n:>3} {gamma:>5} {len(g.edges):>6} {edge_lb_gamma_gamma(n):>6}"
            f" {max_clique_size(g):>6} {str(verdict.holds):>12}"
        )

    print()
    print("=== construction details for n = 10 ===")
    g, recipe = construct_gamma_merg(10)
    print("hub nodes adjacent to everyone:", recipe.hub)
    print("hub pairs whose edge was removed:", recipe.removed_pairs)
    print("graph JSON:", graph_to_json(g).strip())

    g, recipe = construct_gamma_gamma_merg(10)
    print("hub nodes adjacent to everyone:", recipe.hub)
    print("matching pairs kept out of the complete graph:", recipe.removed_pairs)

    print()
    print("=== label permutations preserve everything that matters ===")
    base, _ = construct_gamma_merg(9)
    shuffled, recipe = construct_gamma_merg(9, variant=7)
    print("canonical edges == permuted edges:", base == shuffled)
    print("permuted hub:", recipe.hub)
    print("permuted instance is still 5-robust:", max_r_robustness(shuffled) == 5)


if __name__ == "__main__":
    main()
