#!/usr/bin/env python3
"""Every single edge is load-bearing.

The constructions achieve their robustness with the fewest edges possible,
so deleting any one edge must drop the level.  The sweep below re-decides
the exact check after each removal.  It records only yes or no, so for the
first few removals the demo asks ``is_r_robust`` / ``is_rs_robust`` on the
reduced graph for the canonical witness pair that breaks it.
"""

from mergraph import (
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    gamma_of,
    is_r_robust,
    is_rs_robust,
    max_s_given_r,
    minimality_sweep,
)


def show_sweep(title, g, sweep, limit=6):
    print(title)
    for edge, holds in sweep.entries[:limit]:
        h = g.remove_edge(*edge)
        verdict = is_r_robust(h, sweep.r) if sweep.s is None else is_rs_robust(h, sweep.r, sweep.s)
        w = verdict.witness
        witness = f"S1={sorted(w.s1)} S2={sorted(w.s2)}" if w else ""
        print(f"  remove {edge}: {'still holds' if holds else 'breaks'}  {witness}")
    if len(sweep.entries) > limit:
        print(f"  ... {len(sweep.entries) - limit} more removals, all the same story")
    print(f"  minimal: {sweep.minimal}")
    print()


def main() -> None:
    for n in (9, 10):
        gamma = gamma_of(n)
        g, _ = construct_gamma_merg(n)
        sweep = minimality_sweep(g, gamma)
        show_sweep(f"=== {gamma}-robust graph on {n} nodes ({len(g.edges)} edges) ===", g, sweep)

    for n in (9, 10):
        gamma = gamma_of(n)
        g, _ = construct_gamma_gamma_merg(n)
        sweep = minimality_sweep(g, gamma, gamma)
        show_sweep(
            f"=== ({gamma},{gamma})-robust graph on {n} nodes ({len(g.edges)} edges) ===",
            g,
            sweep,
        )

    print("=== how far does one deletion drop the (5,5) level? ===")
    g, _ = construct_gamma_gamma_merg(10)
    worst = {}
    for edge in sorted(g.edges):
        worst[edge] = max_s_given_r(g.remove_edge(*edge), 5)
    print("max s at r=5 after each removal:", sorted(set(worst.values())))
    print("every deletion leaves at most a (5,4)-robust graph")


if __name__ == "__main__":
    main()
