#!/usr/bin/env python3
"""Resilient consensus on the minimal constructions, with and without damage.

Normal agents run the trimmed update (drop up to F values strictly above own
and up to F strictly below, then average).  On a (2F+1)-robust graph this
tolerates F misbehaving agents; the minimal constructions sit exactly at
that edge, so removing one well-chosen edge is enough to let the adversary
split the network.

The exact oracle checks the labels of the n=49 graphs (maximum robustness
and single-edge minimality); the n=50 graphs are above its budget.

Trajectory CSVs land in demos/out/ so they can be plotted with any tool.
"""

from pathlib import Path

from mergraph import (
    CapExceededError,
    build_scenario,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    is_rs_robust,
    max_r_robustness,
    minimality_sweep,
    run_simulation,
    trajectory_metrics,
    trajectory_to_csv,
)
from mergraph.wmsr import (
    SCENARIO_BYZ_CONST,
    SCENARIO_BYZ_SPLIT,
    SCENARIO_TABLE,
    SCENARIO_TRIG_MALICIOUS,
)

OUT = Path(__file__).parent / "out"


def run(graph, scenario, seed, f=None, name=None):
    config, strategy = build_scenario(graph, scenario, f=f, steps=30, seed=seed)
    traj = run_simulation(config, strategy)
    if name:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}.csv").write_text(trajectory_to_csv(traj))
    return traj


def describe(label, traj):
    metrics = trajectory_metrics(traj)
    spread = metrics["spread"]
    m0, big_m = metrics["hull"]
    print(
        f"{label:<42} spread(0)={spread[0]:8.2f}  spread(30)={spread[30]:10.3g}"
        f"  hull=[{m0:.1f}, {big_m:.1f}]"
    )


def exact_check(g, s=None):
    """The exact oracle's verdict on the label's claim: max r, the
    (25, s) check when s is given, and single-edge minimality."""
    try:
        verdict = f"max r = {max_r_robustness(g)}"
        if s is not None:
            holds = is_rs_robust(g, 25, s).holds
            verdict += f", (25,{s})-robust: {'yes' if holds else 'no'}"
        sweep = minimality_sweep(g, 25, s)
        verdict += f", minimal: {'yes' if sweep.minimal else 'no'} ({len(sweep.entries)} removals)"
    except CapExceededError:
        verdict = f"n={g.n} is above the exact budget, not checked"
    print(f"  exact: {verdict}")


def main() -> None:
    print("=== broadcast attackers on large minimal graphs (F-total malicious) ===")
    for n in (49, 50):
        g, _ = construct_gamma_merg(n)
        traj = run(g, SCENARIO_TRIG_MALICIOUS, seed=0, f=12, name=f"trig_r_n{n}")
        describe(f"25-robust, n={n}, 12 malicious", traj)
        exact_check(g)
    for n in (49, 50):
        g, _ = construct_gamma_gamma_merg(n)
        traj = run(g, SCENARIO_TRIG_MALICIOUS, seed=0, f=24, name=f"trig_rs_n{n}")
        describe(f"(25,25)-robust, n={n}, 24 malicious", traj)
        exact_check(g, 25)
    print("all four: convergence inside the initial hull despite the forged waves")

    print()
    print("=== two Byzantine agents vs the 5-robust constructions ===")
    for n in (9, 10):
        g, _ = construct_gamma_merg(n)
        intact = run(g, SCENARIO_BYZ_SPLIT, seed=1, name=f"split_n{n}_intact")
        describe(f"n={n} intact", intact)
        edge = SCENARIO_TABLE[SCENARIO_BYZ_SPLIT].removals[n]
        damaged = run(g.remove_edge(*edge), SCENARIO_BYZ_SPLIT, seed=1, name=f"split_n{n}_removed")
        describe(f"n={n} minus edge {edge}", damaged)
    print("one deleted edge drops the graphs to 4-robust and consensus fails")

    print()
    print("=== four Byzantine agents vs the (5,5)-robust constructions ===")
    for n in (9, 10):
        g, _ = construct_gamma_gamma_merg(n)
        intact = run(g, SCENARIO_BYZ_CONST, seed=1, name=f"const_n{n}_intact")
        describe(f"n={n} intact", intact)
        edge = SCENARIO_TABLE[SCENARIO_BYZ_CONST].removals[n]
        damaged = run(g.remove_edge(*edge), SCENARIO_BYZ_CONST, seed=1, name=f"const_n{n}_removed")
        describe(f"n={n} minus edge {edge}", damaged)
    print("one deleted edge drops the graphs below (5,5)-robust and consensus fails")


if __name__ == "__main__":
    main()
