"""Seeded op lists for the benchmark workloads.

A plan is pure data: the input files to prepare and the CLI invocations
("ops") to time, each with what its check expects.  Plans depend only on the
workload name and the seed, never on the program, so equal seeds give equal
plans and the program sees nothing but the generated files and argv.

Edge removals pick an index into a construction's sorted edge list.  The
index range comes from the paper's closed-form edge count, so a plan can be
drawn before any graph exists.

Each pass holds at least 100 distinct ops, so ``op_p90_ms`` has at least ten
ops beyond it.  Counts per size class are chosen so that the median and the
90th percentile each fall inside one group of similar ops, not on the
boundary between two size classes, and a pass takes 1-9 s on a 2-core
machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

WORK_ROOT = ".bench_work"
PINNED_DIR = "tests/data"

SCENARIOS = ("viiA-malicious", "viiB-gamma", "viiB-gammagamma", "none")
SCENARIO_DEFAULT_F = {"viiB-gamma": 2, "viiB-gammagamma": 4, "none": 0}
STEPS = 30

KNOWN_DEFECT_N10 = (
    "viiB-gammagamma n=10 --remove-edge default: the documented edge (0,2) "
    "joins two Byzantine agents, so the run still converges"
)


def gamma_of(n: int) -> int:
    return (n + 1) // 2


def edge_count(n: int, kind: str) -> int:
    """The paper's minimum edge count for the family ``kind`` on n nodes."""
    g = gamma_of(n)
    if kind == "r":
        return 3 * g * (g - 1) // 2 if n % 2 else (g * (3 * g - 2) + 2) // 2
    return comb(n, 2) if n % 2 else 2 * g * (g - 1) + (g + 1) // 2


def trig_f(n: int, kind: str) -> int:
    """Largest F the family's robustness supports against F-total malicious
    agents: (2F+1)-robust for the gamma family, (F+1, F+1) for the other."""
    g = gamma_of(n)
    return (g - 1) // 2 if kind == "r" else g - 1


@dataclass(frozen=True)
class Construct:
    """Prepare a file with ``mergraph construct``."""

    path: str
    n: int
    kind: str
    variant: int | None = None


@dataclass(frozen=True)
class RemoveEdge:
    """Copy a graph file without the edge at ``index`` of its sorted edge list."""

    path: str
    source: str
    index: int


@dataclass(frozen=True)
class RandomGraph:
    """A seeded uniformly random graph with exactly ``m`` edges."""

    path: str
    n: int
    m: int
    seed: int


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its check expects."""

    argv: tuple[str, ...]
    check: str
    expect: dict = field(default_factory=dict, hash=False, compare=True)
    known_defect: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    work_dir: str
    inputs: tuple
    ops: tuple[Op, ...]


def _spread_sample(rng: random.Random, m: int, count: int) -> list[int]:
    """``count`` of the ``m`` edge indices, evenly spaced from a seeded offset,
    so every seed samples all parts of the sorted edge list alike."""
    offset = rng.randrange(m)
    return sorted((offset + k * m // count) % m for k in range(count))


def _exact(rng: random.Random, wd: str):
    """Oracle decisions that hold or return a level, never a witness scan.

    The slowest tenth are max-r checks on the gamma family minus an edge,
    which decide two levels; the median sits among the one-level n=16 ops.
    """
    inputs, ops = [], []
    for n, copies, removals in ((16, 2, 10), (15, 1, 2)):
        g = gamma_of(n)
        for kind in ("r", "rs"):
            if kind == "r":
                s_range = (1, n)
            elif n % 2:
                s_range = (n, n)  # the complete graph
            else:
                s_range = (g, 2 * ((g + 1) // 2))
            for copy in range(copies):
                base = f"{wd}/{kind}{n}-{copy}.json"
                inputs.append(Construct(base, n, kind, rng.randrange(1 << 30)))
                ops += [
                    Op(("robustness", "--graph", base, "--json"), "max_r",
                       {"n": n, "max_r": g}),
                    Op(("robustness", "--graph", base, "--rs", "--json"), "max_s",
                       {"r": g, "range": s_range}),
                    Op(("robustness", "--graph", base, "--r", str(g), "--json"), "holds",
                       {"r": g}),
                ]
                for index in _spread_sample(rng, edge_count(n, kind), removals):
                    path = f"{base[:-5]}-e{index}.json"
                    inputs.append(RemoveEdge(path, base, index))
                    # A removal costs each set at most one reachable node: the
                    # gamma family drops to gamma-1 (it sits on the edge floor);
                    # the (gamma, gamma) family keeps gamma, since every node
                    # keeps at least 2*gamma-3 >= gamma neighbours.
                    ops += [
                        Op(("robustness", "--graph", path, "--json"), "max_r",
                           {"n": n, "max_r": g - 1 if kind == "r" else g}),
                        Op(("robustness", "--graph", path, "--rs", "--json"), "max_s",
                           {"r": g, "range": (0, 0) if kind == "r" else (1, g - 1)}),
                    ]
    return inputs, ops


def gamma_family_edges(n: int) -> list[tuple[int, int]]:
    """Sorted edges of the canonical gamma family, as the paper builds it:
    a (gamma+1)-clique with the other nodes joined to gamma of its members
    (odd n), or a gamma-node hub joined to every node, less the hub pairs
    (0,1), (2,3), ... (even n)."""
    g = gamma_of(n)
    if n % 2:
        return [(u, v) for u, v in combinations(range(n), 2) if v <= g or u < g]
    dropped = {(2 * i, 2 * i + 1) for i in range((g - 1) // 2)}
    return [(u, v) for u, v in combinations(range(n), 2) if u < g and (u, v) not in dropped]


def _gamma_removals(rng: random.Random, n: int, inside: int, outside: int) -> list[int]:
    """Edge indices with fixed counts inside the core (both ends among the
    gamma nodes every other node is joined to), whose witnesses the
    canonical scan finds late, and outside it, found early."""
    edges = gamma_family_edges(n)
    core = gamma_of(n)
    classes = ([i for i, (u, v) in enumerate(edges) if v < core],
               [i for i, (u, v) in enumerate(edges) if v >= core])
    return sorted(members[k] for members, count in zip(classes, (inside, outside))
                  for k in _spread_sample(rng, len(members), count))


def _witness(rng: random.Random, wd: str):
    """Failing checks: each op pays the canonical witness scan.

    The median sits among the 40 tightly grouped n=11 rs ops, which are
    slower than every n=10 op and every r witness found early; the slowest
    tenth are n=12 rs witnesses, n=12 r removals inside the core and the
    sweeps.  r removals are drawn with fixed counts inside and outside the
    core, since the two kinds differ 5-60x in cost.
    """
    inputs, ops = [], []
    for n, kind, count in ((10, "r", 12), (11, "r", 12), (12, "r", 12),
                           (10, "rs", 10), (11, "rs", 40), (12, "rs", 10)):
        g = gamma_of(n)
        base = f"{wd}/{kind}{n}.json"
        inputs.append(Construct(base, n, kind))
        level = ("--r", str(g)) if kind == "r" else ("--r", str(g), "--s", str(g))
        if kind == "r":
            indices = _gamma_removals(rng, n, 3, count - 3)
        else:
            indices = _spread_sample(rng, edge_count(n, kind), count)
        for index in indices:
            path = f"{wd}/{kind}{n}-e{index}.json"
            inputs.append(RemoveEdge(path, base, index))
            ops.append(Op(("robustness", "--graph", path, *level, "--json"),
                          "witness", {"kind": kind, "r": g, "s": g}))
    for n in (9, 10):
        for kind in ("r", "rs"):
            base = f"{wd}/{kind}{n}.json"
            inputs.append(Construct(base, n, kind))
            ops.append(Op(("minimality", "--graph", base, "--kind", kind, "--json"),
                          "sweep", {"kind": kind, "r": gamma_of(n)}))
    return inputs, ops


def _simulate(wd: str, index: int, graph: str, scenario: str, seed: int,
              f: int | None = None, remove: bool = False,
              known_defect: str | None = None, **expect) -> Op:
    out = f"{wd}/sim{index}.csv"
    argv = ["simulate", "--graph", graph, "--scenario", scenario, "--seed", str(seed)]
    if f is not None:
        argv += ["--f", str(f)]
    if remove:
        argv += ["--remove-edge", "default"]
    argv += ["--out", out, "--json"]
    expect.update(graph=graph, scenario=scenario, seed=seed, out=out, removed=remove,
                  f=SCENARIO_DEFAULT_F[scenario] if f is None else f)
    return Op(tuple(argv), "simulate", expect, known_defect)


def _consensus(rng: random.Random, wd: str):
    """W-MSR runs on the constructions plus the paper's anchor runs.

    The median sits among the n=50 runs; the slowest tenth are the two n=200
    runs and the slower n=100 runs.  Labels stay canonical: the scenarios
    pick misbehaving agents by label, and a relabelling would change how
    many high-degree nodes run the update, and so the cost, from seed to seed.
    """
    inputs, ops = [], []

    def add(*args, **kwargs):
        ops.append(_simulate(wd, len(ops), *args, **kwargs))

    for n, per_kind in ((50, 37), (100, 6), (200, 1)):
        for kind in ("r", "rs"):
            path = f"{wd}/{kind}{n}.json"
            inputs.append(Construct(path, n, kind))
            for i in range(per_kind):
                scenario = SCENARIOS[i % 4] if per_kind >= 4 else rng.choice(SCENARIOS)
                f = trig_f(n, kind) if scenario == "viiA-malicious" else None
                add(path, scenario, rng.randrange(1 << 16), f)
    # Section VII-A: trig-wave malicious broadcasts, seed 0.
    for kind in ("r", "rs"):
        for n in (49, 50):
            path = f"{wd}/anchor-{kind}{n}.json"
            inputs.append(Construct(path, n, kind))
            pinned = f"{PINNED_DIR}/trig_n49_f12_seed0.csv" if (kind, n) == ("r", 49) else None
            add(path, "viiA-malicious", 0, trig_f(n, kind), ratio_below=0.05, pinned=pinned)
    # Section VII-B: Byzantine agents, intact and with the documented removal, seed 1.
    pins = {
        ("viiB-gamma", 9): "byz_split_n9_removed_3_8_seed1.csv",
        ("viiB-gamma", 10): "byz_split_n10_removed_4_9_seed1.csv",
        ("viiB-gammagamma", 9): "byz_const_n9_removed_7_8_seed1.csv",
    }
    for scenario, kind in (("viiB-gamma", "r"), ("viiB-gammagamma", "rs")):
        for n in (9, 10):
            path = f"{wd}/anchor-{kind}{n}.json"
            inputs.append(Construct(path, n, kind))
            add(path, scenario, 1, ratio_below=0.05)
            pin = pins.get((scenario, n))
            add(path, scenario, 1, remove=True, spread_at_least=10.0,
                pinned=f"{PINNED_DIR}/{pin}" if pin else None,
                known_defect=KNOWN_DEFECT_N10 if (scenario, n) == ("viiB-gammagamma", 10) else None)
    return inputs, ops


def _certify(rng: random.Random, wd: str):
    """Certificate reports on sparse random graphs, and large-graph I/O.

    The median sits among the n=16 reports; the 90th percentile among the
    n=18 reports, below the n=800 ops, the n=20 reports and the slower n=400
    ops.
    """
    inputs, ops = [], []
    for n, count in ((16, 76), (18, 12), (20, 2)):
        g = n // 2
        dense_need = (g * g + 2) // 2
        for i in range(count):
            # Fewer edges than the dense-subgraph threshold: no subset can meet
            # it, so the check scans all C(n, gamma+1) subsets.
            path = f"{wd}/random{n}-{i}.json"
            inputs.append(RandomGraph(path, n, dense_need - 1 - rng.randrange(3),
                                      rng.randrange(1 << 30)))
            ops.append(Op(("bounds", "--graph", path, "--json"), "bounds"))
    # At n=800 a relabelled build would double the slowest op, so it keeps
    # the canonical labels.
    for n, kinds in ((200, ("r", "rs")), (400, ("r", "rs")), (800, ("rs",))):
        for kind in kinds:
            variant = rng.randrange(1 << 30) if n < 800 else None
            path = f"{wd}/{kind}{n}.json"
            inputs.append(Construct(path, n, kind, variant))
            out = f"{wd}/built-{kind}{n}.json"
            relabel = ("--variant", str(variant)) if variant is not None else ()
            ops += [
                Op(("construct", "--n", str(n), "--kind", kind, *relabel, "--out", out, "--json"),
                   "construct", {"n": n, "kind": kind, "out": out}),
                Op(("bounds", "--graph", path, "--json"), "bounds"),
                Op(("robustness", "--graph", path, "--json"), "infeasible"),
            ]
    return inputs, ops


BUILDERS = {
    "exact": _exact,
    "witness": _witness,
    "consensus": _consensus,
    "certify": _certify,
}
WORKLOADS = tuple(BUILDERS)


def plan(workload: str, seed: int, work_root: str = WORK_ROOT) -> Plan:
    """The seeded inputs and the shuffled op list of one pass."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    wd = f"{work_root}/{workload}"
    inputs, ops = BUILDERS[workload](rng, wd)
    rng.shuffle(ops)
    return Plan(workload, seed, wd, tuple(dict.fromkeys(inputs)), tuple(ops))


# -- input files ---------------------------------------------------------------

def graph_json(n: int, edges) -> str:
    """The program's canonical graph JSON: sorted pairs, compact separators."""
    body = ",".join(f"[{u},{v}]" for u, v in sorted(edges))
    return f'{{"n":{n},"edges":[{body}]}}\n'


def random_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    return random.Random(seed).sample(list(combinations(range(n), 2)), m)
