"""Discrete-time resilient consensus with trimming, plus adversary models.

Agents hold scalar states and update synchronously.  A normal agent running
the trimmed update sorts the values received from its neighbors, discards up
to F of them strictly above its own state (the largest ones) and up to F
strictly below (the smallest ones), then moves to the uniform average of its
own state and the retained values.  With F = 0 this degenerates to plain
uniform averaging.  An agent keeps at most n - 1 values, so each weight is
at least 1/n: the W-MSR weight floor (LeBlanc et al., IEEE JSAC 2013) holds
by construction and is not a setting.

Summation order: an update adds the retained values left to right in
ascending neighbor order, starting from 0.0, and then adds that total to the
agent's own state: ``own + (((0.0 + v0) + v1) + ...)``.  This is what
Python's ``sum`` did on floats before 3.12 (3.12 compensates the rounding),
so trajectories do not depend on the Python version.

Misbehaving agents never follow the update.  A malicious agent broadcasts a
single forged value per step to all neighbors; a Byzantine agent may send a
different value to every receiver.  Misbehavior models are value-level:
rounds are synchronous and lossless, so no message objects are needed.
Strategy methods must be pure functions of their arguments: a round may call
one once per step and reuse the value (a malicious broadcast is both logged
and sent), or call it more than once with the same arguments.  A NaN strategy
value is an error; an infinite one is an ordinary extreme, which the trim
removes like any other.

Determinism: given an identical configuration a run produces a bit-identical
trajectory.  Randomness enters only through the initial states, which the
packaged scenarios draw from a seeded numpy PCG64 generator whose stream is
stable across platforms; regression data should still store full
trajectories rather than just seeds.

Trajectory CSV format: header ``t,node_0,...,node_{n-1}``, one row per step
including t = 0, values rendered with 17 significant digits (lossless for
float64).  The role sidecar is ``{"roles": [...], "F": <int>}``.  A
Byzantine agent has no single state, so its logged value at each step is the
one it sends to its lowest-indexed neighbor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph_core import Graph, mask_bits, members


class AgentRole(str, Enum):
    NORMAL = "normal"
    MALICIOUS = "malicious"
    BYZANTINE = "byzantine"


# -- update rules --------------------------------------------------------------

def _left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: the summation order of every update."""
    total = 0.0
    for v in values:
        total += v
    return total


def wmsr_retained(own: float, neighbor_values: Sequence[float], f: int) -> list[float]:
    """Neighbor values surviving the trim: drop up to ``f`` strictly above own
    (largest first) and up to ``f`` strictly below (smallest first).

    The survivors keep their input order, so with f = 0 the subsequent
    average sums every value in input order.  Ties among equal extremes are
    broken by dropping earlier-positioned duplicates first; any consistent
    rule leaves the same retained multiset.
    """
    if f < 0:
        raise ValueError("f must be non-negative")
    above = sorted(v for v in neighbor_values if v > own)
    below = sorted(v for v in neighbor_values if v < own)
    drop: dict[float, int] = {}
    for v in above[max(0, len(above) - f):]:
        drop[v] = drop.get(v, 0) + 1
    for v in below[: min(f, len(below))]:
        drop[v] = drop.get(v, 0) + 1
    kept = []
    for v in neighbor_values:
        if drop.get(v, 0) > 0:
            drop[v] -= 1
            continue
        kept.append(v)
    return kept


def wmsr_step(own: float, neighbor_values: Sequence[float], f: int) -> float:
    """One trimmed-consensus update; result lies in [min, max] of own + retained."""
    kept = wmsr_retained(own, neighbor_values, f)
    return (own + _left_sum(kept)) / (1 + len(kept))


def nominal_step(own: float, neighbor_values: Sequence[float]) -> float:
    """Uniform-weight convex combination of own state and all neighbor values:
    the trimmed update with nothing trimmed."""
    return wmsr_step(own, neighbor_values, 0)


# -- adversary scope models ------------------------------------------------------

def is_f_total(roles: Sequence[AgentRole], f: int) -> bool:
    """True iff at most ``f`` agents misbehave in total."""
    return sum(1 for role in roles if role is not AgentRole.NORMAL) <= f


def is_f_local(g: Graph, s: Iterable[int], f: int) -> bool:
    """True iff every node outside ``s`` has at most ``f`` neighbors inside it."""
    mask = g.subset_mask(s)
    outside = ((1 << g.n) - 1) ^ mask
    return all((g.adjacency[i] & mask).bit_count() <= f for i in members(outside))


# -- adversary strategies --------------------------------------------------------

def trig_malicious_value(agent: int, t: int) -> float:
    """Forged broadcast: 1080*cos(t/5) for even agents, 1080*sin(t/5) for odd."""
    phase = t / 5
    return 1080.0 * (math.cos(phase) if agent % 2 == 0 else math.sin(phase))


@dataclass(frozen=True)
class TrigMalicious:
    """Trig-wave broadcast attack; one common value per step."""

    def malicious_value(self, agent: int, t: int) -> float:
        return trig_malicious_value(agent, t)


@dataclass(frozen=True)
class SplitByReceiver:
    """Byzantine: send 100 to receivers with index <= ceil(n/2), 0 to the rest."""

    n: int

    def byzantine_value(self, agent: int, receiver: int, t: int) -> float:
        return 100.0 if receiver <= (self.n + 1) // 2 else 0.0


@dataclass(frozen=True)
class ConstByAgent:
    """Byzantine by role, constant by choice: agent 3 sends 100 to everyone,
    the other misbehaving agents send 0."""

    def byzantine_value(self, agent: int, receiver: int, t: int) -> float:
        return 100.0 if agent == 3 else 0.0


# -- configuration and trajectories ----------------------------------------------

# the most float64 cells a trajectory, (steps + 1) rows by n, may hold (512 MiB)
MAX_TRAJECTORY_CELLS = 1 << 26


@dataclass(frozen=True)
class SimConfig:
    """Everything one run depends on; two equal configs give identical runs.

    A run whose trajectory would exceed ``MAX_TRAJECTORY_CELLS`` is refused.
    """

    graph: Graph
    roles: tuple[AgentRole, ...]
    f: int
    steps: int
    initial_states: tuple[float, ...]

    def __post_init__(self) -> None:
        n = self.graph.n
        if len(self.roles) != n:
            raise ValueError("roles must cover every node")
        if len(self.initial_states) != n:
            raise ValueError("initial_states must cover every node")
        if not all(math.isfinite(v) for v in self.initial_states):
            raise ValueError("initial_states must be finite")
        if self.f < 0:
            raise ValueError("f must be non-negative")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if (self.steps + 1) * n > MAX_TRAJECTORY_CELLS:
            raise ValueError(
                f"{self.steps} steps on {n} nodes exceed the trajectory limit"
                f" of {MAX_TRAJECTORY_CELLS} cells"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-agent states over time, with roles attached for interpretation."""

    states: np.ndarray  # shape (steps+1, n)
    roles: tuple[AgentRole, ...]
    f: int

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def normal_indices(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is AgentRole.NORMAL)

    def normal_states(self) -> np.ndarray:
        idx = self.normal_indices
        if not idx:
            raise ValueError("trajectory has no normal agents")
        return self.states[:, list(idx)]

    def spread(self, t: int) -> float:
        row = self.normal_states()[t]
        return float(row.max() - row.min())

    def spreads(self) -> np.ndarray:
        rows = self.normal_states()
        return rows.max(axis=1) - rows.min(axis=1)

    def hull_bounds(self) -> tuple[float, float]:
        """(m0, M0): min and max of the normal agents' initial states."""
        row = self.normal_states()[0]
        return float(row.min()), float(row.max())


def _adjacency_matrix(g: Graph) -> np.ndarray:
    """(n, n) bool matrix whose row i marks the neighbors of node i."""
    return mask_bits(g.adjacency, g.n).view(bool)


def _neighbor_index(adj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Padded index of the listed nodes' neighbors, one column per node.

    Column k lists node ``rows[k]``'s neighbors in ascending order, top to
    bottom; there is at least one row.  Padding is the column's own node:
    it gathers the receiver's own state, which the trim never drops, and a
    node is never its own neighbor, so ``index != rows`` marks the neighbors.
    """
    sub = adj[rows]
    degree = sub.sum(axis=1)
    width = max(int(degree.max(initial=0)), 1)
    col, nbr = np.nonzero(sub)
    pos = np.arange(col.size) - np.repeat(np.cumsum(degree) - degree, degree)
    # intp, so that each round's gather need not convert the index
    index = np.repeat(rows.astype(np.intp)[None, :], width, axis=0)
    index[pos, col] = nbr
    return index


def _strategy_values(values: list[float], agents: Sequence[int], t: int) -> np.ndarray:
    """The values as float64; a NaN is an error naming its agent and step."""
    out = np.array(values, dtype=np.float64)
    nan = np.isnan(out)
    if nan.any():
        raise ValueError(f"agent {agents[int(nan.argmax())]} sent NaN at step {t}")
    return out


def _trimmed(received: np.ndarray, own: np.ndarray, f: int) -> np.ndarray:
    """Mask of the cells the trim drops from each column of ``received``.

    ``received`` is (width, columns) with f >= 1; cells equal to the column's
    ``own`` value (padding among them) are neither above nor below it.  One
    ascending sort gives the f-th smallest value ``lo`` and the f-th largest
    ``hi``.  Below own, the cells at most ``lo`` are dropped, above own the
    cells at least ``hi``: one compare per side.  Where the cut splits a run
    of values equal to ``lo`` (or ``hi``), only its earliest copies within
    the f are dropped, as :func:`wmsr_retained` does.

    A NaN cell fails every compare, so it is never dropped, and a column
    whose own value is NaN drops nothing.  Such a column folds to NaN, so
    where the sort puts NaN does not matter.
    """
    width = received.shape[0]
    ordered = np.sort(received, axis=0)
    lo_row, hi_row = min(f, width) - 1, max(width - f, 0)
    lo, hi = ordered[lo_row], ordered[hi_row]
    lo_cut = np.minimum(np.nextafter(lo, np.inf), own)
    hi_cut = np.maximum(np.nextafter(hi, -np.inf), own)
    splits = []
    if lo_row + 1 < width:
        split = (lo < own) & (ordered[lo_row + 1] == lo)
        if split.any():
            np.copyto(lo_cut, lo, where=split)
            splits.append((np.where(split, lo, np.nan), ordered[: lo_row + 1]))
    if hi_row > 0:
        split = (hi > own) & (ordered[hi_row - 1] == hi)
        if split.any():
            np.copyto(hi_cut, hi, where=split)
            splits.append((np.where(split, hi, np.nan), ordered[hi_row:]))
    drop = (received < lo_cut) | (received > hi_cut)
    count = np.min_scalar_type(width)
    # NaN marks the columns the cut does not split: nothing equals it
    for value, cut_rows in splits:
        ties = received == value
        need = (cut_rows == value).sum(axis=0, dtype=count)
        drop |= ties & (ties.cumsum(axis=0, dtype=count) <= need)
    return drop


def run_simulation(config: SimConfig, adversary: object | None = None) -> Trajectory:
    """Run synchronous rounds: everyone emits, then normal agents trim-average.

    Normal agents emit their current state; malicious agents emit their
    strategy's broadcast value; Byzantine agents emit per-receiver values.
    The strategy object must provide ``malicious_value(agent, t)`` and/or
    ``byzantine_value(agent, receiver, t)`` for the roles present, otherwise
    the role/strategy pairing is rejected.  A NaN strategy value raises
    ``ValueError``.

    A round is a fixed sequence of whole-array operations on the values the
    normal agents receive: one column per agent, its neighbors' values in
    ascending neighbor order down the column.  With F >= 1 one ascending
    sort per round gives each column's two cut values, the F-th smallest and
    the F-th largest, and the trim is one compare against each; where a cut
    splits a run of equal values, the earliest copies are dropped (see
    :func:`wmsr_retained`).  With F = 0 nothing is trimmed and the sort is
    skipped.  Dropped cells are zeroed and each column is folded top to
    bottom by one row-wise reduce.
    """
    g = config.graph
    n = g.n
    roles = config.roles
    f = config.f
    malicious_value = getattr(adversary, "malicious_value", None)
    byzantine_value = getattr(adversary, "byzantine_value", None)
    if malicious_value is None and AgentRole.MALICIOUS in roles:
        raise ValueError("malicious roles present but strategy has no malicious_value")
    if byzantine_value is None and AgentRole.BYZANTINE in roles:
        raise ValueError("byzantine roles present but strategy has no byzantine_value")

    adj = _adjacency_matrix(g)
    role_of = np.array([r.value for r in roles])
    is_byzantine = role_of == AgentRole.BYZANTINE.value
    normal = np.flatnonzero(role_of == AgentRole.NORMAL.value)
    # isolated adversaries send nothing and are logged as 0.0
    has_neighbor = adj.any(axis=1)
    malicious = np.flatnonzero((role_of == AgentRole.MALICIOUS.value) & has_neighbor)
    byzantine = np.flatnonzero(is_byzantine & has_neighbor)
    index = _neighbor_index(adj, normal)
    valid = index != normal
    slot_pos, slot_col = np.nonzero(valid & is_byzantine[index])
    # a Byzantine agent is logged with what it sends its lowest-indexed neighbor
    byz_pairs = list(zip(byzantine.tolist(), adj[byzantine].argmax(axis=1).tolist()))
    byz_pairs += zip(index[slot_pos, slot_col].tolist(), normal[slot_col].tolist())
    emitters = np.concatenate((malicious, byzantine))
    agents = emitters.tolist() + [j for j, _ in byz_pairs[byzantine.size :]]
    malicious = malicious.tolist()

    received = np.empty(index.shape, dtype=np.float64)
    width = index.shape[0]
    count = np.min_scalar_type(width)
    drop = padding = ~valid
    weight = 1.0 / (1 + valid.sum(axis=0))
    # numpy sums a lone column pairwise, so fold it with accumulate instead
    fold_rows = normal.size > 1
    states = np.empty((config.steps + 1, n), dtype=np.float64)
    sent = np.zeros(n, dtype=np.float64)
    own = np.array(config.initial_states, dtype=np.float64)[normal]
    sent[normal] = own
    for t in range(config.steps + 1):
        pairs = byz_pairs if t < config.steps else byz_pairs[: byzantine.size]
        values = _strategy_values(
            [malicious_value(j, t) for j in malicious]
            + [byzantine_value(j, i, t) for j, i in pairs],
            agents,
            t,
        )
        sent[emitters] = values[: emitters.size]
        states[t] = sent
        if t == config.steps:
            break
        np.take(sent, index, out=received, mode="clip")
        received[slot_pos, slot_col] = values[emitters.size :]
        if f:
            drop = _trimmed(received, own, f)
            drop |= padding
            weight = 1.0 / (1.0 + (width - drop.sum(axis=0, dtype=count)))
        np.copyto(received, 0.0, where=drop)
        # + 0.0 turns a -0.0 total into Python sum's 0.0, which starts from 0
        if fold_rows:
            total = np.add.reduce(received, axis=0)
        else:
            total = np.add.accumulate(received, axis=0)[-1]
        own = (own + (total + 0.0)) * weight
        sent[normal] = own
    return Trajectory(states=states, roles=roles, f=config.f)


# -- scenario presets --------------------------------------------------------------

SCENARIO_TRIG_MALICIOUS = "viiA-malicious"
SCENARIO_BYZ_SPLIT = "viiB-gamma"
SCENARIO_BYZ_CONST = "viiB-gammagamma"
SCENARIO_NONE = "none"


@dataclass(frozen=True)
class Scenario:
    """One packaged scenario: roles, F, initial states, strategy and damage.

    Agents ``0..k-1`` misbehave in ``role``, where k is ``adversaries``, or F
    itself when that is None (then F must satisfy 1 <= F < n).  ``default_f``
    is None when F depends on the graph and must be given.  Each band
    ``(first, lo, hi)`` draws the nodes from ``first`` on uniformly from
    ``[lo, hi)``; a later band overrides an earlier one and a negative
    ``first`` counts from the end.  Nodes before the first band are not drawn
    and start at a cosmetic 0.0.  ``strategy`` builds the adversary for an
    n-node graph (None: no adversary).  ``removals`` maps n to the
    demonstration edge whose removal drops the matching construction below
    what F needs; it touches a normal agent, so the damage reaches the
    dynamics.
    """

    label: str
    default_f: int | None
    role: AgentRole
    adversaries: int | None
    min_n: int
    bands: tuple[tuple[int, float, float], ...]
    strategy: Callable[[int], object] | None
    removals: dict[int, tuple[int, int]]

    def roles(self, n: int, f: int) -> tuple[AgentRole, ...]:
        count = self.adversaries
        if count is None:
            if not (1 <= f < n):
                raise ValueError(f"{self.label} scenario needs 1 <= f < n")
            count = f
        count = min(count, n)
        return (self.role,) * count + (AgentRole.NORMAL,) * (n - count)

    def initial_states(self, n: int, seed: int) -> np.ndarray:
        """Seeded per-node initial states.

        One draw per drawn node, in ascending node order, so the values are
        reproducible.  Nodes the scenario fixes as misbehaving keep a
        cosmetic 0.0 (their entries never influence a run: trajectories log
        their emitted values instead).
        """
        if n < self.min_n:
            raise ValueError(f"{self.label} scenario needs n >= {self.min_n}")
        lo = np.zeros(n)
        hi = np.zeros(n)
        for first, band_lo, band_hi in self.bands:
            lo[first:] = band_lo
            hi[first:] = band_hi
        drawn = slice(self.bands[0][0], n)
        out = np.zeros(n)
        out[drawn] = np.random.Generator(np.random.PCG64(seed)).uniform(lo[drawn], hi[drawn])
        return out


SCENARIO_TABLE = {
    SCENARIO_TRIG_MALICIOUS: Scenario(
        label="trig-malicious",
        default_f=None,
        role=AgentRole.MALICIOUS,
        adversaries=None,
        min_n=1,
        bands=((0, -1000.0, 1000.0),),
        strategy=lambda n: TrigMalicious(),
        removals={},
    ),
    SCENARIO_BYZ_SPLIT: Scenario(
        label="split-Byzantine",
        default_f=2,
        role=AgentRole.BYZANTINE,
        adversaries=2,
        min_n=8,
        bands=((2, 15.0, 100.0), (6, 0.0, 7.0), (-1, 8.0, 14.0)),
        strategy=SplitByReceiver,
        removals={9: (3, 8), 10: (4, 9)},
    ),
    SCENARIO_BYZ_CONST: Scenario(
        label="constant-Byzantine",
        default_f=4,
        role=AgentRole.BYZANTINE,
        adversaries=4,
        min_n=6,
        bands=((4, 50.0, 100.0), (-1, 1.0, 50.0)),
        strategy=lambda n: ConstByAgent(),
        removals={9: (7, 8), 10: (7, 9)},
    ),
    SCENARIO_NONE: Scenario(
        label="none",
        default_f=0,
        role=AgentRole.NORMAL,
        adversaries=0,
        min_n=1,
        bands=((0, -1000.0, 1000.0),),
        strategy=None,
        removals={},
    ),
}
SCENARIOS = tuple(SCENARIO_TABLE)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIO_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}") from None


def build_scenario(
    graph: Graph, scenario: str, f: int | None = None, steps: int = 30, seed: int = 0
) -> tuple[SimConfig, object | None]:
    """Assemble a config + strategy for one of the packaged scenarios."""
    row = get_scenario(scenario)
    if f is None:
        f = row.default_f
        if f is None:
            raise ValueError(f"scenario {scenario!r} needs an explicit f")
    if f < 0:
        raise ValueError("f must be non-negative")
    roles = row.roles(graph.n, f)
    if not is_f_total(roles, f):
        raise ValueError("scenario claims f-total misbehavior but has more adversaries than f")
    config = SimConfig(
        graph=graph,
        roles=roles,
        f=f,
        steps=steps,
        initial_states=tuple(float(v) for v in row.initial_states(graph.n, seed)),
    )
    return config, row.strategy(graph.n) if row.strategy is not None else None


# -- serialization ------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    header = "t," + ",".join(f"node_{i}" for i in range(traj.n))
    # "%.17g" % v renders every float64 as format(v, ".17g") does
    template = ",".join(["%.17g"] * traj.n)
    lines = [header]
    for t, row in enumerate(traj.states.tolist()):
        lines.append(f"{t},{template % tuple(row)}")
    return "\n".join(lines) + "\n"


def roles_to_json(traj: Trajectory) -> str:
    payload = {"roles": [r.value for r in traj.roles], "F": traj.f}
    return json.dumps(payload) + "\n"


def trajectory_metrics(traj: Trajectory, tol: float = 1e-6) -> dict:
    """Spread, hull and convergence figures; converged means final spread < tol."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    spreads = traj.spreads()
    m0, big_m0 = traj.hull_bounds()
    initial = float(spreads[0])
    final = float(spreads[-1])
    normal = traj.normal_states()
    metrics = {
        "f": traj.f,
        "steps": traj.steps,
        "hull": [m0, big_m0],
        "spread": [float(v) for v in spreads],
        "spread_initial": initial,
        "spread_final": final,
        "spread_ratio": (final / initial) if initial > 0 else None,
        "within_hull": bool((normal >= m0).all() and (normal <= big_m0).all()),
        "tol": tol,
        "converged": final < tol,
    }
    return metrics
