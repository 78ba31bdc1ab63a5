"""Discrete-time resilient consensus with trimming, plus adversary models.

Agents hold scalar states and update synchronously.  A normal agent running
the trimmed update sorts the values received from its neighbors, discards up
to F of them strictly above its own state (the largest ones) and up to F
strictly below (the smallest ones), then moves to the uniform average of its
own state and the retained values.  Where the cut falls inside a run of
equal values, the copies from the lowest-indexed neighbors are the ones
discarded.  With F = 0 this degenerates to plain uniform averaging.  An
agent keeps at most n - 1 values, so each weight is at least 1/n: the W-MSR
weight floor (LeBlanc et al., IEEE JSAC 2013) holds by construction and is
not a setting.

Summation order: an update adds the retained values left to right in
ascending neighbor order, starting from 0.0, and then adds that total to the
agent's own state: ``own + (((0.0 + v0) + v1) + ...)``.  This is what
Python's ``sum`` did on floats before 3.12 (3.12 compensates the rounding),
so trajectories do not depend on the Python version.

Misbehaving agents never follow the update.  A malicious agent broadcasts a
single forged value per step to all neighbors; a Byzantine agent may send a
different value to every receiver.  Misbehavior models are value-level:
rounds are synchronous and lossless, so no message objects are needed.

Adversary protocol: a strategy provides ``send(agents, receivers, t)``,
elementwise over int arguments (arrays or scalars) that broadcast together:
each element of the result is what agent ``agents`` sends ``receivers`` at
step ``t``, for the matching elements of the arguments.  The result is a
float array that broadcasts to the arguments' common shape, so a strategy
may omit the axes of arguments it ignores.  The role fixes delivery: a
malicious agent broadcasts what it sends its lowest-indexed neighbor, and a
Byzantine agent sends each receiver its own value.  A strategy that needs
per-role behavior branches on the agent.  Strategies must be pure
functions of their arguments: a run may ask for a value more than once, or
for values it does not use, such as those of steps after an error.  A NaN
among the values a run uses is an error; an infinite value is an ordinary
extreme, which the trim removes like any other.  A normal agent whose update
sums +inf and -inf is an error too, and so is one whose update is infinite
with no infinite value among those it kept, its own state included: finite
values overflowed.

Determinism: given an identical configuration a run produces a bit-identical
trajectory.  Randomness enters only through the initial states, which the
packaged scenarios draw from a seeded numpy PCG64 generator whose stream is
stable across platforms; regression data should still store full
trajectories rather than just seeds.

Trajectory CSV format: header ``t,node_0,...,node_{n-1}``, one row per step
including t = 0, values rendered with 17 significant digits (lossless for
float64).  The role sidecar is ``{"roles": [...], "F": <int>}``.  An
adversary has no state, so its logged value at each step is the one it sends
its lowest-indexed neighbor: a malicious agent's broadcast.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .graph_core import Graph, gamma_of, mask_bits, members


class AgentRole(str, Enum):
    NORMAL = "normal"
    MALICIOUS = "malicious"
    BYZANTINE = "byzantine"


# -- adversary scope models ------------------------------------------------------

def is_f_local(g: Graph, s: Iterable[int], f: int) -> bool:
    """True iff every node outside ``s`` has at most ``f`` neighbors inside it."""
    if f < 0:
        raise ValueError("f must be non-negative")
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

    def send(self, agents, receivers, t) -> np.ndarray:
        # libm's cos and sin, one call each per step: numpy's vectorized cos
        # need not round like libm on every CPU
        steps = sorted(set(np.ravel(t).tolist()))
        waves = np.array([[trig_malicious_value(0, s), trig_malicious_value(1, s)] for s in steps])
        return waves[np.searchsorted(steps, t), np.remainder(agents, 2)]


@dataclass(frozen=True)
class SplitByReceiver:
    """Byzantine: send 100 to receivers with index <= ceil(n/2), 0 to the rest."""

    n: int

    def send(self, agents, receivers, t) -> np.ndarray:
        return np.where(np.less_equal(receivers, gamma_of(self.n)), 100.0, 0.0)


@dataclass(frozen=True)
class ConstByAgent:
    """Byzantine by role, constant by choice: agent 3 sends 100 to everyone,
    the other misbehaving agents send 0."""

    def send(self, agents, receivers, t) -> np.ndarray:
        return np.where(np.equal(agents, 3), 100.0, 0.0)


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
    """Per-agent states over time, with roles attached for interpretation.

    :func:`trajectory_metrics` reads the spreads and the hull off
    :meth:`normal_states`.
    """

    states: np.ndarray  # shape (steps+1, n)
    roles: tuple[AgentRole, ...]
    f: int

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def normal_states(self) -> np.ndarray:
        idx = [i for i, r in enumerate(self.roles) if r is AgentRole.NORMAL]
        if not idx:
            raise ValueError("trajectory has no normal agents")
        return self.states[:, idx]


def _gather_index(adj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index that gathers what the listed nodes see in a round, one column
    per node: its neighbors in ascending order from the top, and the node
    itself in the last row.

    Padding is the column's own node too: it gathers the receiver's own
    state, which the trim never drops, and a node is never its own neighbor,
    so above the last row ``index == rows`` marks the padding.
    """
    sub = adj[rows]
    degree = sub.sum(axis=1)
    width = int(degree.max(initial=0))
    # a stable sort puts each node's neighbors first, in ascending order
    order = np.argsort(~sub, axis=1, kind="stable")[:, :width]
    np.copyto(order, rows[:, None], where=np.arange(width) >= degree[:, None])
    # C-contiguous intp, so that each round's gather need not convert or
    # stride through the index
    index = np.empty((width + 1, rows.size), dtype=np.intp)
    index[:-1] = order.T
    index[-1] = rows
    return index


class _Trim:
    """The trim of one round and its weights, on buffers allocated once per run.

    A call takes what the normal agents see, (rows, columns) with each
    column's own state in the last row, and returns the mask of cells to
    zero before the fold, the padding and the cells the trim drops, and
    each column's weight, 1 / (1 + retained values).  One ascending sort
    gives each column's k-th smallest value and k-th largest, k = min(F,
    rows), and the values just beyond them.  The low side drops the cells
    below own and at most the k-th smallest: below ``lo``, the least of own,
    the float after the cut and the value beyond it.  The high side is the
    mirror image.  Where the value beyond a cut equals it, the cut splits a
    run of equal values: the bound is the cut itself, and the run's copies
    go from the lowest rows until the side has dropped k cells.  No cell is
    NaN: a run refuses NaN values and stops at the first NaN state.
    """

    def __init__(self, padding: np.ndarray, f: int):
        rows, columns = padding.shape
        self.k = min(f, rows)
        self.padding = padding
        # by count of zeroed cells; the last row, own, is never zeroed
        self.weights = 1.0 / (rows - np.arange(rows))
        self.weight = self.weights[padding.sum(axis=0)]
        if not self.k:
            return
        k = self.k
        self.count = np.min_scalar_type(rows)
        self.ordered = np.empty((rows, columns))
        # the sorted rows of both cuts, then the rows just beyond them; at
        # k = rows the clipped rows beyond are the cuts themselves, and then
        # no cut is beyond own, which the last row holds
        self.rows = (k - 1, rows - k, k, rows - k - 1)
        self.sorted_rows = np.empty((4, columns))
        self.cuts, self.beyond = self.sorted_rows.reshape(2, 2, columns)
        self.toward_own = np.array([[np.inf], [-np.inf]])
        self.bounds = np.empty((2, 1, columns))
        self.bound_rows = self.bounds[:, 0]
        self.lo, self.hi = self.bound_rows
        self.run = np.empty((2, columns), dtype=bool)
        self.split = np.empty((2, columns), dtype=bool)
        # tie ranks run down the rows of both sides at once: the columns'
        # counts share uint64 words, lanes of the count type, and adding
        # words adds lanes, since no count exceeds rows; a rank starts from
        # the count of cells beyond the cut, held in the row above the ties
        lanes = 8 // self.count.itemsize
        words = (2, 1 + rows, -(-columns // lanes) * lanes)
        self.tie_words = np.zeros(words, dtype=self.count)
        self.beyond_cut = self.tie_words[:, :1, :columns]
        # written and read as bool where the count type is one byte
        ties = self.tie_words[:, 1:, :columns]
        self.ties = ties.view(bool) if self.count.itemsize == 1 else ties
        self.count_words = np.empty(words, dtype=self.count)
        self.rank = self.count_words[:, 1:, :columns]
        # the tie picks of both sides, both sides, then the padding: one
        # reduce gives every zeroed cell
        self.drop = np.empty((5, rows, columns), dtype=bool)
        self.drop[4] = padding
        self.picks, self.sides, self.untied = self.drop[:2], self.drop[2:4], self.drop[2:]
        self.zeroed = np.empty((rows, columns), dtype=bool)
        self.zeroed_count = np.empty(columns, dtype=self.count)
        self.round_weight = np.empty(columns)

    def __call__(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self.k:
            return self.padding, self.weight
        own, cuts, beyond, run, split = received[-1], self.cuts, self.beyond, self.run, self.split
        lo, hi, bounds = self.lo, self.hi, self.bound_rows
        picks, sides = self.picks, self.sides
        np.copyto(self.ordered, received)
        self.ordered.sort(axis=0)
        self.ordered.take(self.rows, axis=0, out=self.sorted_rows, mode="clip")
        np.nextafter(cuts, self.toward_own, out=bounds)
        np.minimum(lo, own, out=lo)
        np.minimum(lo, beyond[0], out=lo)
        np.maximum(hi, own, out=hi)
        np.maximum(hi, beyond[1], out=hi)
        np.less(received, lo, out=sides[0])
        np.greater(received, hi, out=sides[1])
        # a cut beyond own whose run goes on past it splits the run
        np.less(cuts[0], own, out=split[0])
        np.greater(cuts[1], own, out=split[1])
        np.equal(beyond, cuts, out=run)
        np.logical_and(split, run, out=split)
        tie_split = np.logical_or.reduce(split, axis=None)
        if tie_split:
            # the run's first k - #(dropped) copies go
            np.copyto(bounds, np.nan)
            np.copyto(bounds, cuts, where=split)
            np.equal(received, self.bounds, out=self.ties)
            np.add.reduce(sides.view(np.uint8), axis=1, dtype=self.count, keepdims=True,
                          out=self.beyond_cut)
            np.add.accumulate(self.tie_words.view(np.uint64), axis=1,
                              out=self.count_words.view(np.uint64))
            np.less_equal(self.rank, self.k, out=picks)
            np.logical_and(picks, self.ties, out=picks)
        np.logical_or.reduce(self.drop if tie_split else self.untied, axis=0, out=self.zeroed)
        np.add.reduce(self.zeroed.view(np.uint8), axis=0, dtype=self.count,
                      out=self.zeroed_count)
        return self.zeroed, self.weights.take(self.zeroed_count, out=self.round_weight)


def _check_updates(agents: np.ndarray, kept: np.ndarray, total: np.ndarray, t: int) -> None:
    """Raise for the lowest of ``agents`` whose update ``total`` is wrong:
    NaN, or infinite with no infinity among the values the agent kept
    (``kept``, with dropped cells zeroed).  An agent that kept +inf and
    -inf summed them; any other overflowed from finite values."""
    up = (kept == math.inf).any(axis=0)
    down = (kept == -math.inf).any(axis=0)
    wrong = np.isnan(total) | (np.isinf(total) & ~up & ~down)
    if wrong.any():
        i = int(wrong.argmax())
        what = "summed +inf and -inf" if up[i] and down[i] else "overflowed"
        raise ValueError(f"agent {agents[i]} {what} at step {t}")


def run_simulation(config: SimConfig, adversary: object | None = None) -> Trajectory:
    """Run synchronous rounds: everyone emits, then normal agents trim-average.

    Normal agents emit their current state; adversaries emit what the
    strategy's ``send`` gives for their role (see the module docstring).
    Adversarial roles without a ``send`` are rejected.  One ``send`` call
    covers a block of steps, ``t`` a column, and asks at each step first
    for the logged values (malicious, then Byzantine agents, each
    ascending), then for what the Byzantine agents send normal agents (by
    neighbor rank, then receiver).  A block holds as many steps as fit in
    the trajectory's (steps + 1) * n cells, and at least one, so the values
    asked for never outgrow what the run returns, and ``send`` is called at
    most steps + 1 times.

    An error raises ``ValueError`` naming the agent and the step, steps in
    order.  Within a step a NaN comes first, the first in the order asked,
    then a wrong update, that of the lowest such agent.  What is sent to
    normal agents at the last step feeds no round and is not checked.  No
    round runs at or after the step of a NaN.

    A round is a fixed sequence of in-place array operations on what the
    normal agents see: one column per agent, its neighbors' values in
    ascending neighbor order from the top and its own state in the last
    row, gathered from the trajectory's row for the step.  With F >= 1 one
    ascending sort per round gives each column's two cut values, the F-th
    smallest and the F-th largest, and the trim drops what lies beyond
    them, the earliest copies where a cut splits a run of equal values (see
    :class:`_Trim`).  With F = 0 nothing is trimmed.  Dropped cells are
    zeroed and each column is folded top to bottom from 0.0 by one
    row-wise reduce, own last: addition commutes, so that is own plus the
    retained values' sum.

    A round reads nothing but the step's states row and the values sent at
    the step.  So where both repeat the previous round's bit for bit (-0.0
    and 0.0 differ), the round is not run: the normal agents keep their
    states.  Rows are compared only at steps whose adversary values, logged
    and sent, repeat the step before's, which a block knows in advance, so
    a strategy that changes every step costs no comparison.  Trajectories
    and errors are those of running every round.
    """
    g = config.graph
    n = g.n
    roles = config.roles
    steps = config.steps
    send = getattr(adversary, "send", None)
    if send is None and set(roles) != {AgentRole.NORMAL}:
        raise ValueError("adversarial roles present but strategy has no send")

    adj = mask_bits(g.adjacency, g.n).view(bool)  # row i marks the neighbors of node i
    role_of = np.array([r.value for r in roles])
    is_byzantine = role_of == AgentRole.BYZANTINE.value
    normal = np.flatnonzero(role_of == AgentRole.NORMAL.value)
    if normal.size == 1:
        # numpy sums a lone column pairwise; two equal columns fold row-wise
        normal = normal.repeat(2)
    # malicious agents, then Byzantine ones, each ascending; isolated
    # adversaries send nothing and are logged as 0.0
    has_neighbor = adj.any(axis=1)
    emitters = np.concatenate([np.flatnonzero((role_of == role.value) & has_neighbor)
                               for role in (AgentRole.MALICIOUS, AgentRole.BYZANTINE)])
    index = _gather_index(adj, normal)
    padding = index == normal
    padding[-1] = False
    slots = np.flatnonzero(~padding & is_byzantine[index])
    slot_agents = index.flat[slots]
    slot_receivers = normal[slots % normal.size]

    states = np.zeros((steps + 1, n))
    states[0, normal] = np.array(config.initial_states)[normal]
    # one send asks a block of steps for the logged values, what each emitter
    # sends its lowest-indexed neighbor, and then the slots' values
    agents = np.concatenate([emitters, slot_agents])
    receivers = np.concatenate([adj[emitters].argmax(axis=1), slot_receivers])
    block = max(1, (steps + 1) * n // max(1, agents.size))

    received = np.empty(index.shape)
    total = np.empty(normal.size)
    trim = _Trim(padding, config.f)
    # a sum of +inf and -inf or one past the largest float is an error,
    # raised below rather than warned of
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, steps + 1, block):
            end = min(start + block, steps + 1)
            ts = np.arange(start, end)[:, None]
            values = np.broadcast_to(np.asarray(send(agents, receivers, ts) if agents.size else 0.0,
                                                dtype=np.float64), (end - start, agents.size))
            states[start:end, emitters] = values[:, :emitters.size]
            sent = values[:, emitters.size:]
            nan = np.isnan(values)
            # what is sent at the last step feeds no round
            nan[steps - start:, emitters.size:] = False
            nan_rows = nan.any(axis=1)
            stop = start + int(nan_rows.argmax()) if nan_rows.any() else end
            # repeats[t - start]: step t's adversary values repeat step t - 1's
            value_bits = values.view(np.uint64)
            repeats = np.empty(end - start, dtype=bool)
            repeats[0] = start > 0 and np.array_equal(value_bits[0], last)
            repeats[1:] = (value_bits[1:] == value_bits[:-1]).all(axis=1)
            last = value_bits[-1]
            for t in range(start, min(stop, steps)):
                # a round whose inputs repeat round t - 1's keeps the totals
                # that round left; bytes compare as bits, -0.0 apart from 0.0
                if not (repeats[t - start] and states[t].tobytes() == states[t - 1].tobytes()):
                    states[t].take(index, out=received, mode="clip")
                    received.put(slots, sent[t - start])
                    zeroed, weight = trim(received)
                    np.putmask(received, zeroed, 0.0)
                    # the last row is own: ((0.0 + v0) + ...) + own is own + the sum
                    np.add.reduce(received, axis=0, out=total, initial=0.0)
                    np.multiply(total, weight, out=total)
                    # the screen: the totals' sum is finite if every total is
                    if not math.isfinite(np.add.reduce(total)):
                        _check_updates(normal, received, total, t)
                states[t + 1, normal] = total
            if stop < end:
                agent = agents[int(nan[stop - start].argmax())]
                raise ValueError(f"agent {agent} sent NaN at step {stop}")
    return Trajectory(states=states, roles=roles, f=config.f)


# -- scenario presets --------------------------------------------------------------

SCENARIO_TRIG_MALICIOUS = "viiA-malicious"
SCENARIO_BYZ_SPLIT = "viiB-gamma"
SCENARIO_BYZ_CONST = "viiB-gammagamma"
SCENARIO_NONE = "none"


@dataclass(frozen=True)
class Scenario:
    """One packaged scenario: roles, F, initial states, strategy and damage.

    ``name`` is the scenario's CLI key (``--scenario``); errors name the
    scenario by it.  :meth:`roles` refuses an F below the row's adversary
    count as not F-total.

    Agents ``0..k-1`` misbehave in ``role``, where k is ``default_f``, the
    scenario's own F: every row with a default has exactly that many
    adversaries.  ``default_f`` is None when F depends on the graph and must
    be given; then k is that F, which must satisfy 1 <= F < n.  An F given
    for a row with a default does not change k, so one below it is refused
    as not F-total.  Each band ``(first, lo, hi)`` draws the nodes from
    ``first`` on uniformly from ``[lo, hi)``; a later band overrides an
    earlier one and a negative ``first`` counts from the end.  Nodes before
    the first band are not drawn and start at a cosmetic 0.0.  ``strategy``
    builds the adversary for an n-node graph (None: no adversary).
    ``removals`` maps n to the demonstration edge whose removal drops the
    matching construction below what F needs; it touches a normal agent, so
    the damage reaches the dynamics.
    """

    name: str
    default_f: int | None
    role: AgentRole
    min_n: int
    bands: tuple[tuple[int, float, float], ...]
    strategy: Callable[[int], object] | None
    removals: dict[int, tuple[int, int]]

    def roles(self, n: int, f: int) -> tuple[AgentRole, ...]:
        count = self.default_f
        if count is None:
            if not (1 <= f < n):
                raise ValueError(f"scenario {self.name!r} needs 1 <= f < n")
            count = f
        count = min(count, n)
        if count > f:
            raise ValueError("scenario claims f-total misbehavior but has more adversaries than f")
        return (self.role,) * count + (AgentRole.NORMAL,) * (n - count)

    def initial_states(self, n: int, seed: int) -> np.ndarray:
        """Seeded per-node initial states.

        One draw per drawn node, in ascending node order, so the values are
        reproducible.  Nodes the scenario fixes as misbehaving keep a
        cosmetic 0.0 (their entries never influence a run: trajectories log
        their emitted values instead).  A negative seed is refused.
        """
        if n < self.min_n:
            raise ValueError(f"scenario {self.name!r} needs n >= {self.min_n}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        lo = np.zeros(n)
        hi = np.zeros(n)
        for first, band_lo, band_hi in self.bands:
            lo[first:] = band_lo
            hi[first:] = band_hi
        drawn = slice(self.bands[0][0], n)
        out = np.zeros(n)
        out[drawn] = np.random.Generator(np.random.PCG64(seed)).uniform(lo[drawn], hi[drawn])
        return out


SCENARIO_TABLE = {row.name: row for row in (
    Scenario(
        name=SCENARIO_TRIG_MALICIOUS,
        default_f=None,
        role=AgentRole.MALICIOUS,
        min_n=1,
        bands=((0, -1000.0, 1000.0),),
        strategy=lambda n: TrigMalicious(),
        removals={},
    ),
    Scenario(
        name=SCENARIO_BYZ_SPLIT,
        default_f=2,
        role=AgentRole.BYZANTINE,
        min_n=8,
        bands=((2, 15.0, 100.0), (6, 0.0, 7.0), (-1, 8.0, 14.0)),
        strategy=SplitByReceiver,
        removals={9: (3, 8), 10: (4, 9)},
    ),
    Scenario(
        name=SCENARIO_BYZ_CONST,
        default_f=4,
        role=AgentRole.BYZANTINE,
        min_n=6,
        bands=((4, 50.0, 100.0), (-1, 1.0, 50.0)),
        strategy=lambda n: ConstByAgent(),
        removals={9: (7, 8), 10: (7, 9)},
    ),
    Scenario(
        name=SCENARIO_NONE,
        default_f=0,
        role=AgentRole.NORMAL,
        min_n=1,
        bands=((0, -1000.0, 1000.0),),
        strategy=None,
        removals={},
    ),
)}
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
    config = SimConfig(
        graph=graph,
        roles=roles,
        f=f,
        steps=steps,
        initial_states=tuple(float(v) for v in row.initial_states(graph.n, seed)),
    )
    return config, row.strategy(graph.n) if row.strategy is not None else None


# -- serialization ------------------------------------------------------------------

# the most cells trajectory_to_csv keys and gathers at once
_CSV_BLOCK_CELLS = 1 << 14


def trajectory_to_csv(traj: Trajectory) -> str:
    """The trajectory CSV (see the module docstring), each distinct value
    rendered once.

    Twin agents end rounds in equal states and constant adversaries repeat
    from row to row: in runs on the paper's graphs at n = 9-200, 12-73% of
    the cells (41% in the median run) are distinct values.  A block
    of whole rows, at most ``_CSV_BLOCK_CELLS`` cells unless one row is
    longer, is keyed by the bits of its values: ``np.unique`` of the
    ``uint64`` view, so -0.0 and 0.0, and NaNs with different payloads, stay
    apart.  The distinct values are formatted by one ``"%.17g"`` string,
    which renders every float64 as ``format(v, ".17g")`` does, gathered back
    by the inverse index and joined per row.
    Blocks keep the keys and the gathered cells small beside the text.  A
    trajectory with no repeated value renders 1.1-1.3 times slower than
    formatting each row in turn.
    """
    states = np.ascontiguousarray(traj.states, dtype=np.float64)
    n = traj.n
    lines = ["t," + ",".join(f"node_{i}" for i in range(n))]
    rows = max(1, _CSV_BLOCK_CELLS // max(n, 1))
    for start in range(0, states.shape[0], rows):
        block = states[start:start + rows]
        keys, rank = np.unique(block.view(np.uint64), return_inverse=True)
        distinct = keys.view(np.float64).tolist()
        texts = np.array(("%.17g," * len(distinct) % tuple(distinct)).split(","), dtype=object)
        for t, row in enumerate(texts[rank].reshape(block.shape).tolist(), start):
            lines.append(f"{t}," + ",".join(row))
    return "\n".join(lines) + "\n"


def roles_to_json(traj: Trajectory) -> str:
    payload = {"roles": [r.value for r in traj.roles], "F": traj.f}
    return json.dumps(payload) + "\n"


def trajectory_metrics(traj: Trajectory, tol: float = 1e-6) -> dict:
    """Spread, hull and convergence figures; converged means final spread < tol.

    A legal run can hold infinite states, where the normal agents kept an
    infinite adversary value: a row whose normal states are all +inf (or
    all -inf) has a NaN spread, computed without a warning, and a NaN final
    spread is not converged.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    normal = traj.normal_states()
    highs = normal.max(axis=1)
    lows = normal.min(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        spreads = highs - lows
    m0, big_m0 = float(lows[0]), float(highs[0])
    initial = float(spreads[0])
    final = float(spreads[-1])
    metrics = {
        "f": traj.f,
        "steps": traj.steps,
        "hull": [m0, big_m0],
        "spread": [float(v) for v in spreads],
        "spread_initial": initial,
        "spread_final": final,
        "spread_ratio": (final / initial) if initial > 0 else None,
        # a NaN state makes its row's extremes NaN, which fails both compares
        "within_hull": bool(lows.min() >= m0 and highs.max() <= big_m0),
        "tol": tol,
        "converged": final < tol,
    }
    return metrics
