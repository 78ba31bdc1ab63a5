"""Per-op correctness checks, derived without calling ``mergraph``.

Each check takes the op, its exit code, its stdout and stderr, and returns a
list of problems (empty when the op passed).  Expected values come from the
paper's closed forms, from the definitions of r- and (r, s)-robustness
evaluated in plain set arithmetic, and from the W-MSR safety property
(normal agents stay inside the hull of their initial values whenever at
most F agents misbehave).  Graph files are read with the benchmark's own
parser.
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from math import comb
from pathlib import Path

from workloads import STEPS, edge_count, gamma_of

EXIT_OK, EXIT_LEVEL_FAILS, EXIT_INFEASIBLE = 0, 2, 3
CLIQUE_NODE_LIMIT = 40
DENSE_SUBSET_BUDGET = 2_000_000
_PAIR = re.compile(rb"\[(\d+),(\d+)\]")
_N = re.compile(rb'^\{"n":(\d+),')


# -- graph files ----------------------------------------------------------------

def read_graph(path: str) -> tuple[int, list[set[int]]]:
    """Node count and neighbour sets of a canonical graph JSON file."""
    payload = json.loads(Path(path).read_text())
    n = payload["n"]
    adj = [set() for _ in range(n)]
    for u, v in payload["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return n, adj


def scan_graph(path: str) -> tuple[int, int, list[int], bool]:
    """Node count, edge count, degrees and whether the pairs are canonical
    (each ``u < v``, strictly increasing), read without building edge lists."""
    data = Path(path).read_bytes()
    head = _N.match(data)
    if head is None:
        return 0, 0, [], False
    n = int(head.group(1))
    degrees = [0] * n
    m, last = 0, (-1, -1)
    for match in _PAIR.finditer(data):
        u, v = int(match.group(1)), int(match.group(2))
        if not (0 <= u < v < n) or (u, v) <= last:
            return n, m, degrees, False
        degrees[u] += 1
        degrees[v] += 1
        m += 1
        last = (u, v)
    return n, m, degrees, True


def outside_degree(adj: list[set[int]], i: int, s: set[int]) -> int:
    return len(adj[i] - s)


def reachable_count(adj: list[set[int]], s: set[int], r: int) -> int:
    """Members of ``s`` with at least ``r`` neighbours outside ``s``."""
    return sum(1 for i in s if outside_degree(adj, i, s) >= r)


def max_clique(adj: list[set[int]]) -> int:
    """Bron-Kerbosch with pivoting; for the small graphs the workloads use."""
    best = 0

    def expand(size: int, cand: set[int], excluded: set[int]) -> None:
        nonlocal best
        if not cand and not excluded:
            best = max(best, size)
            return
        if size + len(cand) <= best:
            return
        pivot = max(cand | excluded, key=lambda u: len(adj[u] & cand))
        for v in list(cand - adj[pivot]):
            expand(size + 1, cand & adj[v], excluded & adj[v])
            cand.discard(v)
            excluded.add(v)

    expand(0, set(range(len(adj))), set())
    return best


# -- the paper's closed forms ------------------------------------------------------

def edge_floor_any_r(r: int, even: bool) -> int:
    return edge_count(2 * r if even else 2 * r - 1, "r")


def turan_number(n: int, k: int) -> int:
    """Edges of the balanced complete (k-1)-partite graph on n nodes."""
    parts = k - 1
    if parts >= n:
        return comb(n, 2)
    q, rem = divmod(n, parts)
    return comb(n, 2) - rem * comb(q + 1, 2) - (parts - rem) * comb(q, 2)


def expected_degrees(n: int, kind: str) -> list[int]:
    """Sorted degree sequence of the paper's construction (label-invariant)."""
    g = gamma_of(n)
    if kind == "r":
        if n % 2:
            return sorted([n - 1] * g + [g] * (n - g))
        dropped = 2 * ((g - 1) // 2)
        return sorted([n - 2] * dropped + [n - 1] * (g - dropped) + [g] * g)
    dropped = 0 if n % 2 else 2 * (g // 2)
    return sorted([n - 2] * dropped + [n - 1] * (n - dropped))


def expected_report(n: int, m: int, degrees: list[int], clique: int | None,
                    dense: bool | None) -> dict:
    """The certificate report the paper's conditions give for one graph.

    ``clique`` and ``dense`` are passed in because only the caller knows
    whether the graph is small enough to evaluate them.
    """
    g = gamma_of(n)
    even = n % 2 == 0
    scope_r, scope_rs = f"{g}-robust", f"({g},{g})-robust"

    def entry(name, passed, required, observed, scope):
        return {"name": name, "passed": passed, "required": required,
                "observed": observed, "scope": scope}

    def at_least(observed, required):
        return None if observed is None else observed >= required

    floor_r = edge_floor_any_r(g, even)
    floor_rs = edge_count(n, "rs")
    need_clique = (g + 4) // 2 if even else g + 1
    checks = [
        entry("edge_floor_gamma", m >= floor_r, floor_r, m, scope_r),
        entry("edge_floor_gamma_gamma", m >= floor_rs, floor_rs, m, scope_rs),
        entry("min_degree_gamma_gamma", min(degrees) >= 2 * g - 2, 2 * g - 2,
              min(degrees), scope_rs),
        entry("clique_gamma", at_least(clique, need_clique), need_clique, clique, scope_r),
    ]
    if even:
        turan = 2
        while turan < n and floor_rs > turan_number(n, turan + 1):
            turan += 1
        checks.append(entry("clique_gamma_gamma_turan", at_least(clique, turan), turan,
                            clique, scope_rs))
        checks.append(entry("dense_subgraph_gamma", dense, (g * g + 2) // 2, None, scope_r))
    implied = 0
    for r in range(1, g + 1):
        if edge_floor_any_r(r, even) > m:
            break
        implied = r
    if even:
        missing = comb(n, 2) - m
        prop1 = missing <= g // 2 and min(degrees) >= n - 2
    else:
        prop1 = m == comb(n, 2)
    flags = [] if implied >= g else [f"cannot be {g}-robust: edge count {m} is below the floor"]
    return {
        "n": n, "gamma": g, "edge_count": m, "checks": checks,
        "implied_r_upper_bound": implied, "prop1_gamma_gamma": prop1, "flags": flags,
        "note": "all checks except prop1_gamma_gamma are necessary only",
    }


# -- checks ---------------------------------------------------------------------------

def _json(out: str, problems: list[str]):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        problems.append(f"stdout is not JSON: {out[:200]!r}")
        return None


def _exit(rc: int, want: int, problems: list[str]) -> None:
    if rc != want:
        problems.append(f"exit code {rc}, expected {want}")


def _graph_arg(op) -> str:
    return op.argv[op.argv.index("--graph") + 1]


def check_max_r(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_OK, problems)
    got = _json(out, problems)
    want = {"max_r": op.expect["max_r"], "n": op.expect["n"]}
    if got is not None and got != want:
        problems.append(f"got {got}, expected {want}")
    return problems


def check_max_s(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_OK, problems)
    got = _json(out, problems)
    lo, hi = op.expect["range"]
    if got is not None:
        if set(got) != {"r", "max_s"} or got["r"] != op.expect["r"]:
            problems.append(f"unexpected payload {got}")
        elif not lo <= got["max_s"] <= hi:
            problems.append(f"max_s {got['max_s']} outside [{lo}, {hi}]")
    return problems


def check_holds(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_OK, problems)
    got = _json(out, problems)
    want = {"r": op.expect["r"], "holds": True, "witness": None}
    if got is not None and got != want:
        problems.append(f"got {got}, expected {want}")
    return problems


def witness_problems(adj: list[set[int]], kind: str, r: int, s: int, witness) -> list[str]:
    """Check a counterexample pair against the definition."""
    if not isinstance(witness, dict) or set(witness) != {"s1", "s2"}:
        return [f"malformed witness {witness!r}"]
    s1, s2 = set(witness["s1"]), set(witness["s2"])
    n = len(adj)
    if not s1 or not s2 or s1 & s2 or not (s1 | s2) <= set(range(n)):
        return [f"witness {witness} is not a disjoint pair of nonempty node sets"]
    x1, x2 = reachable_count(adj, s1, r), reachable_count(adj, s2, r)
    if kind == "r":
        if x1 or x2:
            return [f"witness {witness}: a set is {r}-reachable ({x1}, {x2})"]
        return []
    if x1 == len(s1) or x2 == len(s2) or x1 + x2 >= s:
        return [f"witness {witness} satisfies ({r},{s}): counts {x1}, {x2}"]
    return []


def check_witness(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_LEVEL_FAILS, problems)
    got = _json(out, problems)
    if got is None:
        return problems
    e = op.expect
    want_keys = {"r", "holds", "witness"} | ({"s"} if e["kind"] == "rs" else set())
    if set(got) != want_keys or got["holds"] is not False or got["r"] != e["r"]:
        return problems + [f"unexpected payload {got}"]
    if e["kind"] == "rs" and got["s"] != e["s"]:
        problems.append(f"s {got['s']}, expected {e['s']}")
    _, adj = read_graph(_graph_arg(op))
    return problems + witness_problems(adj, e["kind"], e["r"], e["s"], got["witness"])


def check_sweep(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_OK, problems)
    got = _json(out, problems)
    if got is None:
        return problems
    e = op.expect
    n, adj = read_graph(_graph_arg(op))
    edges = sorted((u, v) for u in range(n) for v in adj[u] if u < v)
    header = {k: got.get(k) for k in ("kind", "r", "s", "minimal")}
    want = {"kind": e["kind"], "r": e["r"], "s": e["r"] if e["kind"] == "rs" else None,
            "minimal": True}
    if header != want:
        problems.append(f"sweep header {header}, expected {want}")
    entries = got.get("entries", [])
    if [tuple(x["edge"]) for x in entries] != edges:
        problems.append("sweep entries do not list every edge in order")
    kept = [x["edge"] for x in entries if x["holds_after_removal"] is not False]
    if kept:
        problems.append(f"removals that keep the target: {kept}")
    return problems


def check_construct(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_OK, problems)
    got = _json(out, problems)
    if got is None:
        return problems
    e = op.expect
    n, kind, path = e["n"], e["kind"], e["out"]
    recipe = str(Path(path).with_suffix(".recipe.json"))
    want = {"n": n, "gamma": gamma_of(n), "kind": kind, "edges": edge_count(n, kind),
            "graph_path": path, "recipe_path": recipe}
    if got != want:
        problems.append(f"got {got}, expected {want}")
    problems += construction_problems(path, n, kind)
    meta = json.loads(Path(recipe).read_text())
    if (meta.get("kind"), meta.get("n"), meta.get("gamma")) != (
            "gamma" if kind == "r" else "gamma_gamma", n, gamma_of(n)):
        problems.append(f"recipe header {meta.get('kind')}, {meta.get('n')}, {meta.get('gamma')}")
    return problems


def construction_problems(path: str, n: int, kind: str) -> list[str]:
    """A construction file must carry the paper's edge count and degrees."""
    got_n, m, degrees, canonical = scan_graph(path)
    problems = []
    if not canonical:
        problems.append(f"{path}: not canonical graph JSON")
    if got_n != n or m != edge_count(n, kind):
        problems.append(f"{path}: n={got_n} m={m}, expected n={n} m={edge_count(n, kind)}")
    elif sorted(degrees) != expected_degrees(n, kind):
        problems.append(f"{path}: degree sequence differs from the construction's")
    return problems


def check_bounds(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_OK, problems)
    got = _json(out, problems)
    if got is None:
        return problems
    path = _graph_arg(op)
    n, m, degrees, _ = scan_graph(path)
    g = gamma_of(n)
    clique = dense = None
    if n <= CLIQUE_NODE_LIMIT:
        clique = max_clique(read_graph(path)[1])
    if n % 2 == 0 and comb(n, g + 1) <= DENSE_SUBSET_BUDGET:
        need = (g * g + 2) // 2
        # With fewer edges in the whole graph than the threshold (as in the
        # workloads) no subset can meet it; otherwise count every subset.
        if m >= need:
            adj = read_graph(path)[1]
            dense = any(sum(len(adj[i] & set(s)) for i in s) // 2 >= need
                        for s in combinations(range(n), g + 1))
        else:
            dense = False
    want = expected_report(n, m, degrees, clique, dense)
    if got != want:
        diff = sorted(k for k in want if got.get(k) != want[k])
        problems.append(f"report differs in {diff}")
    return problems


def check_infeasible(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_INFEASIBLE, problems)
    if out:
        problems.append("an infeasible check printed a result")
    if "infeasible" not in err:
        problems.append(f"stderr does not report infeasibility: {err[:200]!r}")
    return problems


def _roles(n: int, scenario: str, f: int) -> list[str]:
    bad = {"viiA-malicious": range(f), "viiB-gamma": range(2),
           "viiB-gammagamma": range(4), "none": range(0)}[scenario]
    kind = "malicious" if scenario == "viiA-malicious" else "byzantine"
    return [kind if i in bad else "normal" for i in range(n)]


def check_simulate(op, rc, out, err):
    problems = []
    _exit(rc, EXIT_OK, problems)
    got = _json(out, problems)
    if got is None:
        return problems
    e = op.expect
    csv_path = Path(e["out"])
    metrics_path = str(csv_path.with_suffix(".metrics.json"))
    roles_path = str(csv_path.with_suffix(".roles.json"))
    text = csv_path.read_text()
    lines = text.splitlines()
    n = len(lines[0].split(",")) - 1
    if lines[0] != "t," + ",".join(f"node_{i}" for i in range(n)):
        return problems + ["bad trajectory header"]
    rows = [[float(c) for c in line.split(",")[1:]] for line in lines[1:]]
    if [line.split(",", 1)[0] for line in lines[1:]] != [str(t) for t in range(STEPS + 1)]:
        problems.append("trajectory rows are not t = 0..steps")
    roles = json.loads(Path(roles_path).read_text())
    want_roles = {"roles": _roles(n, e["scenario"], e["f"]), "F": e["f"]}
    if roles != want_roles:
        problems.append(f"roles {roles}, expected {want_roles}")
    normal = [i for i, role in enumerate(want_roles["roles"]) if role == "normal"]
    spreads = [max(row[i] for i in normal) - min(row[i] for i in normal) for row in rows]
    m0 = min(rows[0][i] for i in normal)
    big_m0 = max(rows[0][i] for i in normal)
    inside = all(m0 <= row[i] <= big_m0 for row in rows for i in normal)
    if not inside:
        problems.append("a normal agent left the hull of the normal initial states")
    metrics = json.loads(Path(metrics_path).read_text())
    removed = metrics.get("removed_edge")
    if e["removed"]:
        _, adj = read_graph(e["graph"])
        if not (isinstance(removed, list) and len(removed) == 2
                and removed[1] in adj[removed[0]]):
            problems.append(f"removed_edge {removed!r} is not an edge of the input")
    elif removed is not None:
        problems.append(f"removed_edge {removed!r} without --remove-edge")
    want = {
        "f": e["f"], "steps": STEPS, "hull": [m0, big_m0], "spread": spreads,
        "spread_initial": spreads[0], "spread_final": spreads[-1],
        "spread_ratio": spreads[-1] / spreads[0] if spreads[0] > 0 else None,
        "within_hull": inside, "tol": 1e-6, "converged": spreads[-1] < 1e-6,
        "scenario": e["scenario"], "seed": e["seed"], "removed_edge": removed,
    }
    if metrics != want:
        diff = sorted(k for k in want if metrics.get(k) != want[k])
        problems.append(f"metrics differ from the trajectory in {diff}")
    payload = {"trajectory_path": e["out"], "metrics_path": metrics_path,
               "roles_path": roles_path, "spread_final": spreads[-1],
               "converged": spreads[-1] < 1e-6}
    if got != payload:
        problems.append(f"stdout {got}, expected {payload}")
    if "ratio_below" in e and not spreads[-1] < e["ratio_below"] * spreads[0]:
        problems.append(f"no consensus: spread {spreads[0]:.6g} -> {spreads[-1]:.6g}")
    if "spread_at_least" in e and not spreads[-1] >= e["spread_at_least"]:
        problems.append(f"removal did not break consensus: final spread {spreads[-1]:.6g}")
    if e.get("pinned") and text != Path(e["pinned"]).read_text():
        problems.append(f"trajectory differs from {e['pinned']}")
    return problems


CHECKS = {
    "max_r": check_max_r,
    "max_s": check_max_s,
    "holds": check_holds,
    "witness": check_witness,
    "sweep": check_sweep,
    "construct": check_construct,
    "bounds": check_bounds,
    "infeasible": check_infeasible,
    "simulate": check_simulate,
}


def check(op, rc: int, out: str, err: str) -> list[str]:
    """Problems with one op's result; a check that itself breaks is a problem."""
    try:
        return CHECKS[op.check](op, rc, out, err)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"check {op.check} could not read the result: {exc!r}"]


def written_files(op) -> list[str]:
    """Files an op writes, in a fixed order, for the output digest."""
    if op.command == "construct":
        out = op.expect["out"]
        return [out, str(Path(out).with_suffix(".recipe.json"))]
    if op.command == "simulate":
        out = Path(op.expect["out"])
        return [str(out), str(out.with_suffix(".metrics.json")),
                str(out.with_suffix(".roles.json"))]
    return []

