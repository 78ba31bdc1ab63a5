"""Command-line front end.

Subcommands:

* ``construct``   build a minimal maximally robust graph, write graph +
  recipe JSON;
* ``robustness``  exact checks (max r, a requested r, or (r, s) levels);
* ``bounds``      print the certificate report for a graph;
* ``minimality``  re-check a target robustness after every single-edge
  removal;
* ``simulate``    run a consensus scenario and write trajectory CSV,
  metrics JSON, and the roles sidecar.

Exit codes: 0 success / requested level holds; 2 requested level fails;
3 exact check infeasible at this size; 1 any other error.  ``--json``
switches the human-readable report on stdout to machine-readable JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import certificates, construction, oracle, wmsr
from .graph_core import CapExceededError, Graph, graph_to_json, parse_graph

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LEVEL_FAILS = 2
EXIT_INFEASIBLE = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise CliError(message)


def _load_graph(path: str) -> Graph:
    try:
        # open() rather than Path.read_text(): pathlib interns every path
        # component, and that churn keeps growing the interpreter's table
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read graph file {path}: {exc}") from exc
    try:
        return parse_graph(text)
    except (ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse graph file {path}: {exc}") from exc


def _emit(payload: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _sidecar(out: Path, suffix: str) -> Path:
    """``out`` with its suffix replaced by ``suffix``, or appended if it has none."""
    return out.with_suffix(suffix) if out.suffix else Path(str(out) + suffix)


def _witness_payload(verdict: oracle.RobustnessVerdict) -> dict | None:
    if verdict.witness is None:
        return None
    return {
        "s1": sorted(verdict.witness.s1),
        "s2": sorted(verdict.witness.s2),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="mergraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a minimal maximally robust graph")
    p.add_argument("--n", type=int, required=True, help="node count (>= 2)")
    p.add_argument("--kind", choices=("r", "rs"), required=True,
                   help="r: gamma-robust family; rs: (gamma,gamma)-robust family")
    p.add_argument("--variant", type=int, default=None,
                   help="seed for a label permutation of the canonical graph")
    p.add_argument("--out", required=True, help="output path for the graph JSON")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("robustness", help="exact robustness checks")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rs", action="store_true", help="work with (r, s) levels")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="certificate report")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("minimality", help="single-edge-removal sweep")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=("r", "rs"), required=True)
    p.add_argument("--r", type=int, default=None,
                   help="target r (default: ceil(n/2))")
    p.add_argument("--s", type=int, default=None,
                   help="target s for kind rs (default: ceil(n/2))")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="run a consensus scenario")
    p.add_argument("--graph", required=True)
    p.add_argument("--scenario", choices=wmsr.SCENARIOS, default=wmsr.SCENARIO_NONE)
    p.add_argument("--f", type=int, default=None,
                   help="trim parameter / misbehaving-agent budget")
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--remove-edge", default=None, metavar="U,V|default",
                   help="drop one edge first; 'default' picks the documented "
                        "demonstration edge for the scenario and node count")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="convergence tolerance on the final normal-agent spread")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--json", action="store_true")
    return parser


# -- subcommand bodies ---------------------------------------------------------

def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "r":
        graph, recipe = construction.construct_gamma_merg(args.n, variant=args.variant)
    else:
        graph, recipe = construction.construct_gamma_gamma_merg(args.n, variant=args.variant)
    out = Path(args.out)
    recipe_path = _sidecar(out, ".recipe.json")
    out.write_text(graph_to_json(graph))
    recipe_path.write_text(recipe.to_json())
    payload = {
        "n": graph.n,
        "gamma": recipe.gamma,
        "kind": args.kind,
        "edges": graph.edge_count,
        "graph_path": str(out),
        "recipe_path": str(recipe_path),
    }
    _emit(payload, args.json, [
        f"n={graph.n} gamma={recipe.gamma} kind={args.kind} edges={graph.edge_count}",
        f"graph: {out}",
        f"recipe: {recipe_path}",
    ])
    return EXIT_OK


def _cmd_robustness(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.rs or args.s is not None:
        r = args.r if args.r is not None else certificates.gamma_of(g.n)
        if args.s is None:
            max_s = oracle.max_s_given_r(g, r)
            _emit({"r": r, "max_s": max_s}, args.json, [f"r={r}: max s = {max_s}"])
            return EXIT_OK
        verdict = oracle.is_rs_robust(g, r, args.s)
    elif args.r is None:
        max_r = oracle.max_r_robustness(g)
        _emit({"max_r": max_r, "n": g.n}, args.json, [f"max r-robustness: {max_r}"])
        return EXIT_OK
    else:
        verdict = oracle.is_r_robust(g, args.r)

    witness = _witness_payload(verdict)
    payload = {"r": verdict.r, "holds": verdict.holds, "witness": witness}
    level = f"{verdict.r}-robust"
    if verdict.s is not None:
        payload["s"] = verdict.s
        level = f"({verdict.r},{verdict.s})-robust"
    lines = [f"{level}: {'yes' if verdict.holds else 'no'}"]
    if witness is not None:
        lines.append(f"witness S1={witness['s1']} S2={witness['s2']}")
    _emit(payload, args.json, lines)
    return EXIT_OK if verdict.holds else EXIT_LEVEL_FAILS


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report = certificates.certificate_report(g)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.to_json(), end="")
    return EXIT_OK


def _cmd_minimality(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    gamma = certificates.gamma_of(g.n)
    r = args.r if args.r is not None else gamma
    s = None
    if args.kind == "rs":
        s = args.s if args.s is not None else gamma
    try:
        sweep = oracle.minimality_sweep(g, args.kind, r, s)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    target = f"r={r}" if s is None else f"(r,s)=({r},{s})"
    payload = {
        "kind": args.kind,
        "r": r,
        "s": s,
        "minimal": sweep.minimal,
        "entries": [
            {"edge": list(edge), "holds_after_removal": holds}
            for edge, holds in sweep.entries
        ],
    }
    lines = [f"target {target}; removals: {len(sweep.entries)}"]
    for edge, holds in sweep.entries:
        lines.append(f"  remove {edge}: {'still holds' if holds else 'breaks'}")
    lines.append(f"minimal: {'true' if sweep.minimal else 'false'}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _parse_removal(arg: str, scenario: str, n: int) -> tuple[int, int]:
    if arg == "default":
        edge = wmsr.get_scenario(scenario).removals.get(n)
        if edge is None:
            raise CliError(f"no documented default removal edge for {scenario} at n={n}")
        return edge
    try:
        u, v = (int(part) for part in arg.split(","))
    except ValueError as exc:
        raise CliError(f"--remove-edge expects 'u,v' or 'default', got {arg!r}") from exc
    return u, v


def _cmd_simulate(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    removed_edge = None
    if args.remove_edge is not None:
        removed_edge = _parse_removal(args.remove_edge, args.scenario, g.n)
        try:
            g = g.remove_edge(*removed_edge)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    try:
        config, strategy = wmsr.build_scenario(
            g, args.scenario, f=args.f, steps=args.steps, seed=args.seed
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    traj = wmsr.run_simulation(config, strategy)
    # before any output is written: a bad --tol leaves no files behind
    metrics = wmsr.trajectory_metrics(traj, tol=args.tol)
    out = Path(args.out)
    metrics_path = _sidecar(out, ".metrics.json")
    roles_path = _sidecar(out, ".roles.json")
    out.write_text(wmsr.trajectory_to_csv(traj))
    roles_path.write_text(wmsr.roles_to_json(traj))
    metrics["scenario"] = args.scenario
    metrics["seed"] = args.seed
    metrics["removed_edge"] = list(removed_edge) if removed_edge is not None else None
    metrics_path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    payload = {
        "trajectory_path": str(out),
        "metrics_path": str(metrics_path),
        "roles_path": str(roles_path),
        "spread_final": metrics["spread_final"],
        "converged": metrics["converged"],
    }
    _emit(payload, args.json, [
        f"scenario={args.scenario} f={config.f} steps={config.steps} seed={args.seed}",
        f"spread(0)={metrics['spread_initial']:.6g} spread({config.steps})={metrics['spread_final']:.6g}",
        f"converged (tol {args.tol:g}): {'yes' if metrics['converged'] else 'no'}",
        f"trajectory: {out}",
    ])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "construct": _cmd_construct,
            "robustness": _cmd_robustness,
            "bounds": _cmd_bounds,
            "minimality": _cmd_minimality,
            "simulate": _cmd_simulate,
        }[args.command]
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CapExceededError as exc:
        print(f"exact check infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
