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

Output files are written in place: an existing file is opened without
truncating it, overwritten, and cut to the new length only if it was
longer, so its inode, mode and owner are kept and a symlink's target is
rewritten.  Opening with truncation is what ``open(path, "w")`` does, and on
an ext4 mount with ``auto_da_alloc`` (the default) closing a file that was
truncated to zero and rewritten starts writeback of its data: on a 2-vCPU
VM rewriting a 200 B file took about 150 us that way and 5 us in place, a
3.1 MB file 3.6 ms and 0.64 ms.  Neither way is atomic: a crash mid-write
used to leave a short file and now leaves old bytes after the new ones.
An ``--out`` that exists and is not a regular file once links are followed
(``/dev/null``, ``/dev/stdout`` or a link to either, say) gets no sidecar
files, and their paths are reported as ``null``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
        # component, and that churn keeps growing the interpreter's table.
        # UTF-8 whatever the locale: both formats are ASCII, and a file that
        # is not UTF-8 is reported with its path; a leading byte-order mark
        # is dropped
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read graph file {path}: {exc}") from exc
    try:
        return parse_graph(text)
    except ValueError as exc:
        raise CliError(f"cannot parse graph file {path}: {exc}") from exc


def _write(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place (see the module docstring)."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        # only a longer file is cut: /dev/null, say, cannot be truncated
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(payload: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _sidecar(out: Path, suffix: str) -> str | None:
    """``out`` with its suffix replaced by ``suffix``, or appended if it has
    none; ``None`` when ``out`` exists and, links followed, is not a regular
    file: a device, FIFO or pipe takes no sidecar (beside ``/dev/null`` or
    ``/dev/stdout`` it would land in ``/dev``).  A link to a regular file
    keeps its sidecars beside the link."""
    if os.path.exists(out) and not os.path.isfile(out):
        return None
    return str(out.with_suffix(suffix) if out.suffix else Path(str(out) + suffix))


# builder names, looked up in ``construction`` at each call so that a
# wrapper installed there (the benchmark's tracer) sees every build
_BUILDERS = {"r": "construct_gamma_merg", "rs": "construct_gamma_gamma_merg"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="mergraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a minimal maximally robust graph")
    p.set_defaults(run=_cmd_construct)
    p.add_argument("--n", type=int, required=True, help="node count (>= 2)")
    p.add_argument("--kind", choices=tuple(_BUILDERS), required=True,
                   help="r: gamma-robust family; rs: (gamma,gamma)-robust family")
    p.add_argument("--variant", type=int, default=None,
                   help="seed for a label permutation of the canonical graph")
    p.add_argument("--out", required=True, help="output path for the graph JSON")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("robustness", help="exact robustness checks")
    p.set_defaults(run=_cmd_robustness)
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rs", action="store_true", help="work with (r, s) levels")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="certificate report")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("minimality", help="single-edge-removal sweep")
    p.set_defaults(run=_cmd_minimality)
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=tuple(_BUILDERS), required=True)
    p.add_argument("--r", type=int, default=None,
                   help="target r (default: ceil(n/2))")
    p.add_argument("--s", type=int, default=None,
                   help="target s for kind rs (default: ceil(n/2))")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="run a consensus scenario")
    p.set_defaults(run=_cmd_simulate)
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
    build = getattr(construction, _BUILDERS[args.kind])
    graph, recipe = build(args.n, variant=args.variant)
    out = Path(args.out)
    recipe_path = _sidecar(out, ".recipe.json")
    _write(out, graph_to_json(graph))
    if recipe_path is not None:
        _write(recipe_path, recipe.to_json())
    payload = {
        "n": graph.n,
        "gamma": recipe.gamma,
        "kind": args.kind,
        "edges": graph.edge_count,
        "graph_path": str(out),
        "recipe_path": recipe_path,
    }
    _emit(payload, args.json, [
        f"n={graph.n} gamma={recipe.gamma} kind={args.kind} edges={graph.edge_count}",
        f"graph: {out}",
        f"recipe: {recipe_path or 'none'}",
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

    payload = {"r": verdict.r, "holds": verdict.holds, "witness": None}
    level = f"{verdict.r}-robust"
    if verdict.s is not None:
        payload["s"] = verdict.s
        level = f"({verdict.r},{verdict.s})-robust"
    lines = [f"{level}: {'yes' if verdict.holds else 'no'}"]
    if verdict.witness is not None:
        s1, s2 = sorted(verdict.witness.s1), sorted(verdict.witness.s2)
        payload["witness"] = {"s1": s1, "s2": s2}
        lines.append(f"witness S1={s1} S2={s2}")
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
    s = args.s
    if args.kind == "r" and s is not None:
        raise CliError("kind 'r' takes no s")
    if args.kind == "rs" and s is None:
        s = gamma
    sweep = oracle.minimality_sweep(g, r, s)
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
        g = g.remove_edge(*removed_edge)
    config, strategy = wmsr.build_scenario(
        g, args.scenario, f=args.f, steps=args.steps, seed=args.seed
    )
    traj = wmsr.run_simulation(config, strategy)
    # before any output is written: a bad --tol leaves no files behind
    metrics = wmsr.trajectory_metrics(traj, tol=args.tol)
    out = Path(args.out)
    metrics_path = _sidecar(out, ".metrics.json")
    roles_path = _sidecar(out, ".roles.json")
    metrics["scenario"] = args.scenario
    metrics["seed"] = args.seed
    metrics["removed_edge"] = list(removed_edge) if removed_edge is not None else None
    _write(out, wmsr.trajectory_to_csv(traj))
    if roles_path is not None:  # and so metrics_path: both sit beside out
        _write(roles_path, wmsr.roles_to_json(traj))
        _write(metrics_path, json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    payload = {
        "trajectory_path": str(out),
        "metrics_path": metrics_path,
        "roles_path": roles_path,
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
        return args.run(args)
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
