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

A call's argv is parsed in one of two steps.  The plain step takes argv
that starts with a subcommand and goes on with that subcommand's option
strings only, each spelled in full and given once: a flag alone, any other
option followed by one value that does not start with ``-`` and that its
type and choices accept, and no required option missing.  It builds the
namespace argparse would, from the actions of the parsers ``build_parser``
builds, without running argparse: on a 2-vCPU VM an argparse parse cost
48-74 us of a 0.2-0.3 ms op between other ops, against a few us for the
plain step.  Every argv it refuses goes to the full parser:
abbreviations, ``--opt=value``, repeats, ``-h``, a value such as ``-1``,
every error, top-level help, a missing or unknown subcommand and an option
before it.  So argparse gives every message, exit code and help text, and
every namespace is what the full parser gives.

Exit codes: 0 success / requested level holds; 2 requested level fails;
3 exact check infeasible at this size; 1 any other error.  ``--json``
switches the human-readable report on stdout to machine-readable JSON.

A regular graph file longer than one block (64 KiB) is read a block at a
time by ``graph_core.read_canonical_json``, so no graph file is held whole.
Any other file (a shorter one, a pipe, ``/dev/stdin`` on a pipe) is read
whole, and so is a text that pass refuses, after a seek back to the start;
the bytes read go to ``graph_core.parse_graph``, with no newline
translation.  ``graph_core`` owns the format (the byte-order mark, the fast
canonical path, the UTF-8 decode), the two readers build the same graph,
and a file it cannot decode or parse is reported with its path.

Output files are written in place, one write a piece: a text is one
piece, and ``construct`` writes the pieces of about 64 KiB that
``graph_core`` renders a graph in, so a graph file is never held whole.
An existing file is opened without truncating it, overwritten, and cut to
the new length only if it was longer, so its inode, mode and owner are
kept and a symlink's target is rewritten.  Opening with truncation is what
``open(path, "w")`` does, and on an ext4 mount with ``auto_da_alloc`` (the
default) closing a file that was truncated to zero and rewritten starts
writeback of its data: on a 2-vCPU VM rewriting a 200 B file took about
150 us that way and 5 us in place, a 3.1 MB file 3.6 ms and 0.64 ms.
Neither way is atomic, and the pieces change nothing there: a crash
mid-write used to leave a short file and still leaves old bytes after the
new ones.
An ``--out`` that is this process's stdout (``/dev/stdout`` or
``/proc/self/fd/1``, wherever stdout goes) is written through fd 1 and never
cut, so the report lines printed before and after it keep their order.
Only an ``--out`` that is a regular file once links are followed, and not
stdout, gets sidecar files; for any other (stdout, ``/dev/null`` or a link
to it, say) their paths are reported as ``null``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple

from . import certificates, construction, oracle, wmsr
from .graph_core import (
    _CHUNK_CHARS,
    CapExceededError,
    Graph,
    gamma_of,
    graph_json_pieces,
    graph_to_json,  # noqa: F401 - a name bench/tracing.py wraps; construct streams the pieces
    parse_graph,
    read_canonical_json,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LEVEL_FAILS = 2
EXIT_INFEASIBLE = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the top-level parser's subcommand parsers by name, and the plain
    # step's table of each (see build_parser)
    subcommands: dict[str, argparse.ArgumentParser]
    plain: dict[str, _PlainTable]

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise CliError(message)


def _load_graph(path: str) -> Graph:
    try:
        # open() rather than Path.read_bytes(): pathlib interns every path
        # component, and that churn keeps growing the interpreter's table.
        # Unbuffered, every read goes straight to the file, and no buffer
        # is set up for a file read once: that pays for the fstat
        with open(path, "rb", buffering=0) as fh:
            st = os.fstat(fh.fileno())
            return _read_graph(fh, st.st_size if stat.S_ISREG(st.st_mode) else None)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read graph file {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"cannot parse graph file {path}: {exc}") from exc


def _read_graph(fh: BinaryIO, size: int | None) -> Graph:
    """The graph in ``fh``, open at offset 0: a file of ``size`` bytes, or
    ``None`` if it is not a regular file.  A regular file longer than one
    block goes first to ``read_canonical_json``, and is read again from
    offset 0 if that refuses it; any other file is read once.  Bytes read
    whole go to ``parse_graph``."""
    if size is not None and size > _CHUNK_CHARS:
        if (g := read_canonical_json(fh, size)) is not None:
            return g
        fh.seek(0)
    return parse_graph(fh.read())


def _write(path: str | Path, text: str | Iterable[str]) -> bool:
    """Write ``text``, a ``str`` or pieces of one, as UTF-8 over ``path`` in
    place, one write a piece, a ``str`` being one (see the module
    docstring); True iff ``path`` takes sidecar files: it is a regular
    file, links followed, and not this process's stdout.  Stdout is
    written through fd 1, at its own offset and after what ``sys.stdout``
    holds, and never cut: through a second open of a regular file it would
    start at offset 0, and the report lines printed afterwards would
    overwrite it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        # with stdout closed, sys.stdout is None and fd may be 1 itself
        to_stdout = sys.stdout is not None and os.path.samestat(st, os.fstat(1))
        if to_stdout:
            sys.stdout.flush()
        written = 0
        for piece in [text] if isinstance(text, str) else text:
            view = memoryview(piece.encode())
            written += len(view)
            while view:
                view = view[os.write(1 if to_stdout else fd, view):]
        # only a longer file is cut: /dev/null, say, cannot be truncated
        if not to_stdout and st.st_size > written:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)
    return stat.S_ISREG(st.st_mode) and not to_stdout


# the encoder every --json line goes through: json.dumps with sort_keys
# builds a new one per call
_JSON = json.JSONEncoder(sort_keys=True)


def _emit(payload: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(_JSON.encode(payload))
    else:
        for line in human_lines:
            print(line)


def _sidecar(out: Path, suffix: str) -> str:
    """``out`` with its suffix replaced by ``suffix``, or appended if it has
    none.  Called only when ``_write`` said ``out`` takes sidecars: beside
    ``/dev/null`` or ``/dev/stdout`` they would land in ``/dev``.  A link to
    a regular file keeps its sidecars beside the link."""
    return str(out.with_suffix(suffix) if out.suffix else Path(str(out) + suffix))


# builder names, looked up in ``construction`` at each call so that a
# wrapper installed there (the benchmark's tracer) sees every build
_BUILDERS = {"r": "construct_gamma_merg", "rs": "construct_gamma_gamma_merg"}


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process; parsing leaves it unchanged.
    Its ``subcommands`` are the parsers of the subcommands by name."""
    parser = _Parser(prog="mergraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

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
    parser.plain = {name: _plain_table(name, p) for name, p in parser.subcommands.items()}
    return parser


class _PlainTable(NamedTuple):
    start: dict  # the namespace argparse starts from, in its key order
    options: dict[str, argparse.Action]  # the option strings the step takes
    required: frozenset[str]  # the dests that must be given


def _plain_table(name: str, sub: argparse.ArgumentParser) -> _PlainTable:
    """The plain step's table of subcommand ``name``, read from its parser.

    argparse starts the namespace with ``command``, then each action's
    default in action order (the help action's is ``SUPPRESS``, so it has
    none), then the parser's ``set_defaults``.  (It would also pass a
    string default left unset through the action's type; no option here
    has both.)  The step takes only ``store`` options of one value and
    ``store_true`` flags, so ``-h`` and anything else argparse acts on goes
    to argparse.
    """
    start = {"command": name}
    for action in sub._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            start.setdefault(action.dest, action.default)
    for dest, default in sub._defaults.items():
        start.setdefault(dest, default)
    options = {
        string: action for string, action in sub._option_string_actions.items()
        if (type(action) is argparse._StoreAction and action.nargs is None)
        or type(action) is argparse._StoreTrueAction
    }
    required = frozenset(action.dest for action in sub._actions if action.required)
    return _PlainTable(start, options, required)


def _plain_namespace(table: _PlainTable, argv: list[str]) -> argparse.Namespace | None:
    """The namespace of ``argv`` (a subcommand, then its options) if the
    plain step takes it (see the module docstring), else None."""
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = table.options.get(token)
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:
            given[action.dest] = action.const
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            # what argparse reports as an invalid value
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if not table.required <= given.keys():
        return None
    return argparse.Namespace(**{**table.start, **given})


# -- subcommand bodies ---------------------------------------------------------

def _cmd_construct(args: argparse.Namespace) -> int:
    build = getattr(construction, _BUILDERS[args.kind])
    graph, recipe = build(args.n, variant=args.variant)
    out = Path(args.out)
    recipe_path = None
    if _write(out, graph_json_pieces(graph)):
        recipe_path = _sidecar(out, ".recipe.json")
        _write(recipe_path, recipe.to_json())
    edges = graph.edge_count
    payload = {
        "n": graph.n,
        "gamma": recipe.gamma,
        "kind": args.kind,
        "edges": edges,
        "graph_path": str(out),
        "recipe_path": recipe_path,
    }
    _emit(payload, args.json, [
        f"n={graph.n} gamma={recipe.gamma} kind={args.kind} edges={edges}",
        f"graph: {out}",
        f"recipe: {recipe_path or 'none'}",
    ])
    return EXIT_OK


def _cmd_robustness(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.rs or args.s is not None:
        r = args.r if args.r is not None else gamma_of(g.n)
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
        print(_JSON.encode(report.to_dict()))
    else:
        print(report.to_json(), end="")
    return EXIT_OK


def _cmd_minimality(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    gamma = gamma_of(g.n)
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
    # ASCII digits only: int() would also take signs, spaces, underscores
    # and other scripts' digits
    u, _, v = arg.partition(",")
    if not all(part.isascii() and part.isdigit() for part in (u, v)):
        raise CliError(f"--remove-edge expects 'u,v' or 'default', got {arg!r}")
    try:
        return int(u), int(v)
    except ValueError:  # ASCII digits fail only past int()'s digit limit
        raise CliError(f"--remove-edge id of {max(len(u), len(v))} digits is too long") from None


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
    metrics["scenario"] = args.scenario
    metrics["seed"] = args.seed
    metrics["removed_edge"] = list(removed_edge) if removed_edge is not None else None
    metrics_path = roles_path = None
    if _write(out, wmsr.trajectory_to_csv(traj)):
        roles_path, metrics_path = _sidecar(out, ".roles.json"), _sidecar(out, ".metrics.json")
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in two steps (see the module
    docstring): the plain step, for a leading subcommand and its options in
    full; the full parser, for whatever the plain step refuses."""
    parser = build_parser()
    table = parser.plain.get(argv[0]) if argv else None
    if table is not None and (args := _plain_namespace(table, argv)) is not None:
        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return args.run(args)
    except CapExceededError as exc:
        print(f"exact check infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
