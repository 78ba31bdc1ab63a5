"""Spans around calls into each ``mergraph`` layer, taken from outside.

The tracer replaces a function at the name its caller looks it up by (for
example ``mergraph.cli.parse_graph``, which ``cli`` calls, or
``mergraph.oracle.is_r_robust``, which both ``cli`` and
``minimality_sweep`` call) with a wrapper that records a span: name, start,
end, parent span and the op it belongs to.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the time its direct
children cover; the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from math import comb
from time import perf_counter


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _graph_edges(args, kwargs, result):
    return {"edges": len(result[0].edges)}


def _verdict(args, kwargs, result):
    return {"holds": result.holds}


def _removals(args, kwargs, result):
    return {"removals": len(result.entries)}


def _table(args, kwargs, result):
    return {"cells": 1 << args[0].n}


def _dense_scan(args, kwargs, result):
    n = args[0].n
    return {"subsets": comb(n, n // 2 + 1) if result is False else 0}


def _received_values(args, kwargs, result):
    config = args[0]
    adjacency = config.graph.adjacency
    received = sum(adjacency[i].bit_count()
                   for i, role in enumerate(config.roles) if role.value == "normal")
    return {"values": received * config.steps}


# (module, attribute, span name, annotation computed after the call returns)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_graph", "graph_core.parse_graph", _text_bytes),
    ("cli", "graph_to_json", "graph_core.graph_to_json", _result_bytes),
    ("certificates", "complement", "graph_core.complement", None),
    ("certificates", "max_clique_size", "graph_core.max_clique_size", None),
    ("construction", "construct_gamma_merg", "construction.construct", _graph_edges),
    ("construction", "construct_gamma_gamma_merg", "construction.construct", _graph_edges),
    ("oracle", "max_r_robustness", "oracle.max_r_robustness", None),
    ("oracle", "max_s_given_r", "oracle.max_s_given_r", None),
    ("oracle", "is_r_robust", "oracle.is_r_robust", _verdict),
    ("oracle", "is_rs_robust", "oracle.is_rs_robust", _verdict),
    ("oracle", "minimality_sweep", "oracle.minimality_sweep", _removals),
    ("oracle", "_x_count_table", "oracle.table", _table),
    ("certificates", "certificate_report", "certificates.certificate_report", None),
    ("certificates", "lemma4_dense_subgraph_holds",
     "certificates.lemma4_dense_subgraph_holds", _dense_scan),
    ("certificates", "prop1_gamma_gamma_check", "certificates.prop1_gamma_gamma_check", None),
    ("wmsr", "build_scenario", "wmsr.build_scenario", None),
    ("wmsr", "run_simulation", "wmsr.run_simulation", _received_values),
    ("wmsr", "trajectory_to_csv", "wmsr.trajectory_to_csv", _result_bytes),
    ("wmsr", "trajectory_metrics", "wmsr.trajectory_metrics", None),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    raised: bool = False
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers on the program's modules and restores them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, annotate in TARGETS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, annotate))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.op, name, 0.0)
            spans.append(span)
            stack.append(span.span_id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the duration of its direct children."""
    own = {s.span_id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _mean_ms(values) -> float:
    values = list(values)
    return 1000.0 * statistics.fmean(values) if values else 0.0


def _rate(amount: float, seconds: float, scale: float = 1.0) -> float:
    return amount / scale / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics named in BENCHMARK.json, from one traced run.

    ``.ms`` is the mean duration of one call; a layer the workload never
    calls reports 0.
    """
    own = self_seconds(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name, completed=False):
        return [s for s in by_name.get(name, []) if not (completed and s.raised)]

    def total(items, key):
        return sum(s.info.get(key, 0) for s in items), sum(s.seconds for s in items)

    verdicts = calls("oracle.is_r_robust", True) + calls("oracle.is_rs_robust", True)
    decisions = (calls("oracle.max_r_robustness", True) + calls("oracle.max_s_given_r", True)
                 + [s for s in verdicts if s.info["holds"]])
    oracle_names = {"oracle.max_r_robustness", "oracle.max_s_given_r", "oracle.is_r_robust",
                    "oracle.is_rs_robust", "oracle.minimality_sweep"}
    top_cells: dict[int, int] = {}
    for s in spans:
        if s.name in oracle_names and (s.parent is None or spans[s.parent].name not in oracle_names):
            top_cells[s.span_id] = 0
    for s in calls("oracle.table"):
        root = s.parent
        while root is not None and root not in top_cells:
            root = spans[root].parent
        if root is not None:
            top_cells[root] += s.info["cells"]

    dense = [s for s in calls("certificates.lemma4_dense_subgraph_holds", True)
             if s.info["subsets"]]
    metrics = {
        "cli.main.self_ms": _mean_ms(own[s.span_id] for s in calls("cli.main")),
        "graph_core.parse_graph.ms": _mean_ms(s.seconds for s in calls("graph_core.parse_graph")),
        "graph_core.parse_graph.mb_per_s": _rate(*total(calls("graph_core.parse_graph", True), "bytes"), 1e6),
        "graph_core.graph_to_json.ms": _mean_ms(s.seconds for s in calls("graph_core.graph_to_json")),
        "graph_core.graph_to_json.mb_per_s": _rate(*total(calls("graph_core.graph_to_json", True), "bytes"), 1e6),
        "graph_core.complement.ms": _mean_ms(s.seconds for s in calls("graph_core.complement")),
        "graph_core.max_clique_size.ms": _mean_ms(s.seconds for s in calls("graph_core.max_clique_size")),
        "construction.construct.ms": _mean_ms(s.seconds for s in calls("construction.construct")),
        "construction.construct.edges_per_s": _rate(*total(calls("construction.construct", True), "edges")),
        "oracle.decide.ms": _mean_ms(s.seconds for s in decisions),
        "oracle.table_cells": statistics.fmean(top_cells.values()) if top_cells else 0.0,
        "oracle.is_r_robust.fail_ms": _mean_ms(
            s.seconds for s in calls("oracle.is_r_robust", True) if not s.info["holds"]),
        "oracle.is_rs_robust.fail_ms": _mean_ms(
            s.seconds for s in calls("oracle.is_rs_robust", True) if not s.info["holds"]),
        "oracle.witnesses": float(sum(1 for s in verdicts if not s.info["holds"])),
        "oracle.minimality_sweep.removals_per_s": _rate(
            *total(calls("oracle.minimality_sweep", True), "removals")),
        "certificates.certificate_report.self_ms": _mean_ms(
            own[s.span_id] for s in calls("certificates.certificate_report")),
        "certificates.lemma4_dense_subgraph_holds.ms": _mean_ms(
            s.seconds for s in calls("certificates.lemma4_dense_subgraph_holds", True)),
        "certificates.lemma4_dense_subgraph_holds.subsets_per_s": _rate(*total(dense, "subsets")),
        "certificates.prop1_gamma_gamma_check.ms": _mean_ms(
            s.seconds for s in calls("certificates.prop1_gamma_gamma_check")),
        "wmsr.build_scenario.ms": _mean_ms(s.seconds for s in calls("wmsr.build_scenario")),
        "wmsr.run_simulation.ms": _mean_ms(s.seconds for s in calls("wmsr.run_simulation")),
        "wmsr.run_simulation.values_per_s": _rate(*total(calls("wmsr.run_simulation", True), "values")),
        "wmsr.trajectory_to_csv.mb_per_s": _rate(*total(calls("wmsr.trajectory_to_csv", True), "bytes"), 1e6),
        "wmsr.trajectory_metrics.ms": _mean_ms(s.seconds for s in calls("wmsr.trajectory_metrics")),
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s > 0 else 0.0,
    }
    return metrics
