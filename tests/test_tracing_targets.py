"""Every function the benchmark tracer hooks must exist in the package.

``bench/tracing.py`` replaces ``mergraph.<module>.<attribute>`` for each
entry of its ``TARGETS``; a refactor that renames or deletes one of those
functions would otherwise only fail inside a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    targets = load_tracing(monkeypatch).TARGETS
    assert targets
    for module_name, attr, *_ in targets:
        module = importlib.import_module(f"mergraph.{module_name}")
        assert callable(getattr(module, attr, None)), f"mergraph.{module_name}.{attr}"


def test_a_traced_construct_records_each_build(monkeypatch, tmp_path):
    # cli looks its builders up in construction at each call, so the
    # wrappers the tracer installs there see every build
    tracing = load_tracing(monkeypatch)
    modules = {name: importlib.import_module(f"mergraph.{name}") for name, *_ in tracing.TARGETS}
    with tracing.Tracer(modules) as tracer:
        for kind in ("r", "rs"):
            out = str(tmp_path / f"{kind}.json")
            assert modules["cli"].main(["construct", "--n", "9", "--kind", kind, "--out", out]) == 0
    assert [s.name for s in tracer.spans].count("construction.construct") == 2
