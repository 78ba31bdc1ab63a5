from __future__ import annotations

from types import ModuleType

import mergraph


def test_all_names_resolve_and_none_is_a_module():
    assert mergraph.__all__ == sorted(set(mergraph.__all__))
    for name in mergraph.__all__:
        assert not isinstance(getattr(mergraph, name), ModuleType), name


def test_star_import_gives_the_public_names_only():
    namespace: dict = {}
    exec("from mergraph import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(mergraph.__all__)
    assert {"is_r_robust", "construct_gamma_merg", "parse_graph", "run_simulation"} <= exported
    assert not exported & {"certificates", "construction", "graph_core", "oracle", "wmsr"}
