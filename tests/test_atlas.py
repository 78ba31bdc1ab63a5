"""The paper's claims checked on every graph with 2 to 7 nodes.

networkx's graph atlas lists all 1,253 graphs on 0 to 7 nodes up to
isomorphism; robustness and every certificate are label-invariant, so the
1,251 with at least two nodes cover every graph of those sizes.  On each
one the exact oracle decides gamma- and (gamma, gamma)-robustness, and the
test checks claim (a), that the edge floors are necessary and attained,
counts the extremal graphs (those at a level with exactly the floor's edge
count) and finds each construction among them, together with the soundness
of every certificate.

networkx is a test dependency only: the last test keeps it out of the
package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import networkx as nx

from mergraph import (
    certificate_report,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    edge_lb_any_r,
    edge_lb_gamma_gamma,
    gamma_of,
    max_r_robustness,
    max_s_given_r,
    new_graph,
    prop1_gamma_gamma_check,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mergraph"


def atlas_graphs():
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() >= 2:
            yield new_graph(a.number_of_nodes(), a.edges())


def as_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edge_pairs())
    return nxg


def test_edge_floors_are_necessary_and_attained():
    fewest_gamma: dict[int, int] = {}
    fewest_gamma_gamma: dict[int, int] = {}
    extremal_gamma: dict[int, list] = {}
    extremal_gamma_gamma: dict[int, list] = {}
    graphs = 0
    for g in atlas_graphs():
        graphs += 1
        n, m = g.n, g.edge_count
        gamma = gamma_of(n)
        parity = "even" if n % 2 == 0 else "odd"
        max_r = max_r_robustness(g)
        gamma_gamma = max_s_given_r(g, gamma) >= gamma
        report = certificate_report(g)

        if max_r >= gamma:
            assert m >= edge_lb_any_r(gamma, parity), (n, g.adjacency)
            fewest_gamma[n] = min(fewest_gamma.get(n, m), m)
            if m == edge_lb_any_r(gamma, parity):
                extremal_gamma.setdefault(n, []).append(g)
        if gamma_gamma:
            assert m >= edge_lb_gamma_gamma(n), (n, g.adjacency)
            fewest_gamma_gamma[n] = min(fewest_gamma_gamma.get(n, m), m)
            if m == edge_lb_gamma_gamma(n):
                extremal_gamma_gamma.setdefault(n, []).append(g)

        holds = {f"{gamma}-robust": max_r >= gamma, f"({gamma},{gamma})-robust": gamma_gamma}
        for check in report.checks:
            if check.passed is False:
                assert not holds[check.scope], (check.name, n, g.adjacency)
        assert report.prop1_gamma_gamma == prop1_gamma_gamma_check(g) == gamma_gamma
        assert report.implied_r_upper_bound >= max_r

    assert graphs == 1251
    sizes = range(2, 8)
    assert [fewest_gamma[n] for n in sizes] == [1, 3, 5, 9, 11, 18]
    assert [fewest_gamma_gamma[n] for n in sizes] == [1, 3, 5, 10, 14, 21]
    assert [fewest_gamma[n] for n in sizes] == [
        edge_lb_any_r(gamma_of(n), "even" if n % 2 == 0 else "odd") for n in sizes
    ]
    assert [fewest_gamma_gamma[n] for n in sizes] == [edge_lb_gamma_gamma(n) for n in sizes]
    # the atlas lists each graph once up to isomorphism
    assert [len(extremal_gamma[n]) for n in sizes] == [1, 1, 1, 1, 1, 2]
    assert [len(extremal_gamma_gamma[n]) for n in sizes] == [1, 1, 1, 1, 1, 1]
    for build, extremal in ((construct_gamma_merg, extremal_gamma),
                            (construct_gamma_gamma_merg, extremal_gamma_gamma)):
        for n in sizes:
            built = as_networkx(build(n)[0])
            matches = [nx.is_isomorphic(built, as_networkx(g)) for g in extremal[n]]
            assert matches.count(True) == 1, (build.__name__, n)


def test_the_package_does_not_import_networkx():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "networkx" for name in names), path
