"""Minimal-edge maximally robust graphs.

Construction of gamma- and (gamma, gamma)-robust graphs with provably
minimal edge sets, exact robustness verification that decides on the
lattice of twin classes, closed-form necessary-condition certificates, and
a resilient-consensus simulator with malicious and Byzantine adversaries.
"""

from .certificates import (
    CertificateCheck,
    CertificateReport,
    certificate_report,
    edge_lb_any_r,
    edge_lb_gamma_even,
    edge_lb_gamma_gamma,
    edge_lb_gamma_odd,
    gamma_of,
    lemma4_dense_subgraph_holds,
    min_degree_lb_rs,
    necessary_clique_size,
    prop1_gamma_gamma_check,
    r_upper_bound_from_edges,
    turan_clique_threshold,
    turan_number,
)
from .construction import (
    ConstructionRecipe,
    construct_gamma_gamma_merg,
    construct_gamma_merg,
    recipe_from_dict,
    replay_recipe,
)
from .graph_core import (
    CapExceededError,
    Graph,
    complement,
    complete_graph,
    graph_from_edge_text,
    graph_from_json,
    graph_to_json,
    max_clique_size,
    new_graph,
    parse_graph,
)
from .oracle import (
    EXACT_CELL_BUDGET,
    MinimalitySweep,
    RobustnessVerdict,
    SubsetPair,
    is_r_reachable,
    is_r_robust,
    is_rs_robust,
    max_r_robustness,
    max_s_given_r,
    minimality_sweep,
    reachable_count,
)
from .wmsr import (
    AgentRole,
    SimConfig,
    Trajectory,
    build_scenario,
    is_f_local,
    is_f_total,
    run_simulation,
    trajectory_metrics,
    trajectory_to_csv,
    trig_malicious_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
