"""Secrecy-outage analytics and secure routing for multihop relaying
networks under Poisson-distributed colluding eavesdroppers."""

from .netmodel import (
    NetModelError,
    Node,
    Path,
    Scenario,
    Topology,
    build_topology,
)
from .analytics import (
    SecrecyResult,
    density_bound,
    hop_sop,
    k1,
    optimal_rs,
    path_metric,
    path_sop,
    pgfl_integral,
)
from .routing import (
    HopConstrainedTable,
    RoutingError,
    RoutingSolution,
    bellman_ford_hop_constrained,
    enumerate_all_paths_oracle,
    solve_secure_route,
)
from .montecarlo import (
    MonteCarloError,
    SopEstimate,
    estimate_hop_sop,
    estimate_path_sop,
    hop_sop_estimates,
    power_invariance_check,
    power_invariance_report,
)

__version__ = "0.1.0"
