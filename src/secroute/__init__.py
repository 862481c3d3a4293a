"""Secrecy-outage analytics and secure routing for multihop relaying
networks under Poisson-distributed colluding eavesdroppers."""

from .netmodel import (
    NetModelError,
    Node,
    Path,
    Scenario,
    Topology,
)
from .analytics import (
    density_bound,
    hop_sop,
    k1,
    optimal_rs,
    path_metric,
    path_sop,
)
from .routing import (
    HopConstrainedTable,
    RoutingError,
    RoutingSolution,
    bellman_ford_hop_constrained,
    solve_secure_route,
)
from .montecarlo import (
    MonteCarloError,
    SopEstimate,
    estimate_path_sop,
    hop_sop_estimates,
    power_invariance_report,
)

__version__ = "0.1.0"
