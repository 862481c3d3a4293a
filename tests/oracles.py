"""Reference implementations the tests compare the package against.

A brute-force simple-path enumerator, the test oracle for the hop-budget
decomposition in `secroute.routing`, a scipy quadrature of the plane
integral behind the closed-form outage exponent in `secroute.analytics`,
and the per-topology loop that `secroute.experiments.run_table_one`
replaced with one stacked sweep.
scipy is a test-only dependency; the package itself never imports it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from secroute import montecarlo
from secroute.analytics import path_metric
from secroute.experiments import random_placement
from secroute.netmodel import Scenario, Topology
from secroute.routing import RoutingError, solve_secure_route

ORACLE_NODE_LIMIT = 9


def enumerate_all_paths_oracle(topology: Topology, source: int, dest: int,
                               max_hops: int, node_limit: int = ORACLE_NODE_LIMIT):
    """All simple paths with at most max_hops hops, by exhaustive DFS.

    Deliberately independent of the Bellman-Ford machinery: it shares only
    the weight matrix, whose finite entries give each node's neighbours.
    Capped at node_limit nodes since the count grows factorially.
    """
    if len(topology.order) > node_limit:
        raise RoutingError(
            f"oracle limited to {node_limit} nodes, topology has {len(topology.order)}")
    if source not in topology.index or dest not in topology.index:
        raise RoutingError("source or destination not in topology")
    order = topology.order
    neighbors = {order[i]: [order[j] for j in np.flatnonzero(np.isfinite(row))]
                 for i, row in enumerate(topology.weight_matrix())}
    out = []
    stack = [source]
    seen = {source}

    def dfs():
        cur = stack[-1]
        for nbr in neighbors[cur]:
            if nbr in seen:
                continue
            if nbr == dest:
                out.append(topology.path(stack + [dest]))
                continue
            if len(stack) >= max_hops:  # adding nbr then dest would exceed
                continue
            stack.append(nbr)
            seen.add(nbr)
            if len(stack) <= max_hops:
                dfs()
            stack.pop()
            seen.remove(nbr)

    if max_hops >= 1:
        dfs()
    return [p for p in out if p.hop_count <= max_hops]


def best_route_oracle(topology: Topology, source: int, dest: int, scenario):
    """Brute-force optimum of the secrecy-rate objective over all simple paths."""
    paths = enumerate_all_paths_oracle(topology, source, dest,
                                       max_hops=len(topology.order) - 1)
    best = None
    best_metric = None
    for p in paths:
        m = path_metric(p, scenario)
        if m is not None and (best_metric is None or m > best_metric):
            best, best_metric = p, m
    if best is None:
        return None, None
    return best, best_metric


def pgfl_integral(rs: float, dist: float, scenario: Scenario) -> float:
    """Numerical evaluation of the plane integral behind hop_sop's exponent.

    Computes lambda_e * Int_{R^2} a/(a+|x|^alpha) dx with a = 2^rs * dist^alpha,
    by radial reduction (t = r^2) and the compactifying substitution
    u = t/(1+t). Independent cross-check of the gamma-function closed form
    K1 * 2^(2 rs / alpha) * dist^2.
    """
    a = 2.0 ** rs * dist ** scenario.alpha
    c = scenario.alpha / 2.0

    def integrand(u):
        t = u / (1.0 - u)
        return a / (a + t ** c) / ((1.0 - u) * (1.0 - u))

    knee = a ** (1.0 / c)  # t where the integrand halves
    u_knee = knee / (1.0 + knee)
    with warnings.catch_warnings():
        # the endpoint singularity (exponent c-2 for c < 2) triggers a
        # roundoff warning in the extrapolation; the result is still far
        # inside the 1e-6 budget
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, 1.0, points=[u_knee], epsabs=0.0,
                      epsrel=1e-10, limit=500)
    return scenario.lambda_e * math.pi * val


def table_one_reference(cfg):
    """run_table_one, one topology at a time: each rep builds its Topology
    with random_placement and routes it with solve_secure_route."""
    scenario = cfg.scenario()
    rows = []
    for n_idx, n in enumerate(cfg.n_legit):
        total = 0.0
        total_sq = 0.0
        n_infeasible = 0
        for rep in range(cfg.reps):
            rng = montecarlo.block_rng(cfg.seed, n_idx, rep)
            topo = random_placement(n, rng)
            sol = solve_secure_route(topo, 0, n + 1, scenario)
            c = sol.c_s if sol is not None else 0.0
            if sol is None:
                n_infeasible += 1
            total += c
            total_sq += c * c
        mean = total / cfg.reps
        var = max(total_sq / cfg.reps - mean * mean, 0.0)
        stderr = math.sqrt(var / cfg.reps)
        if mean == math.inf:
            mean = stderr = "unbounded"
        rows.append((n, mean, stderr, n_infeasible / cfg.reps, cfg.reps, cfg.seed))
    return rows
