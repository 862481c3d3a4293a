"""Reference implementations the tests compare the package against.

A brute-force simple-path enumerator, the test oracle for the hop-budget
decomposition in `secroute.routing`, scipy quadratures of the plane
integral behind the closed-form outage exponent in `secroute.analytics`
and of the far-field exponent `secroute.montecarlo` adds to its disks,
the per-topology loop that `secroute.experiments.run_table_one`
replaced with one stacked sweep, the per-call form of
`secroute.routing.later_paths_may_win`, and Dijkstra on a mesh's Gabriel
graph, the fixed point of the hop-budget sweep at any size.
scipy is a test-only dependency; the package itself never imports it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import Delaunay

from secroute import montecarlo
from secroute.analytics import path_metric, weight_density_bound
from secroute.experiments import placements
from secroute.netmodel import Scenario, Topology
from secroute.routing import (_BOUND_MARGIN, _RELAX_CELLS, _RS_NEAR_MAX, RoutingError,
                              solve_secure_route)

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
        if m > 0.0 and (best_metric is None or m > best_metric):
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


def far_field_integral(rho: float, radius: float, scenario: Scenario) -> float:
    """The far field's Laplace exponent outside the disk of `radius` for a
    hop of outage radius rho, lambda_e * Int_{|x| > R} 1/(1 + (|x|/rho)^alpha) dx,
    by radial quadrature: an independent check of montecarlo's
    incomplete-beta closed form, at any disk radius."""

    def integrand(r):
        t = (rho / r) ** scenario.alpha
        return 2.0 * math.pi * r * t / (1.0 + t)

    val, _ = quad(integrand, radius, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)
    return scenario.lambda_e * val


def table_one_reference(cfg):
    """run_table_one, one topology at a time: each rep builds its Topology
    from its own placement and routes it with solve_secure_route."""
    scenario = cfg.scenario()
    rows = []
    for n_idx, n in enumerate(cfg.n_legit):
        total = 0.0
        rates = []
        n_infeasible = 0
        for rep in range(cfg.reps):
            rng = montecarlo.block_rng(cfg.seed, n_idx, rep)
            topo = Topology.from_xy(placements(n, 1, [rng])[0])
            sol = solve_secure_route(topo, 0, n + 1, scenario)
            c = sol.c_s if sol is not None else 0.0
            if sol is None:
                n_infeasible += 1
            total += c
            rates.append(c)
        mean = total / cfg.reps
        # the variance from a second pass, over the deviations from the mean
        stderr = math.sqrt(math.fsum((c - mean) * (c - mean) for c in rates) / cfg.reps / cfg.reps)
        if mean == math.inf:
            mean = stderr = "unbounded"
        rows.append((n, mean, stderr, n_infeasible / cfg.reps, cfg.reps, cfg.seed))
    return rows


def later_paths_may_win_reference(best, to_dst, d2, v, later, rate, scenario):
    """routing.later_paths_may_win as each call worked it out whole: vmax
    counted over every row of `later`, the scenario's log bound from the
    density bound, budget v + 1 through the general weight bound, and the
    (sweep, budget) pairs of the budgets after it by repeats and cumsums."""
    vmax = (later > rate[:, None]).sum(axis=1)
    may = vmax > v
    pos = rate > 0.0
    if not (may & pos).any():
        return may
    log_b = math.log2(weight_density_bound(1.0, scenario)) - math.log2(scenario.lambda_e)
    with np.errstate(divide="ignore", over="ignore"):
        weight = _later_weights_reference(best, to_dst, d2, v, v + 1)
        may &= ~pos | _exceeds_reference(weight, v + 1, rate, log_b, scenario.alpha)
        todo = np.flatnonzero(~may & (vmax > v + 1))
        if not len(todo):
            return may
        count = vmax[todo] - (v + 1)  # budgets v + 2 to vmax
        rows = np.repeat(todo, count)
        vp = np.arange(v + 2, v + 2 + len(rows)) - np.repeat(np.cumsum(count) - count, count)
        step = max(1, _RELAX_CELLS // best.shape[1])
        for i in range(0, len(rows), step):
            r, p = rows[i:i + step], vp[i:i + step]
            weight = _later_weights_reference(best[r], to_dst[r], d2[r], v, p)
            may[r[_exceeds_reference(weight, p, rate[r], log_b, scenario.alpha)]] = True
    return may


def _later_weights_reference(best, to_dst, d2, v, vp):
    k = np.reshape(vp - v, (-1, 1))
    return np.maximum((best + to_dst / k).min(axis=1), d2 / vp)


def _exceeds_reference(weight, vp, rate, log_b, alpha):
    u = (alpha / 2.0) * (log_b + _BOUND_MARGIN - np.log2(weight)) / vp
    return ~(u <= np.minimum(rate, _RS_NEAR_MAX / vp))


def gabriel_dijkstra(topology: Topology, source: int):
    """(dist, pred): the least squared-distance path weight from `source` to
    each node of a full mesh, and each node's predecessor on it, indexed by
    position in topology.order, by scipy's Dijkstra on the mesh's Gabriel
    graph.

    The Gabriel graph keeps a Delaunay edge uv when no node w lies strictly
    inside the disk with diameter uv, that is, when no w has
    |uw|^2 + |wv|^2 < |uv|^2 (Gabriel and Sokal, Systematic Zoology, 1969).
    An edge it drops has a strictly lighter two-hop detour, so no
    minimum-weight path with unlimited hops uses it. Edge weights are the
    mesh's own weight-matrix entries.
    """
    w = topology.weight_matrix()
    tri = Delaunay(topology.xy).simplices
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    u, v = np.unique(np.sort(pairs, axis=1), axis=0).T
    # the diagonal is inf, so u and v themselves never lie inside
    inside = (w[u] + w[v] < w[u, v][:, None]).any(axis=1)
    u, v = u[~inside], v[~inside]
    n = len(w)
    graph = csr_matrix((w[u, v], (u, v)), shape=(n, n))
    return dijkstra(graph, directed=False, indices=topology.index[source],
                    return_predecessors=True)
