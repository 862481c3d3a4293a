"""Hop-constrained secure routing.

The joint rate/route problem decomposes into one minimum-sum-of-squared-
distance subproblem per hop budget v, solved by a hop-indexed Bellman-Ford
sweep, followed by an outer maximization of the per-path secrecy rate over
v. A brute-force simple-path enumerator is kept alongside as the test
oracle for the decomposition.

Tie-breaking when two candidate paths share the minimum weight at a
budget: prefer fewer hops (a tie never displaces an entry found at an
earlier level), then the smallest predecessor id at each relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import Path, Topology
from .analytics import optimal_rs, path_metric


ORACLE_NODE_LIMIT = 9


class RoutingError(ValueError):
    pass


@dataclass
class HopConstrainedTable:
    """Per-budget shortest-path table from a fixed source.

    best[v][i] is the minimum sum of squared distances over paths from the
    source to node order[i] using at most v hops (inf if unreachable);
    hops and pred record the realizing hop count and predecessor position.
    index maps a node id to its position in order.
    """

    order: list[int]
    index: dict[int, int]
    source: int
    best: np.ndarray   # (n_budgets+1, n_nodes)
    hops: np.ndarray
    pred: np.ndarray

    def best_weight(self, node: int, v: int) -> float:
        return float(self.best[v, self.index[node]])

    def path_to(self, node: int, v: int):
        """Reconstruct the stored path as a node-id list, None if unreachable."""
        i = self.index[node]
        if not np.isfinite(self.best[v, i]):
            return None
        src = self.index[self.source]
        seq = [i]
        while i != src:
            i, v = int(self.pred[v, i]), int(self.hops[v, i]) - 1
            seq.append(i)
        return [self.order[i] for i in reversed(seq)]


@dataclass
class RoutingSolution:
    path: Path
    hop_budget_used: int
    rs_star: float
    c_s: float
    # audit trail: (v, node sequence or None, metric or None) for each budget
    per_v_candidates: list


def bellman_ford_hop_constrained(topology: Topology, source: int,
                                 dest: int) -> HopConstrainedTable:
    """Fill the hop-budget table for every node in one O(N^3) sweep."""
    if source not in topology.nodes or dest not in topology.nodes:
        raise RoutingError("source or destination not in topology")
    if source == dest:
        raise RoutingError("source equals destination")
    n = len(topology.order)
    w = topology.weight_matrix()
    src = topology.index[source]

    n_budgets = n - 1
    best = np.full((n_budgets + 1, n), np.inf)
    hops = np.zeros((n_budgets + 1, n), dtype=np.int64)
    pred = np.full((n_budgets + 1, n), -1, dtype=np.int64)
    best[0, src] = 0.0

    for v in range(1, n_budgets + 1):
        cand = best[v - 1][:, None] + w          # cand[u, i]: via predecessor u
        cw = cand.min(axis=0)
        cp = cand.argmin(axis=0)                 # smallest index on ties
        improve = cw < best[v - 1]               # strict: ties keep fewer hops
        best[v] = np.where(improve, cw, best[v - 1])
        hops[v] = np.where(improve, hops[v - 1][cp] + 1, hops[v - 1])
        pred[v] = np.where(improve, cp, pred[v - 1])

    return HopConstrainedTable(topology.order, topology.index, source, best, hops, pred)


def solve_secure_route(topology: Topology, source: int, dest: int, scenario):
    """Maximize the end-to-end secrecy rate over paths and hop budgets.

    Returns a RoutingSolution, or None when no budget yields a candidate
    below the outage-feasibility weight cutoff (infeasibility is a result,
    not an error). Unreachable destinations also yield None with an
    all-empty audit trail.
    """
    table = bellman_ford_hop_constrained(topology, source, dest)
    audit = []
    best_metric = None
    best_entry = None
    for v in range(1, len(topology.order)):
        seq = table.path_to(dest, v)
        if seq is None:
            audit.append((v, None, None))
            continue
        p = topology.path(seq)
        metric = path_metric(p, scenario)  # None when over the weight cutoff
        audit.append((v, seq, metric))
        if metric is not None and (best_metric is None or metric > best_metric):
            best_metric = metric
            best_entry = (p, v)
    if best_entry is None:
        return None
    p, v = best_entry
    res = optimal_rs(p, scenario)
    return RoutingSolution(p, v, res.rs_star, res.c_s, audit)


def enumerate_all_paths_oracle(topology: Topology, source: int, dest: int,
                               max_hops: int, node_limit: int = ORACLE_NODE_LIMIT):
    """All simple paths with at most max_hops hops, by exhaustive DFS.

    Deliberately independent of the Bellman-Ford machinery: it shares only
    the weight matrix, whose finite entries give each node's neighbours.
    Capped at node_limit nodes since the count grows factorially.
    """
    if len(topology.nodes) > node_limit:
        raise RoutingError(
            f"oracle limited to {node_limit} nodes, topology has {len(topology.nodes)}")
    if source not in topology.nodes or dest not in topology.nodes:
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
                                       max_hops=len(topology.nodes) - 1)
    best = None
    best_metric = None
    for p in paths:
        m = path_metric(p, scenario)
        if m is not None and (best_metric is None or m > best_metric):
            best, best_metric = p, m
    if best is None:
        return None, None
    return best, best_metric
