"""Hop-constrained secure routing.

The joint rate/route problem decomposes into one minimum-sum-of-squared-
distance subproblem per hop budget v, solved by a hop-indexed Bellman-Ford
sweep, followed by an outer maximization of the per-path secrecy rate over
v. The sweep stops at its fixed point, the first budget at which no entry
improves, since every later budget would repeat the last row; the outer
maximization scores a budget's path only where the destination's entry
improves, since elsewhere it is the previous budget's path.

Tie-breaking when two candidate paths share the minimum weight at a
budget: prefer fewer hops (a tie never displaces an entry found at an
earlier level), then the smallest predecessor id at each relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import Path, Topology
from .analytics import optimal_rs, path_metric


class RoutingError(ValueError):
    pass


@dataclass
class HopConstrainedTable:
    """Per-budget shortest-path table from a fixed source.

    best[v][i] is the minimum sum of squared distances over paths from the
    source to node order[i] using at most v hops (inf if unreachable), and
    pred[v][i] the realizing predecessor's position. index maps a node id
    to its position in order. Rows are stored up to the sweep's fixed
    point only; any larger budget reads the last row.

    An entry changes only when it strictly improves, so its path's hop
    count is the first row that holds its value: had the predecessor's
    entry been set before row r-1, the same candidate would have improved
    the entry before row r.
    """

    order: list[int]
    index: dict[int, int]
    best: np.ndarray   # (v_fix+1, n_nodes), v_fix <= n_nodes-1
    pred: np.ndarray

    def _row(self, v: int) -> int:
        return min(v, len(self.best) - 1)

    def best_weight(self, node: int, v: int) -> float:
        return float(self.best[self._row(v), self.index[node]])

    def path_to(self, node: int, v: int):
        """Reconstruct the stored path as a node-id list, None if unreachable."""
        i = self.index[node]
        w = self.best[self._row(v), i]
        if not np.isfinite(w):
            return None
        seq = [i]
        # the entry's hop count; row 0 holds only the source
        for r in range(int(np.argmax(self.best[:, i] == w)), 0, -1):
            i = int(self.pred[r, i])
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
    """Fill the hop-budget table for every node, up to its fixed point.

    Budget v relaxes row v-1 over every edge. The sweep stops at the first
    budget at which no entry strictly improves: that row equals row v-1,
    so every later row would too. Cost O(v_fix * N^2), with v_fix the
    number of budgets swept before the fixed point (at most N-1).
    """
    if source not in topology.nodes or dest not in topology.nodes:
        raise RoutingError("source or destination not in topology")
    if source == dest:
        raise RoutingError("source equals destination")
    n = len(topology.order)
    w = topology.weight_matrix()
    src = topology.index[source]
    cols = np.arange(n)

    b = np.full(n, np.inf)
    b[src] = 0.0
    best = [b]
    pred = [np.full(n, -1, dtype=np.int64)]
    for _ in range(n - 1):
        cand = best[-1][:, None] + w             # cand[u, i]: via predecessor u
        cp = cand.argmin(axis=0)                 # smallest index on ties
        cw = cand[cp, cols]
        improve = cw < best[-1]                  # strict: ties keep fewer hops
        if not improve.any():
            break
        best.append(np.where(improve, cw, best[-1]))
        pred.append(np.where(improve, cp, pred[-1]))

    return HopConstrainedTable(topology.order, topology.index,
                               np.array(best), np.array(pred))


def solve_secure_route(topology: Topology, source: int, dest: int, scenario):
    """Maximize the end-to-end secrecy rate over paths and hop budgets.

    Returns a RoutingSolution, or None when no budget yields a candidate
    below the outage-feasibility weight cutoff (infeasibility is a result,
    not an error). Unreachable destinations also yield None with an
    all-empty audit trail.
    """
    table = bellman_ford_hop_constrained(topology, source, dest)
    col = table.best[:, table.index[dest]]
    audit = []
    best_metric = None
    best_entry = None
    seq = metric = None
    for v in range(1, len(col)):
        # the path changes only where its weight strictly improves; that weight
        # is summed from 0.0 along path_to's chain, as Topology.path sums it
        if col[v] < col[v - 1]:
            seq = table.path_to(dest, v)
            p = Path(tuple(seq), float(col[v]))
            metric = path_metric(p, scenario)  # None when over the weight cutoff
            if metric is not None and (best_metric is None or metric > best_metric):
                best_metric = metric
                best_entry = (p, v)
        audit.append((v, seq, metric))
    # budgets past the fixed point repeat the last swept entry
    audit += [(v, seq, metric) for v in range(len(col), len(topology.order))]
    if best_entry is None:
        return None
    p, v = best_entry
    res = optimal_rs(p, scenario)
    return RoutingSolution(p, v, res.rs_star, res.c_s, audit)
