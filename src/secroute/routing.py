"""Hop-constrained secure routing.

The joint rate/route problem decomposes into one minimum-sum-of-squared-
distance subproblem per hop budget v, solved by a hop-indexed Bellman-Ford
sweep, followed by an outer maximization of the per-path secrecy rate over
v. The sweep stops at its fixed point, the first budget at which no entry
improves, since every later budget would repeat the last row; the outer
maximization scores a budget's path only where the destination's entry
improves, since elsewhere it is the previous budget's path. A route's
sweep also stops once no later budget's rate bound (`later_rate_bounds`)
exceeds the best rate found, since no later path could then win.

Both sweeps here, one topology's (`bellman_ford_hop_constrained`) and a
stack of full meshes' (`mesh_secrecy_rates`), take each budget's step with
`relax`. It reads row i of the weight matrix to relax node i, where the
textbook step reads column i; that is valid because every weight matrix
is exactly symmetric, as `Topology` and `netmodel.mesh_weights` build it.

Tie-breaking when two candidate paths share the minimum weight at a
budget: prefer fewer hops (a tie never displaces an entry found at an
earlier level), then the smallest predecessor id at each relaxation.
The sweeps keep weights only; `HopConstrainedTable.path_to` recomputes a
path's predecessors from them, with the same sums and the same tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netmodel import Path, Topology
from .analytics import optimal_rs, secrecy_rate, weight_density_bound
# the benchmark's tracer (perfbench/spans.py) times path_metric under this name
from .analytics import path_metric  # noqa: F401


class RoutingError(ValueError):
    pass


@dataclass
class HopConstrainedTable:
    """Per-budget shortest-path table from a fixed source.

    best[v][i] is the minimum sum of squared distances over paths from the
    source to node topology.order[i] using at most v hops (inf if
    unreachable). Rows are stored up to the sweep's fixed point only; any
    larger budget reads the last row. A sweep that its `stop` predicate
    ended holds only the budgets it swept, and a larger budget's read from
    it is not valid.

    An entry changes only when it strictly improves, so its path's hop
    count is the first row r that holds its value: had the predecessor's
    entry been set before row r-1, the same candidate would have improved
    the entry before row r. No predecessor is stored: path_to recomputes
    it as the first argmin of w[i] + best[r-1], the sums and the tie-break
    that `relax` took when row r set the entry.
    """

    topology: Topology
    best: np.ndarray   # (v_fix+1, n_nodes), v_fix <= n_nodes-1

    def _row(self, v: int) -> int:
        return min(v, len(self.best) - 1)

    def best_weight(self, node: int, v: int) -> float:
        return float(self.best[self._row(v), self.topology.index[node]])

    def path_to(self, node: int, v: int):
        """Reconstruct the path as a node-id list, None if unreachable."""
        w = self.topology.weight_matrix()
        i = self.topology.index[node]
        weight = self.best[self._row(v), i]
        if not np.isfinite(weight):
            return None
        seq = [i]
        # the entry's hop count; row 0 holds only the source
        for r in range(int(np.argmax(self.best[:, i] == weight)), 0, -1):
            i = int((w[i] + self.best[r - 1]).argmin())
            seq.append(i)
        return [self.topology.order[i] for i in reversed(seq)]


@dataclass
class RoutingSolution:
    path: Path
    hop_budget_used: int
    rs_star: float
    c_s: float
    # audit trail: (v, node sequence or None, metric or None) for each budget
    per_v_candidates: list


def relax(w: np.ndarray, best: np.ndarray):
    """One hop-budget step: each node's best weight over one more hop.

    w[..., i, u] + best[..., u] is node i's weight via predecessor u, for a
    symmetric w (or a stack of them) and the previous budget's weights
    `best`. Returns the minimum over u; no predecessor is kept, since
    HopConstrainedTable.path_to recomputes the first u reaching it.
    """
    return (w + best[..., None, :]).min(axis=-1)


def _check_endpoints(topology: Topology, source: int, dest: int) -> None:
    if source not in topology.index or dest not in topology.index:
        raise RoutingError("source or destination not in topology")
    if source == dest:
        raise RoutingError("source equals destination")


def bellman_ford_hop_constrained(topology: Topology, source: int, dest: int,
                                 stop=None) -> HopConstrainedTable:
    """Fill the hop-budget table for every node, up to its fixed point.

    Budget v relaxes row v-1 over every edge. The sweep stops at the first
    budget at which no entry strictly improves: that row equals row v-1,
    so every later row would too. Cost O(v_fix * N^2), with v_fix the
    number of budgets swept before the fixed point (at most N-1).

    If given, stop(v, row) is called after row v is appended, and the
    sweep ends there when it returns True; the rows kept are then a prefix
    of the rows a sweep without `stop` would keep.
    """
    _check_endpoints(topology, source, dest)
    n = len(topology.order)
    w = topology.weight_matrix()
    src = topology.index[source]

    b = np.full(n, np.inf)
    b[src] = 0.0
    best = [b]
    for _ in range(n - 1):
        cw = relax(w, best[-1])
        improve = cw < best[-1]                  # strict: ties keep fewer hops
        if not improve.any():
            break
        best.append(np.where(improve, cw, best[-1]))
        if stop is not None and stop(len(best) - 1, best[-1]):
            break

    return HopConstrainedTable(topology, np.array(best))


# log2 slack added to the rate bound's argument, far above its rounding error
_BOUND_MARGIN = 1e-9


def later_rate_bounds(d2: np.ndarray, n: int, scenario) -> np.ndarray:
    """(R, n) upper bounds on the secrecy rate of paths first found late.

    Entry [r, v] bounds the rate of every path that first appears at a
    budget v' > v in mesh r of n nodes, whose source and destination lie
    d2[r] apart squared. Such a path has exactly v' hops, so its weight W
    is at least d2 / v' (Cauchy-Schwarz, then the triangle inequality), and
    its rate at most U(v') = (alpha / 2v') log2(B1 v' / (lambda_e d2)), with
    B1 = ln(1/(1-epsilon)) / K1(alpha, 1). The argument is taken in logs and
    raised by a relative margin, so rounding cannot put U below a rate
    computed by secrecy_rate. Column n-1 is -inf: no budget follows it. A
    zero d2 (co-located endpoints of an edge-list graph) bounds nothing,
    and neither does a bound that overflows to inf. Where 1 - epsilon
    rounds to 1, B1 is 0 and no path is feasible: every entry is -inf.
    """
    v = np.arange(1, n)
    b1 = weight_density_bound(1.0, scenario)
    if scenario.lambda_e == 0.0:
        u = np.full((len(d2), n - 1), np.inf)
    elif b1 == 0.0:
        u = np.full((len(d2), n - 1), -np.inf)
    else:
        log_b = math.log2(b1) - math.log2(scenario.lambda_e)
        with np.errstate(divide="ignore", over="ignore"):
            log_arg = log_b + _BOUND_MARGIN - np.log2(d2)[:, None] + np.log2(v)
            u = (scenario.alpha / 2.0) * log_arg / v
    later = np.full((len(d2), n), -np.inf)
    later[:, :-1] = np.maximum.accumulate(u[:, ::-1], axis=1)[:, ::-1]
    return later


def mesh_secrecy_rates(w: np.ndarray, scenario):
    """Best secrecy rate from the first node to the last of each mesh in a stack.

    w is an (R, N, N) stack of full-mesh weight matrices. Returns rates and
    feasible, (R,) arrays: where solve_secure_route on mesh r would return
    None, feasible[r] is False and rates[r] 0; elsewhere rates[r] equals
    its c_s. Only the destination's column is read: where its weight
    strictly drops at budget v, its path has exactly v hops (see
    HopConstrainedTable) and scores secrecy_rate(weight, v); the first
    maximum wins. A mesh leaves the stack at its fixed point, or once no
    later budget's bound (later_rate_bounds) exceeds its best rate, 0
    while it has none: no later path could then win.
    """
    r, n, _ = w.shape
    later = later_rate_bounds(w[:, 0, -1], n, scenario)
    rates = np.zeros(r)
    feasible = np.zeros(r, dtype=bool)
    live = np.arange(r)
    best = np.full((r, n), np.inf)
    best[:, 0] = 0.0
    keep = later[:, 0] > 0.0
    for v in range(1, n):
        if not keep.all():
            live, w, best = live[keep], w[keep], best[keep]
            if not len(live):
                break
        cw = relax(w, best)
        improve = cw < best
        for k in np.flatnonzero(improve[:, -1]).tolist():
            res = secrecy_rate(float(cw[k, -1]), v, scenario)
            i = live[k]
            if res.feasible and (not feasible[i] or res.c_s > rates[i]):
                rates[i], feasible[i] = res.c_s, True
        best = np.where(improve, cw, best)
        keep = improve.any(axis=1) & (later[live, v] > rates[live])
    return rates, feasible


def solve_secure_route(topology: Topology, source: int, dest: int, scenario):
    """Maximize the end-to-end secrecy rate over paths and hop budgets.

    Returns a RoutingSolution, or None when no budget yields a candidate
    below the outage-feasibility weight cutoff (infeasibility is a result,
    not an error). Unreachable destinations also yield None.

    Where the destination's weight strictly drops at budget v, its path has
    exactly v hops (see HopConstrainedTable) and is scored once, as
    secrecy_rate(weight, v), which is path_metric of that path. The sweep
    stops once a feasible candidate exists and no later budget's bound
    (later_rate_bounds, from the straight source-destination distance)
    exceeds the best rate. The audit trail then holds only the budgets
    swept, fewer than N-1; after a fixed-point stop the later budgets
    repeat the last entry. Without a feasible candidate the stop never
    fires, so such routes sweep to the fixed point.
    """
    _check_endpoints(topology, source, dest)
    n = len(topology.order)
    dst = topology.index[dest]
    dx, dy = (topology.xy[dst] - topology.xy[topology.index[source]]).tolist()
    later = later_rate_bounds(np.array([math.hypot(dx, dy) ** 2]), n, scenario)[0]
    metrics = {}  # budget -> metric, at the budgets where the path changes
    best_metric = best_v = None
    last_w = math.inf

    def stop(v, row):
        nonlocal best_metric, best_v, last_w
        w = float(row[dst])
        if w < last_w:
            res = secrecy_rate(w, v, scenario)  # infeasible over the weight cutoff
            metrics[v] = res.c_s if res.feasible else None
            if res.feasible and (best_metric is None or res.c_s > best_metric):
                best_metric, best_v = res.c_s, v
        last_w = w
        return best_metric is not None and later[v] <= best_metric

    table = bellman_ford_hop_constrained(topology, source, dest, stop)
    if best_metric is None:
        return None
    audit = []
    seq = metric = None
    for v in range(1, len(table.best)):
        if v in metrics:
            seq, metric = table.path_to(dest, v), metrics[v]
        audit.append((v, seq, metric))
    if later[len(table.best) - 1] > best_metric:
        # the sweep reached its fixed point: later budgets repeat its last entry
        audit += [(v, seq, metric) for v in range(len(table.best), n)]
    # the weight is summed from 0.0 along path_to's chain, as Topology.path sums it
    p = Path(tuple(audit[best_v - 1][1]), float(table.best[best_v, dst]))
    res = optimal_rs(p, scenario)
    return RoutingSolution(p, best_v, res.rs_star, res.c_s, audit)
