"""Hop-constrained secure routing.

The joint rate/route problem decomposes into one minimum-sum-of-squared-
distance subproblem per hop budget v, solved by a hop-indexed Bellman-Ford
sweep, followed by an outer maximization of the per-path secrecy rate over
v. The sweep stops at its fixed point, the first budget at which no entry
improves, since every later budget would repeat the last row; the outer
maximization scores a budget's path only where the destination's entry
improves, since elsewhere it is the previous budget's path. Both sweeps
also stop once no later budget's rate bound (`later_rate_bounds`) exceeds
the best rate found, 0 while none is feasible, since no later path could
then win. A feasible rate is positive, so a best rate of 0 means none.
That bound sees only the straight source-destination distance D: a path
of v' hops weighs at least D^2/v'. Once a candidate is feasible, both
sweeps also bound each later budget's path by the weights already swept
(`later_paths_may_win`): a path first found at budget v' > v sits at some
node u after v hops, so it weighs at least best_v[u] + d(u, dest)^2 /
(v' - v), never less than D^2/v'. They stop after budget v once no budget up
to the last one later_rate_bounds leaves open can beat the best rate by
that bound. On table-one's meshes this ends most sweeps at the winning
budget, one or more budgets before the D^2/v' bound would.

Both sweeps here, one topology's (`bellman_ford_hop_constrained`) and a
stack of full meshes' (`mesh_secrecy_rates`), take each budget's step with
`relax`. On one matrix it reads row i of the weight matrix to relax node
i, where the textbook step reads column i; on a stack it reads the
columns. Either is valid because every weight matrix is exactly
symmetric, as `Topology` and `netmodel.mesh_weights` build it. For the
same reason neither sweep relaxes budget 1, whose previous row is inf
except a 0 at the source: w[i, src] + 0.0 is w[src, i], so budget 1
reads the source's own row.

Both sweeps score each candidate as the float `secrecy_rate`, 0.0 where
infeasible; the stacked sweep does so in mesh order, so its rates and
errors are the single-topology solver's.

Tie-breaking when two candidate paths share the minimum weight at a
budget: prefer fewer hops (a tie never displaces an entry found at an
earlier level), then the smallest predecessor id at each relaxation.
The sweeps keep weights only; `HopConstrainedTable.path_to` recomputes a
path's predecessors from them, with the same sums and the same tie-break.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .netmodel import Path, Topology, _squared_distances
from .analytics import optimal_rs, secrecy_rate, weight_density_bound


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
        with np.errstate(over="ignore"):  # an overflowing sum never wins (see relax)
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
    # audit trail per budget: (v, node sequence or None, metric; 0.0 where infeasible)
    per_v_candidates: list


_RELAX_CELLS = 1 << 16  # candidate cells one block of relax holds


def relax(w: np.ndarray, best: np.ndarray):
    """One hop-budget step: each node's best weight over one more hop.

    w[..., i, u] + best[..., u] is node i's weight via predecessor u, for a
    symmetric w (or a stack of them) and the previous budget's weights
    `best`. Returns the minimum over u; no predecessor is kept, since
    HopConstrainedTable.path_to recomputes the first u reaching it.

    One matrix reduces along its rows, as written above. A stack reduces
    over its predecessor axis instead, w[..., u, i] + best[..., u]: the
    same sums, since w is symmetric. On stacks of 20 meshes of 12 to 102
    nodes that was the faster reduction, and on one 602-node matrix the
    slower.

    The input is taken in blocks along its leading axis, so the candidates
    sit in one reused buffer of at most _RELAX_CELLS cells, which stays in
    cache: a slab of rows of one matrix, or a run of whole meshes of a
    stack (one mesh, where a mesh alone is larger). An input under the cap
    is one block. The sums and minima are the ones the single expression
    (w + best[..., None, :]).min(axis=-1) takes.

    A sum that overflows reads inf. It never wins on a full mesh, where
    every node's direct edge is finite and shorter, and `Topology` rejects
    the edge lists on which one could.
    """
    stack = w.ndim == 3  # reduced over the predecessor axis
    axis = -2 if stack else -1
    step = min(len(w), max(1, _RELAX_CELLS // w[0].size))
    buf = np.empty((step,) + w.shape[1:])
    out = np.empty(w.shape[:-1])
    with np.errstate(over="ignore"):
        for i in range(0, len(w), step):
            j = min(i + step, len(w))
            cand = np.add(w[i:j], best[i:j, :, None] if stack else best[None, :],
                          out=buf[:j - i])
            np.minimum.reduce(cand, axis=axis, out=out[i:j])
    return out


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
    for v in range(1, n):
        cw = relax(w, best[-1]) if v > 1 else w[src]  # see the module docstring
        improve = cw < best[-1]                  # strict: ties keep fewer hops
        if not improve.any():
            break
        best.append(np.where(improve, cw, best[-1]))
        if stop is not None and stop(v, best[-1]):
            break

    return HopConstrainedTable(topology, np.array(best))


def reachable(topology: Topology, source: int, dest: int) -> bool:
    """Whether any path joins source to dest.

    A search over the edges (the finite weights) with no hop budgets: each
    node's row is read once, so the cost is O(N^2) and the memory O(N).
    It agrees with the sweep's last row, where inf means unreachable (see relax).
    """
    w = topology.weight_matrix()
    dst = topology.index[dest]
    todo = [topology.index[source]]
    seen = np.zeros(len(w), dtype=bool)
    seen[todo] = True
    while todo and not seen[dst]:
        new = np.flatnonzero((w[todo.pop()] < np.inf) & ~seen)
        seen[new] = True
        todo += new.tolist()
    return bool(seen[dst])


# log2 slack added to the rate bound's argument, far above its rounding error
_BOUND_MARGIN = 1e-9
_RS_NEAR_MAX = (1.0 - _BOUND_MARGIN) * sys.float_info.max  # an rs_star bound past it may overflow


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


def later_paths_may_win(best, to_dst, v, later, rate, scenario) -> np.ndarray:
    """Whether a path first found after budget v could still decide a rate.

    best is the (R, N) row of budget v of R sweeps, each toward its own
    destination; to_dst[r, u] is node u's squared straight distance to
    sweep r's destination (inf at the destination itself), rate[r] the
    best rate so far and later[r] the sweep's row of later_rate_bounds.
    The last budget that row leaves open, vmax[r], is the count of its
    leading entries above rate[r] (its entry v bounds only budgets after
    v); the row never increases, so vmax[r] > v exactly where
    later[r, v] > rate[r]. Returns (R,) bools: True where some budget v' in
    (v, vmax] could hold a path that rates above rate, or whose rs_star is
    at or near overflow and must be scored to raise. So False where
    vmax <= v, the stop rule of later_rate_bounds alone; where rate is 0,
    no path is feasible yet and that rule is the only one asked. A
    positive rate with vmax > v comes at a positive density, since at a
    zero one every rate is inf.

    Such a path has exactly v' hops. Its first v end at some node u, with
    weight at least best[u]; its last v' - v join u to the destination,
    with weight at least to_dst[u] / (v' - v) (Cauchy-Schwarz, then the
    triangle inequality, which hold on edge lists too: hops are straight
    segments). So its weight is at least min_u best[u] + to_dst[u] /
    (v' - v), and its rate is bounded as in later_rate_bounds, with the
    same margin. That weight bound is never below later_rate_bounds'
    D^2 / v', D the source's straight distance to the destination: by the
    same two steps best[u] >= d(s, u)^2 / v, and d(s, u)^2 / v +
    d(u, t)^2 / (v' - v) >= (d(s, u) + d(u, t))^2 / v' >= D^2 / v'
    (Cauchy-Schwarz in Engel form, then the triangle inequality).

    Budget v + 1 is tried first, in O(N) a sweep: its minimum is the
    destination's next relax, and it leaves most early sweeps open. Only
    the sweeps it closes try budgets v + 2 to vmax, as (sweep, budget)
    pairs, at most _RELAX_CELLS candidate cells at a time.
    """
    may = later[:, v] > rate
    pos = rate > 0.0
    # always so at v = n - 1, where later is -inf, so column v + 1 exists below
    if not (may & pos).any():
        return may
    log_b = math.log2(weight_density_bound(1.0, scenario)) - math.log2(scenario.lambda_e)
    with np.errstate(divide="ignore", over="ignore"):
        weight = _later_weights(best, to_dst, v, v + 1)
        may &= ~pos | _exceeds(weight, v + 1, rate, log_b, scenario.alpha)
        todo = (~may & (later[:, v + 1] > rate)).nonzero()[0]
        if not len(todo):
            return may
        # (sweep, budget) pairs, sweep by sweep: budget v' > v + 1 is open
        # where v' <= vmax, that is where later[:, v' - 1] > rate
        rows, col = (later[todo, v + 1:-1] > rate[todo, None]).nonzero()
        rows, vp = todo[rows], col + (v + 2)
        step = max(1, _RELAX_CELLS // best.shape[1])
        for i in range(0, len(rows), step):
            r, p = rows[i:i + step], vp[i:i + step]
            weight = _later_weights(best[r], to_dst[r], v, p)
            may[r[_exceeds(weight, p, rate[r], log_b, scenario.alpha)]] = True
    return may


def _later_weights(best, to_dst, v, vp) -> np.ndarray:
    """(R,) lower bounds on the weight of a path first found at budget vp
    (one budget, or one a row) by the sweep whose budget-v row is best[r],
    as later_paths_may_win derives them; at vp = v + 1 each sum is the one
    relax takes for the destination."""
    k = np.reshape(vp - v, (-1, 1))
    return (best + to_dst / k).min(axis=1)


def _exceeds(weight, vp, rate, log_b: float, alpha: float) -> np.ndarray:
    """Whether a vp-hop path of weight `weight` or more could rate above
    `rate` or near overflow its rs_star, by later_rate_bounds' formula."""
    u = (alpha / 2.0) * (log_b + _BOUND_MARGIN - np.log2(weight)) / vp
    return ~(u <= np.minimum(rate, _RS_NEAR_MAX / vp))


def mesh_secrecy_rates(w: np.ndarray, scenario):
    """Best secrecy rate from the first node to the last of each mesh in a stack.

    w is an (R, N, N) stack of full-mesh weight matrices, which the sweep
    overwrites: it moves the meshes still swept to the front in place.
    Returns rates, an (R,) array: rates[r] is the c_s of solve_secure_route
    on mesh r, or 0 where that returns None, so mesh r is feasible iff
    rates[r] > 0. Only the destination's column is read: where its weight
    strictly drops at budget v, its path has exactly v hops (see
    HopConstrainedTable) and scores secrecy_rate(weight, v); the first
    maximum wins.

    Each budget's candidates are scored by secrecy_rate in mesh order, so
    a raise is the one solve_secure_route's scoring would meet first. A
    mesh leaves the stack at its fixed point, or once no later budget's
    bound exceeds its best rate: neither the straight-line bound (later_rate_bounds) nor, once
    that rate is positive, the bound from the weights swept so far
    (later_paths_may_win, which reads the destination's row of the stack:
    its column, as w is symmetric, inf at the destination; the row is
    contiguous in each mesh). That is the rule solve_secure_route's sweep
    stops by, on the same rates.
    """
    r, n, _ = w.shape
    later = later_rate_bounds(w[:, 0, -1], n, scenario)
    rates = np.zeros(r)
    live = np.arange(r)
    best = np.full((r, n), np.inf)
    best[:, 0] = 0.0
    keep = later[:, 0] > 0.0
    for v in range(1, n):
        if not keep.all():
            live, best, later = (x[keep] for x in (live, best, later))
            if not len(live):
                break
            w = _compact(w, keep)
        cw = relax(w, best) if v > 1 else w[:, 0]  # see the module docstring
        improve = cw < best
        k = improve[:, -1].nonzero()[0]
        if len(k):  # an infeasible c_s is 0
            c_s = [secrecy_rate(x, v, scenario) for x in cw[k, -1].tolist()]
            rates[live[k]] = np.maximum(rates[live[k]], c_s)
        np.minimum(cw, best, out=best)
        keep = improve.any(axis=1) & later_paths_may_win(best, w[:, -1], v, later, rates[live],
                                                         scenario)
    return rates


def _compact(w: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """w[keep], written over w's leading meshes in place: only the meshes
    after the first one dropped move, so no whole stack is copied."""
    idx = keep.nonzero()[0]
    first = int(np.argmin(keep))
    w[first:len(idx)] = w[idx[first:]]
    return w[:len(idx)]


def solve_secure_route(topology: Topology, source: int, dest: int, scenario):
    """Maximize the end-to-end secrecy rate over paths and hop budgets.

    Returns a RoutingSolution, or None when no budget yields a candidate
    below the outage-feasibility weight cutoff (infeasibility is a result,
    not an error). Unreachable destinations also yield None; `reachable`
    tells the two apart.

    Where the destination's weight strictly drops at budget v, its path has
    exactly v hops (see HopConstrainedTable) and is scored once, as
    secrecy_rate(weight, v), which is path_metric of that path. The sweep
    stops once no later budget's bound exceeds the best rate, 0 while no
    candidate is feasible: the bound from the straight source-destination
    distance (later_rate_bounds) and, once a candidate is feasible, the one
    from the weights swept so far and each node's straight distance to the
    destination (later_paths_may_win), which hold on edge lists too. The
    audit trail then holds only the budgets swept, fewer than N-1; after a
    fixed-point stop, and only then, the later budgets repeat the last
    entry.
    """
    _check_endpoints(topology, source, dest)
    n = len(topology.order)
    src, dst = topology.index[source], topology.index[dest]
    to_dst = _squared_distances(topology.xy[[dst]], topology.xy)  # (1, N)
    d2 = to_dst[:, src]
    to_dst[0, dst] = np.inf  # as a mesh's weight column holds it
    later = later_rate_bounds(d2, n, scenario)
    metrics = {}  # budget -> metric, at the budgets where the path changes
    best_metric, best_v = 0.0, None
    last_w = math.inf
    pruned = False  # whether a rate bound, not the fixed point, ended the sweep

    def stop(v, row):
        nonlocal best_metric, best_v, last_w, pruned
        w = float(row[dst])
        if w < last_w:
            c_s = metrics[v] = secrecy_rate(w, v, scenario)  # 0.0 over the weight cutoff
            if c_s > best_metric:  # an infeasible c_s is 0
                best_metric, best_v = c_s, v
        last_w = w
        pruned = not later_paths_may_win(row[None], to_dst, v, later,
                                         np.array([best_metric]), scenario)[0]
        return pruned

    table = bellman_ford_hop_constrained(topology, source, dest, stop)
    if best_v is None:
        return None
    audit = []
    seq, metric = None, 0.0
    for v in range(1, len(table.best)):
        if v in metrics:
            seq, metric = table.path_to(dest, v), metrics[v]
        audit.append((v, seq, metric))
    if not pruned:
        # the sweep reached its fixed point: later budgets repeat its last entry
        audit += [(v, seq, metric) for v in range(len(table.best), n)]
    p = topology.path(audit[best_v - 1][1])
    rs_star = optimal_rs(p, scenario)
    return RoutingSolution(p, best_v, rs_star, rs_star / best_v, audit)
