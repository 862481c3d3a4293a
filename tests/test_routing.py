import math
import tracemalloc
import warnings

import numpy as np
import pytest

from secroute import Node, Scenario, Topology
from secroute import analytics, montecarlo, routing
from secroute.experiments import ExperimentConfig, placements, run_table_one, six_node_topology
from secroute.netmodel import _squared_distances, mesh_weights

import oracles


def scen(lam=1e-5, eps=0.1, alpha=4.0):
    return Scenario(alpha, lam, eps)


def colinear3():
    return Topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)])


def random_mesh(n, rng, box=40.0):
    nodes = [Node(i, rng.uniform(0, box), rng.uniform(0, box)) for i in range(n)]
    return Topology(nodes)


def random_graph(n, rng, p_edge=0.5, box=40.0):
    """Random nodes joined by each possible edge with probability p_edge."""
    nodes = [Node(i, rng.uniform(0, box), rng.uniform(0, box)) for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
    return Topology(nodes, edges)


def full_sweep_reference(topology, source):
    """Every one of the N-1 hop budgets, with no fixed-point stop."""
    n = len(topology.order)
    w = topology.weight_matrix()
    src = topology.index[source]
    best = np.full((n, n), np.inf)
    hops = np.zeros((n, n), dtype=np.int64)
    pred = np.full((n, n), -1, dtype=np.int64)
    best[0, src] = 0.0
    for v in range(1, n):
        cand = best[v - 1][:, None] + w
        cw = cand.min(axis=0)
        cp = cand.argmin(axis=0)
        improve = cw < best[v - 1]
        best[v] = np.where(improve, cw, best[v - 1])
        hops[v] = np.where(improve, hops[v - 1][cp] + 1, hops[v - 1])
        pred[v] = np.where(improve, cp, pred[v - 1])
    return best, hops, pred


def reference_path(topology, source, pred, node, v):
    """The node-id chain the full sweep's predecessor table stores for
    `node` at budget v, None if unreachable: budget r's entry is reached
    from pred[r] at budget r-1."""
    i, r = topology.index[node], v
    if pred[r, i] < 0 and node != source:
        return None
    seq = [i]
    while topology.order[i] != source:
        i, r = int(pred[r, i]), r - 1
        seq.append(i)
    return [topology.order[i] for i in reversed(seq)]


def score_every_budget_reference(topology, source, dest, scenario):
    """Audit trail that reconstructs and scores a path at every budget."""
    table = routing.bellman_ford_hop_constrained(topology, source, dest)
    audit = []
    for v in range(1, len(topology.order)):
        seq = table.path_to(dest, v)
        metric = 0.0 if seq is None else analytics.path_metric(topology.path(seq), scenario)
        audit.append((v, seq, metric))
    return audit


def sweep_case(kind, seed):
    """(topology, source, dest) for the early-stop reference checks."""
    rng = np.random.default_rng(400 + seed)
    if kind == "mesh":
        n = int(rng.integers(3, 30))
        return random_mesh(n, rng), 0, n - 1
    if kind == "graph":
        n = int(rng.integers(4, 40))
        return random_graph(n, rng, p_edge=float(rng.uniform(0.05, 0.4))), 0, n - 1
    if kind == "unreachable":
        n = int(rng.integers(4, 30))
        nodes = [Node(i, rng.uniform(0, 40), rng.uniform(0, 40)) for i in range(n)]
        # the destination, the last node, has no edge at all
        edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
                 if rng.random() < 0.3]
        return Topology(nodes, edges), 0, n - 1
    n = 200
    xy = np.vstack([(0.0, 0.0), rng.uniform(0, 50, (n - 2, 2)), (50.0, 50.0)])
    return Topology([Node(i, float(x), float(y)) for i, (x, y) in enumerate(xy)]), 0, n - 1


SWEEP_CASES = ([("mesh", s) for s in range(6)] + [("graph", s) for s in range(6)]
               + [("unreachable", s) for s in range(3)] + [("large", 0)])


class TestBellmanFord:
    def test_colinear_budgets(self):
        tab = routing.bellman_ford_hop_constrained(colinear3(), 0, 2)
        assert tab.best_weight(2, 1) == 100.0
        assert tab.path_to(2, 1) == [0, 2]
        assert tab.best_weight(2, 2) == 50.0
        assert tab.path_to(2, 2) == [0, 1, 2]

    @pytest.mark.parametrize("upper", [1, 2])
    def test_tie_goes_to_smallest_predecessor_id(self, upper):
        # two relays mirrored across the source-destination line give two
        # 2-hop paths of exactly equal weight 34 + 34
        lower = 3 - upper
        topo = Topology([Node(0, 0, 0), Node(upper, 5, 3), Node(lower, 5, -3),
                         Node(3, 10, 0)])
        tab = routing.bellman_ford_hop_constrained(topo, 0, 3)
        assert tab.best_weight(3, 2) == 68.0
        assert tab.path_to(3, 2) == [0, 1, 3]

    def test_overflowing_sums_never_win_on_a_mesh(self):
        # every squared distance fits a float, but node 3 lies about 1e308
        # from node 0 and 1.5e308 from node 2, so a sum through it, in relax
        # and in path_to, overflows: it reads inf, loses, and warns nothing
        h = 1e154
        topo = Topology([Node(0, 0, 0), Node(1, h / 2, 0), Node(2, h, 0),
                         Node(3, h / 4, 0.95 * h)])
        w = topo.weight_matrix()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = routing.bellman_ford_hop_constrained(topo, 0, 2)
            assert tab.path_to(2, 3) == [0, 1, 2]
            assert tab.path_to(3, 3) == [0, 3]
        assert tab.best[-1].tolist() == [0.0, w[0, 1], 0.0 + w[0, 1] + w[1, 2], w[0, 3]]

    def test_table_monotone_and_stabilizes(self):
        rng = np.random.default_rng(5)
        topo = random_mesh(7, rng)
        tab = routing.bellman_ford_hop_constrained(topo, 0, 6)
        for node in topo.order:
            prev = math.inf
            for v in range(1, 7):
                w = tab.best_weight(node, v)
                assert w <= prev
                prev = w

    def test_bad_endpoints(self):
        with pytest.raises(routing.RoutingError):
            routing.bellman_ford_hop_constrained(colinear3(), 0, 0)
        with pytest.raises(routing.RoutingError):
            routing.bellman_ford_hop_constrained(colinear3(), 0, 9)

    def test_unreachable_marked(self):
        topo = Topology(
            [Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)], edges=[(0, 1)])
        tab = routing.bellman_ford_hop_constrained(topo, 0, 2)
        assert tab.path_to(2, 2) is None
        assert not math.isfinite(tab.best_weight(2, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_mesh(8, rng)
        tab = routing.bellman_ford_hop_constrained(topo, 0, 7)
        for dest in range(1, 8):
            for v in range(1, 8):
                paths = oracles.enumerate_all_paths_oracle(topo, 0, dest, v)
                best = min(p.sum_sq_dist for p in paths)
                assert tab.best_weight(dest, v) == pytest.approx(best, rel=1e-12)
                got = topo.path(tab.path_to(dest, v))
                assert got.sum_sq_dist == pytest.approx(best, rel=1e-12)
                assert got.hop_count <= v

    def test_subpath_optimality(self):
        rng = np.random.default_rng(11)
        topo = random_mesh(7, rng)
        tab = routing.bellman_ford_hop_constrained(topo, 0, 6)
        for v in range(1, 7):
            seq = tab.path_to(6, v)
            for cut in range(1, len(seq)):
                prefix = seq[:cut + 1]
                w = topo.path(prefix).sum_sq_dist
                assert w == pytest.approx(
                    tab.best_weight(prefix[-1], cut), rel=1e-12)


class TestFixedPointStop:
    @pytest.mark.parametrize("kind,seed", SWEEP_CASES)
    def test_rows_match_full_sweep(self, kind, seed):
        topo, src, dest = sweep_case(kind, seed)
        n = len(topo.order)
        tab = routing.bellman_ford_hop_constrained(topo, src, dest)
        best, hops, pred = full_sweep_reference(topo, src)
        k = len(tab.best)
        assert 1 <= k <= n
        assert tab.best.shape == (k, n)
        assert np.array_equal(tab.best, best[:k])
        assert (best[k:] == tab.best[-1]).all()  # later budgets repeat the last row
        full = routing.HopConstrainedTable(topo, best)
        for i, node in enumerate(topo.order):
            # a budget past the last row reads the last row
            paths = [tab.path_to(node, v) for v in range(k)]
            for v in range(n):
                assert tab.best_weight(node, v) == full.best_weight(node, v)
                # the recomputed predecessors are the ones the sweep's
                # argmin would have stored
                assert paths[min(v, k - 1)] == reference_path(topo, src, pred, node, v)
                if np.isfinite(best[v, i]):
                    # the hop count derived from the first row holding the
                    # entry equals the one the full sweep tracks
                    assert len(paths[min(v, k - 1)]) - 1 == hops[v, i]
        if kind == "large":
            assert k < n  # the stop engages well before N-1 budgets

    @pytest.mark.parametrize("kind,seed", SWEEP_CASES)
    def test_audit_matches_scoring_every_budget(self, kind, seed):
        topo, src, dest = sweep_case(kind, seed)
        n = len(topo.order)
        table = routing.bellman_ford_hop_constrained(topo, src, dest)
        for lam in (0.0, 1e-6, 1e-5, 1e-4):
            sc = scen(lam=lam)
            sol = routing.solve_secure_route(topo, src, dest, sc)
            ref = score_every_budget_reference(topo, src, dest, sc)
            metrics = [m for _, _, m in ref if m > 0.0]
            if not metrics:
                assert sol is None
                continue
            # strict > keeps the smallest budget reaching the maximum
            v_star = next(v for v, _, m in ref if m == max(metrics))
            assert (sol.hop_budget_used, sol.c_s) == (v_star, max(metrics))
            # Topology.path sums the weight in the sweep's order, bit for bit
            assert sol.path.sum_sq_dist == table.best[v_star, topo.index[dest]]
            # the rate bound may end the audit after budget k: what it
            # prunes can only tie c_s at a larger budget, never beat it
            k = len(sol.per_v_candidates)
            assert sol.per_v_candidates == ref[:k]
            for v, _, m in ref[k:]:
                assert m <= sol.c_s
                if m == sol.c_s:
                    assert v > v_star
            if kind == "large" and lam == 1e-5:
                assert k < n - 1

    @pytest.mark.parametrize("kind,seed", SWEEP_CASES)
    def test_stopped_rows_are_a_prefix(self, kind, seed):
        topo, src, dest = sweep_case(kind, seed)
        full = routing.bellman_ford_hop_constrained(topo, src, dest)
        for last in range(1, len(full.best) + 1):
            calls = []

            def stop(v, row):
                calls.append(v)
                assert np.array_equal(row, full.best[v])
                return v == last

            tab = routing.bellman_ford_hop_constrained(topo, src, dest, stop)
            k = len(tab.best)
            assert calls == list(range(1, k))  # once per appended row, in order
            assert k == min(last + 1, len(full.best))
            assert np.array_equal(tab.best, full.best[:k])
            assert ([tab.path_to(dest, v) for v in range(k)]
                    == [full.path_to(dest, v) for v in range(k)])

    @pytest.mark.parametrize("kind,seed", SWEEP_CASES)
    def test_no_feasible_candidate_sweeps_to_fixed_point(self, kind, seed, monkeypatch):
        # while no candidate is feasible the best rate is 0, so the sweep ends
        # at the first budget whose later bound is <= 0, or at the fixed point
        # if that comes first; an infeasible route takes one sweep, looked up
        # on the module (the benchmark's tracer wraps it there)
        topo, src, dest = sweep_case(kind, seed)
        n = len(topo.order)
        v_fix = len(routing.bellman_ford_hop_constrained(topo, src, dest).best)
        d2 = _squared_distances(topo.xy[[topo.index[src], topo.index[dest]]])[:1, 1]
        sweep = routing.bellman_ford_hop_constrained
        tables = []
        monkeypatch.setattr(routing, "bellman_ford_hop_constrained",
                            lambda *args: tables.append(sweep(*args)) or tables[-1])
        infeasible = 0
        for lam in (1e-4, 1e-2, 1.0):
            tables.clear()
            sc = scen(lam=lam)
            if routing.solve_secure_route(topo, src, dest, sc) is None:
                later = routing.later_rate_bounds(d2, n, sc)[0]
                v_stop = next(v for v in range(1, n) if later[v] <= 0.0)
                assert [len(t.best) for t in tables] == [min(v_stop + 1, v_fix)]
                infeasible += 1
        assert infeasible

    @pytest.mark.parametrize("kind,seed", [("mesh", s) for s in range(6)] + [("large", 0)])
    def test_route_and_stack_bound_from_one_squared_distance(self, kind, seed, monkeypatch):
        # on a full mesh, the D^2 that bounds later budgets is the weight
        # matrix's source-destination entry, bit for bit, in both sweeps
        topo, src, dest = sweep_case(kind, seed)
        bounds = routing.later_rate_bounds
        seen = []
        monkeypatch.setattr(routing, "later_rate_bounds",
                            lambda d2, *args: seen.append(d2.tolist()) or bounds(d2, *args))
        routing.solve_secure_route(topo, src, dest, scen())
        routing.mesh_secrecy_rates(mesh_weights(topo.xy[None]), scen())  # reads w[:, 0, -1]
        assert seen == [[topo.weight_matrix()[topo.index[src], topo.index[dest]]]] * 2

    def test_infeasible_large_mesh_stops_after_budget_one(self, monkeypatch):
        # 2000 relays on the 50 x 50 square at lambda_e = 1: the bound rules
        # out every budget after the first, so the sweep keeps rows 0 and 1
        xy = placements(2000, 1, [np.random.default_rng([1, 1])])[0]
        topo = Topology.from_xy(xy)
        sweep = routing.bellman_ford_hop_constrained
        tables = []
        monkeypatch.setattr(routing, "bellman_ford_hop_constrained",
                            lambda *args: tables.append(sweep(*args)) or tables[-1])
        assert routing.solve_secure_route(topo, 0, 2001, scen(lam=1.0)) is None
        assert [len(t.best) for t in tables] == [2]

    def test_bound_uses_straight_distance_on_edge_lists(self):
        # 0 -> 5 over a detour node (2 hops, weight 2600) or along the axis
        # (4 hops, weight 400), with no edge 0-5: the weight matrix holds inf
        # there, so the bound must read the endpoints' coordinates (D^2 = 1600)
        nodes = [Node(0, 0, 0), Node(1, 20, 30), Node(2, 10, 0), Node(3, 20, 0),
                 Node(4, 30, 0), Node(5, 40, 0)]
        topo = Topology(nodes, [(0, 1), (1, 5), (0, 2), (2, 3), (3, 4), (4, 5)])
        assert topo.weight_matrix()[0, 5] == math.inf
        sc = scen(lam=analytics.weight_density_bound(1.0, scen()) / 6000.0)
        sol = routing.solve_secure_route(topo, 0, 5, sc)
        ref = score_every_budget_reference(topo, 0, 5, sc)
        assert ref[1][2] > 0.0  # the 2-hop detour is feasible, and loses
        assert sol.path.nodes == (0, 2, 3, 4, 5)
        assert sol.per_v_candidates == ref[:4]

    def test_colocated_endpoints_bound_nothing(self):
        # an edge list may place the source and destination on one point;
        # d2 = 0 leaves every later budget unbounded, without a warning
        nodes = [Node(0, 0, 0), Node(1, 3, 4), Node(2, 0, 0)]
        topo = Topology(nodes, [(0, 1), (1, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = routing.solve_secure_route(topo, 0, 2, scen())
        assert sol.per_v_candidates == [(1, None, 0.0), (2, [0, 1, 2], sol.c_s)]


def prefix_case(kind, seed):
    """(topology, source, dest) of the prefix-bound checks: a full mesh, an
    edge-list graph, or an edge-list graph with two relays on the
    destination's point, joined to it by no edge (d(u, dest) = 0)."""
    rng = np.random.default_rng(1700 + seed)
    n = int(rng.integers(4, 60))
    if kind == "mesh":
        return random_mesh(n, rng), 0, n - 1
    if kind == "graph":
        return random_graph(n, rng, p_edge=float(rng.uniform(0.1, 0.5))), 0, n - 1
    xy = rng.uniform(0.0, 40.0, (n + 2, 2))
    xy[n:] = xy[n - 1]
    p_edge = float(rng.uniform(0.1, 0.5))
    edges = [(i, j) for i in range(n + 2) for j in range(i + 1, n + 2)
             if rng.random() < p_edge and not (i >= n - 1 and j >= n - 1)]
    return Topology.from_xy(xy, edges=edges), 0, n - 1


PREFIX_CASES = [(kind, s) for kind in ("mesh", "graph", "colocated") for s in range(6)]


def no_prefix_bound(best, to_dst, v, later, rate, scenario):
    """later_paths_may_win with only the stop rule of later_rate_bounds."""
    return (later > rate[:, None]).sum(axis=1) > v


class TestPrefixBound:
    @pytest.mark.parametrize("kind,seed", PREFIX_CASES)
    def test_bound_under_every_later_weight(self, kind, seed):
        # a sweep that ends only at its fixed point: at every budget v, each
        # destination weight first reached at a budget v' > v is at least
        # the bound from row v, and where the bound closes a rate, no later
        # candidate rates above it
        topo, src, dest = prefix_case(kind, seed)
        i, n = topo.index[dest], len(topo.order)
        table = routing.bellman_ford_hop_constrained(topo, src, dest)
        col = table.best[:, i]
        to_dst = _squared_distances(topo.xy[[i]], topo.xy)
        d2 = to_dst[:, topo.index[src]]
        to_dst[0, i] = math.inf
        first = [vp for vp in range(1, len(col)) if col[vp] < col[vp - 1]]
        checked = tighter = closed = 0
        for v in range(1, len(col)):
            for vp in (vp for vp in first if vp > v):
                bound = routing._later_weights(table.best[v][None], to_dst, v, vp)[0]
                assert col[vp] >= bound * (1.0 - 1e-12)
                checked += 1
                tighter += bound > d2[0] / vp
            for lam in (1e-6, 1e-5, 1e-4):
                sc = scen(lam=lam)
                rate = max([analytics.secrecy_rate(float(col[vp]), vp, sc)
                            for vp in first if vp <= v], default=0.0)
                later = routing.later_rate_bounds(d2, n, sc)
                if rate > 0.0 and not routing.later_paths_may_win(
                        table.best[v][None], to_dst, v, later, np.array([rate]), sc)[0]:
                    closed += 1
                    for vp in (vp for vp in first if vp > v):
                        assert analytics.secrecy_rate(float(col[vp]), vp, sc) <= rate
        assert checked and tighter or len(first) < 2
        if kind == "mesh":
            assert closed

    def test_large_mesh_ends_at_winner(self, monkeypatch):
        # 600 relays on the 50 x 50 square: the best path has 6 hops, and the
        # sweep ends there; the D^2/v' bound alone sweeps one budget more
        xy = placements(600, 1, [montecarlo.block_rng(1, 0, 0)])[0]
        topo = Topology.from_xy(xy)
        sweep = routing.bellman_ford_hop_constrained
        tables = []
        monkeypatch.setattr(routing, "bellman_ford_hop_constrained",
                            lambda *args: tables.append(sweep(*args)) or tables[-1])
        sol = routing.solve_secure_route(topo, 0, 601, scen())
        assert (sol.hop_budget_used, len(sol.per_v_candidates)) == (6, 6)
        monkeypatch.setattr(routing, "later_paths_may_win", no_prefix_bound)
        ref = routing.solve_secure_route(topo, 0, 601, scen())
        assert (ref.path, ref.hop_budget_used, ref.c_s) == (sol.path, 6, sol.c_s)
        assert ref.per_v_candidates[:6] == sol.per_v_candidates
        assert [len(t.best) - 1 for t in tables] == [6, 7]

    def test_matches_per_call_reference_on_recorded_inputs(self, monkeypatch):
        # the inputs both sweeps pass it: a benchmark table-one operation
        # (200 topologies), the benchmark's 602-node route-large mesh, and
        # table-one at alpha = 1e308, where rates sit near overflow and the
        # run raises; each call's arrays equal the per-call reference's
        calls = []
        real = routing.later_paths_may_win

        def spy(*args):
            calls.append([a.copy() if isinstance(a, np.ndarray) else a for a in args])
            return real(*args)

        monkeypatch.setattr(routing, "later_paths_may_win", spy)
        run_table_one(ExperimentConfig(reps=20, seed=1441))
        # perfbench's route-large, seed 1
        xy = placements(600, 1, [np.random.default_rng([1, 1])])[0]
        topo = Topology.from_xy(xy)
        routing.solve_secure_route(topo, 0, 601, scen())
        with pytest.raises(OverflowError):
            run_table_one(ExperimentConfig(n_legit=(1,), reps=30, seed=3, alpha=1e308,
                                           lambda_e=1e-6))
        zero_rate = closed = near_max = 0
        for best, to_dst, v, later, rate, sc in calls:
            d2 = to_dst[:, 0]  # node 0 is every recorded sweep's source
            got = real(best, to_dst, v, later, rate, sc)
            want = oracles.later_paths_may_win_reference(best, to_dst, d2, v, later, rate, sc)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # why the bound needs no D^2/v' floor, which the reference keeps:
            # at every later budget, each sweep's prefix bound is already at
            # least d2 / v'
            vp = np.arange(v + 1, later.shape[1])[:, None]
            prefix = (best[None] + to_dst[None] / (vp - v)[:, :, None]).min(axis=2)
            assert np.all(prefix >= d2 / vp * (1.0 - 1e-12))
            vmax = (later > rate[:, None]).sum(axis=1)
            zero_rate += int((rate == 0.0).sum())
            closed += int((vmax <= v).sum())
            # the budgets at which the overflow guard, not the rate, bounds
            near_max += sum(int((routing._RS_NEAR_MAX / np.arange(v + 1, m + 1) < c).sum())
                            for c, m in zip(rate.tolist(), vmax.tolist()) if c > 0.0)
        assert zero_rate and closed and near_max

    def test_table_one_relaxes_fewer_cells(self, monkeypatch):
        # the same rows from fewer relaxed cells than with the D^2/v' bound alone
        cfg = ExperimentConfig(n_legit=(10, 40, 100), reps=20, seed=7)
        cells = []
        relax = routing.relax
        monkeypatch.setattr(routing, "relax",
                            lambda w, best: cells.append(w.size) or relax(w, best))
        rows = run_table_one(cfg)
        with_bound = sum(cells)
        cells.clear()
        monkeypatch.setattr(routing, "later_paths_may_win", no_prefix_bound)
        assert run_table_one(cfg) == rows
        assert (with_bound, sum(cells)) == (1322028, 2094696)


class TestOracle:
    def test_three_node_counts(self):
        topo = colinear3()
        assert len(oracles.enumerate_all_paths_oracle(topo, 0, 2, 2)) == 2
        assert len(oracles.enumerate_all_paths_oracle(topo, 0, 2, 1)) == 1

    def test_five_node_count(self):
        # sum over ordered relay subsets: 1 + 3 + 6 + 6 = 16
        rng = np.random.default_rng(0)
        topo = random_mesh(5, rng)
        assert len(oracles.enumerate_all_paths_oracle(topo, 0, 4, 4)) == 16

    def test_paths_unique_and_simple(self):
        rng = np.random.default_rng(1)
        topo = random_mesh(6, rng)
        paths = oracles.enumerate_all_paths_oracle(topo, 0, 5, 5)
        seqs = [p.nodes for p in paths]
        assert len(seqs) == len(set(seqs))
        for s in seqs:
            assert len(s) == len(set(s))

    def test_node_limit(self):
        rng = np.random.default_rng(2)
        topo = random_mesh(10, rng)
        with pytest.raises(routing.RoutingError):
            oracles.enumerate_all_paths_oracle(topo, 0, 9, 9)


class TestGabrielOracle:
    """At hundreds of nodes the sweep's fixed point equals Dijkstra on the
    mesh's Gabriel graph (oracles.gabriel_dijkstra), bit for bit, and
    path_to follows every shortest path that is unique."""

    @pytest.mark.parametrize("n_legit,seed", [(200, 1), (400, 2), (600, 3)])
    def test_fixed_point_is_gabriel_dijkstra(self, n_legit, seed):
        xy = placements(n_legit, 1, [montecarlo.block_rng(seed, 0, 0)])[0]
        topo = Topology.from_xy(xy)
        n = len(xy)
        tab = routing.bellman_ford_hop_constrained(topo, 0, n - 1)
        dist, pred = oracles.gabriel_dijkstra(topo, 0)
        assert tab.best[-1].tolist() == dist.tolist()
        # every row kept strictly improves an entry: the sweep stops at the
        # first budget that improves none
        assert all((tab.best[r] < tab.best[r - 1]).any() for r in range(1, len(tab.best)))
        # a node's shortest path is unique where each node on it has exactly
        # one predecessor u over the whole mesh with dist[u] + w[u, i] == dist[i]
        with np.errstate(over="ignore"):
            ties = np.count_nonzero(dist[:, None] + topo.weight_matrix() == dist, axis=0)
        unique = 0
        for i in range(1, n):
            seq = [i]
            while seq[-1] != 0:
                seq.append(int(pred[seq[-1]]))
            if all(ties[j] == 1 for j in seq[:-1]):
                assert tab.path_to(i, n) == seq[::-1]
                unique += 1
        assert unique >= n // 2


class TestSolveSecureRoute:
    def test_two_node_direct(self):
        topo = Topology([Node(0, 0, 0), Node(1, 0, 10)])
        sol = routing.solve_secure_route(topo, 0, 1, scen())
        assert sol.path.nodes == (0, 1)
        assert sol.c_s == sol.rs_star

    def test_relay_rescues_infeasible_direct(self):
        # density between the direct-link bound and the 2-hop bound
        topo = colinear3()
        sc0 = scen()
        direct_bound = analytics.density_bound(topo.path((0, 2)), sc0)
        relay_bound = analytics.density_bound(topo.path((0, 1, 2)), sc0)
        assert relay_bound == pytest.approx(2 * direct_bound, rel=1e-12)
        sc = scen(lam=1.4 * direct_bound)
        sol = routing.solve_secure_route(topo, 0, 2, sc)
        assert sol is not None
        assert sol.path.nodes == (0, 1, 2)

    def test_infeasible_returns_none(self):
        topo = colinear3()
        sol = routing.solve_secure_route(topo, 0, 2, scen(lam=1.0))
        assert sol is None

    def test_six_node_matches_oracle(self):
        topo = six_node_topology()
        for lam in (1e-6, 1e-5, 3e-5, 1e-4):
            sc = scen(lam=lam)
            sol = routing.solve_secure_route(topo, 1, 5, sc)
            best, best_metric = oracles.best_route_oracle(topo, 1, 5, sc)
            if best is None:
                assert sol is None
            else:
                assert sol.c_s == best_metric

    def test_audit_trail(self):
        topo = six_node_topology()
        sol = routing.solve_secure_route(topo, 1, 5, scen())
        ref = score_every_budget_reference(topo, 1, 5, scen())
        # the direct hop's rate exceeds the rate bound of every longer path
        # over D = 20, so the sweep ends after budget 1
        assert sol.per_v_candidates == ref[:1]
        assert sol.c_s == max(m for _, _, m in ref)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_topologies_match_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 9))
        topo = random_mesh(n, rng)
        # density drawn so that at least the best route is usually feasible
        lam = float(rng.uniform(0.2, 3.0)) * 1e-4
        sc = scen(lam=lam)
        sol = routing.solve_secure_route(topo, 0, n - 1, sc)
        best, best_metric = oracles.best_route_oracle(topo, 0, n - 1, sc)
        if best is None:
            assert sol is None
        else:
            assert sol.c_s == best_metric

    @pytest.mark.parametrize("seed", range(10))
    def test_edge_restricted_topologies_match_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 9))
        topo = random_graph(n, rng)
        paths = oracles.enumerate_all_paths_oracle(topo, 0, n - 1, n - 1)
        # density strictly below the loosest path bound, as in the
        # full-mesh acceptance check, whenever a path exists at all
        bmax = max((analytics.density_bound(p, scen(lam=1e-9)) for p in paths),
                   default=1e-4)
        sc = scen(lam=float(rng.uniform(0.05, 0.95)) * bmax)
        sol = routing.solve_secure_route(topo, 0, n - 1, sc)
        best, best_metric = oracles.best_route_oracle(topo, 0, n - 1, sc)
        if not paths:
            assert sol is None and best is None
        else:
            assert sol.c_s == best_metric

    @pytest.mark.parametrize("seed", range(6))
    def test_route_invariant_under_rigid_motion(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(5, 40))
        xy = np.vstack([(0.0, 0.0), rng.uniform(0, 50, (n, 2)), (50.0, 50.0)])
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = xy @ rot.T + rng.uniform(-1000, 1000, 2)
        sc = scen()
        sols = []
        for pts in (xy, moved):
            topo = Topology([Node(i, float(x), float(y))
                             for i, (x, y) in enumerate(pts)])
            sols.append(routing.solve_secure_route(topo, 0, n + 1, sc))
        a, b = sols
        assert a is not None and b is not None
        assert a.path.nodes == b.path.nodes
        assert b.c_s == pytest.approx(a.c_s, rel=1e-12)
        assert analytics.path_sop(1.0, b.path, sc) == pytest.approx(
            analytics.path_sop(1.0, a.path, sc), rel=1e-12)

    def test_superset_never_hurts(self):
        # adding a legitimate node can only grow the candidate path set
        rng = np.random.default_rng(42)
        nodes = [Node(i, rng.uniform(0, 40), rng.uniform(0, 40)) for i in range(7)]
        sc = scen(lam=5e-5)
        small = Topology(nodes[:6])
        large = Topology(nodes)
        s1 = routing.solve_secure_route(small, 0, 5, sc)
        s2 = routing.solve_secure_route(large, 0, 5, sc)
        c1 = s1.c_s if s1 else 0.0
        c2 = s2.c_s if s2 else 0.0
        assert c2 >= c1


DENSE_SEEDS = range(8, 12)


def stacked_case(seed):
    """(xy, scenario): a stack of random full-mesh placements, the last one
    collinear with equal gaps, where the N-1 hop path weighs D^2/(N-1); or,
    for a seed in DENSE_SEEDS, five of table-one's 102-node placements at
    lambda_e = 1e-5, where the prefix rate bound ends most sweeps."""
    rng = np.random.default_rng(900 + seed)
    if seed in DENSE_SEEDS:
        xy = placements(100, 5, montecarlo.block_rngs((seed, 0, rep) for rep in range(5)))
        return xy, Scenario(float(rng.uniform(3.5, 4.5)), 1e-5, 0.1)
    n = int(rng.integers(3, 40))
    box = float(rng.uniform(1.0, 200.0))
    xy = rng.uniform(0.0, box, (5, n, 2))
    xy[-1] = np.linspace(0.0, box, n)[:, None]
    # a density that leaves the straight path's best rate just above 0
    d2 = 2.0 * box * box
    sc0 = Scenario(float(rng.uniform(2.1, 6.0)), 1.0, float(rng.uniform(0.01, 0.9)))
    lam = analytics.weight_density_bound(d2 / (n - 1), sc0) * float(rng.uniform(0.5, 1.0))
    return xy, Scenario(sc0.alpha, lam, sc0.epsilon)


# Mesh 0 of the "tie" case below: a source at (0, 0), a destination at
# (10, 0) and one relay between them at height TIE_H; the other relays sit
# far off and join no better path. At TIE_SCENARIO the one- and two-hop
# paths' rates differ by two ulps, and numpy 2.4's np.log2 (x86-64) scores
# the larger one an ulp low.
TIE_H = 3.0478467492858172
TIE_SCENARIO = Scenario(4.0, 0.00014641906757934835, 0.1)


def tie_layout(n):
    xy = np.empty((n, 2))
    xy[0], xy[1], xy[-1] = (0.0, 0.0), (5.0, TIE_H), (10.0, 0.0)
    xy[2:-1, 0], xy[2:-1, 1] = 1e4, np.arange(n - 3)
    return xy


def log2_disagreeing_scenario(weight, hops, sc):
    """A copy of sc at a slightly lower density at which secrecy_rate(weight,
    hops), scored with np.log2 in place of math.log2, differs; sc itself
    if none of the densities searched has one."""
    lams = sc.lambda_e * (1.0 - np.arange(1, 1 << 15) * 2.0**-40)
    ratios = analytics.weight_density_bound(weight, sc) / lams  # as secrecy_rate divides
    for lam, approx in zip(lams.tolist(), ((sc.alpha / 2.0) * np.log2(ratios) / hops).tolist()):
        s = Scenario(sc.alpha, lam, sc.epsilon)
        if approx != analytics.secrecy_rate(weight, hops, s):
            return s
    return sc


class TestMeshSecrecyRates:
    @pytest.mark.parametrize("seed", range(8))
    def test_bound_covers_every_scored_candidate(self, seed):
        xy, sc = stacked_case(seed)
        r, n, _ = xy.shape
        w = mesh_weights(xy)
        later = routing.later_rate_bounds(w[:, 0, -1], n, sc)
        scored = 0
        for k in range(r):
            topo = Topology.from_xy(xy[k])
            col = routing.bellman_ford_hop_constrained(topo, 0, n - 1).best[:, -1]
            for v in range(1, len(col)):
                if col[v] < col[v - 1]:
                    c_s = analytics.secrecy_rate(float(col[v]), v, sc)
                    # later[k, v - 1] bounds every budget from v on
                    assert not c_s > 0.0 or c_s <= later[k, v - 1]
                    scored += c_s > 0.0
        assert scored

    @pytest.mark.parametrize("seed", [*range(8), *DENSE_SEEDS])
    @pytest.mark.parametrize("lam", [None, 0.0, 1.0, "edge", "tie", "log2"])
    def test_rates_match_solve_secure_route(self, seed, lam):
        xy, sc = stacked_case(seed)
        n = xy.shape[1]
        if lam == "tie":
            # mesh 0's best two budgets' rates differ by a few ulps
            xy[0], sc, lam = tie_layout(n), TIE_SCENARIO, None
            w = mesh_weights(xy[0])
            one, two = (analytics.secrecy_rate(float(wt), v, sc)
                        for wt, v in ((w[0, -1], 1), (w[1, -1] + w[0, 1], 2)))
            assert 0.0 < one - two <= 4 * math.ulp(one)
        topos = [Topology([Node(i, x, y) for i, (x, y) in enumerate(pts)])
                 for pts in xy.tolist()]
        edge = lam == "edge"
        if edge:
            # just under mesh 0's best-path bound: its c_s is tiny but
            # positive, and the mesh still counts as feasible
            w_min = routing.bellman_ford_hop_constrained(topos[0], 0, n - 1).best[-1, -1]
            lam = analytics.weight_density_bound(float(w_min), sc) * (1.0 - 1e-12)
        elif lam == "log2":
            # the best path of the last mesh, which is feasible, scores
            # differently with np.log2 and with math.log2
            sol = routing.solve_secure_route(topos[-1], 0, n - 1, sc)
            sc = log2_disagreeing_scenario(sol.path.sum_sq_dist, sol.path.hop_count, sc)
            lam = None
        if lam is not None:
            sc = Scenario(sc.alpha, lam, sc.epsilon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing warns, at lambda_e = 0 either
            rates = routing.mesh_secrecy_rates(mesh_weights(xy), sc)
        for k, topo in enumerate(topos):
            sol = routing.solve_secure_route(topo, 0, n - 1, sc)
            assert (rates[k] > 0.0) == (sol is not None)
            assert rates[k] == (sol.c_s if sol is not None else 0.0)
        if edge:
            assert 0.0 < rates[0] < 1e-9

    @pytest.mark.parametrize("seed", [31, 36, 37, 136])
    def test_meshes_leave_at_different_budgets(self, seed, monkeypatch):
        # 10 meshes of 16 nodes, endpoints included, i.i.d. uniform on
        # squares that shrink along the stack: the first, largest meshes
        # are infeasible and leave before budget 1, so every later mesh
        # sits at a smaller index of the compacted stack than of the one
        # passed in, and the others leave at budgets of their own
        rng = np.random.default_rng(seed)
        scales = np.sort(rng.uniform(0.5, 3.0, 10))[::-1]
        xy = rng.uniform(0.0, 10.0, (10, 16, 2)) * scales[:, None, None]
        sc = scen(lam=float(10 ** rng.uniform(-5, -2)))
        d2 = mesh_weights(xy)[:, 0, -1]
        swept = []  # each relax's meshes, by their source-destination entry
        relax = routing.relax
        monkeypatch.setattr(routing, "relax",
                            lambda w, best: swept.append(w[:, 0, -1].tolist()) or relax(w, best))
        rates = routing.mesh_secrecy_rates(mesh_weights(xy), sc)
        monkeypatch.undo()
        first = routing.later_rate_bounds(d2, 16, sc)[:, 0] <= 0.0
        assert first.any() and not first.all()
        left = {}  # budget after which a mesh left -> by fixed point or by bound
        for k, pts in enumerate(xy.tolist()):
            topo = Topology([Node(i, x, y) for i, (x, y) in enumerate(pts)])
            sol = routing.solve_secure_route(topo, 0, 15, sc)
            assert rates[k] == (sol.c_s if sol is not None else 0.0)
            if not first[k]:
                v = 1 + sum(d2[k] in s for s in swept)  # relax runs from budget 2
                v_fix = len(routing.bellman_ford_hop_constrained(topo, 0, 15).best) - 1
                left.setdefault(v, set()).add(v > v_fix)
        assert len(left) > 2
        assert set.union(*left.values()) == {True, False}

    def test_stop_ends_before_fixed_point(self, monkeypatch):
        xy = placements(100, 1, [montecarlo.block_rng(3, 0, 0)])[0]
        topo = Topology.from_xy(xy)
        v_fix = len(routing.bellman_ford_hop_constrained(topo, 0, 101).best) - 1
        c_s = routing.solve_secure_route(topo, 0, 101, scen()).c_s
        steps = []
        relax = routing.relax
        monkeypatch.setattr(routing, "relax",
                            lambda w, best: steps.append(len(w)) or relax(w, best))
        rates = routing.mesh_secrecy_rates(mesh_weights(xy[None]), scen())
        assert rates[0] == c_s
        assert len(steps) < v_fix // 2


def unblocked_relax(w, best):
    """relax as the single expression, with no blocks."""
    return (w + best[..., None, :]).min(axis=-1)


def relax_case(n, stack, edges, seed):
    """(w, best): one weight matrix of n nodes, or a stack of them, full
    meshes or edge-list graphs (inf off the edges), and a previous row
    per matrix with inf entries."""
    rng = np.random.default_rng(1300 + seed)
    if edges:
        # about two edges a node, so that some candidates are all inf
        w = np.stack([random_graph(n, rng, p_edge=2.0 / n).weight_matrix()
                      for _ in range(stack or 1)])
    else:
        w = mesh_weights(rng.uniform(0.0, 40.0, (stack or 1, n, 2)))
    best = rng.uniform(0.0, 1e4, (stack or 1, n))
    best[rng.random(best.shape) < 0.4] = np.inf
    best[:, 0] = 0.0
    return (w, best) if stack else (w[0], best[0])


# (n, meshes in a stack or None for one matrix, cap or None for the
# module's): sizes one below, at and one above a block boundary
RELAX_SHAPES = [
    (255, None, None), (256, None, None), (257, None, None),  # 256^2 cells = cap
    (29, None, 300), (30, None, 300), (31, None, 300),  # 10 rows a block at n = 30
    (16, 255, None), (16, 256, None), (16, 257, None),  # 256 meshes of 16^2 = cap
    (10, 8, 300), (10, 9, 300), (10, 10, 300),  # 3 meshes a block
    (20, 3, 300),  # a mesh alone over the cap is one block
]


class TestRelax:
    @pytest.mark.parametrize("edges", [False, True], ids=["mesh", "edges"])
    @pytest.mark.parametrize("n,stack,cap", RELAX_SHAPES)
    def test_blocks_equal_single_expression(self, monkeypatch, n, stack, cap, edges):
        if cap is not None:
            monkeypatch.setattr(routing, "_RELAX_CELLS", cap)
        w, best = relax_case(n, stack, edges, n + (stack or 0))
        got = routing.relax(w, best)
        assert got.shape == best.shape
        assert np.array_equal(got, unblocked_relax(w, best))
        assert np.isinf(got).any() or not edges

    def test_memory_bounded_by_block(self):
        # one matrix of 1500 nodes, reduced along its rows, and a stack of
        # 400 meshes of 30, reduced over their predecessor axis
        for n, stack in ((1500, None), (30, 400)):
            w, best = relax_case(n, stack, False, 0)
            tracemalloc.start()
            try:
                routing.relax(w, best)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one block's candidates, the result and numpy's ufunc buffer;
            # the single expression takes w.nbytes (18 MB and 2.9 MB)
            assert peak <= 8 * (routing._RELAX_CELLS + 2 * best.size + np.getbufsize())

    def test_blocks_change_no_route(self, monkeypatch):
        n = 1500
        xy = placements(n - 2, 1, [montecarlo.block_rng(5, 0, 0)])[0]
        topo = Topology.from_xy(xy)
        sol = routing.solve_secure_route(topo, 0, n - 1, scen())
        tab = routing.bellman_ford_hop_constrained(topo, 0, n - 1)
        monkeypatch.setattr(routing, "_RELAX_CELLS", 1 << 62)
        assert routing.solve_secure_route(topo, 0, n - 1, scen()) == sol
        assert np.array_equal(routing.bellman_ford_hop_constrained(topo, 0, n - 1).best,
                              tab.best)


class TestReachable:
    @pytest.mark.parametrize("kind,seed", SWEEP_CASES)
    def test_matches_full_sweep(self, kind, seed):
        topo, src, _ = sweep_case(kind, seed)
        best = full_sweep_reference(topo, src)[0]
        for i, node in enumerate(topo.order):
            if node != src:
                assert routing.reachable(topo, src, node) == np.isfinite(best[-1, i])

    def test_isolated_source(self):
        # budget 1 starts from the source's own row, which holds no edge
        topo = Topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)],
                        edges=[(1, 2)])
        tab = routing.bellman_ford_hop_constrained(topo, 0, 2)
        assert tab.best.shape == (1, 3)
        assert tab.path_to(2, 2) is None
        assert not routing.reachable(topo, 0, 2)
        assert routing.reachable(topo, 2, 1)
