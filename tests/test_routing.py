import math

import numpy as np
import pytest

from secroute import Node, Scenario, build_topology
from secroute import analytics, routing
from secroute.experiments import six_node_topology


def scen(lam=1e-5, eps=0.1, alpha=4.0):
    return Scenario(alpha, lam, eps)


def colinear3():
    return build_topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)])


def random_mesh(n, rng, box=40.0):
    nodes = [Node(i, rng.uniform(0, box), rng.uniform(0, box)) for i in range(n)]
    return build_topology(nodes)


def random_graph(n, rng, p_edge=0.5, box=40.0):
    """Random nodes joined by each possible edge with probability p_edge."""
    nodes = [Node(i, rng.uniform(0, box), rng.uniform(0, box)) for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
    return build_topology(nodes, edges)


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


def score_every_budget_reference(topology, source, dest, scenario):
    """Audit trail that reconstructs and scores a path at every budget."""
    table = routing.bellman_ford_hop_constrained(topology, source, dest)
    audit = []
    for v in range(1, len(topology.order)):
        seq = table.path_to(dest, v)
        metric = None if seq is None else analytics.path_metric(topology.path(seq), scenario)
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
        return build_topology(nodes, edges), 0, n - 1
    n = 200
    xy = np.vstack([(0.0, 0.0), rng.uniform(0, 50, (n - 2, 2)), (50.0, 50.0)])
    return build_topology([Node(i, float(x), float(y)) for i, (x, y) in enumerate(xy)]), 0, n - 1


SWEEP_CASES = ([("mesh", s) for s in range(6)] + [("graph", s) for s in range(6)]
               + [("unreachable", s) for s in range(3)] + [("large", 0)])


class TestBellmanFord:
    def test_colinear_budgets(self):
        tab = routing.bellman_ford_hop_constrained(colinear3(), 0, 2)
        assert tab.best_weight(2, 1) == 100.0
        assert tab.path_to(2, 1) == [0, 2]
        assert tab.best_weight(2, 2) == 50.0
        assert tab.path_to(2, 2) == [0, 1, 2]

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
        topo = build_topology(
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
                paths = routing.enumerate_all_paths_oracle(topo, 0, dest, v)
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
        for got, ref in ((tab.best, best), (tab.hops, hops), (tab.pred, pred)):
            assert got.shape == (k, n)
            assert np.array_equal(got, ref[:k])
            assert (ref[k:] == got[-1]).all()  # later budgets repeat the last row
        full = routing.HopConstrainedTable(topo.order, topo.index, src, best, hops, pred)
        for node in topo.order:
            for v in range(n):
                assert tab.best_weight(node, v) == full.best_weight(node, v)
                assert tab.path_to(node, v) == full.path_to(node, v)
        if kind == "large":
            assert k < n  # the stop engages well before N-1 budgets

    @pytest.mark.parametrize("kind,seed", SWEEP_CASES)
    def test_audit_matches_scoring_every_budget(self, kind, seed):
        topo, src, dest = sweep_case(kind, seed)
        for lam in (1e-6, 1e-5, 1e-4):
            sc = scen(lam=lam)
            sol = routing.solve_secure_route(topo, src, dest, sc)
            ref = score_every_budget_reference(topo, src, dest, sc)
            metrics = [m for _, _, m in ref if m is not None]
            if not metrics:
                assert sol is None
                continue
            assert sol.per_v_candidates == ref
            # strict > keeps the smallest budget reaching the maximum
            v_star = next(v for v, _, m in ref if m == max(metrics))
            assert (sol.hop_budget_used, sol.c_s) == (v_star, max(metrics))


class TestOracle:
    def test_three_node_counts(self):
        topo = colinear3()
        assert len(routing.enumerate_all_paths_oracle(topo, 0, 2, 2)) == 2
        assert len(routing.enumerate_all_paths_oracle(topo, 0, 2, 1)) == 1

    def test_five_node_count(self):
        # sum over ordered relay subsets: 1 + 3 + 6 + 6 = 16
        rng = np.random.default_rng(0)
        topo = random_mesh(5, rng)
        assert len(routing.enumerate_all_paths_oracle(topo, 0, 4, 4)) == 16

    def test_paths_unique_and_simple(self):
        rng = np.random.default_rng(1)
        topo = random_mesh(6, rng)
        paths = routing.enumerate_all_paths_oracle(topo, 0, 5, 5)
        seqs = [p.nodes for p in paths]
        assert len(seqs) == len(set(seqs))
        for s in seqs:
            assert len(s) == len(set(s))

    def test_node_limit(self):
        rng = np.random.default_rng(2)
        topo = random_mesh(10, rng)
        with pytest.raises(routing.RoutingError):
            routing.enumerate_all_paths_oracle(topo, 0, 9, 9)


class TestSolveSecureRoute:
    def test_two_node_direct(self):
        topo = build_topology([Node(0, 0, 0), Node(1, 0, 10)])
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
            best, best_metric = routing.best_route_oracle(topo, 1, 5, sc)
            if best is None:
                assert sol is None
            else:
                assert sol.c_s == best_metric

    def test_audit_trail(self):
        topo = six_node_topology()
        sol = routing.solve_secure_route(topo, 1, 5, scen())
        assert len(sol.per_v_candidates) == 5
        metrics = [m for _, _, m in sol.per_v_candidates if m is not None]
        assert sol.c_s == max(metrics)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_topologies_match_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 9))
        topo = random_mesh(n, rng)
        # density drawn so that at least the best route is usually feasible
        lam = float(rng.uniform(0.2, 3.0)) * 1e-4
        sc = scen(lam=lam)
        sol = routing.solve_secure_route(topo, 0, n - 1, sc)
        best, best_metric = routing.best_route_oracle(topo, 0, n - 1, sc)
        if best is None:
            assert sol is None
        else:
            assert sol.c_s == best_metric

    @pytest.mark.parametrize("seed", range(10))
    def test_edge_restricted_topologies_match_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(4, 9))
        topo = random_graph(n, rng)
        paths = routing.enumerate_all_paths_oracle(topo, 0, n - 1, n - 1)
        # density strictly below the loosest path bound, as in the
        # full-mesh acceptance check, whenever a path exists at all
        bmax = max((analytics.density_bound(p, scen(lam=1e-9)) for p in paths),
                   default=1e-4)
        sc = scen(lam=float(rng.uniform(0.05, 0.95)) * bmax)
        sol = routing.solve_secure_route(topo, 0, n - 1, sc)
        best, best_metric = routing.best_route_oracle(topo, 0, n - 1, sc)
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
            topo = build_topology([Node(i, float(x), float(y))
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
        small = build_topology(nodes[:6])
        large = build_topology(nodes)
        s1 = routing.solve_secure_route(small, 0, 5, sc)
        s2 = routing.solve_secure_route(large, 0, 5, sc)
        c1 = s1.c_s if s1 else 0.0
        c2 = s2.c_s if s2 else 0.0
        assert c2 >= c1
