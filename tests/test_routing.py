import math
import warnings

import numpy as np
import pytest

from secroute import Node, Scenario, build_topology
from secroute import analytics, montecarlo, routing
from secroute.experiments import placement, six_node_topology
from secroute.netmodel import mesh_weights

import oracles


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

    @pytest.mark.parametrize("upper", [1, 2])
    def test_tie_goes_to_smallest_predecessor_id(self, upper):
        # two relays mirrored across the source-destination line give two
        # 2-hop paths of exactly equal weight 34 + 34
        lower = 3 - upper
        topo = build_topology([Node(0, 0, 0), Node(upper, 5, 3), Node(lower, 5, -3),
                               Node(3, 10, 0)])
        tab = routing.bellman_ford_hop_constrained(topo, 0, 3)
        assert tab.best_weight(3, 2) == 68.0
        assert tab.path_to(3, 2) == [0, 1, 3]

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
        for lam in (0.0, 1e-6, 1e-5, 1e-4):
            sc = scen(lam=lam)
            sol = routing.solve_secure_route(topo, src, dest, sc)
            ref = score_every_budget_reference(topo, src, dest, sc)
            metrics = [m for _, _, m in ref if m is not None]
            if not metrics:
                assert sol is None
                continue
            # strict > keeps the smallest budget reaching the maximum
            v_star = next(v for v, _, m in ref if m == max(metrics))
            assert (sol.hop_budget_used, sol.c_s) == (v_star, max(metrics))
            # the rate bound may end the audit after budget k: what it
            # prunes can only tie c_s at a larger budget, never beat it
            k = len(sol.per_v_candidates)
            assert sol.per_v_candidates == ref[:k]
            for v, _, m in ref[k:]:
                assert m is None or m <= sol.c_s
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
        # while no candidate is feasible the stop never fires, even where the
        # bound already shows that no later budget can be feasible either
        topo, src, dest = sweep_case(kind, seed)
        v_fix = len(routing.bellman_ford_hop_constrained(topo, src, dest).best)
        sweep = routing.bellman_ford_hop_constrained
        tables = []
        monkeypatch.setattr(routing, "bellman_ford_hop_constrained",
                            lambda *args: tables.append(sweep(*args)) or tables[-1])
        for lam in (1e-4, 1e-2, 1.0):
            tables.clear()
            if routing.solve_secure_route(topo, src, dest, scen(lam=lam)) is None:
                assert [len(t.best) for t in tables] == [v_fix]

    def test_bound_uses_straight_distance_on_edge_lists(self):
        # 0 -> 5 over a detour node (2 hops, weight 2600) or along the axis
        # (4 hops, weight 400), with no edge 0-5: the weight matrix holds inf
        # there, so the bound must read the endpoints' coordinates (D^2 = 1600)
        nodes = [Node(0, 0, 0), Node(1, 20, 30), Node(2, 10, 0), Node(3, 20, 0),
                 Node(4, 30, 0), Node(5, 40, 0)]
        topo = build_topology(nodes, [(0, 1), (1, 5), (0, 2), (2, 3), (3, 4), (4, 5)])
        assert topo.weight_matrix()[0, 5] == math.inf
        sc = scen(lam=analytics.weight_density_bound(1.0, scen()) / 6000.0)
        sol = routing.solve_secure_route(topo, 0, 5, sc)
        ref = score_every_budget_reference(topo, 0, 5, sc)
        assert ref[1][2] is not None  # the 2-hop detour is feasible, and loses
        assert sol.path.nodes == (0, 2, 3, 4, 5)
        assert sol.per_v_candidates == ref[:4]

    def test_colocated_endpoints_bound_nothing(self):
        # an edge list may place the source and destination on one point;
        # d2 = 0 leaves every later budget unbounded, without a warning
        nodes = [Node(0, 0, 0), Node(1, 3, 4), Node(2, 0, 0)]
        topo = build_topology(nodes, [(0, 1), (1, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = routing.solve_secure_route(topo, 0, 2, scen())
        assert sol.per_v_candidates == [(1, None, None), (2, [0, 1, 2], sol.c_s)]


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
        assert sol.c_s == max(m for _, _, m in ref if m is not None)

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


def stacked_case(seed):
    """(xy, scenario): a stack of random full-mesh placements, the last one
    collinear with equal gaps, where the N-1 hop path weighs D^2/(N-1)."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(3, 40))
    box = float(rng.uniform(1.0, 200.0))
    xy = rng.uniform(0.0, box, (5, n, 2))
    xy[-1] = np.linspace(0.0, box, n)[:, None]
    # a density that leaves the straight path's best rate just above 0
    d2 = 2.0 * box * box
    sc0 = Scenario(float(rng.uniform(2.1, 6.0)), 1.0, float(rng.uniform(0.01, 0.9)))
    lam = analytics.weight_density_bound(d2 / (n - 1), sc0) * float(rng.uniform(0.5, 1.0))
    return xy, Scenario(sc0.alpha, lam, sc0.epsilon)


class TestMeshSecrecyRates:
    @pytest.mark.parametrize("seed", range(8))
    def test_bound_covers_every_scored_candidate(self, seed):
        xy, sc = stacked_case(seed)
        r, n, _ = xy.shape
        w = mesh_weights(xy)
        later = routing.later_rate_bounds(w[:, 0, -1], n, sc)
        scored = 0
        for k in range(r):
            topo = build_topology([Node(i, x, y) for i, (x, y) in enumerate(xy[k].tolist())])
            col = routing.bellman_ford_hop_constrained(topo, 0, n - 1).best[:, -1]
            for v in range(1, len(col)):
                if col[v] < col[v - 1]:
                    res = analytics.secrecy_rate(float(col[v]), v, sc)
                    # later[k, v - 1] bounds every budget from v on
                    assert not res.feasible or res.c_s <= later[k, v - 1]
                    scored += res.feasible
        assert scored

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [None, 0.0, 1.0])
    def test_rates_match_solve_secure_route(self, seed, lam):
        xy, sc = stacked_case(seed)
        if lam is not None:
            sc = Scenario(sc.alpha, lam, sc.epsilon)
        n = xy.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing warns, at lambda_e = 0 either
            rates, feasible = routing.mesh_secrecy_rates(mesh_weights(xy), sc)
        for k, pts in enumerate(xy.tolist()):
            topo = build_topology([Node(i, x, y) for i, (x, y) in enumerate(pts)])
            sol = routing.solve_secure_route(topo, 0, n - 1, sc)
            assert feasible[k] == (sol is not None)
            assert rates[k] == (sol.c_s if sol is not None else 0.0)

    def test_stop_ends_before_fixed_point(self, monkeypatch):
        xy = placement(100, montecarlo.block_rng(3, 0, 0))
        topo = build_topology([Node(i, x, y) for i, (x, y) in enumerate(xy.tolist())])
        v_fix = len(routing.bellman_ford_hop_constrained(topo, 0, 101).best) - 1
        c_s = routing.solve_secure_route(topo, 0, 101, scen()).c_s
        steps = []
        relax = routing.relax
        monkeypatch.setattr(routing, "relax",
                            lambda w, best: steps.append(len(w)) or relax(w, best))
        rates, _ = routing.mesh_secrecy_rates(mesh_weights(xy[None]), scen())
        assert rates[0] == c_s
        assert len(steps) < v_fix // 2
