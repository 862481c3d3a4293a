"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py -v`)."""

import math
import time

import numpy as np
import pytest

from secroute import Node, Scenario, Topology
from secroute import analytics, montecarlo, routing
from secroute.experiments import (
    ExperimentConfig,
    FIG_PATHS,
    run_sop_curve,
    run_table_one,
    six_node_topology,
    write_csv,
)
from secroute.netmodel import Path

import oracles

LAMBDA_GRID = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4)

TABLE_ONE_TARGETS = {10: 0.2382, 50: 0.4049, 100: 0.4283}
TABLE_ONE_TOL = 0.02


def report(num, ok, text):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_sop_curves_match_monte_carlo():
    t0 = time.time()
    topo = six_node_topology()
    worst = 0.0
    for seq in FIG_PATHS:
        path = topo.path(seq)
        for i, lam in enumerate(LAMBDA_GRID):
            sc = Scenario(4.0, lam, 0.1)
            analytic = analytics.path_sop(1.0, path, sc)
            est = montecarlo.estimate_path_sop(1.0, path, topo, sc, 100000,
                                               seed=1000 + 10 * len(seq) + i)
            z = abs(est.mean - analytic) / est.stderr
            worst = max(worst, z)
            assert z <= 3.0, (seq, lam, analytic, est)
    elapsed = time.time() - t0
    report(1, elapsed < 120.0,
           f"15 grid points within 3 stderr (worst z={worst:.2f}), {elapsed:.0f}s")


def test_criterion_2_conditioning_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(10):
        rs = float(rng.uniform(0.5, 2.0))
        dist = float(rng.uniform(5.0, 15.0))
        lam = float(rng.uniform(1e-5, 1e-4))
        sc = Scenario(4.0, lam, 0.1, power_db=80.0)
        a = montecarlo.hop_sop_estimates(rs, dist, sc, 50000, 200 + i, [sc.power_db])[1][0]
        b = montecarlo.hop_sop_estimates(rs, dist, sc, 50000, 300 + i, [])[0]
        z = abs(a.mean - b.mean) / math.hypot(a.stderr, b.stderr)
        worst = max(worst, z)
        assert z <= 3.0, (rs, dist, lam, a, b)
    report(2, True, f"rejection vs memoryless agree on 10 configs (worst z={worst:.2f})")


def test_criterion_3_pgfl_quadrature():
    worst = 0.0
    for alpha in (2.5, 3.0, 4.0, 6.0):
        for rs, dist in [(0.5, 3.0), (1.0, 10.0), (2.0, 7.0), (4.0, 1.5), (0.1, 30.0)]:
            sc = Scenario(alpha, 1e-5, 0.1)
            target = analytics.k1(sc.alpha, sc.lambda_e) * 2 ** (2 * rs / alpha) * dist ** 2
            got = oracles.pgfl_integral(rs, dist, sc)
            rel = abs(got - target) / target
            worst = max(worst, rel)
            assert rel <= 1e-6, (alpha, rs, dist, rel)
    report(3, True, f"plane-integral quadrature matches closed form (worst rel={worst:.1e})")


def test_criterion_4_power_invariance():
    sc = Scenario(4.0, 5e-5, 0.1)
    powers = (60.0, 80.0, 100.0)
    _, estimates = montecarlo.hop_sop_estimates(1.0, 10.0, sc, 80000, 44, powers)
    violations = montecarlo.power_invariance_report(powers, estimates)
    report(4, not violations,
           f"SOP estimates at 60/80/100 dB indistinguishable: "
           f"{[f'{e.mean:.5f}' for e in estimates]}")


def test_criterion_5_routing_matches_oracle():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        nodes = [Node(i, float(rng.uniform(0, 40)), float(rng.uniform(0, 40)))
                 for i in range(n)]
        topo = Topology(nodes)
        # density drawn strictly below the loosest per-path bound, so the
        # scenario always admits at least one feasible route
        paths = oracles.enumerate_all_paths_oracle(topo, 0, n - 1, n - 1)
        sc0 = Scenario(4.0, 1e-9, 0.1)
        bmax = max(analytics.density_bound(p, sc0) for p in paths)
        lam = float(rng.uniform(0.05, 0.95)) * bmax
        sc = Scenario(4.0, lam, 0.1)
        sol = routing.solve_secure_route(topo, 0, n - 1, sc)
        best, best_metric = oracles.best_route_oracle(topo, 0, n - 1, sc)
        assert sol is not None and best is not None
        assert sol.c_s == best_metric, (n, lam, sol.path.nodes, best.nodes)
        checked += 1
    report(5, checked == 200,
           f"secrecy rate equals exhaustive enumeration on {checked} topologies")


def test_criterion_6_rate_optimum_round_trip():
    rng = np.random.default_rng(66)
    worst = 0.0
    for i in range(100):
        hops = int(rng.integers(1, 6))
        w = float(rng.uniform(10.0, 5000.0))
        eps = float(rng.uniform(0.01, 0.5))
        path = Path(tuple(range(hops + 1)), w)
        bound = analytics.density_bound(path, Scenario(4.0, 1e-9, eps))
        lam = float(rng.uniform(0.05, 0.95)) * bound
        sc = Scenario(4.0, lam, eps)
        rs_star = analytics.optimal_rs(path, sc)
        assert rs_star > 0.0
        err = abs(analytics.path_sop(rs_star, path, sc) - eps)
        worst = max(worst, err)
        assert err <= 1e-9, (w, eps, lam, err)
        # feasibility flips exactly at the density bound
        assert analytics.optimal_rs(path, Scenario(4.0, bound * (1 - 1e-9), eps)) > 0.0
        assert analytics.optimal_rs(path, Scenario(4.0, bound * (1 + 1e-9), eps)) == 0.0
    report(6, True, f"path_sop(rs_star) = epsilon to 1e-9 on 100 paths "
                    f"(worst err={worst:.1e}); flag flips at the bound")


def test_criterion_7_table_one():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="table-one", reps=2000, seed=1)
    _, rows = run_table_one(cfg)
    means = {n: (mean, stderr) for n, mean, stderr, *_ in rows}
    for n, target in TABLE_ONE_TARGETS.items():
        mean, _ = means[n]
        assert abs(mean - target) <= TABLE_ONE_TOL, (n, mean, target)
    for (na, (ma, sa)), (nb, (mb, sb)) in zip(list(means.items()), list(means.items())[1:]):
        assert mb >= ma - 2 * math.hypot(sa, sb), (na, nb, ma, mb)
    elapsed = time.time() - t0
    summary = ", ".join(f"N={n}:{means[n][0]:.4f}" for n in TABLE_ONE_TARGETS)
    report(7, elapsed < 600.0, f"average secrecy rates {summary} "
                               f"(targets 0.2382/0.4049/0.4283), {elapsed:.0f}s")


def test_criterion_8_rate_sweep_trends():
    topo = six_node_topology()
    lam_grid = np.geomspace(1e-6, 3e-4, 25)
    eps_grid = np.linspace(0.01, 0.6, 25)
    for seq in FIG_PATHS:
        path = topo.path(seq)
        prev = None
        for lam in lam_grid:
            sc = Scenario(4.0, float(lam), 0.1)
            m = analytics.path_metric(path, sc)
            # infeasibility onset coincides with the density bound exactly
            assert (m > 0.0) == (sc.lambda_e < analytics.density_bound(path, sc))
            if m > 0.0 and prev is not None:
                assert m < prev
            prev = m if m > 0.0 else prev
        prev = None
        for eps in eps_grid:
            sc = Scenario(4.0, 1e-5, float(eps))
            m = analytics.path_metric(path, sc)
            if m > 0.0 and prev is not None:
                assert m > prev
            prev = m if m > 0.0 else prev
    report(8, True, "secrecy rate strictly decreasing in density, "
                    "strictly increasing in the outage budget; onset at the bound")


def test_criterion_9_csv_determinism(tmp_path):
    cfg = ExperimentConfig(lambdas=(1e-6, 1e-5), trials=5000, seed=41,
                           n_legit=(6,), reps=25)
    blobs = []
    for run in range(2):
        out = tmp_path / f"sop{run}.csv"
        header, rows = run_sop_curve(cfg)
        write_csv(out, cfg, header, rows)
        header, rows = run_table_one(cfg)
        write_csv(tmp_path / f"tab{run}.csv", cfg, header, rows)
        blobs.append(out.read_bytes() + (tmp_path / f"tab{run}.csv").read_bytes())
    report(9, blobs[0] == blobs[1], "re-runs with identical seed/config are byte-identical")
