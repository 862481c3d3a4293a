import math

import numpy as np
import pytest

from secroute import Node, Scenario, build_topology
from secroute import analytics, montecarlo
from secroute.montecarlo import (
    MonteCarloError,
    _block_draws,
    block_rng,
    estimate_hop_sop,
    estimate_path_sop,
    power_invariance_check,
)
from secroute.experiments import six_node_topology


def scen(lam=1e-5, eps=0.1, alpha=4.0, power=80.0, window=2000.0):
    half = window / 2.0
    return Scenario(alpha, lam, eps, power, (-half, half, -half, half))


class TestSamplePpp:
    """The PPP sampler behind every estimate, `_block_draws`."""

    def test_zero_density_empty(self):
        interference, h = _block_draws(block_rng(0, 0, 0), scen(lam=0.0), 5000)
        assert len(interference) == len(h) == 5000
        assert np.all(interference == 0.0)

    def test_poisson_count_statistics(self):
        # lambda * area = 1: a trial's field is empty with probability e^-1,
        # and only an empty field gives zero interference
        sc = scen(lam=2.5e-7)
        assert sc.lambda_e * sc.window_area == 1.0
        n = 100000
        interference, _ = _block_draws(block_rng(1, 0, 0), sc, n)
        p = math.exp(-1.0)
        share = np.count_nonzero(interference == 0.0) / n
        assert abs(share - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


class TestEstimateHopSop:
    def test_zero_density_both_modes(self):
        for mode in ("memoryless", "rejection"):
            est = estimate_hop_sop(1.0, 10.0, scen(lam=0.0), 2000, 1, mode)
            assert est.mean == 0.0

    def test_memoryless_matches_analytic(self):
        sc = scen()
        est = estimate_hop_sop(1.0, 10.0, sc, 100000, seed=12)
        target = analytics.hop_sop(1.0, 10.0, sc)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_rejection_matches_memoryless(self):
        sc = scen(lam=5e-5)
        a = estimate_hop_sop(1.0, 10.0, sc, 100000, seed=13, conditioning="rejection")
        b = estimate_hop_sop(1.0, 10.0, sc, 100000, seed=14, conditioning="memoryless")
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.stderr, b.stderr)

    def test_seed_determinism(self):
        sc = scen()
        a = estimate_hop_sop(1.0, 10.0, sc, 50000, seed=7)
        b = estimate_hop_sop(1.0, 10.0, sc, 50000, seed=7)
        assert a == b
        # distinct seeds and streams key distinct Philox counters
        assert not np.array_equal(block_rng(7, 0, 0).random(4),
                                  block_rng(8, 0, 0).random(4))
        assert not np.array_equal(block_rng(7, 0, 0).random(4),
                                  block_rng(7, 1, 0).random(4))

    def test_stderr_scaling(self):
        sc = scen(lam=5e-5)
        small = estimate_hop_sop(1.0, 10.0, sc, 40000, seed=9)
        big = estimate_hop_sop(1.0, 10.0, sc, 160000, seed=9)
        assert big.stderr == pytest.approx(small.stderr / 2, rel=0.15)

    def test_rejection_no_survivors(self):
        # 0 dB power and a huge threshold starve the on-off filter
        sc = scen(power=0.0)
        with pytest.raises(MonteCarloError):
            estimate_hop_sop(40.0, 10.0, sc, 500, seed=1, conditioning="rejection")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_hop_sop(1.0, 10.0, scen(), 0, 1)
        with pytest.raises(ValueError):
            estimate_hop_sop(-1.0, 10.0, scen(), 10, 1)
        with pytest.raises(ValueError):
            estimate_hop_sop(1.0, 10.0, scen(), 10, 1, conditioning="nope")


class TestEstimatePathSop:
    def topo(self):
        return build_topology([Node(0, 0, 0), Node(1, 0, 10), Node(2, 0, 20)])

    def test_single_hop_matches_analytic(self):
        topo = self.topo()
        sc = scen(lam=5e-5)
        p = topo.path((0, 1))
        est = estimate_path_sop(1.0, p, topo, sc, 100000, seed=21)
        target = analytics.path_sop(1.0, p, sc)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_two_hop_matches_analytic(self):
        topo = self.topo()
        sc = scen(lam=5e-5)
        p = topo.path((0, 1, 2))
        est = estimate_path_sop(1.0, p, topo, sc, 100000, seed=22)
        target = analytics.path_sop(1.0, p, sc)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_path_sop_at_least_each_hop(self):
        topo = self.topo()
        sc = scen(lam=1e-4)
        p = topo.path((0, 1, 2))
        joint = estimate_path_sop(1.0, p, topo, sc, 60000, seed=23)
        for d, seed in ((10.0, 24), (10.0, 25)):
            hop = estimate_hop_sop(1.0, d, sc, 60000, seed=seed)
            assert joint.mean >= hop.mean - 3 * math.hypot(joint.stderr, hop.stderr)

    def test_hop_independence_product_form(self):
        # joint outage must match the independent-hop product: no state
        # leakage between the per-hop eavesdropper fields
        topo = self.topo()
        sc = scen(lam=1e-4)
        p = topo.path((0, 1, 2))
        joint = estimate_path_sop(1.0, p, topo, sc, 100000, seed=26)
        per_hop = [estimate_hop_sop(1.0, 10.0, sc, 100000, seed=s) for s in (27, 28)]
        product = 1.0 - (1.0 - per_hop[0].mean) * (1.0 - per_hop[1].mean)
        tol = 3 * math.sqrt(sum(e.stderr ** 2 for e in per_hop) + joint.stderr ** 2)
        assert abs(joint.mean - product) <= tol

    def test_shifted_example_matches_unshifted(self):
        # each hop's field is centred on its transmitter, so moving the
        # placement far from the window's centre changes no draw
        base = six_node_topology()
        shifted = build_topology([Node(i, base.nodes[i].x + 5000.0, base.nodes[i].y + 5000.0)
                                  for i in base.order])
        sc = scen(lam=1e-4)
        a = estimate_path_sop(1.0, base.path((1, 3, 5)), base, sc, 20000, seed=31)
        p = shifted.path((1, 3, 5))
        b = estimate_path_sop(1.0, p, shifted, sc, 20000, seed=31)
        assert b == a
        assert abs(b.mean - analytics.path_sop(1.0, p, sc)) <= 3 * b.stderr

    def test_seed_determinism(self):
        topo = self.topo()
        sc = scen()
        p = topo.path((0, 1, 2))
        a = estimate_path_sop(1.0, p, topo, sc, 30000, seed=5)
        b = estimate_path_sop(1.0, p, topo, sc, 30000, seed=5)
        assert a == b


class TestWindowSufficiency:
    def test_truncation_negligible(self):
        # couple a default-window field with an independent annulus field:
        # the extra far-away points must flip fewer outage indicators than
        # one standard error of the estimate
        sc = scen(lam=1e-5)
        big = scen(lam=1e-5, window=4000.0)
        rs, d = 1.0, 10.0
        gain, d_a = 2.0 ** rs, d ** sc.alpha
        n = 200000
        rng = np.random.default_rng(314)
        inner = np.zeros(n)
        outer = np.zeros(n)
        for which, target in ((sc, inner), (big, outer)):
            counts = rng.poisson(which.lambda_e * which.window_area, n)
            total = counts.sum()
            half = which.sim_window[1]
            xs = rng.uniform(-half, half, total)
            ys = rng.uniform(-half, half, total)
            if which is big:  # keep only the annulus outside the default window
                mask = (np.abs(xs) > 1000.0) | (np.abs(ys) > 1000.0)
            else:
                mask = np.ones(total, dtype=bool)
            g = -np.log1p(-rng.random(total))
            contrib = np.where(mask, g * (xs ** 2 + ys ** 2) ** (-sc.alpha / 2), 0.0)
            np.add.at(target, np.repeat(np.arange(n), counts), contrib)
        h = -np.log1p(-rng.random(n))
        base = h <= gain * d_a * inner
        wide = h <= gain * d_a * (inner + outer)
        p_base = base.mean()
        stderr = math.sqrt(p_base * (1 - p_base) / n)
        assert abs(wide.mean() - p_base) < stderr


class TestPowerInvariance:
    def test_three_powers_agree(self):
        report = power_invariance_check(1.0, 10.0, scen(lam=5e-5),
                                        (60.0, 80.0, 100.0), 60000, seed=31)
        assert report["consistent"], report["violations"]

    def test_single_power_trivially_passes(self):
        report = power_invariance_check(1.0, 10.0, scen(), (80.0,), 2000, seed=1)
        assert report["consistent"]

    def test_zero_density_all_zero(self):
        report = power_invariance_check(1.0, 10.0, scen(lam=0.0),
                                        (60.0, 80.0), 2000, seed=1)
        assert all(e.mean == 0.0 for e in report["estimates"])
