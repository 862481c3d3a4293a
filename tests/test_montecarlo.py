import math
from dataclasses import replace

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
    hop_sop_estimates,
    power_invariance_check,
)
from secroute.cli import main
from secroute.experiments import FIG_PATHS, six_node_topology


def scen(lam=1e-5, eps=0.1, alpha=4.0, power=80.0, window=2000.0):
    half = window / 2.0
    return Scenario(alpha, lam, eps, power, (-half, half, -half, half))


class TestSamplePpp:
    """The PPP sampler behind every estimate, `_block_draws`."""

    def test_zero_density_empty(self):
        interference, h = _block_draws(block_rng(0, 0, 0), scen(lam=0.0), 1000.0, 5000)
        assert len(interference) == len(h) == 5000
        assert np.all(interference == 0.0)

    def test_poisson_count_statistics(self):
        # lambda * pi R^2 = 1: a trial's field is empty with probability
        # e^-1, and only an empty field gives zero interference
        radius = 1000.0
        sc = scen(lam=1.0 / (math.pi * radius * radius))
        assert sc.lambda_e * math.pi * radius * radius == pytest.approx(1.0, rel=1e-15)
        n = 100000
        interference, _ = _block_draws(block_rng(1, 0, 0), sc, radius, n)
        p = math.exp(-1.0)
        share = np.count_nonzero(interference == 0.0) / n
        assert abs(share - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def block_draws_reference(rng, scenario, radius, n):
    """`_block_draws` as one expression per array, without buffer reuse:
    points uniform on the disk of `radius`, drawn as r^2 = R^2 * U."""
    counts = rng.poisson(scenario.lambda_e * math.pi * radius * radius, n)
    total = int(counts.sum())
    r2 = radius * radius * rng.random(total)
    gains = -np.log1p(-rng.random(total))
    h = -np.log1p(-rng.random(n))
    contrib = gains * r2 ** (-scenario.alpha / 2.0)
    idx = np.repeat(np.arange(n), counts)
    interference = np.bincount(idx, weights=contrib, minlength=n)
    return interference, h


def window_cap(scenario):
    """Radius of the disk inscribed in the scenario's window."""
    xmin, xmax, ymin, ymax = scenario.sim_window
    return min(xmax - xmin, ymax - ymin) / 2.0


def bias_formula(rs, dist, scenario, radius):
    """theta * 2 pi lambda R^(2 - alpha) / (alpha - 2), theta = 2^rs d^alpha."""
    a = scenario.alpha
    theta = 2.0 ** rs * dist ** a
    return theta * 2.0 * math.pi * scenario.lambda_e * radius ** (2.0 - a) / (a - 2.0)


def hop_radius(rs, dist, scenario, trials):
    """The disk radius of a one-hop estimate."""
    p = analytics.hop_sop(rs, dist, scenario)
    return montecarlo._hop_fields(rs, [dist], scenario, p, trials)[1][0]


class TestBlockDrawsInPlace:
    """The in-place `_block_draws` returns exactly the reference's draws."""

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("lam", [0.0, 1e-5, 1e-4])
    @pytest.mark.parametrize("n", [1, montecarlo.BLOCK])
    def test_matches_reference(self, alpha, lam, n):
        sc = scen(lam=lam, alpha=alpha)
        for radius in (37.5, 1000.0):
            got = _block_draws(block_rng(3, 1, 2), sc, radius, n)
            want = block_draws_reference(block_rng(3, 1, 2), sc, radius, n)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("n", [1, montecarlo.BLOCK])
    def test_matches_reference_off_origin_window(self, n):
        # a window off the origin caps the disk by its shorter side alone
        sc = Scenario(3.0, 5e-5, 0.1, 80.0, (4000.0, 5500.0, -700.0, 300.0))
        radius = hop_radius(1.0, 10.0, sc, 100000)
        assert radius == window_cap(sc) == 500.0
        got = _block_draws(block_rng(4, 0, 1), sc, radius, n)
        want = block_draws_reference(block_rng(4, 0, 1), sc, radius, n)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestBlockPoints:
    """A block holds at most BLOCK_POINTS expected points on each hop. The
    draws are stubbed, so no case allocates a point."""

    @staticmethod
    def record_draws(monkeypatch):
        calls = []

        def draws(rng, scenario, radius, n):
            calls.append((n, radius))
            return np.zeros(n), np.zeros(n)

        monkeypatch.setattr(montecarlo, "_block_draws", draws)
        return calls

    def test_dense_field_splits_blocks(self, monkeypatch):
        # lambda = 1e-2 puts the disk at the R = 1000 cap: 31 416 expected
        # points per trial, 5.1e8 in a block of BLOCK trials
        calls = self.record_draws(monkeypatch)
        sc = scen(lam=1e-2)
        hop_sop_estimates(1.0, 10.0, sc, 100000, 1, [])
        assert sum(n for n, _ in calls) == 100000
        for n, radius in calls:
            assert radius == 1000.0
            assert n * sc.lambda_e * math.pi * radius ** 2 <= montecarlo.BLOCK_POINTS

    def test_one_trial_over_the_cap_exits_2(self, monkeypatch, tmp_path, capsys):
        # 3.1e7 expected points on one trial's disk: no block size fits
        calls = self.record_draws(monkeypatch)
        f = tmp_path / "v.cfg"
        f.write_text("lambda_e = 10\ntrials = 100\n")
        assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 2
        err = capsys.readouterr().err
        assert not calls and "lambda_e = 10" in err and "window" in err


class TestDiskSizing:
    """Each hop's disk is the smallest meeting its share of the tolerance."""

    @pytest.mark.parametrize("alpha,lam,trials", [
        (4.0, 1e-6, 8192), (4.0, 1e-4, 100000), (3.0, 1e-5, 1000),
        (3.0, 1e-4, 100000), (2.5, 1e-4, 100000), (2.05, 1e-6, 500), (6.0, 5e-5, 20000)])
    @pytest.mark.parametrize("seq", FIG_PATHS)
    def test_smallest_radius_within_cap(self, alpha, lam, trials, seq):
        topo = six_node_topology()
        sc = scen(lam=lam, alpha=alpha)
        path = topo.path(seq)
        p = analytics.path_sop(1.0, path, sc)
        dists = [math.sqrt(topo.path(hop).sum_sq_dist) for hop in zip(seq, seq[1:])]
        _, radii, bias_bound = montecarlo._hop_fields(1.0, dists, sc, p, trials)
        share = math.sqrt(p * (1.0 - p) / trials) / 10.0 / len(dists)
        cap = window_cap(sc)
        total = 0.0
        for d, radius in zip(dists, radii):
            b = bias_formula(1.0, d, sc, radius)
            assert 0.0 < radius <= cap
            if radius < cap:
                assert b <= share
                assert bias_formula(1.0, d, sc, radius * (1.0 - 1e-6)) > share
            else:
                assert bias_formula(1.0, d, sc, cap * (1.0 - 1e-9)) > share
            total += b
        assert bias_bound == pytest.approx(total, rel=1e-9)

    def test_path_estimate_carries_bound(self):
        topo = six_node_topology()
        sc = scen(lam=1e-4)
        path = topo.path((1, 2, 3, 5))
        p = analytics.path_sop(1.0, path, sc)
        dists = [math.sqrt(topo.path(hop).sum_sq_dist) for hop in zip((1, 2, 3), (2, 3, 5))]
        _, _, bias_bound = montecarlo._hop_fields(1.0, dists, sc, p, 8192)
        est = estimate_path_sop(1.0, path, topo, sc, 8192, seed=1)
        assert est.bias_bound == bias_bound <= math.sqrt(p * (1.0 - p) / 8192) / 10.0

    def test_zero_density_has_no_bias(self):
        topo = six_node_topology()
        sc = scen(lam=0.0)
        est = estimate_path_sop(1.0, topo.path((1, 2, 3, 5)), topo, sc, 100, seed=1)
        assert est.bias_bound == 0.0 and est.mean == 0.0
        memoryless, rejection = hop_sop_estimates(1.0, 10.0, sc, 100, 1, [80.0])
        assert memoryless.bias_bound == rejection[0].bias_bound == 0.0
        assert hop_radius(1.0, 10.0, sc, 100) == window_cap(sc)

    def test_alpha_near_two_reaches_cap(self):
        # (theta 2 pi lambda / tol)^(1/(alpha - 2)) overflows a float; the
        # radius, computed in logs, stops at the cap
        sc = scen(lam=1e-4, alpha=2.0 + 1e-9)
        assert hop_radius(1.0, 10.0, sc, 1000) == window_cap(sc)
        est = estimate_hop_sop(1.0, 10.0, sc, 1000, seed=2)
        assert est.bias_bound == 1.0 and est.weak

    def test_bias_bound_shared_by_every_mode(self):
        sc = scen(lam=5e-5, alpha=3.0)
        memoryless, rejection = hop_sop_estimates(1.0, 10.0, sc, 3000, 5, (60.0, 80.0))
        b = bias_formula(1.0, 10.0, sc, hop_radius(1.0, 10.0, sc, 3000))
        assert memoryless.bias_bound == pytest.approx(b, rel=1e-9)
        assert all(est.bias_bound == memoryless.bias_bound for est in rejection)


class TestTruncationBias:
    """The bias bound against a coupled run on two radii."""

    @pytest.mark.parametrize("alpha,lam,inner,outer", [
        (2.5, 1e-4, 30.0, 300.0), (3.0, 2e-4, 20.0, 200.0), (4.0, 1e-3, 8.0, 80.0)])
    def test_gap_within_bound(self, alpha, lam, inner, outer):
        # the points of the R' run inside R are a PPP on the disk of R, so
        # both runs share them and the outer run only adds interference
        sc = scen(lam=lam, alpha=alpha)
        rs, d, n = 1.0, 10.0, 50000
        theta = 2.0 ** rs * d ** alpha
        rng = np.random.default_rng(2718)
        counts = rng.poisson(lam * math.pi * outer * outer, n)
        r2 = outer * outer * rng.random(counts.sum())
        contrib = -np.log1p(-rng.random(counts.sum())) * r2 ** (-alpha / 2.0)
        idx = np.repeat(np.arange(n), counts)
        i_inner = np.bincount(idx, weights=np.where(r2 < inner * inner, contrib, 0.0),
                              minlength=n)
        i_outer = np.bincount(idx, weights=contrib, minlength=n)
        h = -np.log1p(-rng.random(n))
        flipped = (h <= theta * i_outer) & ~(h <= theta * i_inner)
        assert not np.any((h <= theta * i_inner) & ~(h <= theta * i_outer))
        gap = flipped.mean()
        sigma = math.sqrt(gap * (1.0 - gap) / n)
        bound = bias_formula(rs, d, sc, inner) - bias_formula(rs, d, sc, outer)
        assert 0.0 < gap <= bound + 3.0 * sigma


class TestSmallAlpha:
    """Monte Carlo against the closed form away from alpha = 4 and the origin,
    on the one-sided interval [mc - 3 stderr, mc + 3 stderr + bias_bound]."""

    @staticmethod
    def check(est, p, weak):
        assert est.mean - 3.0 * est.stderr <= p <= est.mean + 3.0 * est.stderr + est.bias_bound
        assert est.covers(p)
        assert (est.bias_bound > est.stderr) is weak and est.weak is weak

    @pytest.mark.parametrize("alpha,lam,weak", [
        # the disk reaches the cap, and the bound exceeds the stderr
        (2.5, 1e-4, True),
        # the disk reaches the cap, but the bound stays below the stderr
        (3.0, 1e-4, False), (3.0, 1e-5, False)])
    def test_hop_estimate(self, alpha, lam, weak):
        sc = scen(lam=lam, alpha=alpha)
        memoryless, (rejection,) = hop_sop_estimates(1.0, 10.0, sc, 50000, 61, [80.0])
        p = analytics.hop_sop(1.0, 10.0, sc)
        for est in (memoryless, rejection):
            self.check(est, p, weak)

    def test_off_origin_path(self):
        topo = build_topology([Node(0, 3000.0, -4000.0), Node(1, 3006.0, -3992.0),
                               Node(2, 3012.0, -3984.0)])
        sc = scen(lam=3e-5, alpha=3.0)
        path = topo.path((0, 1, 2))
        est = estimate_path_sop(1.0, path, topo, sc, 50000, seed=62)
        self.check(est, analytics.path_sop(1.0, path, sc), weak=False)


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


class TestHopSopEstimates:
    """One pass over the draws gives exactly the separate estimates."""

    def rejection_reference(self, rs, dist, scenario, trials, seed):
        # the literal on-off rule, one block at a time, on its own draws
        d_alpha = dist ** scenario.alpha
        p = scenario.power_linear
        radius = hop_radius(rs, dist, scenario, trials)
        n_outage = n_effective = 0
        for block, done in enumerate(range(0, trials, montecarlo.BLOCK)):
            n = min(montecarlo.BLOCK, trials - done)
            interference, h = block_draws_reference(block_rng(seed, 0, block), scenario,
                                                    radius, n)
            snr = p * h / d_alpha
            keep = snr > 2.0 ** rs - 1.0
            rate = np.log2((1.0 + snr[keep]) / (1.0 + p * interference[keep]))
            n_outage += int(np.count_nonzero(rate < rs))
            n_effective += int(np.count_nonzero(keep))
        return n_outage / n_effective, n_effective

    def test_one_pass_equals_separate_estimates(self):
        sc = scen(lam=5e-5)
        trials = 2 * montecarlo.BLOCK + 5  # a partial last block
        powers = (40.0, 60.0, 80.0)
        memoryless, rejection = hop_sop_estimates(1.0, 10.0, sc, trials, 43, powers)
        assert memoryless == estimate_hop_sop(1.0, 10.0, sc, trials, 43)
        assert len(rejection) == len(powers)
        for pdb, est in zip(powers, rejection):
            sc_p = replace(sc, power_db=pdb)
            assert est == estimate_hop_sop(1.0, 10.0, sc_p, trials, 43, "rejection")
            assert (est.mean, est.trials) == self.rejection_reference(1.0, 10.0, sc_p,
                                                                      trials, 43)
            assert 0 < est.trials <= trials
        # the lowest power loses trials to the on-off filter, so the
        # rejection rule is exercised on a strict subset
        assert rejection[0].trials < trials

    def test_no_survivors_at_one_power(self):
        with pytest.raises(MonteCarloError):
            hop_sop_estimates(40.0, 10.0, scen(), 500, 1, (0.0, 200.0))


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
        shifted = build_topology([Node(i, x + 5000.0, y + 5000.0)
                                  for i, (x, y) in zip(base.order, base.xy.tolist())])
        sc = scen(lam=1e-4)
        a = estimate_path_sop(1.0, base.path((1, 3, 5)), base, sc, 20000, seed=31)
        p = shifted.path((1, 3, 5))
        b = estimate_path_sop(1.0, p, shifted, sc, 20000, seed=31)
        assert b == a
        assert abs(b.mean - analytics.path_sop(1.0, p, sc)) <= 3 * b.stderr

    def test_hop_sop_is_one_hop_path_case(self):
        # the memoryless hop estimator and the path estimator share one
        # block driver; a partial final block runs too
        topo = self.topo()
        sc = scen(lam=5e-5)
        trials = 2 * montecarlo.BLOCK + 5
        hop = estimate_hop_sop(1.0, 10.0, sc, trials, seed=41)
        path = estimate_path_sop(1.0, topo.path((0, 1)), topo, sc, trials, seed=41)
        assert hop == path

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
        violations = power_invariance_check(1.0, 10.0, scen(lam=5e-5),
                                            (60.0, 80.0, 100.0), 60000, seed=31)
        assert not violations, violations

    def test_single_power_trivially_passes(self):
        violations = power_invariance_check(1.0, 10.0, scen(), (80.0,), 2000, seed=1)
        assert not violations

    def test_zero_density_all_zero(self):
        _, estimates = hop_sop_estimates(1.0, 10.0, scen(lam=0.0), 2000, 1, (60.0, 80.0))
        assert all(e.mean == 0.0 for e in estimates)
