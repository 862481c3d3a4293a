import math
import statistics
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from secroute import Node, Path, Scenario, Topology
from secroute import analytics, montecarlo
from secroute.montecarlo import (
    MonteCarloError,
    _block_draws,
    block_rng,
    block_rngs,
    estimate_path_sops,
    hop_sop_estimates,
    power_invariance_report,
)
from secroute.cli import main
from secroute.experiments import (
    FIG_PATHS,
    ExperimentConfig,
    placements,
    run_sop_curve,
    run_table_one,
    run_validate,
    six_node_topology,
)
from secroute.netmodel import NetModelError
from secroute.routing import solve_secure_route

import oracles


def scen(lam=1e-5, eps=0.1, alpha=4.0, power=80.0, window=2000.0):
    half = window / 2.0
    return Scenario(alpha, lam, eps, power, (-half, half, -half, half))


class TestSamplePpp:
    """The PPP sampler behind every estimate, `_block_draws`."""

    def test_zero_density_empty(self):
        interference, h = block_draws(block_rng(0, 0, 0), scen(lam=0.0), 1000.0, 10.0, 5000)
        assert len(interference) == len(h) == 5000
        assert np.all(interference == 0.0)

    def test_poisson_count_statistics(self):
        # lambda * pi R^2 = 1: a trial's field is empty with probability
        # e^-1, and only an empty field gives zero interference
        radius = 1000.0
        sc = scen(lam=1.0 / (math.pi * radius * radius))
        assert sc.lambda_e * math.pi * radius * radius == pytest.approx(1.0, rel=1e-15)
        n = 100000
        interference, _ = block_draws(block_rng(1, 0, 0), sc, radius, 10.0, n)
        p = math.exp(-1.0)
        share = np.count_nonzero(interference == 0.0) / n
        assert abs(share - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def block_draws(rng, scenario, radius, unit, n):
    """`_block_draws` as `hop_sop_estimates` runs it: into chunk buffers of
    its own, with overflow and division by zero ignored."""
    with np.errstate(over="ignore", divide="ignore"):
        return _block_draws(rng, scenario, radius, unit, n, montecarlo._chunk_buffers())


def point_sums(rng, scenario, radius, unit, n, gains):
    """`_point_sums` as the estimators run it, as `block_draws` runs
    `_block_draws`."""
    with np.errstate(over="ignore", divide="ignore"):
        return montecarlo._point_sums(rng, scenario, radius, unit, n, gains,
                                      montecarlo._chunk_buffers())


def block_points_reference(rng, scenario, radius, unit, n):
    """The stream layout of `_block_draws`, one expression per array, for
    the block's n disks laid end to end in (r/rho)^2 space, rho = `unit`:
    each point's u word, trial, (r/rho)^2 and gain, and the trials'
    legitimate gains h."""
    total = rng.poisson(scenario.lambda_e * math.pi * (radius * radius) * n)
    u, w = rng.random((total, 2)).T
    s = n * u
    trial = np.floor(s).astype(np.intp)
    reach = radius / unit
    r2 = (s - trial) * (reach * reach)
    gains = -np.log1p(-w)
    h = -np.log1p(-rng.random(n))
    return u, trial, r2, gains, h


def block_draws_reference(rng, scenario, radius, unit, n):
    """`_block_draws` in one pass, without buffer reuse."""
    _, trial, r2, gains, h = block_points_reference(rng, scenario, radius, unit, n)
    contrib = gains * r2 ** (-scenario.alpha / 2.0)
    return np.bincount(trial, weights=contrib, minlength=n), h


def window_cap(scenario):
    """Radius of the disk inscribed in the scenario's window."""
    xmin, xmax, ymin, ymax = scenario.sim_window
    return min(xmax - xmin, ymax - ymin) / 2.0


def outage_radius(rs, dist, scenario):
    """A hop's outage radius rho = 2^(rs/alpha) d."""
    return 2.0 ** (rs / scenario.alpha) * dist


def first_term(rs, dist, scenario, radius):
    """2 pi lambda rho^2 (R/rho)^(2 - alpha) / (alpha - 2): the far field's
    exponent beyond `radius` to first order in (R/rho)^-alpha, and a bound
    on it, since 1 / (1 + (r/rho)^alpha) < (r/rho)^-alpha."""
    a, rho = scenario.alpha, outage_radius(rs, dist, scenario)
    return 2.0 * math.pi * scenario.lambda_e * rho * rho * (radius / rho) ** (2.0 - a) / (a - 2.0)


def hop_exponent(rs, dist, scenario):
    """The hop's closed-form outage exponent K1 rho^2."""
    k1 = analytics.k1(scenario.alpha, scenario.lambda_e)
    return k1 * 2.0 ** (2.0 * rs / scenario.alpha) * dist ** 2


def hop_radius(rs, dist, scenario):
    """The disk radius of a one-hop estimate."""
    return montecarlo._hop_fields(rs, [dist], scenario)[0][0]


def mapped(m, tail):
    """A simulated fraction m with the far field's exponent `tail` added."""
    return -math.expm1(-tail) + math.exp(-tail) * m


class TestBlockDrawsInPlace:
    """The chunked `_block_draws` returns exactly the reference's draws, at
    the default RUN_POINTS and in chunks of 1 and 7 points. Short chunks
    split trials across chunks and leave the last chunk short; they run
    only on blocks expecting at most SHORT_RUN_POINTS points, as one Python
    iteration per chunk would take seconds on the denser ones."""

    SHORT_RUN_POINTS = 10_000

    @staticmethod
    def assert_matches(key, sc, radius, n):
        # in units of an outage radius of 10
        got = block_draws(block_rng(*key), sc, radius, 10.0, n)
        want = block_draws_reference(block_rng(*key), sc, radius, 10.0, n)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("lam", [0.0, 1e-5, 1e-4])
    @pytest.mark.parametrize("n", [1, montecarlo.BLOCK])
    def test_matches_reference(self, alpha, lam, n, max_points=math.inf):
        sc = scen(lam=lam, alpha=alpha)
        radii = [r for r in (37.5, 1000.0) if lam * math.pi * r * r * n <= max_points]
        assert radii
        for radius in radii:
            self.assert_matches((3, 1, 2), sc, radius, n)

    @pytest.mark.parametrize("n", [1, montecarlo.BLOCK])
    def test_matches_reference_off_origin_window(self, n):
        # a window off the origin: its inscribed disk, of the shorter side
        sc = Scenario(3.0, 5e-5, 0.1, 80.0, (4000.0, 5500.0, -700.0, 300.0))
        assert window_cap(sc) == 500.0
        self.assert_matches((4, 0, 1), sc, 500.0, n)

    @pytest.mark.parametrize("run_points", [1, 7])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("lam", [0.0, 1e-5, 1e-4])
    @pytest.mark.parametrize("n", [1, montecarlo.BLOCK])
    def test_matches_reference_in_short_runs(self, alpha, lam, n, run_points, monkeypatch):
        monkeypatch.setattr(montecarlo, "RUN_POINTS", run_points)
        self.test_matches_reference(alpha, lam, n, self.SHORT_RUN_POINTS)

    @pytest.mark.parametrize("run_points", [1, 7])
    @pytest.mark.parametrize("n", [1, 128])
    def test_off_origin_window_in_short_runs(self, n, run_points, monkeypatch):
        # 128 trials expect 5 027 points on the R = 500 disk
        monkeypatch.setattr(montecarlo, "RUN_POINTS", run_points)
        self.test_matches_reference_off_origin_window(n)

    def test_dense_block_memory_bounded(self):
        # lambda = 1e-2 fills the R = 1000 disk with 31 416 expected points a
        # trial: 64 trials hold 2.0 M points, 16 MB per point-sized array;
        # drawn in chunks, the block holds a few chunk-sized buffers
        sc = scen(lam=1e-2)
        tracemalloc.start()
        try:
            interference, _ = block_draws(block_rng(6, 0, 0), sc, 1000.0, 10.0, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(interference > 0.0)
        assert peak < 4 * 2 ** 20


class TestSamplerStatistics:
    """The block's disks laid end to end give each trial an independent
    Poisson(mu) count and every point an r^2 in [0, R^2). The seeds were
    fixed before the first run."""

    @pytest.mark.parametrize("mu,seed", [(0.05, 2301), (1.0, 2302), (12.0, 2303)])
    def test_trial_counts_are_poisson(self, mu, seed):
        n = montecarlo.BLOCK
        field = SimpleNamespace(lambda_e=mu / math.pi, alpha=0.0)
        _, trial, _, _, _ = block_points_reference(block_rng(seed, 0, 0), field, 1.0, 1.0, n)
        counts = np.bincount(trial, minlength=n)
        # at alpha = 0 each point adds its gain to its trial's sum, so the
        # sampler's empty trials are the reference's
        sums, _ = block_draws(block_rng(seed, 0, 0), field, 1.0, 1.0, n)
        assert np.array_equal(sums == 0.0, counts == 0)
        # chi-square over bins that each expect >= 5 trials, the last open
        # above, against Poisson(mu) with mu known
        top = int(mu + 20.0 * math.sqrt(mu) + 20.0)
        expected = n * stats.poisson.pmf(np.arange(top + 1), mu)
        observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
        bins_e, bins_o, acc_e, acc_o = [], [], 0.0, 0
        for e, o in zip(expected, observed):
            acc_e, acc_o = acc_e + e, acc_o + o
            if acc_e >= 5.0:
                bins_e.append(acc_e)
                bins_o.append(acc_o)
                acc_e, acc_o = 0.0, 0
        bins_e[-1] += acc_e + n * stats.poisson.sf(top, mu)
        bins_o[-1] += acc_o
        bins_e, bins_o = np.array(bins_e), np.array(bins_o)
        assert len(bins_e) >= 3 and bins_o.sum() == n
        chi2 = float(((bins_o - bins_e) ** 2 / bins_e).sum())
        assert chi2 <= stats.chi2.isf(1e-4, len(bins_e) - 1), (chi2, bins_o, bins_e)
        # neighbouring trials share the block's total, yet are independent
        lag1 = float(np.corrcoef(counts[:-1], counts[1:])[0, 1])
        assert abs(lag1) <= 4.0 / math.sqrt(n), lag1

    def test_last_word_floors_to_last_trial(self):
        # the largest uniform double, 1 - 2^-53, lands in the block's last
        # trial for every block size, with r^2 below R^2
        u = np.nextafter(1.0, 0.0)
        assert u == 1.0 - 2.0 ** -53
        n = np.arange(1, montecarlo.BLOCK + 1)
        s = u * n
        trial = np.floor(s)
        assert np.array_equal(trial, n - 1)
        for radius in (1e-3, 1.0, 37.5, 42.43, 500.0, 1000.0, math.sqrt(2.0) * 1e5):
            r2 = (s - trial) * (radius * radius)
            assert np.all(r2 < radius * radius)

    @pytest.mark.parametrize("radius", [37.5, 500.0, 1000.0])
    def test_every_r2_within_disk(self, radius):
        sc = scen(lam=1e-5 * (1000.0 / radius) ** 2)
        _, trial, r2, _, _ = block_points_reference(block_rng(2304, 0, 0), sc, radius, 10.0,
                                                    montecarlo.BLOCK)
        assert len(r2) > 100_000
        assert r2.min() >= 0.0 and r2.max() < (radius / 10.0) ** 2
        assert trial.min() >= 0 and trial.max() < montecarlo.BLOCK

    @pytest.mark.parametrize("seed", [2305, 2306])
    def test_gains_are_exponential_and_apart_from_u(self, seed):
        # each point reads its gain from the word after its u word: the gains
        # are Exp(1) by a Kolmogorov-Smirnov test at level 1e-4, and each is
        # uncorrelated with its own u within 4 / sqrt(points)
        u, _, _, gains, _ = block_points_reference(block_rng(seed, 0, 0), scen(lam=1e-5),
                                                   1000.0, 10.0, montecarlo.BLOCK)
        assert len(gains) > 100_000
        assert stats.kstest(gains, "expon").pvalue >= 1e-4
        corr = float(np.corrcoef(u, gains)[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(len(gains)), corr


class TestBlockPoints:
    """Every block holds BLOCK trials, however dense the field, and a disk
    expecting more than TRIAL_POINTS points in one trial is an input error.
    The draws are stubbed, so no case allocates a point."""

    @staticmethod
    def record_draws(monkeypatch):
        calls = []

        def draws(rng, scenario, radius, unit, n, buffers):
            calls.append((n, radius))
            return np.zeros(n), np.zeros(n)

        monkeypatch.setattr(montecarlo, "_block_draws", draws)
        return calls

    def test_dense_field_keeps_full_blocks(self, monkeypatch):
        # lambda = 1 puts 5 649 expected points on the R = 42.4 disk of a
        # 10 m hop at alpha = 4 each trial, 9.3e7 in a block of BLOCK trials
        calls = self.record_draws(monkeypatch)
        sc = scen(lam=1.0)
        radius = hop_radius(1.0, 10.0, sc)
        assert radius == pytest.approx(42.43, abs=0.01)
        assert sc.lambda_e * math.pi * radius ** 2 <= montecarlo.TRIAL_POINTS
        hop_sop_estimates(1.0, 10.0, sc, 100000, 1, [])
        full, last = divmod(100000, montecarlo.BLOCK)
        assert calls == [(montecarlo.BLOCK, radius)] * full + [(last, radius)]

    def test_one_trial_over_the_cap_exits_2(self, monkeypatch, tmp_path, capsys):
        # 5.6e7 expected points on one trial's disk: no block size fits
        calls = self.record_draws(monkeypatch)
        f = tmp_path / "v.cfg"
        f.write_text("lambda_e = 1e4\ntrials = 100\n")
        assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 2
        err = capsys.readouterr().err
        assert not calls and "lambda_e = 10000" in err and "window" in err

    def test_empty_powers_exits_2_before_any_draw(self, monkeypatch, tmp_path, capsys):
        calls = self.record_draws(monkeypatch)
        f = tmp_path / "v.cfg"
        f.write_text("powers =\ntrials = 100\n")
        assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 2
        assert not calls
        assert capsys.readouterr().err == "error: need at least one power level\n"


def c_alpha(alpha):
    """The radius factor (2 / (TAIL_SHARE (a - 2) G(1 + 2/a) G(1 - 2/a)))^(1/(a - 2))."""
    g = math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)
    return (2.0 / (montecarlo.TAIL_SHARE * (alpha - 2.0) * g)) ** (1.0 / (alpha - 2.0))


class TestDiskSizing:
    """Each hop's disk is the smallest, within the cap, on which the far
    field's first term is at most TAIL_SHARE of the hop's closed-form
    exponent: R = min(cap, c_alpha rho), rho = 2^(rs/alpha) d."""

    @pytest.mark.parametrize("alpha,lam,trials", [
        (4.0, 1e-6, 8192), (4.0, 1e-4, 100000), (3.0, 1e-5, 1000),
        (3.0, 1e-4, 100000), (2.5, 1e-4, 100000), (2.05, 1e-6, 500), (6.0, 5e-5, 20000),
        # c_alpha < 2^(1/alpha), so (R/rho)^-alpha > 1/2
        (30.0, 1e-4, 1000)])
    @pytest.mark.parametrize("seq", FIG_PATHS)
    def test_smallest_radius_within_cap(self, alpha, lam, trials, seq):
        topo = six_node_topology()
        sc = scen(lam=lam, alpha=alpha)
        dists = [math.sqrt(topo.path(hop).sum_sq_dist) for hop in zip(seq, seq[1:])]
        radii, units, tail = montecarlo._hop_fields(1.0, dists, sc)
        assert units == pytest.approx([outage_radius(1.0, d, sc) for d in dists], rel=1e-14)
        # the radii depend on the density in no way, and the rule takes no
        # trial count
        assert montecarlo._hop_fields(1.0, dists, scen(lam=0.3, alpha=alpha))[0] == radii
        cap = window_cap(sc)

        def within(d, radius):  # the rule's condition
            share = montecarlo.TAIL_SHARE * hop_exponent(1.0, d, sc)
            return first_term(1.0, d, sc, radius) <= share

        terms = 0.0
        for d, radius in zip(dists, radii):
            first = first_term(1.0, d, sc, radius)
            assert 0.0 < radius <= cap
            if radius < cap:
                assert within(d, radius * (1.0 + 1e-9))
                assert not within(d, radius * (1.0 - 1e-6))
                assert first == pytest.approx(
                    montecarlo.TAIL_SHARE * hop_exponent(1.0, d, sc), rel=1e-9)
                assert radius == pytest.approx(c_alpha(alpha) * outage_radius(1.0, d, sc),
                                               rel=1e-12)
            else:
                assert not within(d, cap * (1.0 - 1e-9))
            if alpha == 30.0:
                assert (radius / outage_radius(1.0, d, sc)) ** -alpha > 0.5
            terms += first
        # the first term bounds each hop's tau
        assert 0.0 < tail <= terms

    def test_path_estimate_carries_bound(self):
        topo = six_node_topology()
        sc = scen(lam=1e-4)
        path = topo.path((1, 2, 3, 5))
        dists = [math.sqrt(topo.path(hop).sum_sq_dist) for hop in zip((1, 2, 3), (2, 3, 5))]
        radii, _, tail = montecarlo._hop_fields(1.0, dists, sc)
        est = estimate_path_sops(1.0, topo, 8192, [(path, sc, 1)])[0]
        assert est.tail == tail > 0.0
        # each hop's tau is at most TAIL_SHARE of its closed-form exponent
        assert tail <= sum(first_term(1.0, d, sc, r) for d, r in zip(dists, radii))
        assert tail <= montecarlo.TAIL_SHARE * -math.log1p(-analytics.path_sop(1.0, path, sc))
        assert est.covers(analytics.path_sop(1.0, path, sc))

    def test_zero_density_has_no_bias(self):
        topo = six_node_topology()
        sc = scen(lam=0.0)
        est = estimate_path_sops(1.0, topo, 100, [(topo.path((1, 2, 3, 5)), sc, 1)])[0]
        assert est.tail == 0.0 and est.mean == 0.0
        memoryless, rejection = hop_sop_estimates(1.0, 10.0, sc, 100, 1, [80.0])
        assert memoryless.tail == rejection[0].tail == 0.0
        assert hop_radius(1.0, 10.0, sc) == hop_radius(1.0, 10.0, scen(lam=1e-4)) < window_cap(sc)

    def test_alpha_near_two_reaches_cap(self):
        # c_alpha^(alpha - 2) = 2 / (TAIL_SHARE (alpha - 2) G) overflows a
        # float; the radius, computed in logs, stops at the cap, and the far
        # field then carries the certain outage the closed form gives
        sc = scen(lam=1e-4, alpha=2.0 + 1e-9)
        assert hop_radius(1.0, 10.0, sc) == window_cap(sc)
        est = hop_sop_estimates(1.0, 10.0, sc, 1000, 2, [])[0]
        assert est.tail > 1e6 and est.mean == 1.0 and est.stderr == 0.0
        assert est.covers(analytics.hop_sop(1.0, 10.0, sc))

    def test_tail_shared_by_every_mode(self):
        sc = scen(lam=5e-5, alpha=3.0)
        memoryless, rejection = hop_sop_estimates(1.0, 10.0, sc, 3000, 5, (60.0, 80.0))
        _, _, tail = montecarlo._hop_fields(1.0, [10.0], sc)
        assert memoryless.tail == tail > 0.0
        assert all(est.tail == tail for est in rejection)


class TestZeroStderr:
    """A stderr of 0 (no trial, or every trial, in outage) is read as the
    binomial stderr of the simulated disks at the closed form p, mapped by
    the far field: exp(-tail) sqrt(m (1 - m) / trials),
    m = (p - (1 - exp(-tail))) exp(tail)."""

    def test_binomial_stderr_stands_in(self):
        # no outage in 100 trials: p = 1e-4 lies 1e-4 / 1e-3 = 0.1 binomial
        # stderrs above, p = 0.5 lies 10 above
        est = montecarlo.SopEstimate(0.0, 0.0, 100, 1e-9)
        assert est.covers(1e-4)
        assert not est.covers(0.5)
        # where the closed form is certain, the binomial stderr is 0 too
        assert not est.covers(1.0) and est.covers(0.0)

    def test_large_tail_maps_the_stderr(self):
        # tail ln 10: no outage in 100 trials reads mean 0.9, and p = 0.95
        # asks the disks for m = 0.5, whose stderr 0.05 maps to 0.005, so p
        # lies 10 stderrs above; sqrt(p (1 - p) / trials) = 0.0218 would cover it
        est = montecarlo.SopEstimate(0.9, 0.0, 100, math.log(10.0))
        assert est.mean + 3.0 * math.sqrt(0.95 * 0.05 / 100) >= 0.95
        assert not est.covers(0.95)
        assert est.covers(0.9 + 1e-4) and est.covers(0.9)

    @pytest.mark.parametrize("window", [1e-6, 1e-300])
    def test_rounding_widens_empty_disks(self, window, tmp_path, capsys):
        # the disks are so small that no trial draws a point and they hold
        # next to none of the exponent: the mean is the mapped 0, a few ulp
        # from the closed form, and the binomial stand-in is that of
        # m = (p - (1 - exp(-tail))) exp(tail), what rounding leaves of p:
        # m is about 3e-18 at window 1e-6, and clamps to 0 at 1e-300, where
        # p lies below the mapped 0
        sc = scen(window=window)
        _, _, tail = montecarlo._hop_fields(1.0, [10.0], sc)
        memoryless, _ = hop_sop_estimates(1.0, 10.0, sc, 5000, 1, [])
        p = analytics.hop_sop(1.0, 10.0, sc)
        assert memoryless.mean == mapped(0.0, tail) != p
        assert abs(memoryless.mean - p) <= 8 * math.ulp(p)
        assert memoryless.stderr == 0.0
        want = {1e-6: 2.934841752779632e-11, 1e-300: 0.0}[window]
        assert memoryless._stderr_at(p) == pytest.approx(want, rel=1e-9, abs=0.0)
        assert memoryless.covers(p)
        f = tmp_path / "v.cfg"
        f.write_text(f"window = {window!r}\ntrials = 5000\n")
        assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "memoryless: mc=0.00695457 analytic=0.00695457 [pass]"
        assert all(line.endswith("[pass]") for line in lines[:5])

    def test_rounding_term_is_small(self):
        # below the mapped 0 the stand-in is 0, and the interval is the
        # rounding term TAIL_RTOL tail alone, 5e-14 at a tail of 0.5
        mean = mapped(0.0, 0.5)
        est = montecarlo.SopEstimate(mean, 0.0, 100, 0.5)
        assert est._stderr_at(mean - 1e-13) == 0.0
        assert not est.covers(mean - 1e-13) and est.covers(mean - 4e-14)

    def test_positive_stderr_kept(self):
        est = montecarlo.SopEstimate(0.1, 0.015, 100, 0.0)
        assert est.covers(0.14) and not est.covers(0.16)
        assert est.covers(0.06) and not est.covers(0.05)


class TestFarField:
    """The far field's exponent and the map it puts on an estimate, at any
    disk radius."""

    @pytest.mark.parametrize("alpha,lam,dist,window,want", [
        # the two values checked against quadrature when the bias was found
        (2.5, 1e-4, 10.0, 2000.0, 2.5132657e-2), (2.5, 1e-4, 10.0, 400.0, 5.6188052e-2),
        (3.0, 1e-4, 10.0, 2000.0, None), (3.0, 1e-5, 30.0, 2000.0, None),
        (4.0, 1e-4, 20.0, 2000.0, None), (4.0, 1e-4, 10.0, 60.0, None),
        (8.0, 1e-4, 10.0, 2000.0, None), (30.0, 1e-4, 10.0, 2000.0, None),
        # windows of side 10 and 20 cap the disk where x = (R/rho)^-alpha > 1
        (3.0, 1e-5, 10.0, 10.0, None), (4.0, 1e-5, 10.0, 10.0, None),
        (2.05, 1e-4, 10.0, 20.0, None), (50.0, 1e-4, 10.0, 20.0, None)])
    def test_tail_matches_quadrature(self, alpha, lam, dist, window, want):
        sc = scen(lam=lam, alpha=alpha, window=window)
        rho = outage_radius(1.0, dist, sc)
        (radius,), (unit,), tau = montecarlo._hop_fields(1.0, [dist], sc)
        assert unit == pytest.approx(rho, rel=1e-15)
        got = oracles.far_field_integral(rho, radius, sc)
        assert tau == pytest.approx(got, rel=1e-10)
        if window <= 20.0:
            assert radius == window_cap(sc) and (radius / rho) ** -alpha > 1.0
        if want is not None:
            assert radius == window_cap(sc)
            assert tau == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("alpha,dist", [(1e300, 0.5), (1e308, 0.01)])
    def test_underflowing_theta_keeps_tail_finite(self, alpha, dist):
        # theta = 2 d^alpha underflows to 0, and at alpha = 1e308 so does its
        # log, while rho = 2^(1/alpha) d rounds to d: the disk is the ball of
        # radius rho, inside which an eavesdropper puts the hop in outage,
        # and tau is a finite share of the exponent no larger than TAIL_SHARE
        sc = scen(lam=1e-5, alpha=alpha)
        assert 2.0 * dist ** alpha == 0.0
        (radius,), (rho,), tail = montecarlo._hop_fields(1.0, [dist], sc)
        assert rho == pytest.approx(dist, rel=1e-15)
        assert radius == pytest.approx(c_alpha(alpha) * rho, rel=1e-15) == pytest.approx(rho)
        assert 0.0 <= tail <= montecarlo.TAIL_SHARE * hop_exponent(1.0, dist, sc)

    def test_map_on_hand_counts(self, monkeypatch):
        # stubbed draws of three kinds: 5 trials with no interference and a
        # huge gain (no outage, kept by the on-off filter), 3 with a huge
        # interference (outage, kept) and 2 with h = I = 0 (a memoryless
        # outage, h <= I, that the filter drops)
        interference = np.array([0.0] * 5 + [1e9] * 3 + [0.0] * 2)
        h = np.array([1e9] * 5 + [1e3] * 3 + [0.0] * 2)
        monkeypatch.setattr(montecarlo, "_block_draws",
                            lambda rng, sc, radius, unit, n, buffers: (interference[:n], h[:n]))
        sc = scen(lam=1e-4)
        _, _, tail = montecarlo._hop_fields(1.0, [10.0], sc)
        memoryless, (rejection,) = hop_sop_estimates(1.0, 10.0, sc, 10, 3, [80.0])
        keep = math.exp(-tail)
        assert 0.0 < tail < 0.05
        assert memoryless == montecarlo.SopEstimate(
            mapped(5 / 10, tail), keep * math.sqrt(0.5 * 0.5 / 10), 10, tail)
        assert rejection == montecarlo.SopEstimate(
            mapped(3 / 8, tail), keep * math.sqrt(3 / 8 * 5 / 8 / 8), 8, tail)
        assert mapped(5 / 10, tail) == pytest.approx(1.0 - keep * 0.5, rel=1e-15)

    def test_capped_disk_is_exact(self, tmp_path, capsys):
        # a window of side 10 caps the disk at R = 5, where x = (R/rho)^-4
        # = 32 for a 10 m hop: the far field, most of the hop's exponent, is
        # added exactly, and validate's rows pass
        sc = scen(lam=1e-5, window=10.0)
        radii, (rho,), tail = montecarlo._hop_fields(1.0, [10.0], sc)
        assert radii == [5.0] and (5.0 / rho) ** -4 == pytest.approx(32.0, rel=1e-14)
        assert tail == pytest.approx(oracles.far_field_integral(rho, 5.0, sc), rel=1e-10)
        assert tail > 0.85 * hop_exponent(1.0, 10.0, sc)
        f = tmp_path / "v.cfg"
        f.write_text("window = 10\ntrials = 5000\n")
        out = tmp_path / "v.csv"
        assert main(["validate", "--config", str(f), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and all(line.endswith("[pass]") for line in lines[:5])
        assert lines[0] == "memoryless: mc=0.00757365 analytic=0.00695457 [pass]"

    def test_huge_alpha_short_hop(self, tmp_path, capsys):
        # at alpha = 1e300 a hop of length 0.5 has d^alpha = 0, and
        # (r/rho)^-alpha, rho = 2^(1/alpha) d = d, is 0 beyond the hop's length
        # and inf within it: the outage tests read I in units of rho, so the
        # estimate is the share of trials with an eavesdropper closer than d,
        # and no warning is raised
        f = tmp_path / "v.cfg"
        f.write_text("alpha = 1e300\ndist = 0.5\nlambda_e = 1e-2\ntrials = 20000\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and all(line.endswith("[pass]") for line in lines[:5])
        assert lines[0] == "memoryless: mc=0.00895 analytic=0.00782322 [pass]"


    def test_disk_holds_rho_at_alpha_1e308(self, tmp_path, capsys):
        # at alpha = 1e308 a hop of length 0.01 has log(2 d^alpha) = -inf,
        # while its outage radius rho = 2^(1/alpha) d rounds to d: the disk
        # holds the ball of radius rho, inside which an eavesdropper puts the
        # hop in outage, so the estimate is the share of trials with one
        # there, 1 - exp(-pi lambda rho^2) = 0.0899
        f = tmp_path / "v.cfg"
        f.write_text("alpha = 1e308\ndist = 0.01\nlambda_e = 300\ntrials = 20000\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and all(line.endswith("[pass]") for line in lines[:5])
        assert lines[0] == "memoryless: mc=0.09355 analytic=0.0899428 [pass]"


def hop_field_reference(log_rho, scenario, cap):
    """One hop's disk radius, outage radius and far-field exponent as
    `montecarlo._hop_fields` gives them, with every alpha-only term
    recomputed per hop and the share summed uncached."""
    lam, alpha = scenario.lambda_e, scenario.alpha
    log_gammas = math.lgamma(1.0 + 2.0 / alpha) + math.lgamma(1.0 - 2.0 / alpha)
    log_c = (math.log(2.0) - math.log(montecarlo.TAIL_SHARE) - math.log(alpha - 2.0)
             - log_gammas) / (alpha - 2.0)
    log_reach = min(log_c, math.log(cap) - log_rho)
    radius = cap if log_reach < log_c else math.exp(log_c + log_rho)
    rho = math.exp(log_rho) if log_rho < montecarlo._LOG_MAX else math.inf
    if lam == 0.0:
        return radius, rho, 0.0
    exponent = math.pi * lam * math.exp(log_gammas) * rho * rho
    share = montecarlo._beta_share.__wrapped__(-alpha * log_reach, (alpha - 2.0) / alpha,
                                                2.0 / alpha)
    return radius, rho, exponent * share


class TestFieldConstants:
    """The far field's per-alpha factors and uncapped share are computed
    once per alpha and cached; every hop's radius, unit and tail keep the
    bits of the per-hop formula."""

    @pytest.mark.parametrize("window", [2000.0, 10.0])
    @pytest.mark.parametrize("alpha", [2.0001, 2.5, 3.0, 4.0, 8.0, 400.0, 1e300])
    def test_bit_identical_to_per_hop_formula(self, alpha, window):
        dists = [0.5, 3.0, 10.0, 10.0, 37.7, 50.0]
        for lam in (1e-5, 3e-3):
            sc = scen(lam=lam, alpha=alpha, window=window)
            radii, units, tail = [], [], 0.0
            for dist in dists:
                log_rho = 1.0 * montecarlo._LN2 / alpha + math.log(dist)
                radius, rho, tau = hop_field_reference(log_rho, sc, window_cap(sc))
                radii.append(radius)
                units.append(rho)
                tail += tau
            # the first call fills the caches, the second reads them
            montecarlo._field_constants.cache_clear()
            montecarlo._beta_share.cache_clear()
            for _ in range(2):
                got = montecarlo._hop_fields(1.0, dists, sc)
                assert got[0] == radii and got[1] == units
                assert got[2] == tail
        if window == 10.0:  # the cap binds on the longer hops
            assert radii[-1] == 5.0


class TestTruncationBias:
    """The far field's exponent against a coupled run on two radii: the
    annulus between them flips a trial with no outage on the inner disk to
    outage with probability 1 - exp(-(tau(inner) - tau(outer))), by the
    memoryless legitimate gain, and each tau lies below its first term."""

    @pytest.mark.parametrize("alpha,lam,inner,outer", [
        (2.5, 1e-4, 30.0, 300.0), (3.0, 2e-4, 20.0, 200.0), (4.0, 1e-3, 8.0, 80.0)])
    def test_gap_within_bound(self, alpha, lam, inner, outer):
        # the points of the R' run inside R are a PPP on the disk of R, so
        # both runs share them and the outer run only adds interference;
        # squared distances are in units of the outage radius rho
        sc = scen(lam=lam, alpha=alpha)
        rs, d, n = 1.0, 10.0, 50000
        rho = outage_radius(rs, d, sc)
        rng = np.random.default_rng(2718)
        counts = rng.poisson(lam * math.pi * outer * outer, n)
        r2 = (outer / rho) ** 2 * rng.random(counts.sum())
        contrib = -np.log1p(-rng.random(counts.sum())) * r2 ** (-alpha / 2.0)
        idx = np.repeat(np.arange(n), counts)
        i_inner = np.bincount(idx, weights=np.where(r2 < (inner / rho) ** 2, contrib, 0.0),
                              minlength=n)
        i_outer = np.bincount(idx, weights=contrib, minlength=n)
        h = -np.log1p(-rng.random(n))
        flipped = (h <= i_outer) & ~(h <= i_inner)
        assert not np.any((h <= i_inner) & ~(h <= i_outer))
        gap = flipped.mean()
        sigma = math.sqrt(gap * (1.0 - gap) / n)
        bound = first_term(rs, d, sc, inner) - first_term(rs, d, sc, outer)
        assert 0.0 < gap <= bound + 3.0 * sigma
        # the annulus law, among the trials with no outage on the inner disk
        annulus = (oracles.far_field_integral(rho, inner, sc)
                   - oracles.far_field_integral(rho, outer, sc))
        q = -math.expm1(-annulus)
        survivors = int(np.count_nonzero(~(h <= i_inner)))
        share = int(np.count_nonzero(flipped)) / survivors
        assert abs(share - q) <= 3.0 * math.sqrt(q * (1.0 - q) / survivors), (share, q)


class TestSmallAlpha:
    """Monte Carlo against the closed form away from alpha = 4 and the origin,
    with the far field added exactly whether or not the window caps the disk."""

    @staticmethod
    def check(est, p):
        assert est.mean - 3.0 * est.stderr <= p <= est.mean + 3.0 * est.stderr
        assert est.covers(p) and est.tail > 0.0

    @pytest.mark.parametrize("alpha,lam,at_cap", [
        # the disk reaches the cap, so the tail carries more than TAIL_SHARE
        # of the hop's exponent (11 %)
        (2.5, 1e-4, True),
        # the disk stops at TAIL_SHARE, R = 208, well inside the cap
        (3.0, 1e-4, False), (3.0, 1e-5, False)])
    def test_hop_estimate(self, alpha, lam, at_cap):
        sc = scen(lam=lam, alpha=alpha)
        assert (hop_radius(1.0, 10.0, sc) == window_cap(sc)) is at_cap
        memoryless, (rejection,) = hop_sop_estimates(1.0, 10.0, sc, 50000, 61, [80.0])
        p = analytics.hop_sop(1.0, 10.0, sc)
        for est in (memoryless, rejection):
            self.check(est, p)

    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    def test_capped_hop_estimate(self, alpha):
        # a window of side 10 caps the disk at R = 5, where x = (R/rho)^-alpha
        # > 1, so the far field carries most of the exponent; lambda_e puts
        # the closed form at 0.3 to 0.5
        sc = scen(lam=3e-4, alpha=alpha, window=10.0)
        radii, (rho,), tail = montecarlo._hop_fields(1.0, [10.0], sc)
        assert radii == [5.0] and (5.0 / rho) ** -alpha > 1.0
        memoryless, (rejection,) = hop_sop_estimates(1.0, 10.0, sc, 50000, 63, [80.0])
        p = analytics.hop_sop(1.0, 10.0, sc)
        assert 0.2 < p < 0.6 and tail > 0.5 * -math.log1p(-p)
        for est in (memoryless, rejection):
            self.check(est, p)

    def test_off_origin_path(self):
        topo = Topology([Node(0, 3000.0, -4000.0), Node(1, 3006.0, -3992.0),
                         Node(2, 3012.0, -3984.0)])
        sc = scen(lam=3e-5, alpha=3.0)
        path = topo.path((0, 1, 2))
        est = estimate_path_sops(1.0, topo, 50000, [(path, sc, 62)])[0]
        self.check(est, analytics.path_sop(1.0, path, sc))


class TestUnbiased:
    """With the far field added exactly, no truncation bias is left: over K
    independent seeds the z-scores against the closed form average to 0
    within 3 / sqrt(K). K and the seeds were fixed before any z was seen."""

    K = 20
    SEEDS = range(7000, 7020)

    @pytest.mark.parametrize("alpha,lam,dist", [
        # the disk reaches the cap; the old rule's bound read 0.08 here
        (2.5, 1e-5, 40.0),
        (3.0, 1e-5, 40.0), (4.0, 1e-4, 20.0)])
    def test_mean_z_near_zero(self, alpha, lam, dist):
        sc = scen(lam=lam, alpha=alpha)
        p = analytics.hop_sop(1.0, dist, sc)
        z = {"memoryless": [], "rejection": []}
        for seed in self.SEEDS:
            memoryless, (rejection,) = hop_sop_estimates(1.0, dist, sc, 2000, seed, [80.0])
            z["memoryless"].append((memoryless.mean - p) / memoryless.stderr)
            z["rejection"].append((rejection.mean - p) / rejection.stderr)
        assert len(self.SEEDS) == self.K
        for mode, zs in z.items():
            assert abs(statistics.fmean(zs)) * math.sqrt(self.K) <= 3.0, (mode, zs)


class TestRoutedPathSop:
    """The router's own answer, simulated: on K seeded 50-relay placements,
    the path solve_secure_route picks, at its rate rs*, has outage
    probability epsilon. Placement rep i is placements(50, 1,
    [block_rng(505, alpha index, i)])[0] and its estimate uses seed
    6000 + i, or 6100 + i at lambda_e = 1e-8, where rs* is high enough for
    the window to cap a hop's disk in every rep. Each density's two alphas
    are one family of 2K estimates; K and the seeds were fixed before any z
    was seen."""

    K = 20

    def routed_z_scores(self, a_idx, sc, seed, capped):
        zs = []
        for rep in range(self.K):
            xy = placements(50, 1, [block_rng(505, a_idx, rep)])[0]
            topo = Topology.from_xy(xy)
            sol = solve_secure_route(topo, 0, 51, sc)
            assert analytics.path_sop(sol.rs_star, sol.path, sc) == pytest.approx(sc.epsilon)
            dists = [math.sqrt(topo.path(hop).sum_sq_dist)
                     for hop in zip(sol.path.nodes, sol.path.nodes[1:])]
            radii = montecarlo._hop_fields(sol.rs_star, dists, sc)[0]
            assert (max(radii) == window_cap(sc)) is capped
            est = estimate_path_sops(sol.rs_star, topo, 20000, [(sol.path, sc, seed + rep)])[0]
            assert est.covers(sc.epsilon)
            zs.append((est.mean - sc.epsilon) / est.stderr)
        # Bonferroni over the family's 2K estimates, a 1 % family-wise level
        z_max = statistics.NormalDist().inv_cdf(1.0 - 0.01 / (2 * 2 * self.K))
        assert max(abs(z) for z in zs) <= z_max, zs
        assert abs(statistics.fmean(zs)) * math.sqrt(self.K) <= 3.0, zs

    @pytest.mark.parametrize("a_idx,alpha", [(0, 3.0), (1, 4.0)])
    def test_routed_path_meets_epsilon(self, a_idx, alpha):
        self.routed_z_scores(a_idx, scen(lam=1e-5, alpha=alpha), 6000, False)

    @pytest.mark.parametrize("a_idx,alpha", [(0, 3.0), (1, 4.0)])
    def test_capped_routed_path_meets_epsilon(self, a_idx, alpha):
        self.routed_z_scores(a_idx, scen(lam=1e-8, alpha=alpha), 6100, True)


class TestEstimateHopSop:
    def test_zero_density_both_modes(self):
        sc = scen(lam=0.0)
        memoryless, (rejection,) = hop_sop_estimates(1.0, 10.0, sc, 2000, 1, [sc.power_db])
        assert memoryless.mean == rejection.mean == 0.0

    def test_memoryless_matches_analytic(self):
        sc = scen()
        est = hop_sop_estimates(1.0, 10.0, sc, 100000, 12, [])[0]
        target = analytics.hop_sop(1.0, 10.0, sc)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_rejection_matches_memoryless(self):
        sc = scen(lam=5e-5)
        a = hop_sop_estimates(1.0, 10.0, sc, 100000, 13, [sc.power_db])[1][0]
        b = hop_sop_estimates(1.0, 10.0, sc, 100000, 14, [])[0]
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.stderr, b.stderr)

    def test_seed_determinism(self):
        sc = scen()
        a = hop_sop_estimates(1.0, 10.0, sc, 50000, 7, [sc.power_db])
        b = hop_sop_estimates(1.0, 10.0, sc, 50000, 7, [sc.power_db])
        assert a == b
        # distinct seeds and streams key distinct Philox counters
        assert not np.array_equal(block_rng(7, 0, 0).random(4),
                                  block_rng(8, 0, 0).random(4))
        assert not np.array_equal(block_rng(7, 0, 0).random(4),
                                  block_rng(7, 1, 0).random(4))

    @pytest.mark.parametrize("seed,stream,block", [
        (7, 0, 0), (2**64 + 5, 3, 9), (-3, 1, 2), (4, 0x1FFFF, 9), (5, 2, 3 * 2**47 + 11)])
    def test_block_rng_is_keyed_philox(self, seed, stream, block):
        # seed, stream and block are masked to 64, 16 and 48 bits of the key
        key = ((seed % 2**64) << 64) | ((stream % 2**16) << 48) | (block % 2**48)
        got = block_rng(seed, stream, block)
        want = np.random.Generator(np.random.Philox(key=key))
        assert got.random() == want.random()
        assert got.uniform(0.0, 3.0) == want.uniform(0.0, 3.0)
        assert got.poisson(2.5) == want.poisson(2.5)

    @pytest.mark.parametrize("keys", [
        [(7, 0, 0), (2**64 + 5, 3, 9), (-3, 1, 2), (2**64 - 1, 0x1FFFF, 3 * 2**47 + 11)],
        # a key again after others, and two keys that mask to one
        [(5, 2, 3 * 2**47 + 11), (-3, 0x1FFFF, 0), (5, 2, 3 * 2**47 + 11),
         (2**64 + 5, 1, 2), (5, 1, 2)]])
    def test_rekey_matches_block_rng(self, keys):
        # each re-key starts its stream afresh: before it, an odd number of
        # 32-bit draws leaves half a 64-bit word and part of Philox's
        # four-word output buffered, and neither may carry over
        for i, (key, rng) in enumerate(zip(keys, block_rngs(keys))):
            fresh = block_rng(*key)
            assert rng.random(2).tolist() == fresh.random(2).tolist()
            assert np.array_equal(rng.integers(0, 2**32, 2 * i + 1, dtype=np.uint32),
                                  fresh.integers(0, 2**32, 2 * i + 1, dtype=np.uint32))

    def test_stderr_scaling(self):
        sc = scen(lam=5e-5)
        small = hop_sop_estimates(1.0, 10.0, sc, 40000, 9, [])[0]
        big = hop_sop_estimates(1.0, 10.0, sc, 160000, 9, [])[0]
        assert big.stderr == pytest.approx(small.stderr / 2, rel=0.15)

    def test_rejection_no_survivors(self):
        # 0 dB power and a huge threshold starve the on-off filter
        sc = scen(power=0.0)
        with pytest.raises(MonteCarloError):
            hop_sop_estimates(40.0, 10.0, sc, 500, 1, [sc.power_db])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hop_sop_estimates(1.0, 10.0, scen(), 0, 1, [])
        with pytest.raises(ValueError):
            hop_sop_estimates(-1.0, 10.0, scen(), 10, 1, [])


class TestHopSopEstimates:
    """One pass over the draws gives exactly the separate estimates."""

    def rejection_reference(self, rs, dist, scenario, trials, seed):
        # the literal on-off rule, one block at a time, on its own draws,
        # with the far field's exponent added to the survivors' fraction
        d_alpha = dist ** scenario.alpha
        p = scenario.power_linear
        (radius,), (rho,), tail = montecarlo._hop_fields(rs, [dist], scenario)
        n_outage = n_effective = 0
        for block, done in enumerate(range(0, trials, montecarlo.BLOCK)):
            n = min(montecarlo.BLOCK, trials - done)
            interference, h = block_draws_reference(block_rng(seed, 0, block), scenario,
                                                    radius, rho, n)
            # the draws' interference is in units of rho^-alpha = 1 / (2^rs d^alpha)
            snr = p * h / d_alpha
            keep = snr > 2.0 ** rs - 1.0
            snr_e = p * interference[keep] / (2.0 ** rs * d_alpha)
            rate = np.log2((1.0 + snr[keep]) / (1.0 + snr_e))
            n_outage += int(np.count_nonzero(rate < rs))
            n_effective += int(np.count_nonzero(keep))
        return mapped(n_outage / n_effective, tail), n_effective

    def test_one_pass_equals_separate_estimates(self):
        sc = scen(lam=5e-5)
        trials = 2 * montecarlo.BLOCK + 5  # a partial last block
        powers = (40.0, 60.0, 80.0, 60.0, 40.0)  # each distinct power filters once
        memoryless, rejection = hop_sop_estimates(1.0, 10.0, sc, trials, 43, powers)
        assert memoryless == hop_sop_estimates(1.0, 10.0, sc, trials, 43, [])[0]
        assert len(rejection) == len(powers)
        assert rejection[3] == rejection[1] and rejection[4] == rejection[0]
        for pdb, est in zip(powers, rejection):
            sc_p = replace(sc, power_db=pdb)
            assert est == hop_sop_estimates(1.0, 10.0, sc_p, trials, 43, [sc_p.power_db])[1][0]
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
        return Topology([Node(0, 0, 0), Node(1, 0, 10), Node(2, 0, 20)])

    def test_single_hop_matches_analytic(self):
        topo = self.topo()
        sc = scen(lam=5e-5)
        p = topo.path((0, 1))
        est = estimate_path_sops(1.0, topo, 100000, [(p, sc, 21)])[0]
        target = analytics.path_sop(1.0, p, sc)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_two_hop_matches_analytic(self):
        topo = self.topo()
        sc = scen(lam=5e-5)
        p = topo.path((0, 1, 2))
        est = estimate_path_sops(1.0, topo, 100000, [(p, sc, 22)])[0]
        target = analytics.path_sop(1.0, p, sc)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_path_sop_at_least_each_hop(self):
        topo = self.topo()
        sc = scen(lam=1e-4)
        p = topo.path((0, 1, 2))
        joint = estimate_path_sops(1.0, topo, 60000, [(p, sc, 23)])[0]
        for d, seed in ((10.0, 24), (10.0, 25)):
            hop = hop_sop_estimates(1.0, d, sc, 60000, seed, [])[0]
            assert joint.mean >= hop.mean - 3 * math.hypot(joint.stderr, hop.stderr)

    def test_hop_independence_product_form(self):
        # joint outage must match the independent-hop product: no state
        # leakage between the per-hop eavesdropper fields
        topo = self.topo()
        sc = scen(lam=1e-4)
        p = topo.path((0, 1, 2))
        joint = estimate_path_sops(1.0, topo, 100000, [(p, sc, 26)])[0]
        per_hop = [hop_sop_estimates(1.0, 10.0, sc, 100000, s, [])[0] for s in (27, 28)]
        product = 1.0 - (1.0 - per_hop[0].mean) * (1.0 - per_hop[1].mean)
        tol = 3 * math.sqrt(sum(e.stderr ** 2 for e in per_hop) + joint.stderr ** 2)
        assert abs(joint.mean - product) <= tol

    def test_shifted_example_matches_unshifted(self):
        # each hop's field is centred on its transmitter, so moving the
        # placement far from the window's centre changes no draw
        base = six_node_topology()
        shifted = Topology([Node(i, x + 5000.0, y + 5000.0)
                            for i, (x, y) in zip(base.order, base.xy.tolist())])
        sc = scen(lam=1e-4)
        a = estimate_path_sops(1.0, base, 20000, [(base.path((1, 3, 5)), sc, 31)])[0]
        p = shifted.path((1, 3, 5))
        b = estimate_path_sops(1.0, shifted, 20000, [(p, sc, 31)])[0]
        assert b == a
        assert abs(b.mean - analytics.path_sop(1.0, p, sc)) <= 3 * b.stderr

    def test_matches_point_reference(self):
        # a 2-hop path over 2 full blocks and a partial one: on
        # block_points_reference's points, each hop's per-trial sum of
        # log1p((r/rho)^-alpha) by np.bincount, added over the hops, gives
        # every trial's conditional outage q = 1 - exp(-L); each block's q
        # is summed by np.sum and the blocks' sums by math.fsum, as the
        # estimator sums them, and the stderr is q's two-pass sample stderr
        topo = self.topo()
        sc = scen(lam=5e-5)
        path = topo.path((0, 1, 2))
        trials, seed = 2 * montecarlo.BLOCK + 5, 44
        radii, units, tail = montecarlo._hop_fields(1.0, [10.0, 10.0], sc)
        qs = []
        for block, done in enumerate(range(0, trials, montecarlo.BLOCK)):
            n = min(montecarlo.BLOCK, trials - done)
            log_survival = 0.0
            for k, (radius, unit) in enumerate(zip(radii, units)):
                _, trial, r2, _, _ = block_points_reference(block_rng(seed, k, block), sc,
                                                            radius, unit, n)
                log_survival = log_survival + np.bincount(
                    trial, weights=np.log1p(r2 ** (-sc.alpha / 2.0)), minlength=n)
            qs.append(-np.expm1(-log_survival))
        q = np.concatenate(qs).tolist()
        # some trials draw no point, and no trial is certain outage
        assert len(q) == trials and min(q) == 0.0 and max(q) < 1.0
        mean = math.fsum(float(np.sum(b)) for b in qs) / trials
        two_pass = math.fsum(q) / trials
        dev = math.fsum((x - two_pass) ** 2 for x in q)
        est = estimate_path_sops(1.0, topo, trials, [(path, sc, seed)])[0]
        assert (est.mean, est.trials, est.tail) == (mapped(mean, tail), trials, tail)
        stderr = math.exp(-tail) * math.sqrt(dev / (trials - 1) / trials)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        assert est.covers(analytics.path_sop(1.0, path, sc))

    @pytest.mark.parametrize("alpha,lam,seeds", [
        (4.0, 5e-5, (41, 42, 43)), (3.0, 1e-5, (45, 46, 47))])
    def test_one_hop_path_couples_to_hop_estimate(self, alpha, lam, seeds):
        # a one-hop path reads the points of the memoryless hop estimate at
        # its seed and averages out the fading that the hop estimate draws:
        # the path's mean is the hop's conditional expectation, so their
        # difference has variance se_hop^2 - se_path^2, and the path's
        # stderr is the smaller; the seeds were fixed before the first run
        topo = self.topo()
        sc = scen(lam=lam, alpha=alpha)
        trials = 2 * montecarlo.BLOCK + 5
        for seed in seeds:
            hop = hop_sop_estimates(1.0, 10.0, sc, trials, seed, [])[0]
            path = estimate_path_sops(1.0, topo, trials, [(topo.path((0, 1)), sc, seed)])[0]
            assert path.trials == hop.trials and path.tail == hop.tail
            assert path.stderr < hop.stderr
            spread = math.sqrt(max(hop.stderr ** 2 - path.stderr ** 2, 0.0))
            assert abs(path.mean - hop.mean) <= 4.0 * spread, (seed, path, hop)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP.md item 8: at small p the few point-bearing trials set both the "
        "mean and its sample stderr, so a low mean comes with a low stderr "
        "and covers(p) fails 22 of these 200 seeds, all on the low side"))
    def test_covers_small_p_at_nominal_rate(self):
        # one hop of length 10 at alpha = 4 and rs = 1, with lambda_e set so
        # that the closed form reads p = 1e-4; a 3-stderr check should fail
        # about 0.5 times in 200, and 3 allows for that
        topo = self.topo()
        path = topo.path((0, 1))
        sc = scen(lam=-math.log1p(-1e-4) / (analytics.k1(4.0, 1.0) * 2.0 ** 0.5 * 100.0))
        p = analytics.path_sop(1.0, path, sc)
        ests = estimate_path_sops(1.0, topo, 20000, [(path, sc, seed) for seed in range(200)])
        assert sum(not est.covers(p) for est in ests) <= 3

    @pytest.mark.parametrize("nodes,message", [
        ((0, 2), "no link between 0 and 2"),
        ((2, 1, 0, 2), "no link between 0 and 2"),
        ((0, 1, 7), "node 7 not in topology"),
        ((7, 0, 1), "node 7 not in topology"),
        # hops are checked in order, each hop's nodes before its link
        ((1, 0, 2, 7), "no link between 0 and 2"),
        ((0, 7, 2), "node 7 not in topology"),
        # a hop from a node to itself, checked before its nodes
        ((0, 1, 1, 2), "path revisits a node"),
        ((7, 7), "path revisits a node")])
    def test_bad_hop_names_it(self, nodes, message):
        # an edge list 0-1, 1-2: the first bad hop raises what
        # Topology.path raises on that hop alone, through Topology.hop_weights
        topo = Topology.from_xy([[0.0, 0.0], [0.0, 10.0], [0.0, 20.0]], edges=[(0, 1), (1, 2)])
        with pytest.raises(NetModelError) as want:
            for hop in zip(nodes, nodes[1:]):
                topo.path(hop)
        with pytest.raises(NetModelError) as weights:
            topo.hop_weights(nodes)
        with pytest.raises(NetModelError) as got:
            estimate_path_sops(1.0, topo, 100, [(Path(nodes, 0.0), scen(), 1)])
        assert str(got.value) == str(weights.value) == str(want.value) == message

    def test_draws_each_hop_block_once(self, monkeypatch):
        # a 3-hop path over 2 blocks re-keys its generator once per (seed,
        # hop, block) key, hop k's in stream k
        keys = []
        real = montecarlo.block_rngs
        monkeypatch.setattr(montecarlo, "block_rngs",
                            lambda ks: real(keys.append(k) or k for k in ks))
        topo = Topology.from_xy([[0.0, 0.0], [0.0, 10.0], [0.0, 20.0], [0.0, 30.0]])
        estimate_path_sops(1.0, topo, montecarlo.BLOCK + 5, [(topo.path((0, 1, 2, 3)), scen(), 9)])
        assert len(keys) == len(set(keys)) == 6
        assert sorted(keys) == [(9, k, b) for k in range(3) for b in range(2)]

    def test_seed_determinism(self):
        topo = self.topo()
        sc = scen()
        p = topo.path((0, 1, 2))
        a = estimate_path_sops(1.0, topo, 30000, [(p, sc, 5)])[0]
        b = estimate_path_sops(1.0, topo, 30000, [(p, sc, 5)])[0]
        assert a == b

    @pytest.mark.parametrize("rs,trials,message", [
        (1.0, 0, "trials must be >= 1"), (0.0, 10, "rs must be positive and finite")])
    def test_input_validation(self, rs, trials, message):
        topo = self.topo()
        with pytest.raises(ValueError, match=message):
            estimate_path_sops(rs, topo, trials, [(topo.path((0, 1)), scen(), 1)])


class TestEstimatePathSops:
    """One estimate_path_sops call over a sweep's rows equals the one-row
    calls field for field, whatever the rows' order, and shares one
    generator among all their hop-blocks."""

    @staticmethod
    def rows():
        # paths of 1-3 hops, an empty field, a dense field that spans many
        # RUN_POINTS chunks in every block, another alpha and a capped disk
        topo = six_node_topology()
        cases = [((1, 5), scen()), ((1, 3, 5), scen(lam=0.0)),
                 ((1, 2, 3, 5), scen(lam=1e-3)), ((1, 3, 5), scen(lam=1e-4, alpha=3.0)),
                 ((1, 2, 3, 5), scen(lam=5e-5, window=10.0)), ((1, 5), scen(lam=0.0))]
        return topo, [(topo.path(seq), sc, 70 + i) for i, (seq, sc) in enumerate(cases)]

    @pytest.mark.parametrize("trials", [1, 700, montecarlo.BLOCK + 5])
    def test_equals_one_row_calls(self, trials):
        topo, rows = self.rows()
        want = [estimate_path_sops(1.0, topo, trials, [row])[0] for row in rows]
        assert len({w.mean for w in want}) == len(want) - 1  # only the empty fields agree
        assert estimate_path_sops(1.0, topo, trials, rows) == want
        assert estimate_path_sops(1.0, topo, trials, rows[::-1]) == want[::-1]
        # nothing carried from one call to the next
        assert estimate_path_sops(1.0, topo, trials, rows) == want

    def test_one_generator_per_call(self, monkeypatch):
        # no estimator builds a generator per hop-block: the sweeps run with
        # block_rng refusing, and one call builds one Philox for all its
        # rows, hops and blocks
        def refuse(seed, stream, block):
            raise AssertionError("block_rng called")

        monkeypatch.setattr(montecarlo, "block_rng", refuse)
        assert len(run_sop_curve(ExperimentConfig(trials=500))[1]) == 15
        assert run_validate(ExperimentConfig(experiment="validate", trials=500))[0]
        assert len(run_table_one(ExperimentConfig(n_legit=(5, 10), reps=4))[1]) == 2
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *args: built.append(args) or philox(*args))
        topo, rows = self.rows()
        estimate_path_sops(1.0, topo, montecarlo.BLOCK + 5, rows)
        assert len(built) == 1

    def test_checks_rows_before_any_draw(self, monkeypatch):
        # a bad last row raises what its one-row call raises, and no earlier
        # row is drawn first
        calls = []
        monkeypatch.setattr(montecarlo, "_point_sums", lambda *args: calls.append(args))
        topo, rows = self.rows()
        bad = [(topo.path((1, 5)), scen(lam=1e4), 1), (Path((1, 3, 7), 0.0), scen(), 2)]
        for row in bad:
            with pytest.raises(ValueError) as want:
                estimate_path_sops(1.0, topo, 100, [row])
            with pytest.raises(ValueError) as got:
                estimate_path_sops(1.0, topo, 100, rows + [row])
            assert str(got.value) == str(want.value)
        assert not calls


class TestOutageMoments:
    """The path estimate's mean and sample stderr of the trials' conditional
    outages q = 1 - exp(-L), summed per block and merged across blocks."""

    @staticmethod
    def two_pass(q):
        mean = math.fsum(q) / len(q)
        dev = math.fsum((x - mean) ** 2 for x in q)
        return mean, math.sqrt(dev / (len(q) - 1) / len(q))

    @pytest.mark.parametrize("spread", [1e-3, 1e-9])
    def test_stderr_from_deviations(self, spread):
        # q = 0.4 + spread u over 2 full blocks and a partial one: the
        # squared deviations, from each block's mean and merged across
        # blocks, match a two-pass math.fsum reference to 1e-12, where the
        # one-pass E[q^2] - mean^2 has lost every digit at spread 1e-9
        rng = np.random.default_rng(2401)
        sizes = (montecarlo.BLOCK, montecarlo.BLOCK, 5)
        blocks = [-np.log1p(-(0.4 + spread * rng.random(n))) for n in sizes]
        q = (-np.expm1(-np.concatenate(blocks))).tolist()
        est = montecarlo._moments_estimate(
            [montecarlo._outage_moments(b.copy()) for b in blocks], 0.0)
        mean, stderr = self.two_pass(q)
        assert est.trials == len(q)
        assert est.mean == pytest.approx(mean, rel=1e-15, abs=0.0)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        if spread == 1e-9:
            variance = stderr ** 2 * (len(q) - 1)  # dev / trials
            one_pass = math.fsum(x * x for x in q) / len(q) - mean * mean
            assert abs(one_pass - variance) > variance

    def test_point_at_the_transmitter_is_certain_outage(self):
        # a stub stream puts one point at r = 0 in each of 64 trials (u = k/64,
        # so n u = k exactly): x = (r/rho)^-alpha = inf, and q = 1, not NaN
        n = 64

        def random(out):
            out[:, 0] = np.arange(len(out)) / n
            out[:, 1] = 0.5
            return out

        stub = SimpleNamespace(poisson=lambda mean: n, random=random)
        log_survival = point_sums(stub, scen(), 40.0, 10.0, n, gains=False)
        assert np.all(log_survival == math.inf)
        assert montecarlo._outage_moments(log_survival) == (n, float(n), 0.0, 0.0)

    def test_overflowing_outage_radius_is_certain_outage(self):
        # at rs = 5000, rho = 2^(rs/4) d overflows: every point lies within
        # it, so a trial with a point reads q = 1, and the far field's
        # exponent is inf, so the estimate reads 1 with stderr 0, no NaN
        topo = Topology([Node(0, 0, 0), Node(1, 0, 10)])
        sc = scen(lam=1e-5)
        (radius,), (rho,), tail = montecarlo._hop_fields(5000.0, [10.0], sc)
        assert rho == tail == math.inf and radius == window_cap(sc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_survival = point_sums(block_rng(3, 0, 0), sc, radius, rho, 256, gains=False)
            est = estimate_path_sops(5000.0, topo, 256, [(topo.path((0, 1)), sc, 3)])[0]
        assert np.all(log_survival == math.inf)
        assert (est.mean, est.stderr, est.trials) == (1.0, 0.0, 256)


class TestPowerInvariance:
    def test_three_powers_agree(self):
        powers = (60.0, 80.0, 100.0)
        _, estimates = hop_sop_estimates(1.0, 10.0, scen(lam=5e-5), 60000, 31, powers)
        violations = power_invariance_report(powers, estimates)
        assert not violations, violations

    def test_single_power_trivially_passes(self):
        _, estimates = hop_sop_estimates(1.0, 10.0, scen(), 2000, 1, (80.0,))
        violations = power_invariance_report((80.0,), estimates)
        assert not violations

    @pytest.mark.parametrize("share", [1.0 + 1e-6, 1.0 - 1e-6])
    def test_verdict_at_three_combined_stderrs(self, share):
        # two hand-built estimates whose means lie a hair more, or less,
        # than tol = 3 hypot(stderr_i, stderr_j) apart
        tol = 3.0 * math.hypot(0.03, 0.04)
        a = montecarlo.SopEstimate(0.5, 0.03, 1000, 0.0)
        b = montecarlo.SopEstimate(0.5 - share * tol, 0.04, 900, 0.0)
        want = [(60.0, 80.0, a.mean, b.mean, tol)] if share > 1.0 else []
        assert power_invariance_report((60.0, 80.0), [a, b]) == want

    def test_zero_density_all_zero(self):
        _, estimates = hop_sop_estimates(1.0, 10.0, scen(lam=0.0), 2000, 1, (60.0, 80.0))
        assert all(e.mean == 0.0 for e in estimates)
