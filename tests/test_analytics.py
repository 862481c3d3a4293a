import math
import random
import re

import numpy as np
import pytest

from secroute import Node, Scenario, Topology
from secroute import analytics, routing
from secroute.netmodel import Path
from secroute.experiments import six_node_topology

import oracles


def scen(alpha=4.0, lam=1e-5, eps=0.1, power=80.0):
    return Scenario(alpha, lam, eps, power)


def straight_path(sum_sq):
    return Path((0, 1), sum_sq)


def path_sop_product(rs, dists, scenario):
    """Reference for path_sop: the explicit product of per-hop survivals."""
    surv = 1.0
    for d in dists:
        surv *= 1.0 - analytics.hop_sop(rs, d, scenario)
    return 1.0 - surv


class TestK1:
    def test_alpha4_exact(self):
        # Gamma(3/2) * Gamma(1/2) = pi/2 exactly
        assert analytics.k1(4.0, 1e-5) == pytest.approx(
            math.pi ** 2 / 2 * 1e-5, rel=1e-14)

    def test_linear_in_density(self):
        assert analytics.k1(4.0, 0.0) == 0.0
        assert analytics.k1(4.0, 2e-5) == pytest.approx(
            2 * analytics.k1(4.0, 1e-5), rel=1e-14)

    def test_alpha3(self):
        # frozen from a 40-digit mpmath evaluation of pi*1e-5*G(5/3)*G(1/3)
        assert analytics.k1(3.0, 1e-5) == pytest.approx(
            7.5976250103520752e-5, rel=1e-12)

    def test_alpha_at_most_2_rejected(self):
        with pytest.raises(ValueError):
            analytics.k1(2.0, 1e-5)


class TestHopSop:
    def test_zero_density(self):
        assert analytics.hop_sop(1.0, 10.0, scen(lam=0.0)) == 0.0

    def test_large_rate_limit(self):
        assert analytics.hop_sop(200.0, 10.0, scen()) == pytest.approx(1.0)

    def test_reference_value(self):
        # frozen from a 40-digit mpmath evaluation of the closed form
        assert analytics.hop_sop(1.0, 10.0, scen()) == pytest.approx(
            6.9545684785808219e-3, rel=1e-12)

    def test_monotone(self):
        base = analytics.hop_sop(1.0, 10.0, scen())
        assert analytics.hop_sop(1.5, 10.0, scen()) > base
        assert analytics.hop_sop(1.0, 11.0, scen()) > base
        assert analytics.hop_sop(1.0, 10.0, scen(lam=2e-5)) > base

    def test_power_independent(self):
        vals = {analytics.hop_sop(1.0, 10.0, scen(power=p)) for p in (0, 60, 80, 100)}
        assert len(vals) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            analytics.hop_sop(0.0, 10.0, scen())
        with pytest.raises(ValueError):
            analytics.hop_sop(1.0, 0.0, scen())


class TestPathSop:
    def test_single_hop_matches_hop(self):
        topo = Topology([Node(0, 0, 0), Node(1, 0, 10)])
        p = topo.path((0, 1))
        assert analytics.path_sop(1.0, p, scen()) == analytics.hop_sop(1.0, 10.0, scen())

    def test_two_identical_hops(self):
        topo = Topology([Node(0, 0, 0), Node(1, 0, 7), Node(2, 0, 14)])
        p = topo.path((0, 1, 2))
        q = analytics.hop_sop(1.0, 7.0, scen())
        assert analytics.path_sop(1.0, p, scen()) == pytest.approx(
            1 - (1 - q) ** 2, rel=1e-12)

    def test_product_vs_exponential_form(self):
        topo = six_node_topology()
        for seq in [(1, 3, 5), (1, 2, 3, 5), (1, 2, 3, 4, 5, 6)]:
            p = topo.path(seq)
            xy = [topo.xy[topo.index[u]] for u in seq]
            dists = [math.hypot(*(b - a)) for a, b in zip(xy, xy[1:])]
            for rs in (0.25, 1.0, 3.0):
                exp_form = analytics.path_sop(rs, p, scen())
                prod_form = path_sop_product(rs, dists, scen())
                assert exp_form == pytest.approx(prod_form, rel=1e-12)

    def test_reference_six_node(self):
        # frozen cross-check of the 3-hop example path at rs = 1
        topo = six_node_topology()
        p = topo.path((1, 2, 3, 5))
        assert analytics.path_sop(1.0, p, scen()) == pytest.approx(
            1.2434404212006061e-2, rel=1e-12)


class TestOptimalRs:
    def test_reference_value(self):
        # frozen: 2*log2(ln(10/9) / (4.9348e-5 * 50))
        rs_star = analytics.optimal_rs(straight_path(50.0), scen())
        assert rs_star == pytest.approx(10.832396484850468, rel=1e-12)
        assert analytics.secrecy_rate(50.0, 1, scen()) == rs_star

    def test_round_trip(self):
        topo = six_node_topology()
        for seq in [(1, 5), (1, 3, 5), (1, 2, 3, 5)]:
            p = topo.path(seq)
            rs_star = analytics.optimal_rs(p, scen())
            assert abs(analytics.path_sop(rs_star, p, scen()) - 0.1) < 1e-9

    def test_boundary_infeasible(self):
        sc = scen()
        cutoff = math.log(1 / 0.9) / analytics.k1(sc.alpha, sc.lambda_e)
        rs_star = analytics.optimal_rs(straight_path(cutoff), sc)
        assert rs_star == 0.0
        assert analytics.secrecy_rate(cutoff, 1, sc) == 0.0

    def test_halving_weight_adds_half_alpha_bits(self):
        r1 = analytics.optimal_rs(straight_path(50.0), scen())
        r2 = analytics.optimal_rs(straight_path(25.0), scen())
        assert r2 - r1 == pytest.approx(2.0, rel=1e-12)  # alpha/2

    def test_monotonicity(self):
        base = analytics.optimal_rs(straight_path(50.0), scen())
        assert analytics.optimal_rs(straight_path(50.0), scen(lam=2e-5)) < base
        assert analytics.optimal_rs(straight_path(60.0), scen()) < base
        assert analytics.optimal_rs(straight_path(50.0), scen(eps=0.2)) > base

    @pytest.mark.parametrize("factor", [0.5, 0.0, 1 - 1e-9, 1 + 1e-9])
    def test_secrecy_rate_is_rs_star_over_hops(self, factor):
        # lambda_e = factor x each path's density bound: 0.0 is infeasible, inf unbounded
        topo = six_node_topology()
        for seq in [(1, 5), (1, 3, 5), (1, 2, 3, 5)]:
            p = topo.path(seq)
            sc = scen(lam=factor * analytics.density_bound(p, scen()))
            rs_star = analytics.optimal_rs(p, sc)
            assert analytics.secrecy_rate(p.sum_sq_dist, p.hop_count, sc) == rs_star / p.hop_count
            assert (rs_star == 0.0) == (factor > 1.0)
            assert (rs_star == math.inf) == (factor == 0.0)

    def test_zero_density_unbounded(self):
        rs_star = analytics.optimal_rs(straight_path(50.0), scen(lam=0.0))
        assert rs_star == math.inf

    @pytest.mark.parametrize("alpha,weight,lam,message", [
        (1e308, 50.0, 1e-5, "alpha = 1e+308 overflows a float"),
        # the rate itself (about 2000) fits a float; the density bound does not
        (4.0, 1e-320, 1e-5, "the density bound of a path of weight 9.99989e-321 "
                            "over lambda_e = 1e-05 overflows a float"),
        # a finite bound whose quotient by lambda_e overflows
        (4.0, 1e-300, 1e-300, "the density bound of a path of weight 1e-300 "
                              "over lambda_e = 1e-300 overflows a float"),
    ], ids=["alpha", "short-path", "small-density"])
    def test_overflowing_rate_raises(self, alpha, weight, lam, message):
        with pytest.raises(OverflowError, match=re.escape(message)):
            analytics.secrecy_rate(weight, 1, scen(lam=lam, alpha=alpha))
        for rate in (analytics.optimal_rs, analytics.path_metric):
            with pytest.raises(OverflowError, match=re.escape(message)):
                rate(Path((0, 1, 2), weight), scen(lam=lam, alpha=alpha))
        # inf, printed `unbounded`, is kept for a zero density
        assert analytics.secrecy_rate(weight, 1, scen(lam=0.0, alpha=alpha)) == math.inf


class TestDensityBound:
    def test_reference_value(self):
        assert analytics.density_bound(straight_path(50.0), scen()) == pytest.approx(
            4.2701008622472091e-4, rel=1e-12)

    def test_small_epsilon(self):
        assert analytics.density_bound(straight_path(50.0), scen(eps=1e-12)) < 1e-13

    def test_inverse_in_weight(self):
        b1 = analytics.density_bound(straight_path(50.0), scen())
        b2 = analytics.density_bound(straight_path(100.0), scen())
        assert b1 == pytest.approx(2 * b2, rel=1e-12)

    def test_agrees_with_feasibility_flag(self):
        p = straight_path(50.0)
        bound = analytics.density_bound(p, scen())
        for factor in (0.5, 1 - 1e-9, 1 + 1e-9, 2.0):
            sc = scen(lam=bound * factor)
            assert (analytics.optimal_rs(p, sc) > 0.0) == (sc.lambda_e < bound)


class TestPathMetric:
    def test_single_hop_equals_rs_star(self):
        p = straight_path(50.0)
        assert analytics.path_metric(p, scen()) == analytics.optimal_rs(p, scen())

    @pytest.mark.parametrize("factor", [0.5, 1 - 1e-9, 1 + 1e-9, 2.0])
    def test_none_exactly_where_rs_star_is_zero(self, factor):
        topo = six_node_topology()
        for seq in [(1, 5), (1, 3, 5), (1, 2, 3, 5)]:
            p = topo.path(seq)
            sc = scen(lam=factor * analytics.density_bound(p, scen()))
            rs_star = analytics.optimal_rs(p, sc)
            metric = analytics.path_metric(p, sc)
            assert (metric == 0.0) == (rs_star == 0.0) == (factor > 1.0)
            assert metric == rs_star / p.hop_count
        assert analytics.path_metric(p, scen(lam=0.0)) == math.inf

    def test_infeasible_is_none(self):
        assert analytics.path_metric(straight_path(1e9), scen()) == 0.0

    def test_hop_count_scaling(self):
        # same total weight, hop counts 2 and 3: metrics in ratio 3:2
        m2 = analytics.path_metric(Path((0, 1, 2), 50.0), scen())
        m3 = analytics.path_metric(Path((0, 1, 2, 3), 50.0), scen())
        assert m2 / m3 == pytest.approx(1.5, rel=1e-12)


class TestPgflIntegral:
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_matches_closed_form(self, alpha):
        for rs, dist in [(0.5, 3.0), (1.0, 10.0), (2.0, 7.0), (4.0, 1.5), (0.1, 30.0)]:
            sc = scen(alpha=alpha)
            target = analytics.k1(sc.alpha, sc.lambda_e) * 2 ** (2 * rs / alpha) * dist ** 2
            got = oracles.pgfl_integral(rs, dist, sc)
            assert got == pytest.approx(target, rel=1e-6)


# the scenarios whose density-bound constants are cached, by (alpha, epsilon)
HOIST_GRID = [(a, eps) for eps in (1e-17, 0.1, 0.5, 1.0 - 2.0**-53)
              for a in (2.0 + 1e-12, 2.5, 4.0, 1e300)]


def bound_written_out(weight, sc):
    """weight_density_bound with every factor computed in the call."""
    return math.log(1.0 / (1.0 - sc.epsilon)) / (
        math.pi * 1.0 * math.gamma(1.0 + 2.0 / sc.alpha) * math.gamma(1.0 - 2.0 / sc.alpha)
        * weight)


def rate_written_out(weight, hops, sc):
    """secrecy_rate on bound_written_out; OverflowError where it raises."""
    bound = bound_written_out(weight, sc)
    if sc.lambda_e == 0.0:
        return math.inf
    ratio = bound / sc.lambda_e
    if ratio <= 1.0:
        return 0.0
    rs_star = (sc.alpha / 2.0) * math.log2(ratio)
    if ratio == math.inf or rs_star == math.inf:
        return OverflowError
    return rs_star / hops


def later_written_out(d2, n, sc):
    """later_rate_bounds on bound_written_out."""
    v = np.arange(1, n)
    b1 = bound_written_out(1.0, sc)
    if sc.lambda_e == 0.0:
        u = np.full((len(d2), n - 1), np.inf)
    elif b1 == 0.0:
        u = np.full((len(d2), n - 1), -np.inf)
    else:
        log_b = math.log2(b1) - math.log2(sc.lambda_e)
        with np.errstate(divide="ignore", over="ignore"):
            log_arg = log_b + routing._BOUND_MARGIN - np.log2(d2)[:, None] + np.log2(v)
            u = (sc.alpha / 2.0) * log_arg / v
    later = np.full((len(d2), n), -np.inf)
    later[:, :-1] = np.maximum.accumulate(u[:, ::-1], axis=1)[:, ::-1]
    return later


class TestHoistedConstants:
    def test_bit_identical_to_per_call_formula(self):
        # scenarios interleaved in one process, twice over, so that constants
        # cached for one (alpha, epsilon) and read for another would differ
        scenarios = [scen(a, lam, eps) for a, eps in HOIST_GRID for lam in (0.0, 1e-5, 3e-3)]
        random.Random(22).shuffle(scenarios)
        weights = (1e-305, 1e-3, 1.0, 123.456, 5000.0, 2.5e6)
        d2 = np.array([1e-3, 17.0, 5000.0, 0.0])
        checked = raised = 0
        for sc in scenarios * 2:
            for weight in weights:
                assert analytics.weight_density_bound(weight, sc) == bound_written_out(weight, sc)
                for hops in (1, 3):
                    want = rate_written_out(weight, hops, sc)
                    if want is OverflowError:
                        with pytest.raises(OverflowError):
                            analytics.secrecy_rate(weight, hops, sc)
                        raised += 1
                    else:
                        got = analytics.secrecy_rate(weight, hops, sc)
                        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
                        checked += want > 0.0
            assert np.array_equal(routing.later_rate_bounds(d2, 7, sc),
                                  later_written_out(d2, 7, sc))
        assert checked and raised
