import math

import pytest

from secroute import Node, Scenario, build_topology
from secroute import analytics
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
        topo = build_topology([Node(0, 0, 0), Node(1, 0, 10)])
        p = topo.path((0, 1))
        assert analytics.path_sop(1.0, p, scen()) == analytics.hop_sop(1.0, 10.0, scen())

    def test_two_identical_hops(self):
        topo = build_topology([Node(0, 0, 0), Node(1, 0, 7), Node(2, 0, 14)])
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
        res = analytics.optimal_rs(straight_path(50.0), scen())
        assert res.feasible
        assert res.rs_star == pytest.approx(10.832396484850468, rel=1e-12)
        assert res.c_s == res.rs_star

    def test_round_trip(self):
        topo = six_node_topology()
        for seq in [(1, 5), (1, 3, 5), (1, 2, 3, 5)]:
            p = topo.path(seq)
            res = analytics.optimal_rs(p, scen())
            assert abs(analytics.path_sop(res.rs_star, p, scen()) - 0.1) < 1e-9

    def test_boundary_infeasible(self):
        sc = scen()
        cutoff = math.log(1 / 0.9) / analytics.k1(sc.alpha, sc.lambda_e)
        res = analytics.optimal_rs(straight_path(cutoff), sc)
        assert not res.feasible
        assert res.rs_star == 0.0
        assert res.c_s == 0.0

    def test_halving_weight_adds_half_alpha_bits(self):
        r1 = analytics.optimal_rs(straight_path(50.0), scen()).rs_star
        r2 = analytics.optimal_rs(straight_path(25.0), scen()).rs_star
        assert r2 - r1 == pytest.approx(2.0, rel=1e-12)  # alpha/2

    def test_monotonicity(self):
        base = analytics.optimal_rs(straight_path(50.0), scen()).rs_star
        assert analytics.optimal_rs(straight_path(50.0), scen(lam=2e-5)).rs_star < base
        assert analytics.optimal_rs(straight_path(60.0), scen()).rs_star < base
        assert analytics.optimal_rs(straight_path(50.0), scen(eps=0.2)).rs_star > base

    def test_zero_density_unbounded(self):
        res = analytics.optimal_rs(straight_path(50.0), scen(lam=0.0))
        assert res.feasible and res.rs_star == math.inf


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
            assert analytics.optimal_rs(p, sc).feasible == (sc.lambda_e < bound)


class TestPathMetric:
    def test_single_hop_equals_rs_star(self):
        p = straight_path(50.0)
        assert analytics.path_metric(p, scen()) == analytics.optimal_rs(p, scen()).rs_star

    def test_infeasible_is_none(self):
        assert analytics.path_metric(straight_path(1e9), scen()) is None

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
