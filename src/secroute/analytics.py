"""Closed-form secrecy expressions for colluding PPP eavesdroppers.

All functions are pure and power-independent: under adaptive wiretap
encoding with on-off transmission, raising the transmit power improves
the legitimate and eavesdropping channels alike, so none of the outage
expressions contain the per-hop power.

A rate is a plain float: optimal_rs gives a path's confidential rate
r_s*, and secrecy_rate its secrecy rate c_s = r_s* / v over v hops. Both
read 0.0 where no rate meets the outage constraint, and inf where no
eavesdroppers (lambda_e = 0) leave the rate unbounded.
"""

from __future__ import annotations

import functools
import math

from .netmodel import Path, Scenario


def k1(alpha: float, lambda_e: float) -> float:
    """Density/path-loss constant pi * lambda_e * G(1+2/a) * G(1-2/a)."""
    if not alpha > 2.0:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")
    return math.pi * lambda_e * math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)


def hop_sop(rs: float, dist: float, scenario: Scenario) -> float:
    """Per-hop secrecy outage probability under on-off transmission."""
    if not 0.0 < dist < math.inf:
        raise ValueError(f"dist must be positive and finite, got {dist}")
    return _sop(rs, dist * dist, scenario)


def path_sop(rs: float, path: Path, scenario: Scenario) -> float:
    """End-to-end secrecy outage probability of a multihop path.

    Per-hop outages are independent (fresh eavesdropper observations each
    hop under randomize-and-forward), so the product over hops collapses
    to a single exponential in the summed squared distances.
    """
    return _sop(rs, path.sum_sq_dist, scenario)


def _sop(rs: float, weight: float, scenario: Scenario) -> float:
    """1 - exp(-K1 * 2^(2 rs / alpha) * weight), weight a squared distance."""
    if not 0.0 < rs < math.inf:
        raise ValueError(f"rs must be positive and finite, got {rs}")
    try:
        gain = 2.0 ** (2.0 * rs / scenario.alpha)
    except OverflowError:
        raise OverflowError(f"rs = {rs:g} overflows a float in 2^(2 rs / alpha)") from None
    return -math.expm1(-k1(scenario.alpha, scenario.lambda_e) * gain * weight)


def density_bound(path: Path, scenario: Scenario) -> float:
    """Largest eavesdropper density under which the path supports rs > 0."""
    return weight_density_bound(path.sum_sq_dist, scenario)


def weight_density_bound(weight: float, scenario: Scenario) -> float:
    """density_bound of any path whose squared hop lengths sum to `weight`."""
    log_outage, k1_unit = _bound_constants(scenario.alpha, scenario.epsilon)
    return log_outage / (k1_unit * weight)


@functools.lru_cache(maxsize=64)
def _bound_constants(alpha: float, epsilon: float) -> tuple[float, float]:
    """(ln(1/(1 - epsilon)), k1(alpha, 1)), the density bound's factors that
    are fixed per scenario, computed in that order; the routing sweeps ask
    for them once per scored candidate."""
    return math.log(1.0 / (1.0 - epsilon)), k1(alpha, 1.0)


def optimal_rs(path: Path, scenario: Scenario) -> float:
    """Confidential rate r_s* saturating the path's outage constraint: the
    secrecy rate of a one-hop path of the same weight."""
    return secrecy_rate(path.sum_sq_dist, 1, scenario)


def secrecy_rate(weight: float, hops: int, scenario: Scenario) -> float:
    """Secrecy rate c_s = r_s* / hops of any path with `hops` hops whose
    squared lengths sum to `weight`; 0.0 where no rate meets the outage
    constraint, and inf at lambda_e = 0.

    The outage probability is increasing in rs, so the optimum sits exactly
    at the constraint. Feasibility is decided through the density bound so
    the two operations can never disagree: the path is feasible iff
    lambda_e lies strictly below the bound. At a positive density, a rate
    that overflows a float raises OverflowError, naming the weight where
    the bound over lambda_e overflows (a very short path) and alpha where
    only the rate does.
    """
    bound = weight_density_bound(weight, scenario)
    if scenario.lambda_e == 0.0:
        # no eavesdroppers: rate unbounded
        return math.inf
    ratio = bound / scenario.lambda_e
    if ratio <= 1.0:
        return 0.0
    rs_star = (scenario.alpha / 2.0) * math.log2(ratio)
    if ratio == math.inf:  # `unbounded` is kept for lambda_e = 0
        raise OverflowError(f"the density bound of a path of weight {weight:g} over "
                            f"lambda_e = {scenario.lambda_e:g} overflows a float")
    if rs_star == math.inf:
        raise OverflowError(f"alpha = {scenario.alpha:g} overflows a float in the "
                            f"secrecy rate of a path of weight {weight:g}")
    return rs_star / hops


def path_metric(path: Path, scenario: Scenario) -> float:
    """Routing objective: achievable secrecy rate of the path, 0.0 if infeasible."""
    return secrecy_rate(path.sum_sq_dist, path.hop_count, scenario)
