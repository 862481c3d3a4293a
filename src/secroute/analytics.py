"""Closed-form secrecy expressions for colluding PPP eavesdroppers.

All functions are pure and power-independent: under adaptive wiretap
encoding with on-off transmission, raising the transmit power improves
the legitimate and eavesdropping channels alike, so none of the outage
expressions contain the per-hop power.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .netmodel import Path, Scenario


@dataclass(frozen=True)
class SecrecyResult:
    """Optimal confidential rate for a path and the resulting secrecy rate.

    c_s = rs_star / hop_count when feasible; infeasible paths carry
    rs_star = c_s = 0 and feasible = False, never a negative rate.
    """

    rs_star: float
    c_s: float
    feasible: bool


def k1(scenario: Scenario) -> float:
    """Density/path-loss constant pi * lambda_e * G(1+2/a) * G(1-2/a)."""
    return _k1(scenario.alpha, scenario.lambda_e)


def _k1(alpha: float, lambda_e: float) -> float:
    if not alpha > 2.0:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")
    return math.pi * lambda_e * math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)


def hop_sop(rs: float, dist: float, scenario: Scenario) -> float:
    """Per-hop secrecy outage probability under on-off transmission."""
    if rs <= 0.0:
        raise ValueError(f"rs must be positive, got {rs}")
    if dist <= 0.0:
        raise ValueError(f"dist must be positive, got {dist}")
    a = scenario.alpha
    weight = dist * dist
    return -math.expm1(-k1(scenario) * 2.0 ** (2.0 * rs / a) * weight)


def path_sop(rs: float, path: Path, scenario: Scenario) -> float:
    """End-to-end secrecy outage probability of a multihop path.

    Per-hop outages are independent (fresh eavesdropper observations each
    hop under randomize-and-forward), so the product over hops collapses
    to a single exponential in the summed squared distances.
    """
    if rs <= 0.0:
        raise ValueError(f"rs must be positive, got {rs}")
    a = scenario.alpha
    return -math.expm1(-k1(scenario) * 2.0 ** (2.0 * rs / a) * path.sum_sq_dist)


def density_bound(path: Path, scenario: Scenario) -> float:
    """Largest eavesdropper density under which the path supports rs > 0."""
    a = scenario.alpha
    denom = math.pi * math.gamma(1.0 + 2.0 / a) * math.gamma(1.0 - 2.0 / a) * path.sum_sq_dist
    return math.log(1.0 / (1.0 - scenario.epsilon)) / denom


def optimal_rs(path: Path, scenario: Scenario) -> SecrecyResult:
    """Confidential rate saturating the outage constraint, and its secrecy rate.

    The outage probability is increasing in rs, so the optimum sits exactly
    at the constraint. Feasibility is decided through density_bound so the
    two operations can never disagree: the path is feasible iff lambda_e
    lies strictly below the bound.
    """
    bound = density_bound(path, scenario)
    if scenario.lambda_e == 0.0:
        # no eavesdroppers: rate unbounded
        return SecrecyResult(math.inf, math.inf, True)
    ratio = bound / scenario.lambda_e
    if ratio <= 1.0:
        return SecrecyResult(0.0, 0.0, False)
    rs_star = (scenario.alpha / 2.0) * math.log2(ratio)
    return SecrecyResult(rs_star, rs_star / path.hop_count, True)


def path_metric(path: Path, scenario: Scenario):
    """Routing objective: achievable secrecy rate of the path, None if infeasible."""
    res = optimal_rs(path, scenario)
    return res.c_s if res.feasible else None


def pgfl_integral(rs: float, dist: float, scenario: Scenario) -> float:
    """Numerical evaluation of the plane integral behind hop_sop's exponent.

    Computes lambda_e * Int_{R^2} a/(a+|x|^alpha) dx with a = 2^rs * dist^alpha,
    by radial reduction (t = r^2) and the compactifying substitution
    u = t/(1+t). Independent cross-check of the gamma-function closed form
    K1 * 2^(2 rs / alpha) * dist^2. The only user of scipy, imported here
    so that the rest of the package loads without it.
    """
    from scipy.integrate import IntegrationWarning, quad

    a = 2.0 ** rs * dist ** scenario.alpha
    c = scenario.alpha / 2.0

    def integrand(u):
        t = u / (1.0 - u)
        return a / (a + t ** c) / ((1.0 - u) * (1.0 - u))

    knee = a ** (1.0 / c)  # t where the integrand halves
    u_knee = knee / (1.0 + knee)
    with warnings.catch_warnings():
        # the endpoint singularity (exponent c-2 for c < 2) triggers a
        # roundoff warning in the extrapolation; the result is still far
        # inside the 1e-6 budget
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, 1.0, points=[u_knee], epsabs=0.0,
                      epsrel=1e-10, limit=500)
    return scenario.lambda_e * math.pi * val
