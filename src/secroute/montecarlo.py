"""Monte Carlo validation of the secrecy-outage analytics.

Eavesdroppers are drawn as a homogeneous PPP truncated to the scenario
window translated to centre on the hop's transmitter (the process is
stationary, so only the window's shape and size matter; far points
contribute negligibly to the colluding SNR sum for path-loss exponents
above 2). Fading gains are unit-mean exponentials
sampled by inverse CDF so a fixed counter-based RNG stream reproduces
bit-identical estimates on any platform.

Trials are processed in fixed-size blocks by one driver, `_blocks`; hop k
of block b owns a Philox stream keyed by (seed, k, b), so estimates depend
only on the seed and parameters, never on how blocks are scheduled. The
driver draws a block's hops lazily, one hop's points at a time. Under
randomize-and-forward the path estimator ORs the per-hop outage events of
a trial, and the memoryless hop estimator is its one-hop case.

The hop estimators make one pass: each block's (interference, h) pair is
drawn once, and on it `hop_sop_estimates` counts the memoryless event and
applies the on-off rejection rule at every requested transmit power.
Power enters only that filter, so the memoryless estimate, the rejection
estimate and the power-invariance check all read the same draws, which
are dropped once their block is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .netmodel import Path, Scenario, Topology

BLOCK = 1 << 14

_MASK64 = (1 << 64) - 1


class MonteCarloError(RuntimeError):
    pass


@dataclass(frozen=True)
class SopEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Counter-based generator for one (stream, block) cell of a seed."""
    key = ((seed & _MASK64) << 64) | ((stream & 0xFFFF) << 48) | (block & ((1 << 48) - 1))
    return np.random.Generator(np.random.Philox(key=key))


def _exponential(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Unit-mean exponential draws written into `out`, by inverse CDF, which
    keeps the draw reproducible across numpy versions."""
    u = rng.random(out=out)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _block_draws(rng, scenario: Scenario, n):
    """Per-trial interference sums I = sum S_e/|X_e|^alpha and legit gains H.

    Positions X_e are offsets from the transmitter, uniform on the window
    translated so that its centre sits at the transmitter.

    Draw order (counts, positions, gains, H) is part of the reproducibility
    contract; both conditioning modes and all power levels consume the
    identical stream. The point arrays are reused in place: x holds |X_e|^2
    and then each point's contribution, and the gains are drawn into the
    spent y buffer.
    """
    xmin, xmax, ymin, ymax = scenario.sim_window
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    counts = rng.poisson(scenario.lambda_e * scenario.window_area, n)
    total = int(counts.sum())
    xs = rng.uniform(xmin - cx, xmax - cx, total)
    ys = rng.uniform(ymin - cy, ymax - cy, total)
    contrib = np.square(xs, out=xs)
    contrib += np.square(ys, out=ys)
    gains = _exponential(rng, ys)
    h = _exponential(rng, np.empty(n))
    np.power(contrib, -scenario.alpha / 2.0, out=contrib)
    contrib *= gains
    idx = np.repeat(np.arange(n), counts)
    interference = np.bincount(idx, weights=contrib, minlength=n)
    return interference, h


def _blocks(scenario: Scenario, trials: int, seed: int, hops: int = 1):
    """Yield each block's size n and a generator of its hops' (interference, h).

    Hop k of block b draws from block_rng(seed, k, b). The hop draws are
    made lazily, so only one hop's point arrays are alive at a time; a
    block's draws must be consumed before the next block is requested.
    """
    for block, done in enumerate(range(0, trials, BLOCK)):
        n = min(BLOCK, trials - done)
        yield n, (_block_draws(block_rng(seed, k, block), scenario, n)
                  for k in range(hops))


def _outages(rs: float, d_alphas, n: int, draws) -> int:
    """Count a block's trials in which any hop's memoryless secrecy event
    h <= 2^rs * d^alpha * I fails."""
    gain = 2.0 ** rs
    out = np.zeros(n, dtype=bool)
    for d_alpha, (interference, h) in zip(d_alphas, draws):
        out |= h <= gain * d_alpha * interference
    return int(np.count_nonzero(out))


def _estimate(n_outage: int, n_effective: int, seed: int) -> SopEstimate:
    if n_effective == 0:
        raise MonteCarloError(
            "no trials survived the on-off threshold; increase trials or power")
    mean = n_outage / n_effective
    stderr = math.sqrt(mean * (1.0 - mean) / n_effective)
    return SopEstimate(mean, stderr, n_effective, seed)


def hop_sop_estimates(rs: float, dist: float, scenario: Scenario, trials: int,
                      seed: int, powers_db) -> tuple[SopEstimate, list[SopEstimate]]:
    """Per-hop SOP estimates in both conditioning modes from one pass over
    the draws: the memoryless estimate and one rejection estimate per
    transmit power in `powers_db`.

    `memoryless` counts the unconditional event H/d^a <= 2^rs * sum S/X^a,
    exact by the memoryless property of the exponential legitimate gain;
    it is estimate_path_sop on a one-hop path of length dist, draw for draw.
    `rejection` simulates the on-off rule literally: it discards trials
    whose legitimate SNR falls below the threshold 2^rs - 1 and counts
    secrecy-capacity shortfalls among the survivors. Power enters only
    through that filter, so every estimate reads the same block draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 < rs < math.inf and 0.0 < dist < math.inf):
        raise ValueError("rs and dist must be positive and finite")
    # replace() validates each power as a Scenario would
    powers = [replace(scenario, power_db=pdb).power_linear for pdb in powers_db]

    d_alpha = dist ** scenario.alpha
    beta_t = 2.0 ** rs - 1.0
    n_memoryless = 0
    n_outage = [0] * len(powers)
    n_effective = [0] * len(powers)
    for n, draws in _blocks(scenario, trials, seed):
        interference, h = next(draws)
        n_memoryless += _outages(rs, [d_alpha], n, [(interference, h)])
        for i, p in enumerate(powers):
            snr = p * h / d_alpha
            keep = snr > beta_t
            snr_sum = p * interference[keep]
            shortfall = np.log2((1.0 + snr[keep]) / (1.0 + snr_sum)) < rs
            n_outage[i] += int(np.count_nonzero(shortfall))
            n_effective[i] += int(np.count_nonzero(keep))
    return (_estimate(n_memoryless, trials, seed),
            [_estimate(o, e, seed) for o, e in zip(n_outage, n_effective)])


def estimate_hop_sop(rs: float, dist: float, scenario: Scenario, trials: int,
                     seed: int, conditioning: str = "memoryless") -> SopEstimate:
    """Estimate the per-hop SOP by simulation in one conditioning mode,
    `memoryless` or `rejection` at the scenario's power (see
    hop_sop_estimates)."""
    if conditioning not in ("memoryless", "rejection"):
        raise ValueError(f"unknown conditioning mode {conditioning!r}")
    powers = [scenario.power_db] if conditioning == "rejection" else []
    memoryless, rejection = hop_sop_estimates(rs, dist, scenario, trials, seed, powers)
    return rejection[0] if rejection else memoryless


def estimate_path_sop(rs: float, path: Path, topology: Topology,
                      scenario: Scenario, trials: int, seed: int) -> SopEstimate:
    """Estimate the end-to-end SOP of a path.

    Every hop of every trial gets a fresh eavesdropper field and fresh
    fading (randomize-and-forward: observations cannot be combined across
    hops); the path is in outage when any hop's secrecy event fails. Each
    hop owns its own RNG stream so hop draws are independent by key.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < rs < math.inf:
        raise ValueError("rs must be positive and finite")
    # per hop d^alpha, with the hop length the root of its squared-distance
    # entry (exact: sqrt inverts a correctly rounded square); path() rejects
    # a hop that is not an edge
    d_alphas = [math.sqrt(topology.path((u, v)).sum_sq_dist) ** scenario.alpha
                for u, v in zip(path.nodes, path.nodes[1:])]
    n_outage = sum(_outages(rs, d_alphas, n, draws)
                   for n, draws in _blocks(scenario, trials, seed, len(d_alphas)))
    return _estimate(n_outage, trials, seed)


def power_invariance_check(rs: float, dist: float, scenario: Scenario,
                           powers_db, trials: int, seed: int) -> dict:
    """Rejection-mode SOP estimates across transmit powers, on shared draws.

    The closed form carries no power dependence; this check exercises the
    one code path where power enters (the on-off survival filter) and
    flags any pair of estimates further apart than 3 combined standard
    errors (see power_invariance_report).
    """
    powers_db = list(powers_db)
    _, estimates = hop_sop_estimates(rs, dist, scenario, trials, seed, powers_db)
    return power_invariance_report(powers_db, estimates)


def power_invariance_report(powers_db, estimates) -> dict:
    """Pairwise consistency of rejection-mode estimates at the given powers."""
    powers_db = list(powers_db)
    if len(powers_db) < 1:
        raise ValueError("need at least one power level")
    violations = []
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            a, b = estimates[i], estimates[j]
            tol = 3.0 * math.hypot(a.stderr, b.stderr)
            if abs(a.mean - b.mean) > tol:
                violations.append((powers_db[i], powers_db[j],
                                   a.mean, b.mean, tol))
    return {
        "powers_db": powers_db,
        "estimates": estimates,
        "violations": violations,
        "consistent": not violations,
    }
