"""Monte Carlo validation of the secrecy-outage analytics.

Eavesdroppers are drawn as a homogeneous PPP truncated to the scenario
window translated to centre on the hop's transmitter (the process is
stationary, so only the window's shape and size matter; far points
contribute negligibly to the colluding SNR sum for path-loss exponents
above 2). Fading gains are unit-mean exponentials
sampled by inverse CDF so a fixed counter-based RNG stream reproduces
bit-identical estimates on any platform.

Trials are processed in fixed-size blocks; each block owns a Philox
stream keyed by (seed, stream id, block index), so estimates depend only
on the seed and parameters, never on how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _exponential(rng: np.random.Generator, size) -> np.ndarray:
    # inverse CDF keeps the draw reproducible across numpy versions
    return -np.log1p(-rng.random(size))


def _block_draws(rng, scenario: Scenario, n):
    """Per-trial interference sums I = sum S_e/|X_e|^alpha and legit gains H.

    Positions X_e are offsets from the transmitter, uniform on the window
    translated so that its centre sits at the transmitter.

    Draw order (counts, positions, gains, H) is part of the reproducibility
    contract; both conditioning modes and all power levels consume the
    identical stream.
    """
    xmin, xmax, ymin, ymax = scenario.sim_window
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    counts = rng.poisson(scenario.lambda_e * scenario.window_area, n)
    total = int(counts.sum())
    xs = rng.uniform(xmin - cx, xmax - cx, total)
    ys = rng.uniform(ymin - cy, ymax - cy, total)
    gains = _exponential(rng, total)
    h = _exponential(rng, n)
    r2 = xs ** 2 + ys ** 2
    contrib = gains * r2 ** (-scenario.alpha / 2.0)
    idx = np.repeat(np.arange(n), counts)
    interference = np.bincount(idx, weights=contrib, minlength=n)
    return interference, h


def _hop_outage_blocks(scenario, trials, seed, stream):
    """Yield per-block memoryless inputs (interference, h) for a single hop."""
    done = 0
    block = 0
    while done < trials:
        n = min(BLOCK, trials - done)
        rng = block_rng(seed, stream, block)
        yield _block_draws(rng, scenario, n)
        done += n
        block += 1


def estimate_hop_sop(rs: float, dist: float, scenario: Scenario, trials: int,
                     seed: int, conditioning: str = "memoryless") -> SopEstimate:
    """Estimate the per-hop SOP by simulation.

    `memoryless` counts the unconditional event H/d^a <= 2^rs * sum S/X^a,
    exact by the memoryless property of the exponential legitimate gain.
    `rejection` simulates the on-off rule literally: it discards trials
    whose legitimate SNR falls below the threshold 2^rs - 1 and counts
    secrecy-capacity shortfalls among the survivors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rs <= 0.0 or dist <= 0.0:
        raise ValueError("rs and dist must be positive")
    if conditioning not in ("memoryless", "rejection"):
        raise ValueError(f"unknown conditioning mode {conditioning!r}")

    d_alpha = dist ** scenario.alpha
    gain = 2.0 ** rs
    beta_t = gain - 1.0
    p = scenario.power_linear

    n_outage = 0
    n_effective = 0
    for interference, h in _hop_outage_blocks(scenario, trials, seed, 0):
        if conditioning == "memoryless":
            n_outage += int(np.count_nonzero(h <= gain * d_alpha * interference))
            n_effective += len(h)
        else:
            snr = p * h / d_alpha
            keep = snr > beta_t
            snr_sum = p * interference[keep]
            shortfall = np.log2((1.0 + snr[keep]) / (1.0 + snr_sum)) < rs
            n_outage += int(np.count_nonzero(shortfall))
            n_effective += int(np.count_nonzero(keep))

    if n_effective == 0:
        raise MonteCarloError(
            "no trials survived the on-off threshold; increase trials or power")
    mean = n_outage / n_effective
    stderr = math.sqrt(mean * (1.0 - mean) / n_effective)
    return SopEstimate(mean, stderr, n_effective, seed)


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
    if rs <= 0.0:
        raise ValueError("rs must be positive")
    # per hop d^alpha, with the hop length the root of its squared-distance
    # entry (exact: sqrt inverts a correctly rounded square); path() rejects
    # a hop that is not an edge
    d_alphas = [math.sqrt(topology.path((u, v)).sum_sq_dist) ** scenario.alpha
                for u, v in zip(path.nodes, path.nodes[1:])]
    gain = 2.0 ** rs

    n_outage = 0
    done = 0
    block = 0
    while done < trials:
        n = min(BLOCK, trials - done)
        out = np.zeros(n, dtype=bool)
        for stream, d_alpha in enumerate(d_alphas):
            rng = block_rng(seed, stream, block)
            interference, h = _block_draws(rng, scenario, n)
            out |= h <= gain * d_alpha * interference
        n_outage += int(np.count_nonzero(out))
        done += n
        block += 1

    mean = n_outage / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return SopEstimate(mean, stderr, trials, seed)


def power_invariance_check(rs: float, dist: float, scenario: Scenario,
                           powers_db, trials: int, seed: int) -> dict:
    """Rejection-mode SOP estimates across transmit powers, on shared streams.

    The closed form carries no power dependence; this check exercises the
    one code path where power enters (the on-off survival filter) and
    flags any pair of estimates further apart than 3 combined standard
    errors.
    """
    powers_db = list(powers_db)
    if len(powers_db) < 1:
        raise ValueError("need at least one power level")
    estimates = []
    for pdb in powers_db:
        sc = Scenario(scenario.alpha, scenario.lambda_e, scenario.epsilon,
                      power_db=pdb, sim_window=scenario.sim_window)
        estimates.append(estimate_hop_sop(rs, dist, sc, trials, seed,
                                          conditioning="rejection"))
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
