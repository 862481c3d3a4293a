"""Monte Carlo validation of the secrecy-outage analytics.

Each hop's eavesdroppers are a homogeneous PPP on a disk of radius R
centred on its transmitter (the process is stationary, so the placement
does not matter). Only a point's distance enters the colluding SNR sum, so
a point is drawn as its squared distance r^2, uniform on [0, R^2). Fading
gains are unit-mean exponentials sampled by inverse CDF so a fixed
counter-based RNG stream reproduces bit-identical estimates on any
platform.

Truncating the field can only lower the interference, so an estimate is
biased low. A hop is in outage when h <= theta * I with theta = 2^rs * d^a
and h ~ Exp(1), so the outage probability it misses is at most theta times
the mean interference outside R, which Campbell's theorem gives:

    b(R) = theta * 2 pi lambda R^(2 - a) / (a - 2).

A path estimate misses at most the sum of its hops' b. Hop k of an H-hop
estimate gets the smallest R with b(R) <= tol / H, where tol is a tenth of
the binomial stderr sqrt(p (1 - p) / T) at the closed-form probability p
over T trials. R is capped at the radius of the disk inscribed in the
scenario's `sim_window`; near a = 2 the cap is reached, and b, reported as
the estimate's `bias_bound`, can then exceed the stderr. The closed form
only sizes R: b bounds the bias whatever p is, so the estimate stays an
independent check. The rejection estimates carry the same bound: given
survival of the on-off filter, their outage event is the memoryless one
with a shifted exponential gain.

Trials are processed in blocks by one loop, `_blocks`; hop k of block b
owns a Philox stream keyed by (seed, k, b), from which it draws, in this
order, the per-trial point counts ~ Poisson(lambda pi R^2), the points'
r^2, their gains and the trials' legitimate gains h. Estimates depend only
on the seed and parameters, never on how blocks are scheduled. A block
holds BLOCK trials, fewer where a hop's disk would expect more than
BLOCK_POINTS points in the block; a disk expecting more in one trial is an
input error. Philox is counter-based, so every draw is read at its offset
in the stream: `_block_draws` draws and sums a block's points one run of
whole trials (about RUN_POINTS points) at a time, reading the gains from a
second generator positioned at them, and its memory is per run, not per
block. `_blocks` yields a block's hop draws as a list. Under
randomize-and-forward the path estimator ORs the per-hop outage events of a
trial, and the memoryless hop estimator is its one-hop case.

The hop estimators make one pass: each block's (interference, h) pair is
drawn once, and on it `hop_sop_estimates` counts the memoryless event and
applies the on-off rejection rule once at each distinct transmit power.
Power enters only that filter, so the memoryless estimate, the rejection
estimate and the power-invariance check all read the same draws, which
are dropped once their block is counted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import analytics
from .netmodel import Path, Scenario, Topology

BLOCK = 1 << 14
BLOCK_POINTS = 1 << 23  # expected eavesdropper points per hop and block
RUN_POINTS = 1 << 14  # points drawn and summed at once, an L2-sized run

_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1
_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)


class MonteCarloError(ValueError):
    pass


@dataclass(frozen=True)
class SopEstimate:
    """An outage-probability estimate from `trials` simulated trials.

    The truncated eavesdropper field biases `mean` low by at most
    `bias_bound`, so a closed form p is consistent with the estimate when
    it lies in [mean - 3 stderr, mean + 3 stderr + bias_bound].
    """

    mean: float
    stderr: float
    trials: int
    bias_bound: float

    def covers(self, p: float) -> bool:
        """Whether p lies in [mean - 3 stderr, mean + 3 stderr + bias_bound]."""
        spread = 3.0 * self.stderr
        return self.mean - spread <= p <= self.mean + spread + self.bias_bound

    @property
    def weak(self) -> bool:
        """The bias bound exceeds the stderr, so covering p checks it only weakly."""
        return self.bias_bound > self.stderr


class _ZeroSeed(ISeedSequence):
    """A seed sequence of zeros, for a Philox whose state is then set whole."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


_ZERO_SEED = _ZeroSeed()


def _philox(key: np.ndarray, word: int) -> np.random.Generator:
    """Generator on the Philox stream under `key` (two uint64 words), about
    to read the stream's 64-bit word number `word`.

    Philox is counter-based: counter c yields words 4c - 4 .. 4c - 1, so
    any word is reached by setting the documented `state` to the counter
    before its group and skipping the group's first word % 4 words.
    """
    group, skip = divmod(word, 4)
    bits = np.random.Philox(_ZERO_SEED)
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([(group >> s) & _MASK64 for s in (0, 64, 128, 192)],
                                      np.uint64),
                  "key": key},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    if skip:
        bits.random_raw(skip)
    return np.random.Generator(bits)


def _words_read(state: dict) -> int:
    """64-bit words a Philox generator in `state` has read: its counter c
    has produced 4c words, of which the last 4 - buffer_pos are unread."""
    counter = sum(int(v) << (64 * i) for i, v in enumerate(state["state"]["counter"]))
    return 4 * counter - 4 + state["buffer_pos"]


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Counter-based generator for one (stream, block) cell of a seed.

    Its stream is np.random.Philox(key=k)'s, a zero counter under the
    128-bit key k = seed * 2^64 + stream * 2^48 + block, with seed, stream
    and block masked to 64, 16 and 48 bits. It is built through Philox's
    documented `state` instead (`_philox` at word 0): given a key, that
    constructor still draws OS entropy for a seed that it then discards,
    about half its time.
    """
    key = np.array([((stream & 0xFFFF) << 48) | (block & _MASK48), seed & _MASK64], np.uint64)
    return _philox(key, 0)


def _exponential(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Unit-mean exponential draws written into `out`, by inverse CDF, which
    keeps the draw reproducible across numpy versions."""
    u = rng.random(out=out)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _log_theta(rs: float, dist: float, alpha: float) -> float:
    """log(2^rs * d^alpha), checked to leave 2^rs and 2^rs * d^alpha finite
    floats; an overflow names the larger of the two exponents' terms."""
    log_gain, log_path = rs * _LN2, alpha * math.log(dist)
    if max(log_gain, log_gain + log_path) >= _LOG_MAX:
        name, value = ("rs", rs) if log_gain >= log_path else ("alpha", alpha)
        raise OverflowError(f"{name} = {value:g} overflows a float in 2^rs * d^alpha "
                            f"(hop length {dist:g})")
    return log_gain + log_path


def _disk(log_theta: float, scenario: Scenario, tol: float, cap: float):
    """Radius R and bias bound b(R) of one hop's field: the smallest R with
    b(R) <= tol, at most `cap`.

    Both are computed in logs, so that alpha near 2 reaches the cap instead
    of overflowing. R is sized for log b(R) = log tol - 1e-9, a margin that
    keeps b(R) <= tol through rounding. b is at most 1, since it bounds a
    gap between two probabilities.
    """
    lam, alpha = scenario.lambda_e, scenario.alpha
    if lam == 0.0:
        return cap, 0.0
    # b(R) = exp(log_c + (2 - alpha) log R)
    log_c = log_theta + math.log(2.0 * math.pi * lam) - math.log(alpha - 2.0)
    radius = cap
    if tol > 0.0:
        log_r = (log_c - math.log(tol) + 1e-9) / (alpha - 2.0)
        if log_r < math.log(cap):
            # a radius that underflows keeps the least positive float
            radius = max(math.exp(log_r), math.ulp(0.0))
    return radius, math.exp(min(log_c + (2.0 - alpha) * math.log(radius), 0.0))


def _hop_fields(rs: float, dists, scenario: Scenario, p: float, trials: int):
    """Each hop's outage scale theta = 2^rs * d^alpha and disk radius, and the
    summed bias bound; the hops share a tenth of the binomial stderr at the
    closed-form probability p as their tolerance."""
    tol = math.sqrt(p * (1.0 - p) / trials) / (10.0 * len(dists))
    xmin, xmax, ymin, ymax = scenario.sim_window
    cap = 0.5 * min(xmax - xmin, ymax - ymin)
    thetas, radii, bias_bound = [], [], 0.0
    for dist in dists:
        log_theta = _log_theta(rs, dist, scenario.alpha)
        radius, bias = _disk(log_theta, scenario, tol, cap)
        thetas.append(math.exp(log_theta))
        radii.append(radius)
        bias_bound += bias
    return thetas, radii, bias_bound


def _runs(counts: np.ndarray, total: int) -> list:
    """(first trial, end trial, points) of each run of whole trials: runs
    hold at most RUN_POINTS points, save a trial holding more, which is a
    run alone with the zero-point trials after it."""
    n = len(counts)
    if total <= RUN_POINTS:
        return [(0, n, total)]
    ends = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=ends[1:])
    runs, t0 = [], 0
    while t0 < n:
        cap = max(int(ends[t0]) + RUN_POINTS, int(ends[t0 + 1]))
        t1 = int(np.searchsorted(ends, cap, "right")) - 1
        runs.append((t0, t1, int(ends[t1] - ends[t0])))
        t0 = t1
    return runs


def _block_draws(rng, scenario: Scenario, radius: float, n):
    """Per-trial interference sums I = sum S_e/|X_e|^alpha and legit gains H,
    for eavesdroppers on the disk of `radius` around the transmitter.

    Draw order (counts, r^2, gains, H) is part of the reproducibility
    contract; both conditioning modes and all power levels consume the
    identical stream. Each r^2 and each gain is one 64-bit word, so after
    the counts the block's `total` points' r^2 fill the next `total` words,
    their gains the `total` after those, and H follows. The points are
    drawn and summed one run of whole trials at a time (`_runs`): r^2 from
    `rng`, gains from a second generator on the same key positioned at the
    gain words, so a block holds two run-sized buffers whatever its size.
    A one-run block reads its gains from `rng` itself, which then stands
    at them. Every trial's sum runs in point order, as in one pass.
    """
    counts = rng.poisson(scenario.lambda_e * math.pi * radius * radius, n)
    total = int(counts.sum())
    runs = _runs(counts, total)
    gain_rng = rng
    if len(runs) > 1:
        state = rng.bit_generator.state
        gain_rng = _philox(state["state"]["key"], _words_read(state) + total)
    size = max(m for _, _, m in runs)
    r2_buf, gain_buf = np.empty(size), np.empty(size)
    interference = np.empty(n)
    for t0, t1, m in runs:
        contrib = rng.random(out=r2_buf[:m])
        contrib *= radius * radius
        np.power(contrib, -scenario.alpha / 2.0, out=contrib)
        contrib *= _exponential(gain_rng, gain_buf[:m])
        idx = np.repeat(np.arange(t1 - t0), counts[t0:t1])
        interference[t0:t1] = np.bincount(idx, weights=contrib, minlength=t1 - t0)
    h = _exponential(gain_rng, np.empty(n))
    return interference, h


def _blocks(scenario: Scenario, radii, trials: int, seed: int):
    """Yield each block's size n and the list of its hops' (interference, h),
    hop k drawn on the disk of radius radii[k].

    Hop k of block b draws from block_rng(seed, k, b). Every block but the
    last holds min(BLOCK, BLOCK_POINTS // ceil(max_k lambda pi R_k^2)) trials.
    """
    lam = scenario.lambda_e
    per_trial = max(lam * math.pi * radius * radius for radius in radii)
    if per_trial > BLOCK_POINTS:
        raise ValueError(f"lambda_e = {lam:g} puts {per_trial:.3g} expected eavesdroppers "
                         f"on one hop's disk of radius {max(radii):g}, more than "
                         f"{BLOCK_POINTS} per trial; lower lambda_e or window")
    size = min(BLOCK, BLOCK_POINTS // max(math.ceil(per_trial), 1))
    for block, done in enumerate(range(0, trials, size)):
        n = min(size, trials - done)
        yield n, [_block_draws(block_rng(seed, k, block), scenario, radius, n)
                  for k, radius in enumerate(radii)]


def _outages(thetas, n: int, draws) -> int:
    """Count a block's trials in which any hop's memoryless secrecy event
    h <= theta * I, theta = 2^rs * d^alpha, fails."""
    out = np.zeros(n, dtype=bool)
    for theta, (interference, h) in zip(thetas, draws):
        out |= h <= theta * interference
    return int(np.count_nonzero(out))


def _estimate(n_outage: int, n_effective: int, bias_bound: float) -> SopEstimate:
    if n_effective == 0:
        raise MonteCarloError(
            "no trials survived the on-off threshold; increase trials or power")
    mean = n_outage / n_effective
    stderr = math.sqrt(mean * (1.0 - mean) / n_effective)
    return SopEstimate(mean, stderr, n_effective, bias_bound)


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
    through that filter, so every estimate reads the same block draws, and
    equal powers share one estimate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 < rs < math.inf and 0.0 < dist < math.inf):
        raise ValueError("rs and dist must be positive and finite")
    # replace() validates each power as a Scenario would; the filter reads
    # only the linear power, so each distinct one is applied once
    powers = [replace(scenario, power_db=pdb).power_linear for pdb in powers_db]
    distinct = list(dict.fromkeys(powers))
    (theta,), radii, bias_bound = _hop_fields(
        rs, [dist], scenario, analytics.hop_sop(rs, dist, scenario), trials)

    d_alpha = dist ** scenario.alpha
    beta_t = 2.0 ** rs - 1.0
    n_memoryless = 0
    n_outage = [0] * len(distinct)
    n_effective = [0] * len(distinct)
    for n, draws in _blocks(scenario, radii, trials, seed):
        (interference, h), = draws
        n_memoryless += _outages([theta], n, draws)
        for i, p in enumerate(distinct):
            # h / 0.0 is the infinite-SNR limit of a vanishing hop: every
            # trial survives the filter and none falls short
            with np.errstate(divide="ignore"):
                snr = p * h / d_alpha
            keep = snr > beta_t
            snr_sum = p * interference[keep]
            shortfall = np.log2((1.0 + snr[keep]) / (1.0 + snr_sum)) < rs
            n_outage[i] += int(np.count_nonzero(shortfall))
            n_effective[i] += int(np.count_nonzero(keep))
    rejection = [_estimate(o, e, bias_bound) for o, e in zip(n_outage, n_effective)]
    return (_estimate(n_memoryless, trials, bias_bound),
            [rejection[distinct.index(p)] for p in powers])


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
    # each hop length is the root of its squared-distance entry (exact:
    # sqrt inverts a correctly rounded square); path() rejects a hop that is
    # not an edge
    dists = [math.sqrt(topology.path((u, v)).sum_sq_dist)
             for u, v in zip(path.nodes, path.nodes[1:])]
    thetas, radii, bias_bound = _hop_fields(
        rs, dists, scenario, analytics.path_sop(rs, path, scenario), trials)
    n_outage = sum(_outages(thetas, n, draws)
                   for n, draws in _blocks(scenario, radii, trials, seed))
    return _estimate(n_outage, trials, bias_bound)


def power_invariance_check(rs: float, dist: float, scenario: Scenario,
                           powers_db, trials: int, seed: int) -> list:
    """Rejection-mode SOP estimates across transmit powers, on shared draws.

    The closed form carries no power dependence; this check exercises the
    one code path where power enters (the on-off survival filter) and
    returns the pairs of estimates further apart than 3 combined standard
    errors (see power_invariance_report); [] means consistent.
    """
    powers_db = list(powers_db)
    _, estimates = hop_sop_estimates(rs, dist, scenario, trials, seed, powers_db)
    return power_invariance_report(powers_db, estimates)


def power_invariance_report(powers_db, estimates) -> list:
    """The pairs power_invariance_check returns, each (p_i, p_j, mean_i, mean_j, tol)."""
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
    return violations
