"""Monte Carlo validation of the secrecy-outage analytics.

Each hop's eavesdroppers are a homogeneous PPP on a disk of radius R
centred on its transmitter (the process is stationary, so the placement
does not matter). A hop of length d at rate rs, with unit-mean exponential
gains h and S_e, is in outage when h / d^a <= 2^rs sum S_e / r_e^a, that is
h <= I = sum S_e (r_e/rho)^-a in units of its outage radius
rho = 2^(rs/a) d. So a point is drawn as its squared distance in units of
rho, (r/rho)^2 uniform on [0, (R/rho)^2). Gains, where an estimator
draws them, are sampled by inverse CDF, each point's read next to its
distance, so a fixed counter-based RNG stream, read strictly in order,
reproduces bit-identical estimates on any platform.

The field outside a hop's disk is added exactly. It is a PPP on a region
disjoint from the disk, so it is independent of the simulated points, and
P(no outage) is the simulated one times exp(-tau(R)), where tau is the
far field's Laplace exponent 2 pi lambda Int_R^inf r / (1 + (r/rho)^a) dr.
The substitution t = (r/rho)^a gives it for every R (Haenggi, Stochastic
Geometry for Wireless Networks; DLMF 8.17):

    tau(R) = K1 rho^2 I_{x/(1+x)}(1 - 2/a, 2/a),   x = (R/rho)^-a,

K1 = pi lambda G(1 + 2/a) G(1 - 2/a), G the gamma function, and I the
regularized incomplete beta function, summed by `_beta_share`. So I is
the share of the hop's closed-form exponent K1 rho^2 that lies beyond R.
With T the sum of the hops' tau, a simulated mean m maps to
1 - exp(-T) (1 - m) and its stderr to exp(-T) stderr. The rejection
estimates map the same way: given survival of the on-off filter, their
outage event is the memoryless one with a shifted, again Exp(1), gain.

Hop k's disk has radius R_k = min(cap, c_a rho_k), cap the radius of the
disk inscribed in the scenario's `sim_window` and

    c_a = (2 / (TAIL_SHARE (a - 2) G(1 + 2/a) G(1 - 2/a)))^(1/(a - 2)).

Since 1 / (1 + (r/rho)^a) < (r/rho)^-a, tau(R) is below
2 pi lambda rho^2 (R/rho)^(2 - a) / (a - 2), and c_a makes that bound
TAIL_SHARE of K1 rho^2. So where the cap does not bind, the simulation
carries at least 1 - TAIL_SHARE of the hop's outage exponent and stays an
independent check; where it binds, the far field carries more, and an
estimate's share of it is tail / -ln(1 - p) at a closed form p. R depends
on neither lambda nor the trial count.

Trials are processed in blocks by one loop, `_blocks`, which gives the
block layout and each hop-block's stream; `_point_sums` gives the
layout of a hop's stream within a block. Each (seed, hop, block) has its
own Philox stream, fixed by its key alone (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so one generator re-keyed per
hop-block (`block_rngs`) reads every stream bit for bit, and one estimator
call, a whole `sop-curve` sweep included, builds one Philox and one set of
chunk buffers. So estimates depend only on the seed and the parameters,
never on how blocks are scheduled or how rows are batched.

The path estimator, `estimate_path_sops`, draws no gain. Given a trial's
points, hop k survives Rayleigh fading with probability exactly
prod_e 1 / (1 + x_e), x = (r/rho_k)^-a, the Laplace transform the closed
form integrates over the PPP; under randomize-and-forward the trial's
path is in outage with probability q = 1 - exp(-L),
L = sum_k sum_e log1p(x_e). The estimate is q's mean with its sample
stderr (Rao-Blackwellization, Casella and Robert, Biometrika 1996): the
expectation of the drawn outage indicator, at a variance two to six times
smaller on the `sop-curve` rows.

The hop estimators stay literal and make one pass: each block's (I, h)
pair is drawn once, on the same points as a one-hop path's, and on it
`hop_sop_estimates` counts the memoryless event h <= I and applies the
on-off rejection rule once at each distinct transmit power p, as the gain
threshold h > c = (2^rs - 1) d^a / p. Power enters only that filter, so
the memoryless estimate, the rejection estimate and the power-invariance
check all read the same draws, which are dropped once their block is
counted. c is the one place 2^rs and d^a are formed.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .netmodel import Scenario, Topology

BLOCK = 1 << 14
TRIAL_POINTS = 1 << 23  # most expected eavesdropper points on one trial's disk
RUN_POINTS = 1 << 13  # points drawn and summed at once, an L2-sized chunk
TAIL_SHARE = 0.05  # most of a hop's outage exponent left to the exact far field
# rounding of a mapped mean against the closed form, relative to the tail:
# measured at most 4.8e-15 over 3654 hops against 60-digit values
TAIL_RTOL = 1e-13

_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1
_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)


class MonteCarloError(ValueError):
    pass


@dataclass(frozen=True)
class SopEstimate:
    """An outage-probability estimate from `trials` simulated trials.

    `tail` is the summed far-field exponent T added exactly to the
    simulated disks, inf (and the mean 1) where a hop's outage radius
    overflows. A closed form p is consistent with the estimate when
    it lies within 3 stderr, widened by the far-field map's rounding
    TAIL_RTOL T, of the mean. A stderr of 0 (no trial, or every trial, in
    outage; for a path, every trial's conditional outage alike) reads as
    the binomial stderr of the simulated disks at p,
    mapped as `_estimate` maps it: exp(-tail) sqrt(m (1 - m) / trials),
    m = (p + expm1(-tail)) exp(tail) clamped to [0, 1], which does not
    cancel to 0 where 1 - p rounds to 1 (p below about 1e-16); where the
    disks hold next to none of the exponent, m is a few ulp of p, or 0.
    """

    mean: float
    stderr: float
    trials: int
    tail: float

    def _stderr_at(self, p: float) -> float:
        if self.stderr:
            return self.stderr
        keep = math.exp(-self.tail)
        m = min(max((p + math.expm1(-self.tail)) / keep, 0.0), 1.0) if keep else 1.0
        return keep * math.sqrt(m * (1.0 - m) / self.trials)

    def covers(self, p: float) -> bool:
        """Whether p lies in [mean - spread, mean + spread], spread =
        3 stderr + TAIL_RTOL tail."""
        spread = 3.0 * self._stderr_at(p) + TAIL_RTOL * self.tail
        return self.mean - spread <= p <= self.mean + spread


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """A fresh counter-based generator for one (stream, block) cell of a
    seed, the reference for the streams block_rngs reads; no estimator
    builds one.

    It is np.random.Generator(np.random.Philox(key=k)), a zero counter
    under the 128-bit key k = seed * 2^64 + stream * 2^48 + block, with
    seed, stream and block masked to 64, 16 and 48 bits (`_block_key`).
    """
    low, high = _block_key(seed, stream, block)
    return np.random.Generator(np.random.Philox(key=high << 64 | low))


def block_rngs(keys):
    """Yield, for each (seed, stream, block) key of `keys` in turn, a
    generator on the stream of block_rng(seed, stream, block).

    It is one generator, built on a fixed seed whose state the first
    re-key overwrites, and re-keyed before each yield by setting Philox's
    documented `state` to a zero counter and an empty buffer under the
    key, so each is valid only until the next is taken. A re-key takes
    0.8 us, where a fresh block_rng takes about 11 us (timeit, best of
    runs of 20 000 calls, 2-core x86-64, numpy 2.4).
    """
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        state["state"]["key"] = _block_key(*key)
        bits.state = state
        yield rng


def _block_key(seed: int, stream: int, block: int) -> tuple[int, int]:
    """The two 64-bit words of the Philox key of a (seed, stream, block) cell."""
    return ((stream & 0xFFFF) << 48) | (block & _MASK48), seed & _MASK64


def _exponential(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unit-mean exponentials -log(1 - u) of uniform words u, written into
    `out`: the inverse CDF keeps the draw reproducible across numpy versions."""
    np.negative(words, out=out)
    np.log1p(out, out=out)
    return np.negative(out, out=out)


def _gain_threshold(rs: float, dist: float, alpha: float, power: float) -> float:
    """The on-off rule p h / d^alpha > 2^rs - 1 as a gain threshold h > c =
    (2^rs - 1) d^alpha / p, checked to leave 2^rs and 2^rs * d^alpha finite
    floats; an overflow names the larger of the two exponents' terms."""
    log_gain, log_path = rs * _LN2, alpha * math.log(dist)
    if max(log_gain, log_gain + log_path) >= _LOG_MAX:
        name, value = ("rs", rs) if log_gain >= log_path else ("alpha", alpha)
        raise OverflowError(f"{name} = {value:g} overflows a float in 2^rs * d^alpha "
                            f"(hop length {dist:g})")
    return (2.0 ** rs - 1.0) * dist ** alpha / power


@functools.lru_cache(maxsize=256)
def _beta_share(log_x: float, p: float, q: float) -> float:
    """The regularized incomplete beta function I_z(p, q) at z = x / (1 + x),
    x = exp(log_x), for p + q = 1 (DLMF 8.17(ii)).

    Where x <= 1, so z <= 1/2, it sums the series

        I_z(p, q) = z^p sum_{n>=0} (p)_n z^n / (n! (p + n)) / (G(p) G(q)),

    whose terms fall at least as fast as 2^-n, so a few dozen reach double
    precision; where x > 1 it reflects, I_z(p, q) = 1 - I_{1-z}(q, p), and
    1 - z = x' / (1 + x') with log x' = -log_x. log z is taken as
    log x - log1p(x), so a z that underflows reads 0. It is cached: x
    depends on neither lambda nor the hop length where the cap does not
    bind, so a sweep's uncapped hops at one alpha share one sum.
    """
    if log_x > 0.0:
        return 1.0 - _beta_share(-log_x, q, p)
    log_z = log_x - math.log1p(math.exp(log_x))
    z = math.exp(log_z)
    total, n, coef, term = 0.0, 0, 1.0, 1.0 / p  # coef = (p)_n z^n / n!
    while total + term > total:
        total += term
        coef *= (p + n) * z / (n + 1)
        n += 1
        term = coef / (p + n)
    return math.exp(p * log_z) * total / (math.gamma(p) * math.gamma(q))


@functools.lru_cache(maxsize=64)
def _field_constants(alpha: float) -> tuple[float, float]:
    """(log c_a, G(1 + 2/a) G(1 - 2/a)), the far field's factors that are
    fixed per alpha; every hop of every row asks for them."""
    log_gammas = math.lgamma(1.0 + 2.0 / alpha) + math.lgamma(1.0 - 2.0 / alpha)
    # tau's bound 2 pi lambda rho^2 (R/rho)^(2 - a) / (a - 2) = TAIL_SHARE K1 rho^2
    log_c = (_LN2 - math.log(TAIL_SHARE) - math.log(alpha - 2.0) - log_gammas) / (alpha - 2.0)
    return log_c, math.exp(log_gammas)


def _hop_fields(rs: float, dists, scenario: Scenario):
    """Each hop's disk radius R and outage radius rho = 2^(rs/alpha) d, inf
    where it overflows, and the summed far-field exponent T of the hops'
    tau(R) = K1 rho^2 I_{x/(1+x)}(1 - 2/a, 2/a), x = (R/rho)^-alpha.

    log(R/rho) is min(log c_a, log cap - log rho), taken in logs so that
    alpha near 2 reaches the cap instead of overflowing, and not as
    log R - log rho, so that a huge alpha multiplies no rounding error. A
    disk expecting more than TRIAL_POINTS points in one trial is an input
    error: no block size fits it.
    """
    lam, alpha = scenario.lambda_e, scenario.alpha
    log_c, gammas = _field_constants(alpha)
    xmin, xmax, ymin, ymax = scenario.sim_window
    cap = 0.5 * min(xmax - xmin, ymax - ymin)
    log_cap, p, q = math.log(cap), (alpha - 2.0) / alpha, 2.0 / alpha
    radii, units, tail = [], [], 0.0
    for dist in dists:
        log_rho = rs * _LN2 / alpha + math.log(dist)
        log_reach = min(log_c, log_cap - log_rho)
        radii.append(cap if log_reach < log_c else math.exp(log_c + log_rho))
        rho = math.exp(log_rho) if log_rho < _LOG_MAX else math.inf
        units.append(rho)
        if lam:  # K1 rho^2 times the share; a float product, so an overflow reads inf
            tail += math.pi * lam * gammas * rho * rho * _beta_share(-alpha * log_reach, p, q)
    per_trial = max(lam * math.pi * radius * radius for radius in radii)
    if per_trial > TRIAL_POINTS:
        raise ValueError(f"lambda_e = {lam:g} puts {per_trial:.3g} expected eavesdroppers "
                         f"on one hop's disk of radius {max(radii):g}, more than "
                         f"{TRIAL_POINTS} per trial; lower lambda_e or window")
    return radii, units, tail


def _chunk_buffers():
    """The buffers `_point_sums` draws and sums RUN_POINTS points in: (u, w)
    word pairs, x, gains and trial indices. One set serves every hop-block
    of an estimator call."""
    return (np.empty((RUN_POINTS, 2)), np.empty(RUN_POINTS), np.empty(RUN_POINTS),
            np.empty(RUN_POINTS, np.intp))


def _point_sums(rng, scenario: Scenario, radius: float, unit: float, n: int,
                gains: bool, buffers) -> np.ndarray:
    """Per-trial sums over the eavesdroppers of a block's n trials on the
    disk of `radius` around the transmitter of a hop of outage radius
    rho = `unit`: of S_e x_e with `gains`, the interference I, and of
    log1p(x_e) without, the conditional outage exponent L, where
    x = (r/rho)^-alpha.

    In (r/rho)^2 space a disk is the interval [0, (R/rho)^2), so the
    block's n disks laid end to end are one interval, and a PPP on it is a
    Poisson number of i.i.d. uniform points. The stream layout, part of the
    reproducibility contract, is: one Poisson total with mean
    lambda pi R^2 n; one word pair (u, w) per point, in point order, where
    s = n u puts the point in trial floor(s) at
    (r/rho)^2 = (s - floor(s)) (R/rho)^2 and w gives its gain -log(1 - w),
    read only with `gains`; then the n words of the legitimate gains h,
    which only `_block_draws` reads. So every estimator sees the same
    points. A point so close that x overflows, or any where rho is inf,
    adds inf, the limit it stands for; the Poisson mean reads R alone,
    finite there.

    The pairs are read in order and summed RUN_POINTS at a time, in the
    caller's `_chunk_buffers`, so a block holds a few chunk-sized buffers
    whatever its size. Each trial's sum runs in point order (np.add.at), so
    the sums are bit-identical whatever RUN_POINTS is. The caller ignores
    overflow and division by zero (np.errstate), once for all its
    hop-blocks.

    u is a multiple of 2^-53 below 1, so floor(s) is uniform over the trials
    to within n 2^-53 <= 2^-39, and even (1 - 2^-53) n floors to n - 1;
    (r/rho)^2 keeps 53 - ceil(log2 n) >= 39 bits and lies in [0, (R/rho)^2).
    """
    reach = radius / unit
    reach2 = reach * reach  # a float product, which overflows to inf, not an error
    total = rng.poisson(scenario.lambda_e * math.pi * (radius * radius) * n)
    words, x_buf, gain_buf, trial_buf = buffers
    sums = np.zeros(n)
    for start in range(0, total, RUN_POINTS):
        m = min(RUN_POINTS, total - start)
        pairs = rng.random(out=words[:m])
        # each column is read once, into a contiguous buffer
        x = np.multiply(pairs[:, 0], n, out=x_buf[:m])
        trial = np.floor(x, out=trial_buf[:m], casting="unsafe")
        x -= trial
        x *= reach2
        np.power(x, -scenario.alpha / 2.0, out=x)
        if gains:
            x *= _exponential(pairs[:, 1], gain_buf[:m])
        else:
            np.log1p(x, out=x)
        np.add.at(sums, trial, x)
    return sums


def _block_draws(rng, scenario: Scenario, radius: float, unit: float, n: int, buffers):
    """Per-trial interference sums I = sum S_e (r_e / rho)^-alpha and legit
    gains h of a block's n trials, read as `_point_sums` lays them out."""
    interference = _point_sums(rng, scenario, radius, unit, n, True, buffers)
    h = rng.random(n)
    return interference, _exponential(h, h)


def _blocks(rows, trials: int):
    """Yield (row index, n, hops) for each block b of each row (seed, radii,
    units) of `rows` in turn. Block b holds trials b * BLOCK to
    min((b + 1) * BLOCK, trials) - 1, n of them; `hops` yields (radius,
    unit, generator) for each hop k in turn, the generator on
    block_rng(seed, k, b)'s stream.

    Every generator is one Philox, re-keyed per (seed, hop, block) by
    block_rngs (0.8 us a hop-block, where a fresh block_rng takes about
    11 us), so each is valid only until the next is taken: a block's hops
    are drawn one after the other, in order, and in full.
    """
    blocks = range(0, trials, BLOCK)
    rngs = block_rngs((seed, k, b) for seed, radii, _ in rows
                      for b in range(len(blocks)) for k in range(len(radii)))
    for i, (_, radii, units) in enumerate(rows):
        for done in blocks:
            # radii lead, so the zip ends at the block's last hop and takes no key past it
            yield i, min(BLOCK, trials - done), zip(radii, units, rngs)


def _mapped(mean: float, stderr: float, trials: int, tail: float) -> SopEstimate:
    """A simulated mean m and its stderr with the far field added:
    mean 1 - exp(-tail) (1 - m), stderr exp(-tail) stderr."""
    keep = math.exp(-tail)
    return SopEstimate(-math.expm1(-tail) + keep * mean, keep * stderr, trials, tail)


def _estimate(n_outage: int, n_effective: int, tail: float) -> SopEstimate:
    """The simulated fraction m = n_outage / n_effective and its binomial
    stderr sqrt(m (1 - m) / n), mapped by the far field."""
    if n_effective == 0:
        raise MonteCarloError(
            "no trials survived the on-off threshold; increase trials or power")
    mean = n_outage / n_effective
    return _mapped(mean, math.sqrt(mean * (1.0 - mean) / n_effective), n_effective, tail)


def _outage_moments(log_survival: np.ndarray) -> tuple[int, float, float, float]:
    """A block's count n, sum, summed deviations and summed squared
    deviations of its trials' conditional outages q = 1 - exp(-L),
    L = `log_survival`, which is overwritten. The deviations are taken
    from the block's rounded mean m = sum / n, so nothing cancels where q
    is nearly constant; their sum is what m's rounding leaves over."""
    neg_q = np.expm1(np.negative(log_survival, out=log_survival), out=log_survival)
    total = -float(neg_q.sum())
    neg_q += total / len(neg_q)
    left = -float(neg_q.sum())
    neg_q *= neg_q
    return len(neg_q), total, left, float(neg_q.sum())


def _moments_estimate(moments, tail: float) -> SopEstimate:
    """The mean of the blocks' conditional outages and its sample stderr,
    mapped by the far field, from each block's `_outage_moments`. The
    squared deviations split exactly by block into non-negative terms,
    sum_b dev_b + n_b (mean_b - mean)^2, mean_b = m_b + left_b / n_b."""
    trials = sum(n for n, _, _, _ in moments)
    mean = math.fsum(total for _, total, _, _ in moments) / trials
    dev = math.fsum([dev for _, _, _, dev in moments]
                    + [n * (total / n - mean + left / n) ** 2 for n, total, left, _ in moments])
    return _mapped(mean, math.sqrt(dev / max(trials - 1, 1) / trials), trials, tail)


def hop_sop_estimates(rs: float, dist: float, scenario: Scenario, trials: int,
                      seed: int, powers_db) -> tuple[SopEstimate, list[SopEstimate]]:
    """Per-hop SOP estimates in both conditioning modes from one pass over
    the draws: the memoryless estimate and one rejection estimate per
    transmit power in `powers_db`.

    `memoryless` counts the unconditional event h <= I, exact by the
    memoryless property of the exponential legitimate gain; it reads the
    eavesdroppers of estimate_path_sops on a one-hop path of length dist.
    `rejection` simulates the on-off rule literally: it discards trials
    whose legitimate SNR p h / d^a is at most 2^rs - 1 and counts
    secrecy-capacity shortfalls log2((1 + p h / d^a) / (1 + p sum S / r^a))
    < rs among the survivors; divided through by d^a / p, these read
    h > c and h < c + I, c = (2^rs - 1) d^a / p. Power enters only through
    c, so every estimate reads the same block draws, and equal thresholds
    share one estimate. Both modes count drawn fading, so they check the
    simulated channel itself, where estimate_path_sops averages it out.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 < rs < math.inf and 0.0 < dist < math.inf):
        raise ValueError("rs and dist must be positive and finite")
    # replace() validates each power as a Scenario would; each distinct
    # threshold is applied once, its [outages, survivors] tallied under it
    thresholds = [_gain_threshold(rs, dist, scenario.alpha,
                                  replace(scenario, power_db=pdb).power_linear)
                  for pdb in powers_db]
    counts = {c: [0, 0] for c in thresholds}
    radii, units, tail = _hop_fields(rs, [dist], scenario)
    n_memoryless = 0
    buffers = _chunk_buffers()
    with np.errstate(over="ignore", divide="ignore"):
        for _, n, hops in _blocks([(seed, radii, units)], trials):
            ((radius, unit, rng),) = hops
            interference, h = _block_draws(rng, scenario, radius, unit, n, buffers)
            n_memoryless += int(np.count_nonzero(h <= interference))
            for c, tally in counts.items():
                keep = h > c
                tally[0] += int(np.count_nonzero(keep & (h < c + interference)))
                tally[1] += int(np.count_nonzero(keep))
    return (_estimate(n_memoryless, trials, tail),
            [_estimate(*counts[c], tail) for c in thresholds])


def estimate_path_sops(rs: float, topology: Topology, trials: int, rows) -> list[SopEstimate]:
    """Estimate the end-to-end SOP at rate rs of each row (path, scenario,
    seed) of `rows`, in order, a path of `topology` under the scenario's
    eavesdroppers, from `trials` trials on the seed's streams: the mean
    over the trials of q = 1 - exp(-L), L = sum_hops sum_points
    log1p((r/rho)^-alpha), the exact outage probability given the trial's
    eavesdroppers, with its sample stderr. Every hop of every trial gets a
    fresh field from its own RNG stream (randomize-and-forward), and no
    gain is drawn. Each estimate equals (==) its row's one-row call.

    Every row is checked, in order, before any draw; then one pass draws
    every hop-block of every row from one re-keyed Philox (`_blocks`) into
    one set of chunk buffers. A row's streams depend only on its seed, so
    neither the other rows nor their order change its estimate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < rs < math.inf:
        raise ValueError("rs must be positive and finite")
    scenarios, fields, tails = [], [], []
    for path, scenario, seed in rows:
        # each hop's length, exact: sqrt inverts a correctly rounded square
        lengths = [math.sqrt(w) for w in topology.hop_weights(path.nodes)]
        radii, units, tail = _hop_fields(rs, lengths, scenario)
        scenarios.append(scenario)
        fields.append((seed, radii, units))
        tails.append(tail)
    moments = [[] for _ in fields]
    buffers = _chunk_buffers()
    with np.errstate(over="ignore", divide="ignore"):
        for i, n, hops in _blocks(fields, trials):
            sums = [_point_sums(rng, scenarios[i], radius, unit, n, False, buffers)
                    for radius, unit, rng in hops]
            moments[i].append(_outage_moments(sum(sums[1:], sums[0])))
    return [_moments_estimate(m, tail) for m, tail in zip(moments, tails)]


def power_invariance_report(powers_db, estimates) -> list:
    """The pairs of rejection estimates, one per power of `powers_db`,
    whose means lie further apart than tol = 3 combined stderrs, each as
    (p_i, p_j, mean_i, mean_j, tol); [] means the estimates are consistent
    with the closed form's independence of transmit power."""
    powers_db = list(powers_db)
    violations = []
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            a, b = estimates[i], estimates[j]
            tol = 3.0 * math.hypot(a.stderr, b.stderr)
            if abs(a.mean - b.mean) > tol:
                violations.append((powers_db[i], powers_db[j],
                                   a.mean, b.mean, tol))
    return violations
