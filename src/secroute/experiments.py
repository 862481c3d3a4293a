"""Experiment harness: seeded, reproducible sweeps emitting plot-ready CSV.

Every CSV starts with '#'-prefixed metadata lines embedding the full
configuration and master seed; re-running with the same configuration
reproduces the file byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analytics, montecarlo, routing
from .netmodel import Scenario, Topology, load_edges_csv, load_nodes_csv, mesh_weights


class ConfigError(ValueError):
    pass


EXPERIMENTS = ("sop-curve", "rate-vs-lambda", "rate-vs-epsilon",
               "route", "table-one", "validate")

DEFAULT_LAMBDAS = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4)
DEFAULT_EPSILONS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5)
DEFAULT_N_LEGIT = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
DEFAULT_POWERS = (60.0, 80.0, 100.0)

PLACEMENT_BOX = 50.0  # legitimate nodes live on a 50x50 central square
SWEEP_CELLS = 1 << 18  # weight-matrix cells table-one sweeps as one stack


@dataclass
class ExperimentConfig:
    experiment: str = "sop-curve"
    alpha: float = 4.0
    lambda_e: float = 1e-5
    epsilon: float = 0.1
    power_db: float = 80.0
    window: float = 2000.0         # simulation window side; caps each hop's disk at window/2
    rs: float = 1.0
    dist: float = 10.0             # hop distance for validate
    lambdas: tuple = DEFAULT_LAMBDAS
    epsilons: tuple = DEFAULT_EPSILONS
    n_legit: tuple = DEFAULT_N_LEGIT
    powers: tuple = DEFAULT_POWERS
    trials: int = 100000
    reps: int = 2000
    seed: int = 1
    out: str = ""
    topology: str = ""             # node CSV for the route subcommand
    edges: str = ""                # optional edge-list CSV
    source: int = 1
    dest: int = 5

    def scenario(self) -> Scenario:
        half = self.window / 2.0
        return Scenario(self.alpha, self.lambda_e, self.epsilon, self.power_db,
                        (-half, half, -half, half))


# each key's type is its default's; a tuple key's element type, its first item's
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def parse_config(fname: str) -> ExperimentConfig:
    """Parse a flat `key = value` config file ('#' starts a comment)."""
    cfg = ExperimentConfig()
    with open(fname, encoding="utf-8-sig") as fh:  # a byte-order mark is no key
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{fname}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{fname}:{lineno}: unknown key {key!r}")
            default = _DEFAULTS[key]
            try:
                if isinstance(default, tuple):
                    conv = type(default[0])
                    setattr(cfg, key, tuple(conv(v) for v in val.split(",") if v.strip()))
                else:
                    setattr(cfg, key, type(default)(val))
            except ValueError as exc:
                raise ConfigError(f"{fname}:{lineno}: bad value for {key}: {exc}") from exc
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    return cfg


def six_node_topology() -> Topology:
    """The fixed 6-node example layout used by the SOP and rate sweeps."""
    c = math.cos(0.25 * math.pi) * 5.0  # == 5 sin(pi/4)
    xy = [(-10.0, 0.0), (-c, c), (0.0, 0.0), (c, -c), (10.0, 0.0), (3.0 * c, 3.0 * c)]
    return Topology.from_xy(xy, [1, 2, 3, 4, 5, 6])


# source-destination pair 1 -> 5 with one, two, and three hops
FIG_PATHS = ((1, 5), (1, 3, 5), (1, 2, 3, 5))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _fmt_rate(x: float) -> str:
    """A secrecy rate for output: `infeasible` for 0.0 (no rate meets the
    outage constraint; a feasible rate is positive), `unbounded` for inf
    (no eavesdroppers)."""
    if x == 0.0:
        return "infeasible"
    return "unbounded" if x == math.inf else _fmt(x)


def _config_header(cfg: ExperimentConfig) -> list[str]:
    lines = [f"# {k} = {_fmt(v) if not isinstance(v, tuple) else ','.join(_fmt(x) for x in v)}"
             for k, v in sorted(vars(cfg).items())]
    return lines


def write_csv(fname: str, cfg: ExperimentConfig, header: list[str], rows) -> None:
    with open(fname, "w", encoding="utf-8", newline="\n") as fh:
        for line in _config_header(cfg):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _row_seed(master: int, index: int) -> int:
    return master * 1000003 + index


def _example_sweep(cfg: ExperimentConfig, param: str, key: str):
    """Yield (topology, path, row key, scenario) for each of FIG_PATHS on the
    six-node example, path by path, at each value of the config's list `key`
    of the scenario's `param`; the row key is (path id, hops, value), the
    value as the built scenario holds it. An empty list raises ConfigError."""
    values = getattr(cfg, key)
    if not values:
        raise ConfigError(f"need at least one value in {key}")
    topo = six_node_topology()
    scenarios = [replace(cfg.scenario(), **{param: val}) for val in values]
    for seq in FIG_PATHS:
        path = topo.path(seq)
        pid = "-".join(str(n) for n in seq)
        for scenario in scenarios:
            yield topo, path, (pid, path.hop_count, getattr(scenario, param)), scenario


def run_sop_curve(cfg: ExperimentConfig):
    """Analytic vs Monte Carlo end-to-end SOP across the eavesdropper-density sweep."""
    rows = []
    for idx, (topo, path, key, sc) in enumerate(_example_sweep(cfg, "lambda_e", "lambdas")):
        analytic = analytics.path_sop(cfg.rs, path, sc)
        seed = _row_seed(cfg.seed, idx)
        est = montecarlo.estimate_path_sop(cfg.rs, path, topo, sc, cfg.trials, seed)
        rows.append((*key, analytic, est.mean, est.stderr, est.tail, est.trials, seed))
    header = ["path_id", "hops", "lambda_e", "analytic_sop",
              "mc_mean", "mc_stderr", "tail", "trials", "seed"]
    return header, rows


def run_rate_sweeps(cfg: ExperimentConfig, param: str):
    """Secrecy rate of the fixed example paths across a lambda_e or epsilon sweep."""
    sweep = "lambdas" if param == "lambda_e" else "epsilons"
    rows = [(*key, _fmt_rate(analytics.path_metric(path, sc)))
            for _, path, key, sc in _example_sweep(cfg, param, sweep)]
    return ["path_id", "hops", param, "c_s"], rows


def placements(n_legit: int, count: int, rngs) -> np.ndarray:
    """(count, n_legit + 2, 2) node coordinates, one placement for each of
    the first `count` generators of the iterable `rngs`: a source at the
    central square's lower-left corner (0, 0), n_legit relays i.i.d.
    uniform on the square, and a destination at its upper-right corner
    (50, 50). Each generator is read in full before the next is taken, so
    `rngs` may re-key one generator (montecarlo.block_rngs). Raises
    ConfigError before any draw when n_legit < 1."""
    if n_legit < 1:
        raise ConfigError("n_legit must be >= 1")
    xy = np.empty((count, n_legit + 2, 2))
    xy[:, 0] = 0.0
    # each (x, y) row is two consecutive doubles of the stream, and
    # PLACEMENT_BOX * u is the double rng.uniform(0.0, PLACEMENT_BOX) returns
    # for u, since it computes 0.0 + PLACEMENT_BOX * u
    for relays, rng in zip(xy[:, 1:-1], rngs):
        rng.random(out=relays)
    xy[:, 1:-1] *= PLACEMENT_BOX
    xy[:, -1] = PLACEMENT_BOX
    return xy


def run_table_one(cfg: ExperimentConfig):
    """Average best secrecy rate over random topologies, per network size.

    Rep `rep` of size index n_idx is placements(n, 1, [block_rng(seed,
    n_idx, rep)])[0] routed from its source to its destination; a size's
    reps draw their placements from one generator re-keyed per rep
    (montecarlo.block_rngs), the same streams. A size's reps are
    swept SWEEP_CELLS weight cells at a time, as one stack, by
    routing.mesh_secrecy_rates, which gives each rep the c_s that
    routing.solve_secure_route would. Draws where no feasible route exists
    contribute a secrecy rate of 0 to the average; the infeasible fraction
    is reported per row. The mean sums the rates in rep order; its stderr
    is sqrt(sum (c - mean)^2 / reps) / sqrt(reps), the squares summed by
    math.fsum in a second pass, so nothing cancels. A zero eavesdropper
    density makes the mean and its stderr `unbounded`; at a positive
    density, a rate sum that overflows a float raises OverflowError. An
    empty `n_legit` list raises ConfigError before any draw.
    """
    if not cfg.n_legit:
        raise ConfigError("need at least one value in n_legit")
    scenario = cfg.scenario()
    rows = []
    for n_idx, n in enumerate(cfg.n_legit):
        size_rates = []  # in rep order
        chunk = max(1, SWEEP_CELLS // max(n + 2, 1) ** 2)  # placements rejects n < 1
        rngs = montecarlo.block_rngs(cfg.seed, n_idx, range(cfg.reps))
        for start in range(0, cfg.reps, chunk):
            xy = placements(n, min(chunk, cfg.reps - start), rngs)
            size_rates += routing.mesh_secrecy_rates(mesh_weights(xy), scenario).tolist()
        total = 0.0
        for c in size_rates:  # in rep order, as the per-rep sums ran
            total += c
        if scenario.lambda_e == 0.0:  # no eavesdroppers leave the rate unbounded
            mean = stderr = "unbounded"
        else:
            mean = total / cfg.reps
            try:  # a second pass, over the deviations, cancels nothing
                sq = math.fsum((c - mean) * (c - mean) for c in size_rates)
            except OverflowError:  # fsum's own, where a partial sum overflows
                sq = math.inf
            if not (math.isfinite(total) and math.isfinite(sq)):
                raise OverflowError(f"alpha = {cfg.alpha:g} overflows a float in "
                                    f"the sum of table-one's secrecy rates")
            stderr = math.sqrt(sq / cfg.reps / cfg.reps)
        # an infeasible rep's rate is 0.0; a feasible one is positive (inf at lambda_e = 0)
        rows.append((n, mean, stderr, size_rates.count(0.0) / cfg.reps, cfg.reps, cfg.seed))
    header = ["n_legit", "mean_c_s", "stderr", "infeasible_frac", "reps", "seed"]
    return header, rows


def load_route_topology(cfg: ExperimentConfig) -> Topology:
    if not cfg.topology:
        return six_node_topology()
    ids, xy = load_nodes_csv(cfg.topology)
    edges = load_edges_csv(cfg.edges) if cfg.edges else None
    return Topology.from_xy(xy, ids, edges)


def run_route(cfg: ExperimentConfig):
    """Solve the secure-routing problem and return (solution, report lines)."""
    topo = load_route_topology(cfg)
    scenario = cfg.scenario()
    sol = routing.solve_secure_route(topo, cfg.source, cfg.dest, scenario)
    lines = [f"source={cfg.source} dest={cfg.dest} "
             f"alpha={_fmt(cfg.alpha)} lambda_e={_fmt(cfg.lambda_e)} "
             f"epsilon={_fmt(cfg.epsilon)}"]
    if sol is None:
        if not routing.reachable(topo, cfg.source, cfg.dest):
            lines.append(f"unreachable: no path from {cfg.source} to {cfg.dest}")
        else:
            lines.append("infeasible: no path satisfies the outage constraint "
                         "at this eavesdropper density")
    else:
        lines.append("path: " + " -> ".join(str(n) for n in sol.path.nodes))
        lines.append(f"hops: {sol.path.hop_count}")
        lines.append(f"rs_star: {_fmt_rate(sol.rs_star)}")
        lines.append(f"c_s: {_fmt_rate(sol.c_s)}")
        lines.append(f"density_bound: {_fmt(analytics.density_bound(sol.path, scenario))}")
        lines.append("per-hop-budget candidates:")
        for v, seq, metric in sol.per_v_candidates:
            pid = "-".join(str(n) for n in seq) if seq else "unreachable"
            lines.append(f"  v={v} path={pid} metric={_fmt_rate(metric)}")
        k = len(sol.per_v_candidates)
        if k < len(topo.order) - 1:  # the rate bound ended the sweep at budget k
            lines.append(f"  v>={k + 1}: pruned, no later budget's rate bound exceeds c_s")
    return sol, lines


def run_validate(cfg: ExperimentConfig):
    """Monte Carlo cross-checks of the closed-form hop SOP.

    Compares both conditioning modes against the analytic value and runs
    the transmit-power invariance check, all from one pass over the draws.
    A mode's row passes (`1`) when the closed form lies in
    [mc - 3 stderr, mc + 3 stderr] (a zero stderr reads as the disks'
    binomial one at the closed form; see SopEstimate), and fails (`0`)
    otherwise. Each row also writes the far field's exponent `tail`, added
    exactly at any window. Returns (ok, header, rows) for CSV output; ok
    only when every row passes. An empty `powers` list raises ConfigError
    before any draw.
    """
    if not cfg.powers:
        raise ConfigError("need at least one power level")
    scenario = cfg.scenario()
    analytic = analytics.hop_sop(cfg.rs, cfg.dist, scenario)
    memoryless, rejection = montecarlo.hop_sop_estimates(
        cfg.rs, cfg.dist, scenario, cfg.trials, cfg.seed, [cfg.power_db, *cfg.powers])
    rows = []
    for mode, est in (("memoryless", memoryless), ("rejection", rejection[0])):
        rows.append((mode, cfg.rs, cfg.dist, analytic, est.mean, est.stderr,
                     est.tail, est.trials, int(est.covers(analytic))))
    violations = montecarlo.power_invariance_report(cfg.powers, rejection[1:])
    for pdb, est in zip(cfg.powers, rejection[1:]):
        rows.append((f"rejection@{_fmt(pdb)}dB", cfg.rs, cfg.dist, analytic,
                     est.mean, est.stderr, est.tail, est.trials, int(not violations)))
    ok = all(row[-1] == 1 for row in rows)
    header = ["mode", "rs", "dist", "analytic_sop", "mc_mean", "mc_stderr",
              "tail", "trials", "pass"]
    return ok, header, rows
