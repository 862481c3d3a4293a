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
from .netmodel import (Node, Scenario, Topology, build_topology, load_edges_csv,
                       load_nodes_csv, mesh_weights)


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
    with open(fname) as fh:
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
    nodes = [
        Node(1, -10.0, 0.0),
        Node(2, -c, c),
        Node(3, 0.0, 0.0),
        Node(4, c, -c),
        Node(5, 10.0, 0.0),
        Node(6, 3.0 * c, 3.0 * c),
    ]
    return build_topology(nodes)


# source-destination pair 1 -> 5 with one, two, and three hops
FIG_PATHS = ((1, 5), (1, 3, 5), (1, 2, 3, 5))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _fmt_rate(x) -> str:
    """A secrecy rate for output; no eavesdroppers leave it unbounded."""
    return "unbounded" if x == math.inf else _fmt(x)


def _config_header(cfg: ExperimentConfig) -> list[str]:
    lines = [f"# {k} = {_fmt(v) if not isinstance(v, tuple) else ','.join(_fmt(x) for x in v)}"
             for k, v in sorted(vars(cfg).items())]
    return lines


def write_csv(fname: str, cfg: ExperimentConfig, header: list[str], rows) -> None:
    with open(fname, "w", newline="\n") as fh:
        for line in _config_header(cfg):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _row_seed(master: int, index: int) -> int:
    return master * 1000003 + index


def run_sop_curve(cfg: ExperimentConfig):
    """Analytic vs Monte Carlo end-to-end SOP across the eavesdropper-density sweep."""
    topo = six_node_topology()
    scenario = cfg.scenario()
    rows = []
    idx = 0
    for seq in FIG_PATHS:
        path = topo.path(seq)
        pid = "-".join(str(n) for n in seq)
        for lam in cfg.lambdas:
            sc = replace(scenario, lambda_e=lam)
            analytic = analytics.path_sop(cfg.rs, path, sc)
            seed = _row_seed(cfg.seed, idx)
            est = montecarlo.estimate_path_sop(cfg.rs, path, topo, sc,
                                               cfg.trials, seed)
            rows.append((pid, path.hop_count, lam, analytic,
                         est.mean, est.stderr, est.bias_bound, est.trials, seed))
            idx += 1
    header = ["path_id", "hops", "lambda_e", "analytic_sop",
              "mc_mean", "mc_stderr", "bias_bound", "trials", "seed"]
    return header, rows


def run_rate_sweeps(cfg: ExperimentConfig, param: str):
    """Secrecy rate of the fixed example paths across a lambda_e or epsilon sweep."""
    topo = six_node_topology()
    scenario = cfg.scenario()
    values = cfg.lambdas if param == "lambda_e" else cfg.epsilons
    rows = []
    for seq in FIG_PATHS:
        path = topo.path(seq)
        pid = "-".join(str(n) for n in seq)
        for val in values:
            sc = replace(scenario, **{param: val})
            m = analytics.path_metric(path, sc)
            rows.append((pid, path.hop_count, val,
                         _fmt_rate(m) if m is not None else "infeasible"))
    header = ["path_id", "hops", param, "c_s"]
    return header, rows


def placement(n_legit: int, rng) -> np.ndarray:
    """(n_legit + 2, 2) node coordinates: a source at the central square's
    lower-left corner (0, 0), n_legit relays i.i.d. uniform on the square,
    and a destination at its upper-right corner (50, 50)."""
    if n_legit < 1:
        raise ConfigError("n_legit must be >= 1")
    xy = np.empty((n_legit + 2, 2))
    xy[0] = 0.0
    # one draw of (x, y) rows yields the same doubles, in the same order,
    # as 2 * n_legit scalar draws alternating x and y
    xy[1:-1] = rng.uniform(0.0, PLACEMENT_BOX, (n_legit, 2))
    xy[-1] = PLACEMENT_BOX
    return xy


def random_placement(n_legit: int, rng) -> Topology:
    """A full mesh on placement(n_legit, rng), node i at row i: the source
    is id 0 and the destination id n_legit + 1."""
    return build_topology([Node(i, x, y)
                           for i, (x, y) in enumerate(placement(n_legit, rng).tolist())])


def run_table_one(cfg: ExperimentConfig):
    """Average best secrecy rate over random topologies, per network size.

    Rep `rep` of size index n_idx is placement(n, block_rng(seed, n_idx,
    rep)) routed from its source to its destination. A size's reps are
    swept SWEEP_CELLS weight cells at a time, as one stack, by
    routing.mesh_secrecy_rates, which gives each rep the c_s that
    routing.solve_secure_route would. Draws where no feasible route exists
    contribute a secrecy rate of 0 to the average; the infeasible fraction
    is reported per row. A zero eavesdropper density makes the mean and its
    stderr `unbounded`; at a positive density, a rate sum that overflows a
    float raises OverflowError.
    """
    scenario = cfg.scenario()
    rows = []
    for n_idx, n in enumerate(cfg.n_legit):
        total = 0.0
        total_sq = 0.0
        n_infeasible = 0
        chunk = max(1, SWEEP_CELLS // max(n + 2, 1) ** 2)  # placement rejects n < 1
        for start in range(0, cfg.reps, chunk):
            xy = np.stack([placement(n, montecarlo.block_rng(cfg.seed, n_idx, rep))
                           for rep in range(start, min(start + chunk, cfg.reps))])
            rates, feasible = routing.mesh_secrecy_rates(mesh_weights(xy), scenario)
            n_infeasible += int((~feasible).sum())
            for c in rates.tolist():  # in rep order, as the per-rep sums ran
                total += c
                total_sq += c * c
        if scenario.lambda_e == 0.0:  # no eavesdroppers leave the rate unbounded
            mean = stderr = "unbounded"
        elif not (math.isfinite(total) and math.isfinite(total_sq)):
            raise OverflowError(f"alpha = {cfg.alpha:g} overflows a float in "
                                f"the sum of table-one's secrecy rates")
        else:
            mean = total / cfg.reps
            var = max(total_sq / cfg.reps - mean * mean, 0.0)
            stderr = math.sqrt(var / cfg.reps)
        rows.append((n, mean, stderr, n_infeasible / cfg.reps, cfg.reps, cfg.seed))
    header = ["n_legit", "mean_c_s", "stderr", "infeasible_frac", "reps", "seed"]
    return header, rows


def load_route_topology(cfg: ExperimentConfig) -> Topology:
    if not cfg.topology:
        return six_node_topology()
    nodes = load_nodes_csv(cfg.topology)
    edges = load_edges_csv(cfg.edges) if cfg.edges else None
    return build_topology(nodes, edges)


def run_route(cfg: ExperimentConfig):
    """Solve the secure-routing problem and return (solution, report lines)."""
    topo = load_route_topology(cfg)
    scenario = cfg.scenario()
    sol = routing.solve_secure_route(topo, cfg.source, cfg.dest, scenario)
    lines = [f"source={cfg.source} dest={cfg.dest} "
             f"alpha={_fmt(cfg.alpha)} lambda_e={_fmt(cfg.lambda_e)} "
             f"epsilon={_fmt(cfg.epsilon)}"]
    if sol is None:
        # a second sweep, only here, tells no path from no feasible one
        table = routing.bellman_ford_hop_constrained(topo, cfg.source, cfg.dest)
        if table.path_to(cfg.dest, len(topo.order)) is None:
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
            m = _fmt_rate(metric) if metric is not None else "infeasible"
            lines.append(f"  v={v} path={pid} metric={m}")
        k = len(sol.per_v_candidates)
        if k < len(topo.order) - 1:  # the rate bound ended the sweep at budget k
            lines.append(f"  v>={k + 1}: pruned, no later budget's rate bound exceeds c_s")
    return sol, lines


def run_validate(cfg: ExperimentConfig):
    """Monte Carlo cross-checks of the closed-form hop SOP.

    Compares both conditioning modes against the analytic value and runs
    the transmit-power invariance check, all from one pass over the draws.
    A mode's row passes (`1`) when the closed form lies in
    [mc - 3 stderr, mc + 3 stderr + bias_bound], and reads `weak` instead
    when its bias bound exceeds its stderr. The power rows compare
    estimates on the same draws, whose truncated means are equal, so the
    bound does not enter them. Returns (ok, header, rows) for CSV output;
    ok only when every row passes.
    """
    scenario = cfg.scenario()
    analytic = analytics.hop_sop(cfg.rs, cfg.dist, scenario)
    memoryless, rejection = montecarlo.hop_sop_estimates(
        cfg.rs, cfg.dist, scenario, cfg.trials, cfg.seed, [cfg.power_db, *cfg.powers])
    rows = []
    for mode, est in (("memoryless", memoryless), ("rejection", rejection[0])):
        within = est.covers(analytic) or est.stderr == 0.0
        verdict = ("weak" if est.weak else 1) if within else 0
        rows.append((mode, cfg.rs, cfg.dist, analytic, est.mean, est.stderr,
                     est.bias_bound, est.trials, verdict))
    violations = montecarlo.power_invariance_report(cfg.powers, rejection[1:])
    for pdb, est in zip(cfg.powers, rejection[1:]):
        rows.append((f"rejection@{_fmt(pdb)}dB", cfg.rs, cfg.dist, analytic,
                     est.mean, est.stderr, est.bias_bound, est.trials,
                     int(not violations)))
    ok = all(row[-1] == 1 for row in rows)
    header = ["mode", "rs", "dist", "analytic_sop", "mc_mean", "mc_stderr",
              "bias_bound", "trials", "pass"]
    return ok, header, rows
