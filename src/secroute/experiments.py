"""Experiment harness: seeded, reproducible sweeps emitting plot-ready CSV.

Every CSV starts with '#'-prefixed metadata lines embedding the full
configuration and master seed; re-running with the same configuration
reproduces the file byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import analytics, montecarlo, routing
from .netmodel import Node, Scenario, Topology, build_topology, load_edges_csv, load_nodes_csv


class ConfigError(ValueError):
    pass


EXPERIMENTS = ("sop-curve", "rate-vs-lambda", "rate-vs-epsilon",
               "route", "table-one", "validate")

DEFAULT_LAMBDAS = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4)
DEFAULT_EPSILONS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5)
DEFAULT_N_LEGIT = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
DEFAULT_POWERS = (60.0, 80.0, 100.0)

PLACEMENT_BOX = 50.0  # legitimate nodes live on a 50x50 central square


@dataclass
class ExperimentConfig:
    experiment: str = "sop-curve"
    alpha: float = 4.0
    lambda_e: float = 1e-5
    epsilon: float = 0.1
    power_db: float = 80.0
    window: float = 2000.0         # square window side, centered at the origin
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


_FLOATS = {"alpha", "lambda_e", "epsilon", "power_db", "window", "rs", "dist"}
_INTS = {"trials", "reps", "seed", "source", "dest"}
_LISTS = {"lambdas": float, "epsilons": float, "n_legit": int, "powers": float}
_STRS = {"experiment", "out", "topology", "edges"}


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
            try:
                if key in _FLOATS:
                    setattr(cfg, key, float(val))
                elif key in _INTS:
                    setattr(cfg, key, int(val))
                elif key in _LISTS:
                    conv = _LISTS[key]
                    setattr(cfg, key, tuple(conv(v) for v in val.split(",") if v.strip()))
                elif key in _STRS:
                    setattr(cfg, key, val)
                else:
                    raise ConfigError(f"{fname}:{lineno}: unknown key {key!r}")
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
                         est.mean, est.stderr, est.trials, seed))
            idx += 1
    header = ["path_id", "hops", "lambda_e", "analytic_sop",
              "mc_mean", "mc_stderr", "trials", "seed"]
    return header, rows


def run_rate_sweeps(cfg: ExperimentConfig, param: str):
    """Secrecy rate of the fixed example paths across a lambda_e or epsilon sweep."""
    if param not in ("lambda_e", "epsilon"):
        raise ConfigError(f"unknown sweep parameter {param!r}")
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


def random_placement(n_legit: int, rng) -> Topology:
    """n_legit relays i.i.d. uniform on the central square, plus a source at
    its lower-left corner (id 0) and a destination at its upper-right corner
    (id n_legit + 1)."""
    if n_legit < 1:
        raise ConfigError("n_legit must be >= 1")
    # one draw of (x, y) rows yields the same doubles, in the same order,
    # as 2 * n_legit scalar draws alternating x and y
    xy = rng.uniform(0.0, PLACEMENT_BOX, (n_legit, 2)).tolist()
    nodes = [Node(0, 0.0, 0.0)]
    nodes += [Node(i + 1, x, y) for i, (x, y) in enumerate(xy)]
    nodes.append(Node(n_legit + 1, PLACEMENT_BOX, PLACEMENT_BOX))
    return build_topology(nodes)


def run_table_one(cfg: ExperimentConfig):
    """Average best secrecy rate over random topologies, per network size.

    Draws where no feasible route exists contribute a secrecy rate of 0
    to the average; the infeasible fraction is reported per row.
    """
    scenario = cfg.scenario()
    rows = []
    for n_idx, n in enumerate(cfg.n_legit):
        total = 0.0
        total_sq = 0.0
        n_infeasible = 0
        for rep in range(cfg.reps):
            rng = montecarlo.block_rng(cfg.seed, n_idx, rep)
            topo = random_placement(n, rng)
            sol = routing.solve_secure_route(topo, 0, n + 1, scenario)
            c = sol.c_s if sol is not None else 0.0
            if sol is None:
                n_infeasible += 1
            total += c
            total_sq += c * c
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
    return sol, lines


def run_validate(cfg: ExperimentConfig):
    """Monte Carlo cross-checks of the closed-form hop SOP.

    Compares both conditioning modes against the analytic value and runs
    the transmit-power invariance check. Returns (ok, rows) suitable for
    CSV output.
    """
    scenario = cfg.scenario()
    analytic = analytics.hop_sop(cfg.rs, cfg.dist, scenario)
    rows = []
    ok = True
    for mode in ("memoryless", "rejection"):
        est = montecarlo.estimate_hop_sop(cfg.rs, cfg.dist, scenario,
                                          cfg.trials, cfg.seed, conditioning=mode)
        within = abs(est.mean - analytic) <= 3.0 * est.stderr or est.stderr == 0.0
        ok = ok and within
        rows.append((mode, cfg.rs, cfg.dist, analytic, est.mean, est.stderr,
                     est.trials, int(within)))
    report = montecarlo.power_invariance_check(cfg.rs, cfg.dist, scenario,
                                               cfg.powers, cfg.trials, cfg.seed)
    for pdb, est in zip(report["powers_db"], report["estimates"]):
        rows.append((f"rejection@{_fmt(pdb)}dB", cfg.rs, cfg.dist, analytic,
                     est.mean, est.stderr, est.trials, int(report["consistent"])))
    ok = ok and report["consistent"]
    header = ["mode", "rs", "dist", "analytic_sop", "mc_mean", "mc_stderr",
              "trials", "pass"]
    return ok, header, rows
