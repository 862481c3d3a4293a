"""The benchmark's workloads: seeded inputs, CLI argv and output checks.

Each workload is one `secroute` subcommand on inputs generated from the
benchmark seed: a config file (and for `route-large` a node CSV) written
into a work directory. The program receives only those files and the argv.
The checks use the package's public functions and return a failure reason,
or None when the output is right.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from secroute import analytics, netmodel
from secroute.experiments import six_node_topology

ALPHA = 4.0
EPSILON = 0.1
LAMBDA_E = 1e-5
POWER_DB = 80.0
WINDOW = 2000.0
RS = 1.0
DIST = 10.0
LAMBDAS = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4)
POWERS = (60.0, 80.0, 100.0)
N_LEGIT = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

# Operation sizes. Each is chosen so that one operation takes 1.5-3 s on a
# 2-core Xeon, giving 6-12 timed operations in a 20 s run.
TABLE_ONE_REPS = 20           # 200 random topologies per operation
ROUTE_RELAYS = 600            # one full mesh of 602 nodes per operation
SOP_TRIALS = 8192             # 3 paths x 5 densities, half a Monte Carlo block
VALIDATE_TRIALS = 100_000     # 5 hop estimates over 7 shared blocks

PLACEMENT_BOX = 50.0

# Published random-topology averages (paper, Table I) and their rep count.
PAPER_TABLE_ONE = {10: 0.2382, 50: 0.4049, 100: 0.4283}
PAPER_REPS = 10_000
PAPER_ROUNDING = 5e-5

# Largest |z| accepted for a Monte Carlo row against its closed form. A
# correct estimator exceeds 5 in about 6e-7 of rows, so thousands of runs
# of 15 rows stay clean, while a bias of 5 binomial stderrs (at most 0.03
# at these trial counts) fails.
Z_MAX = 5.0

WORKLOADS = ("table-one", "route-large", "sop-curve", "validate")


def _scenario(lambda_e: float = LAMBDA_E) -> netmodel.Scenario:
    half = WINDOW / 2.0
    return netmodel.Scenario(ALPHA, lambda_e, EPSILON, POWER_DB,
                             (-half, half, -half, half))


def _fmt_list(values) -> str:
    return ", ".join(repr(v) for v in values)


@dataclass
class Job:
    """One workload's generated inputs and the CLI call that consumes them."""

    workload: str
    seed: int
    argv: list
    config: dict
    out: str = ""
    nodes: list = field(default_factory=list)

    def check(self, rc: int, stdout: str):
        return _CHECKS[self.workload](self, rc, stdout)

    def describe(self) -> dict:
        info = {"argv": ["secroute", *self.argv], "config": self.config}
        if self.nodes:
            info["nodes"] = len(self.nodes)
        return info


def _config_seed(seed: int) -> int:
    """The program's master seed, derived from the benchmark seed."""
    return int(np.random.default_rng([seed % 2**64, 0]).integers(1, 2**31))


def make_job(workload: str, seed: int, workdir: str) -> Job:
    """Write the workload's inputs for `seed` into `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cfg = {"experiment": workload if workload != "route-large" else "route",
           "alpha": ALPHA, "epsilon": EPSILON, "lambda_e": LAMBDA_E,
           "power_db": POWER_DB, "window": WINDOW, "rs": RS,
           "seed": _config_seed(seed)}
    job = Job(workload, seed, [], cfg)
    if workload == "table-one":
        cfg.update(n_legit=_fmt_list(N_LEGIT), reps=TABLE_ONE_REPS)
    elif workload == "sop-curve":
        cfg.update(lambdas=_fmt_list(LAMBDAS), trials=SOP_TRIALS)
    elif workload == "validate":
        cfg.update(dist=DIST, powers=_fmt_list(POWERS), trials=VALIDATE_TRIALS)
    else:
        job.nodes = _relay_nodes(seed)
        nodes_csv = os.path.join(workdir, "nodes.csv")
        with open(nodes_csv, "w") as fh:
            fh.write("id,x,y\n")
            for n in job.nodes:
                fh.write(f"{n.id},{n.x!r},{n.y!r}\n")
        cfg.update(topology=nodes_csv, source=0, dest=ROUTE_RELAYS + 1)
    if workload != "route-large":
        job.out = os.path.join(workdir, workload.replace("-", "_") + ".csv")
        cfg["out"] = job.out
    config_file = os.path.join(workdir, "bench.cfg")
    with open(config_file, "w") as fh:
        for key, val in cfg.items():
            fh.write(f"{key} = {val}\n")
    job.argv = [cfg["experiment"], "--config", config_file]
    return job


def _relay_nodes(seed: int) -> list:
    """Source at (0,0), relays uniform on the 50x50 square, destination at (50,50)."""
    xy = np.random.default_rng([seed % 2**64, 1]).uniform(0.0, PLACEMENT_BOX, (ROUTE_RELAYS, 2))
    nodes = [netmodel.Node(0, 0.0, 0.0)]
    nodes += [netmodel.Node(i + 1, float(x), float(y)) for i, (x, y) in enumerate(xy)]
    nodes.append(netmodel.Node(ROUTE_RELAYS + 1, PLACEMENT_BOX, PLACEMENT_BOX))
    return nodes


def _read_rows(fname: str) -> list:
    with open(fname, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _z(mc: float, analytic: float, trials: int) -> float:
    """z-score of a Monte Carlo proportion against its closed form, using the
    binomial stderr the closed form implies."""
    se = math.sqrt(analytic * (1.0 - analytic) / trials)
    if se == 0.0:
        return 0.0 if mc == analytic else math.inf
    return (mc - analytic) / se


def _same(a: float, b: float) -> bool:
    """Equal up to the 12 significant digits the CSV writer keeps."""
    return abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-300)


def _check_table_one(job: Job, rc: int, stdout: str):
    if rc != 0:
        return f"exit code {rc}"
    rows = {int(r["n_legit"]): r for r in _read_rows(job.out)}
    if sorted(rows) != list(N_LEGIT):
        return f"rows for N={sorted(rows)}, expected {list(N_LEGIT)}"
    for n, r in rows.items():
        if int(r["reps"]) != TABLE_ONE_REPS or not 0.0 <= float(r["infeasible_frac"]) <= 1.0:
            return f"N={n}: bad reps or infeasible_frac in {r}"
    for n, target in PAPER_TABLE_ONE.items():
        mean, se = float(rows[n]["mean_c_s"]), float(rows[n]["stderr"])
        paper_se = se * math.sqrt(TABLE_ONE_REPS / PAPER_REPS)
        tol = Z_MAX * math.hypot(se, paper_se) + PAPER_ROUNDING
        if not abs(mean - target) <= tol:
            return f"N={n}: mean c_s {mean:.4f} vs paper {target} (tolerance {tol:.4f})"
    return None


def _check_sop_curve(job: Job, rc: int, stdout: str):
    if rc != 0:
        return f"exit code {rc}"
    rows = _read_rows(job.out)
    if len(rows) != 3 * len(LAMBDAS):
        return f"{len(rows)} rows, expected {3 * len(LAMBDAS)}"
    topo = six_node_topology()
    for r in rows:
        path = topo.path(int(x) for x in r["path_id"].split("-"))
        analytic = analytics.path_sop(RS, path, _scenario(float(r["lambda_e"])))
        if not _same(float(r["analytic_sop"]), analytic):
            return f"path {r['path_id']} lambda {r['lambda_e']}: analytic column {r['analytic_sop']} != {analytic}"
        z = _z(float(r["mc_mean"]), analytic, int(r["trials"]))
        if not abs(z) <= Z_MAX:
            return f"path {r['path_id']} lambda {r['lambda_e']}: z = {z:.2f}"
    return None


def _check_validate(job: Job, rc: int, stdout: str):
    rows = _read_rows(job.out)
    if len(rows) != 2 + len(POWERS):
        return f"{len(rows)} rows, expected {2 + len(POWERS)}"
    # The program's own 3-stderr test fails by chance on about 1 % of seeds
    # and then exits 1; the exit code must agree with the rows it wrote.
    expected_rc = 0 if all(r["pass"] == "1" for r in rows) else 1
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc} from the pass column"
    analytic = analytics.hop_sop(RS, DIST, _scenario())
    for r in rows:
        if not _same(float(r["analytic_sop"]), analytic):
            return f"{r['mode']}: analytic column {r['analytic_sop']} != {analytic}"
        z = _z(float(r["mc_mean"]), analytic, int(r["trials"]))
        if not abs(z) <= Z_MAX:
            return f"{r['mode']}: z = {z:.2f}"
    return None


def _check_route(job: Job, rc: int, stdout: str):
    if rc != 0:
        return f"exit code {rc}"
    fields = {}
    candidates = []
    for line in stdout.splitlines():
        key, sep, val = line.strip().partition(": ")
        if sep and key in ("path", "c_s"):
            fields[key] = val
        elif line.strip().startswith("v=") and not line.endswith("metric=infeasible"):
            candidates.append(float(line.rsplit("metric=", 1)[1]))
    if "path" not in fields or "c_s" not in fields:
        return "no path or c_s line in the report"
    seq = [int(x) for x in fields["path"].split(" -> ")]
    if seq[0] != 0 or seq[-1] != ROUTE_RELAYS + 1:
        return f"path {seq} does not join source and destination"
    printed = float(fields["c_s"])
    topo = netmodel.Topology(job.nodes, edges=list(zip(seq, seq[1:])))
    c_s = analytics.path_metric(topo.path(seq), _scenario())
    if c_s is None or not _same(printed, c_s):
        return f"printed c_s {printed} != {c_s} re-derived from the printed path"
    if not candidates or max(candidates) != printed:
        return f"best candidate metric {max(candidates, default=None)} != c_s {printed}"
    return None


_CHECKS = {
    "table-one": _check_table_one,
    "route-large": _check_route,
    "sop-curve": _check_sop_curve,
    "validate": _check_validate,
}
