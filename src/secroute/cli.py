"""Command-line entry point.

    secroute <subcommand> [--config FILE] [--seed N] [--trials N] [--reps N]
             [--out CSV] [--topology CSV] [--edges CSV] [--source ID] [--dest ID]

Every flag overrides its config key; only `route` reads the last four.

Exit codes: 0 success, 1 infeasible/unreachable or a failed `validate`
row, 2 invalid config or input (including a malformed node/edge CSV row,
named in the message, a non-finite density, power or path-loss exponent, a
`window` whose area is not a finite float, a `route` source or destination
that is not in the topology or that are the same node, a Monte Carlo run
that cannot produce an estimate because no trial survives the on-off
threshold, a `validate` run with an empty `powers` list (`error: need at
least one power level`), a sweep with an empty `lambdas`, `epsilons` or
`n_legit` list (`error: need at least one value in lambdas`, naming the
key), a `lambda_e` that expects more than 2^23 eavesdroppers on one hop's
disk in a single trial, two nodes whose squared distance overflows a float,
or an edge list in which N-1 times its largest edge weight overflows, named
by id, and parameters whose arithmetic overflows a float, such as a huge
power (or a power so low that it underflows to 0 as a linear power), a
`validate` rate or alpha at which its on-off threshold (2^rs - 1) d^alpha
overflows, a `table-one` alpha whose secrecy-rate sums overflow, or a
secrecy rate that overflows at a positive density; the message names the
parameter, or the path's weight where the path is so short that its
density bound overflows;
and an input whose arrays cannot be allocated, with numpy's message), 3
I/O. When `route` finds no route it exits 1 and says why: `unreachable: no
path from S to D` when no path joins them, `infeasible: no path satisfies
the outage constraint at this eavesdropper density` when some path does
but none meets the outage constraint. A `route` that finds one prints its
per-hop-budget candidates; once no later budget's rate bound exceeds the
best rate, the sweep ends and the table's last line reads `v>=k+1: pruned,
no later budget's rate bound exceeds c_s`. A v-hop path has weight at
least D^2/v, D the straight source-destination distance, and one first
found after budget k at least best_k(u) + d(u, dest)^2 / (v - k), where u
is its node after k hops and best_k(u) the least k-hop weight to u.

`sop-curve` and `validate` write each estimate's `tail`, the Laplace
exponent of the eavesdroppers outside the simulated disks, which the
estimate adds exactly at any `window`. A `validate` mode row passes (`1`,
printed `[pass]`) when the closed form lies in [mc - 3 stderr,
mc + 3 stderr], and fails (`0`, `[FAIL]`) otherwise; a zero stderr reads
as the simulated disks' binomial one at the closed form, mapped by the far
field (see montecarlo.SopEstimate). `validate` exits 0 only when every row
is `1`.

A zero eavesdropper density leaves the secrecy rate unbounded: `route`
prints `unbounded` for rs_star, c_s and each budget's metric, and
`rate-vs-lambda`/`rate-vs-epsilon` write `unbounded` in the c_s column,
`table-one` writes `unbounded` in mean_c_s and stderr; all exit 0, and
no other case prints `unbounded`. An
epsilon so small that 1 - epsilon rounds to 1 admits no path: `route`
exits 1 with the `infeasible:` line, `table-one` writes mean 0 with
infeasible_frac 1, and the rate sweeps write `infeasible`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import experiments
from .experiments import ConfigError, ExperimentConfig

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3


@functools.cache  # built on the first call: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secroute",
        description="Secrecy-outage analytics, Monte Carlo validation and "
                    "secure routing for multihop relaying")
    parser.add_argument("command", choices=experiments.EXPERIMENTS)
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--topology", help="route: node CSV (id,x,y)")
    parser.add_argument("--edges", help="route: optional edge-list CSV (from,to)")
    parser.add_argument("--source", type=int)
    parser.add_argument("--dest", type=int)
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = experiments.parse_config(args.config) if args.config else ExperimentConfig()
    cfg.experiment = args.command
    for key, val in vars(args).items():
        if key not in ("command", "config") and val is not None:
            setattr(cfg, key, val)
    if cfg.trials < 1 or cfg.reps < 1:
        raise ConfigError("trials and reps must be >= 1")
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # ConfigError, NetModelError, RoutingError and MonteCarloError subclass ValueError
    try:
        return _dispatch(_load_config(args))
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


# A runner takes (cfg, out path) and returns (exit code, (header, rows) to
# write as the CSV or None, lines to print after writing it). The run_*
# functions are looked up on each call, not bound here.
def _table(run):
    def runner(cfg, out):
        header, rows = run(cfg)
        return EXIT_OK, (header, rows), [f"wrote {out} ({len(rows)} rows)"]
    return runner


def _route(cfg, out):
    sol, lines = experiments.run_route(cfg)
    return (EXIT_OK if sol is not None else EXIT_INFEASIBLE), None, lines


def _validate(cfg, out):
    ok, header, rows = experiments.run_validate(cfg)
    lines = [f"{row[0]}: mc={row[4]:.6g} analytic={row[3]:.6g} "
             f"[{'pass' if row[-1] else 'FAIL'}]" for row in rows]
    return (EXIT_OK if ok else EXIT_INFEASIBLE), (header, rows), lines + [f"wrote {out}"]


_RUNNERS = {
    "sop-curve": _table(lambda cfg: experiments.run_sop_curve(cfg)),
    "rate-vs-lambda": _table(lambda cfg: experiments.run_rate_sweeps(cfg, "lambda_e")),
    "rate-vs-epsilon": _table(lambda cfg: experiments.run_rate_sweeps(cfg, "epsilon")),
    "table-one": _table(lambda cfg: experiments.run_table_one(cfg)),
    "route": _route,
    "validate": _validate,
}


def _dispatch(cfg: ExperimentConfig) -> int:
    out = cfg.out or cfg.experiment.replace("-", "_") + ".csv"
    code, table, lines = _RUNNERS[cfg.experiment](cfg, out)
    if table is not None:
        experiments.write_csv(out, cfg, *table)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
