"""Command-line entry point.

    secroute <subcommand> [--config FILE] [--seed N] [--trials N]
             [--reps N] [--out CSV] ...

Exit codes: 0 success, 1 infeasible/unreachable or a `validate` row that
is not a plain pass, 2 invalid config or input (including malformed
node/edge CSV rows, a non-finite density or power, a `window` whose area
is not a finite float, a `route` source or destination that is not in the
topology or that are the same node, a Monte Carlo run that cannot produce
an estimate because no trial survives the on-off threshold, a `lambda_e`
that expects more than 2^23 eavesdroppers on one hop's disk in a single
trial, two nodes whose squared distance overflows a float, named by id,
and parameters whose arithmetic overflows a float, such as a huge power,
rate or path-loss exponent, or a `table-one` alpha whose secrecy-rate sums
overflow; the message names the parameter), 3 I/O. When `route` finds no
route it exits 1 and says why: `unreachable: no path from S to D` when no
path joins them, `infeasible: no path satisfies the outage constraint at
this eavesdropper density` when some path does but none meets the outage
constraint. A `route` that finds one prints its per-hop-budget
candidates; once no later budget's rate bound (a v-hop path has weight at
least D^2/v, D the straight source-destination distance) exceeds the best
rate, the sweep ends and the table's last line reads `v>=k+1: pruned, no
later budget's rate bound exceeds c_s`.

`sop-curve` and `validate` write each estimate's `bias_bound`, the most by
which the truncated eavesdropper field can bias it low. A `validate` mode
row passes (`1`, printed `[pass]`) when the closed form lies in
[mc - 3 stderr, mc + 3 stderr + bias_bound]; it reads `weak` (`[weak]`)
when it lies there but the bound exceeds the stderr, and `0` (`[FAIL]`)
otherwise. `validate` exits 0 only when every row is `1`.

A zero eavesdropper density leaves the secrecy rate unbounded: `route`
prints `unbounded` for rs_star, c_s and each budget's metric, and
`rate-vs-lambda`/`rate-vs-epsilon` write `unbounded` in the c_s column,
`table-one` writes `unbounded` in mean_c_s and stderr; all exit 0. An
epsilon so small that 1 - epsilon rounds to 1 admits no path: `route`
exits 1 with the `infeasible:` line, `table-one` writes mean 0 with
infeasible_frac 1, and the rate sweeps write `infeasible`.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .experiments import ConfigError, ExperimentConfig

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secroute",
        description="Secrecy-outage analytics, Monte Carlo validation and "
                    "secure routing for multihop relaying")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in experiments.EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--out", help="output CSV path")
        if name == "route":
            p.add_argument("--topology", help="node CSV (id,x,y)")
            p.add_argument("--edges", help="optional edge-list CSV (from,to)")
            p.add_argument("--source", type=int)
            p.add_argument("--dest", type=int)
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
    except (ValueError, OverflowError) as exc:
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
    verdicts = {1: "pass", "weak": "weak", 0: "FAIL"}
    lines = [f"{row[0]}: mc={row[4]:.6g} analytic={row[3]:.6g} [{verdicts[row[-1]]}]"
             for row in rows]
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
