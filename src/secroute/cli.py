"""Command-line entry point.

    secroute <subcommand> [--config FILE] [--seed N] [--trials N]
             [--reps N] [--out CSV] ...

Exit codes: 0 success, 1 infeasible/unreachable, 2 invalid config or input
(including malformed node/edge CSV rows, a non-finite density or power, and
a Monte Carlo run that cannot produce an estimate because no trial survives
the on-off threshold), 3 I/O.

A zero eavesdropper density leaves the secrecy rate unbounded: `route`
prints `unbounded` for rs_star, c_s and each budget's metric, and
`rate-vs-lambda`/`rate-vs-epsilon` write `unbounded` in the c_s column;
both exit 0.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .experiments import ConfigError, ExperimentConfig
from .montecarlo import MonteCarloError
from .netmodel import NetModelError
from .routing import RoutingError

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
    for key in ("seed", "trials", "reps", "out", "topology", "edges",
                "source", "dest"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if cfg.trials < 1 or cfg.reps < 1:
        raise ConfigError("trials and reps must be >= 1")
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, NetModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        return _dispatch(cfg)
    except (ConfigError, NetModelError, MonteCarloError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RoutingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
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
