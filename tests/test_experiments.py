import ast
import csv
import math
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from secroute import analytics, experiments, montecarlo, netmodel, routing
from secroute.cli import main
from secroute.experiments import (
    ConfigError,
    ExperimentConfig,
    FIG_PATHS,
    PLACEMENT_BOX,
    parse_config,
    placements,
    run_rate_sweeps,
    run_route,
    run_sop_curve,
    run_table_one,
    run_validate,
    six_node_topology,
    write_csv,
)
from secroute.montecarlo import block_rng

import oracles


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text(
            "experiment = rate-vs-lambda\n"
            "alpha = 4\n"
            "lambda_e = 2e-5  # overridden per sweep point\n"
            "epsilon = 0.2\n"
            "lambdas = 1e-6, 1e-5\n"
            "\n"
            "trials = 500\n"
            "seed = 77\n"
            "out = x.csv\n")
        cfg = parse_config(f)
        assert cfg.experiment == "rate-vs-lambda"
        assert cfg.epsilon == 0.2
        assert cfg.lambdas == (1e-6, 1e-5)
        assert cfg.seed == 77
        assert cfg.out == "x.csv"

    @pytest.mark.parametrize("first", ["reps = 7\n", "# table one\nreps = 7\n"],
                             ids=["key", "comment"])
    def test_byte_order_mark(self, tmp_path, first):
        # Excel and Notepad start a UTF-8 file with a byte-order mark, which
        # is no part of the first key (or comment)
        f = tmp_path / "bom.cfg"
        f.write_text("\ufeff" + first + "seed = 3\n", encoding="utf-8")
        cfg = parse_config(f)
        assert (cfg.reps, cfg.seed) == (7, 3)

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "bad.cfg"
        # `scenario` names a method of ExperimentConfig, not a key
        for key in ("bogus", "scenario"):
            f.write_text(f"{key} = 1\n")
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f)

    def test_bad_value(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("trials = many\n")
        with pytest.raises(ConfigError):
            parse_config(f)

    def test_missing_equals(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("trials\n")
        with pytest.raises(ConfigError):
            parse_config(f)


class TestSopCurve:
    def test_rows_consistent(self):
        cfg = ExperimentConfig(lambdas=(0.0, 1e-6, 1e-5), trials=20000, seed=3)
        header, rows = run_sop_curve(cfg)
        assert len(rows) == 9
        assert header[6:] == ["tail", "trials", "seed"]
        for pid, hops, lam, analytic, mc, se, tail, trials, seed in rows:
            if lam == 0.0:
                assert analytic == 0.0 and mc == 0.0 and tail == 0.0
            else:
                assert abs(analytic - mc) <= 3 * se

    def test_sop_increases_in_density_and_hops(self):
        cfg = ExperimentConfig(lambdas=(1e-6, 1e-5, 1e-4), trials=1, seed=3)
        _, rows = run_sop_curve(cfg)
        by_path = {}
        for pid, hops, lam, analytic, *_ in rows:
            by_path.setdefault(pid, []).append(analytic)
        for vals in by_path.values():
            assert vals == sorted(vals)
            assert vals[0] < vals[-1]


class TestRateSweeps:
    def test_infeasible_marker_at_bound(self):
        topo = six_node_topology()
        p = topo.path(FIG_PATHS[0])
        bound = analytics.density_bound(p, ExperimentConfig().scenario())
        cfg = ExperimentConfig(lambdas=(bound * 0.5, bound * 2.0))
        _, rows = run_rate_sweeps(cfg, "lambda_e")
        direct = [r for r in rows if r[0] == "1-5"]
        assert direct[0][3] != "infeasible"
        assert direct[1][3] == "infeasible"

    def test_monotone_in_epsilon(self):
        cfg = ExperimentConfig(epsilons=(0.05, 0.1, 0.2, 0.4))
        _, rows = run_rate_sweeps(cfg, "epsilon")
        for pid in ("1-5", "1-3-5", "1-2-3-5"):
            vals = [float(r[3]) for r in rows if r[0] == pid and r[3] != "infeasible"]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_hop_crossover_in_density_sweep(self):
        # the relay path must overtake the direct path as density grows
        cfg = ExperimentConfig(lambdas=tuple(np.geomspace(1e-6, 1e-4, 13)))
        _, rows = run_rate_sweeps(cfg, "lambda_e")
        direct = {r[2]: r[3] for r in rows if r[0] == "1-5"}
        relay = {r[2]: r[3] for r in rows if r[0] == "1-3-5"}

        def val(x):
            return -1.0 if x == "infeasible" else float(x)

        diffs = [val(direct[l]) - val(relay[l]) for l in sorted(direct)]
        assert diffs[0] > 0  # direct wins at low density
        assert any(d < 0 for d in diffs)  # relay wins somewhere in the sweep


class TestTableOne:
    def test_single_rep_deterministic(self):
        cfg = ExperimentConfig(n_legit=(8,), reps=1, seed=123)
        _, rows1 = run_table_one(cfg)
        _, rows2 = run_table_one(cfg)
        assert rows1 == rows2
        assert rows1[0][0] == 8

    def test_zero_on_infeasible(self):
        # at an absurd density every draw is infeasible and the mean is 0
        cfg = ExperimentConfig(n_legit=(4,), reps=20, seed=5, lambda_e=1.0)
        _, rows = run_table_one(cfg)
        n, mean, stderr, infeasible_frac, reps, seed = rows[0]
        assert mean == 0.0
        assert infeasible_frac == 1.0

    def test_mean_grows_with_nodes(self):
        cfg = ExperimentConfig(n_legit=(8, 30), reps=150, seed=9)
        _, rows = run_table_one(cfg)
        (na, ma, sa, *_), (nb, mb, sb, *_) = rows
        assert mb > ma - 2 * math.hypot(sa, sb)


TABLE_ONE_GRID = [(alpha, lam, eps) for alpha in (2.5, 3.0, 4.0, 6.0)
                  for lam in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1.0)
                  for eps in (0.02, 0.1, 0.5)]


class TestStackedTableOne:
    @pytest.mark.parametrize("alpha, lam, eps", TABLE_ONE_GRID)
    def test_rows_match_per_rep_reference(self, monkeypatch, alpha, lam, eps):
        # 4000 cells: 444, 250, 49, 3 and 1 reps per chunk at n_legit = 1, 2,
        # 7, 30 and 60, so 13 reps end in a partial chunk at each of the first four
        monkeypatch.setattr(experiments, "SWEEP_CELLS", 4000)
        cfg = ExperimentConfig(n_legit=(1, 2, 7, 30, 60), reps=13, seed=11,
                               alpha=alpha, lambda_e=lam, epsilon=eps)
        assert run_table_one(cfg)[1] == oracles.table_one_reference(cfg)

    @pytest.mark.parametrize("lam", [0.0, 1e-5, 5e-5])
    def test_one_rep_per_chunk(self, monkeypatch, lam):
        cfg = ExperimentConfig(n_legit=(1, 2, 10, 50, 100), reps=25, seed=4, lambda_e=lam)
        stacked = run_table_one(cfg)
        monkeypatch.setattr(experiments, "SWEEP_CELLS", 1)
        assert run_table_one(cfg) == stacked

    def test_stderr_from_deviations(self, monkeypatch):
        # rates near 1e8 that differ by less than 1: the one-pass
        # E[c^2] - mean^2 cancels all of its 16 digits, a second pass over
        # the deviations none
        rates = 1e8 + np.random.default_rng(5).uniform(0.0, 1.0, 7)
        monkeypatch.setattr(routing, "mesh_secrecy_rates", lambda w, sc: rates)
        row = run_table_one(ExperimentConfig(n_legit=(10,), reps=7))[1][0]
        assert row[2] == pytest.approx(statistics.pstdev(rates.tolist()) / math.sqrt(7), rel=1e-6)

    def test_bad_n_legit(self):
        for n in (0, -2, -5):
            with pytest.raises(ConfigError, match="n_legit"):
                run_table_one(ExperimentConfig(n_legit=(10, n), reps=3))


class TestRandomPlacement:
    def test_corners_and_relays(self):
        # a full mesh on one placement, node i at row i
        rng = block_rng(1, 0, 0)
        topo = netmodel.Topology.from_xy(placements(10, 1, [rng])[0])
        assert topo.order == list(range(12))
        assert topo.xy[0].tolist() == [0.0, 0.0]
        assert topo.xy[11].tolist() == [50.0, 50.0]
        assert ((0.0 <= topo.xy[1:11]) & (topo.xy[1:11] <= 50.0)).all()


class TestPlacements:
    # seeds at and past 2^64 and negative, a stream past 2^16 and blocks
    # past 2^48, each masked into the Philox key as block_rng masks it
    @pytest.mark.parametrize("seed,n_idx,rep0", [
        (1, 0, 0), (2**64 + 7, 3, 5), (-9, 1, 0), (4, 2**16 + 3, 2), (5, 2, 2**48 - 3)])
    def test_rekeyed_equal_placement(self, seed, n_idx, rep0):
        reps = range(rep0, rep0 + 7)
        got = placements(9, len(reps), montecarlo.block_rngs(seed, n_idx, reps))
        want = np.stack([placements(9, 1, [block_rng(seed, n_idx, rep)])[0] for rep in reps])
        assert got.tobytes() == want.tobytes()

    def test_relays_are_uniform_draws(self):
        # the relays are rng.uniform(0, PLACEMENT_BOX) doubles, x then y
        xy = placements(6, 1, [block_rng(3, 1, 4)])[0]
        assert xy[1:-1].tobytes() == block_rng(3, 1, 4).uniform(0.0, PLACEMENT_BOX,
                                                                 (6, 2)).tobytes()
        assert xy[0].tolist() == [0.0, 0.0] and xy[-1].tolist() == [PLACEMENT_BOX] * 2

    @pytest.mark.parametrize("cells", [1, 40, 400, 4000])
    def test_table_one_chunks_draw_each_rep_once(self, monkeypatch, cells):
        # a size's reps cross SWEEP_CELLS chunks on one re-keyed generator;
        # the stacks swept are placements(n, 1, [block_rng(seed, n_idx, rep)])[0] in rep order
        monkeypatch.setattr(experiments, "SWEEP_CELLS", cells)
        stacks = []
        real = experiments.mesh_weights
        monkeypatch.setattr(experiments, "mesh_weights",
                            lambda xy: stacks.append(xy.copy()) or real(xy))
        cfg = ExperimentConfig(n_legit=(1, 7, 30), reps=13, seed=-(2**64) - 3)
        run_table_one(cfg)
        for n_idx, n in enumerate(cfg.n_legit):
            mine = [xy for xy in stacks if xy.shape[1] == n + 2]
            chunk = max(1, cells // (n + 2) ** 2)
            assert [len(xy) for xy in mine] == [min(chunk, 13 - s) for s in range(0, 13, chunk)]
            want = np.stack([placements(n, 1, [block_rng(cfg.seed, n_idx, rep)])[0]
                             for rep in range(13)])
            assert np.concatenate(mine).tobytes() == want.tobytes()

    def test_bad_n_legit_draws_nothing(self):
        rngs = montecarlo.block_rngs(1, 0, range(3))
        for n in (0, -2):
            with pytest.raises(ConfigError, match="n_legit"):
                placements(n, 3, rngs)
        # no generator was taken: the first is still rep 0's
        assert next(rngs).random() == block_rng(1, 0, 0).random()


class TestCsvDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        cfg = ExperimentConfig(lambdas=(1e-6, 1e-5), trials=5000, seed=17)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            header, rows = run_sop_curve(cfg)
            write_csv(out, cfg, header, rows)
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_embeds_config(self, tmp_path):
        cfg = ExperimentConfig(seed=99, trials=10)
        out = tmp_path / "c.csv"
        write_csv(out, cfg, ["a"], [(1,)])
        text = out.read_text()
        assert "# seed = 99" in text
        assert "# trials = 10" in text

    @pytest.mark.parametrize("command", ["sop-curve", "rate-vs-lambda", "rate-vs-epsilon",
                                         "table-one", "validate"])
    def test_written_as_utf8_whatever_the_locale(self, command, tmp_path):
        # every CSV-writing subcommand, with Python warning on any open()
        # that falls back to the locale's encoding; the header embeds the
        # non-ASCII output path as UTF-8
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("trials = 100\nreps = 2\nn_legit = 10\nlambdas = 1e-5\n"
                       "epsilons = 0.1\npowers = 80\n", encoding="utf-8")
        out = tmp_path / "sortie-é.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "secroute.cli", command, "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert f"# out = {out}\n" in out.read_bytes().decode("utf-8")


class TestCli:
    def test_route_default_topology(self, capsys):
        rc = main(["route", "--source", "1", "--dest", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "path:" in out
        assert "rs_star:" in out

    def test_route_topology_file(self, tmp_path, capsys):
        f = tmp_path / "nodes.csv"
        f.write_text("0,0,0\n1,0,5\n2,0,10\n")
        rc = main(["route", "--topology", str(f), "--source", "0", "--dest", "2"])
        assert rc == 0

    def test_route_duplicate_node_id_exit_code(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0,0\n1,0,5\n2,0,10\n1,3,4\n")
        rc = main(["route", "--topology", str(nodes), "--source", "0", "--dest", "2"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: duplicate node id 1\n")

    def test_route_infeasible_exit_code(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_text("lambda_e = 1.0\n")
        rc = main(["route", "--config", str(f), "--source", "1", "--dest", "5"])
        assert rc == 1
        assert "infeasible: no path satisfies" in capsys.readouterr().out

    def test_route_unreachable_exit_code(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0,0\n1,0,5\n2,0,10\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("0,1\n")
        rc = main(["route", "--topology", str(nodes), "--edges", str(edges),
                   "--source", "0", "--dest", "2"])
        assert rc == 1
        assert "unreachable: no path from 0 to 2" in capsys.readouterr().out
        # two components: 0-1 and 2-3
        nodes.write_text("0,0,0\n1,1,0\n2,2,0\n3,3,0\n")
        edges.write_text("0,1\n2,3\n")
        rc = main(["route", "--topology", str(nodes), "--edges", str(edges),
                   "--source", "0", "--dest", "3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.splitlines()[1] == "unreachable: no path from 0 to 3"
        assert "infeasible" not in out

    @pytest.mark.parametrize("nodes,edges,line", [
        pytest.param("0,0,0\n1,0,5\n2,0,10\n", "0,1\n",
                     "unreachable: no path from 0 to 2", id="unreachable"),
        pytest.param("0,0,0\n1,0,500\n2,0,1000\n", "0,1\n1,2\n",
                     "infeasible: no path satisfies the outage constraint at this "
                     "eavesdropper density", id="infeasible"),
    ])
    def test_route_without_route_sweeps_once(self, tmp_path, capsys, monkeypatch,
                                             nodes, edges, line):
        sweep = routing.bellman_ford_hop_constrained
        calls = []
        monkeypatch.setattr(routing, "bellman_ford_hop_constrained",
                            lambda *args: calls.append(args) or sweep(*args))
        (tmp_path / "nodes.csv").write_text(nodes)
        (tmp_path / "edges.csv").write_text(edges)
        rc = main(["route", "--topology", str(tmp_path / "nodes.csv"), "--edges",
                   str(tmp_path / "edges.csv"), "--source", "0", "--dest", "2"])
        assert rc == 1
        assert capsys.readouterr().out.splitlines()[1] == line
        assert len(calls) == 1

    @pytest.mark.parametrize("source, dest", [(1, 99), (1, 1)])
    def test_route_bad_endpoints_exit_code(self, capsys, source, dest):
        rc = main(["route", "--source", str(source), "--dest", str(dest)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.cfg"
        for line, err in [("nonsense = 1", "1: unknown key 'nonsense'"),
                          ("experiment = bogus", "unknown experiment 'bogus'")]:
            f.write_text(line + "\n")
            rc = main(["sop-curve", "--config", str(f)])
            assert rc == 2
            assert capsys.readouterr().err.endswith(err + "\n")

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bin.cfg"
        f.write_bytes(b"\xff\xfe\x00bad\n")
        rc = main(["sop-curve", "--config", str(f)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_io_exit_code(self, capsys):
        rc = main(["sop-curve", "--config", "/does/not/exist.cfg"])
        assert rc == 3

    @pytest.mark.parametrize("flag", ["--trials", "--reps"])
    def test_zero_trials_or_reps_exit_code(self, tmp_path, capsys, flag):
        rc = main(["table-one", flag, "0", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: trials and reps must be >= 1\n"

    def test_rate_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        rc = main(["rate-vs-lambda", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "path_id,hops,lambda_e,c_s" in lines

    def test_validate_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("trials = 30000\nlambda_e = 5e-5\n")
        out = tmp_path / "v.csv"
        rc = main(["validate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_flags_override_config_keys(self, tmp_path, capsys):
        # one parser for every subcommand: each flag names a config key, and
        # a flag writes the same CSV as the same key in a config file
        from secroute.cli import _build_parser
        args = vars(_build_parser().parse_args(["route"]))
        assert set(args) - {"command", "config"} <= set(vars(ExperimentConfig()))
        out = tmp_path / "t.csv"
        base = "n_legit = 5,8\nreps = 3\n"
        flagged, keyed = tmp_path / "f.cfg", tmp_path / "k.cfg"
        flagged.write_text(base)
        keyed.write_text(base + "seed = 7\n")
        assert main(["table-one", "--config", str(flagged), "--seed", "7",
                     "--out", str(out)]) == 0
        by_flag = out.read_bytes()
        assert main(["table-one", "--config", str(keyed), "--out", str(out)]) == 0
        assert out.read_bytes() == by_flag
        assert b"# seed = 7\n" in by_flag

    def test_one_column_edge_row_exit_code(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0,0\n1,0,5\n2,0,10\n")
        edges = tmp_path / "edges.csv"
        # a first row `0.0,1` is a malformed edge, not a header to skip
        # (skipping it would leave 0 -> 2 unreachable on a connected graph)
        for text, row in [("0,1\n2\n", "['2']"), ("0.0,1\n1,2\n", "['0.0', '1']")]:
            edges.write_text(text)
            rc = main(["route", "--topology", str(nodes), "--edges", str(edges),
                       "--source", "0", "--dest", "2"])
            assert rc == 2
            assert capsys.readouterr().err == f"error: malformed edge row: {row}\n"

    @pytest.mark.parametrize("command,line,named", [
        # the route cases keep their short ids
        pytest.param("route", "lambda_e = nan", "eavesdropper density", id="lambda_e = nan"),
        pytest.param("route", "power_db = inf", "power_db", id="power_db = inf"),
        # a non-finite rate or hop length, and float overflow, which names
        # the parameter; the ids leave out the expected name
        *(pytest.param(command, line, named, id=f"{command}-{line}")
          for command, line, named in [
              ("sop-curve", "rs = nan", "rs"),
              # the closed form's 2^(2 rs / alpha) overflows
              ("sop-curve", "rs = 3000", "rs = 3000 overflows a float in 2^(2 rs / alpha)"),
              ("validate", "rs = nan", "rs"),
              ("validate", "rs = inf", "rs"),
              ("validate", "dist = nan", "dist"),
              ("validate", "power_db = 4000", "power_db = 4000 overflows a float"),
              ("validate", "powers = 60, 4000", "power_db = 4000 overflows a float"),
              # a linear power that underflows to 0, which the gain threshold divides by
              ("validate", "power_db = -3300", "power_db = -3300 underflows a float"),
              ("validate", "powers = 80, -1e300", "power_db = -1e+300 underflows a float"),
              ("validate", "rs = 2000", "rs = 2000 overflows a float"),
              ("validate", "alpha = 400", "alpha = 400 overflows a float"),
              ("validate", "powers =", "need at least one power level"),
              # an empty sweep list, named by its key, where it would write
              # a CSV of a header alone
              ("sop-curve", "lambdas =", "need at least one value in lambdas"),
              ("rate-vs-lambda", "lambdas =", "need at least one value in lambdas"),
              ("rate-vs-epsilon", "epsilons =", "need at least one value in epsilons"),
              ("table-one", "n_legit =", "need at least one value in n_legit"),
              # a secrecy rate that overflows at a positive density
              ("route", "alpha = 1e308", "alpha = 1e+308 overflows a float"),
              ("rate-vs-lambda", "alpha = 1e308", "alpha = 1e+308 overflows a float"),
          ]),
        # a non-finite path-loss exponent, named by every command
        *(pytest.param(command, "alpha = inf", "alpha must be finite and exceed 2",
                       id=f"{command}-alpha = inf")
          for command in ("sop-curve", "rate-vs-lambda", "rate-vs-epsilon", "table-one",
                          "route", "validate")),
        # a window whose area is not a finite float
        pytest.param("sop-curve", "window = inf\nlambdas = 0, 1e-5", "sim_window",
                     id="sop-curve-window = inf"),
        pytest.param("validate", "window = 1e300\nlambda_e = 0", "sim_window",
                     id="validate-window = 1e300"),
    ])
    def test_non_finite_scenario_exit_code(self, tmp_path, capsys, command, line, named):
        f = tmp_path / "exp.cfg"
        f.write_text(line + "\ntrials = 100\n")
        argv = [command, "--config", str(f), "--out", str(tmp_path / "o.csv")]
        if command == "route":
            argv += ["--source", "1", "--dest", "5"]
        rc = main(argv)
        assert rc == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "Traceback" not in out + err
        assert "nan" not in out and not (tmp_path / "o.csv").exists()
        # a bad rate or distance is named, not blamed on the on-off filter
        assert "no trials survived" not in err
        assert named in err

    @staticmethod
    def sop_curve_rows(tmp_path, *lines):
        """The data rows of a sop-curve run on config `lines`, which must exit 0."""
        f = tmp_path / "s.cfg"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.csv"
        assert main(["sop-curve", "--config", str(f), "--out", str(out)]) == 0
        return list(csv.DictReader(line for line in out.read_text().splitlines()
                                   if not line.startswith("#")))

    def test_sop_curve_at_huge_rate(self, tmp_path, capsys):
        # 2^rs overflows a float at rs = 2000, while each hop's outage radius
        # 2^(rs/4) d does not: every hop is certain to be in outage, in the
        # closed form and in the simulation
        rows = self.sop_curve_rows(tmp_path, "rs = 2000", "trials = 100")
        assert len(rows) == 15
        assert all(r["analytic_sop"] == r["mc_mean"] == "1" for r in rows)

    def test_sop_curve_at_alpha_400(self, tmp_path, capsys):
        # d^alpha overflows a float on every hop longer than 5; every row
        # lies within 5 binomial stderrs of the closed form, CI's bias gate
        rows = self.sop_curve_rows(tmp_path, "alpha = 400", "trials = 20000")
        assert len(rows) == 15
        for r in rows:
            p, n = float(r["analytic_sop"]), int(r["trials"])
            assert abs(float(r["mc_mean"]) - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n), r

    def test_power_overflow_outside_sop_curve(self, tmp_path, capsys):
        # sop-curve never converts the power to linear scale, so neither an
        # overflowing nor an underflowing linear power stops it
        f = tmp_path / "exp.cfg"
        for power_db in ("4000", "-3300"):
            f.write_text(f"power_db = {power_db}\ntrials = 100\n")
            rc = main(["sop-curve", "--config", str(f), "--out", str(tmp_path / "o.csv")])
            assert rc == 0, power_db

    def test_validate_passes_at_small_alpha(self, tmp_path, capsys):
        # at alpha = 2.5 the window caps the disk, and the far field outside
        # it, 0.025 of outage exponent, is added exactly: the rows pass
        f = tmp_path / "v.cfg"
        f.write_text("alpha = 2.5\nlambda_e = 1e-4\ntrials = 50000\n")
        out = tmp_path / "v.csv"
        rc = main(["validate", "--config", str(f), "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("memoryless:") and lines[0].endswith("[pass]")
        assert lines[1].startswith("rejection:") and lines[1].endswith("[pass]")
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")]
        header, rows = rows[0], rows[1:]
        assert header[5:] == ["mc_stderr", "tail", "trials", "pass"]
        assert [r[-1] for r in rows] == ["1"] * 5
        for r in rows[:2]:
            analytic, mc, se, tail = (float(x) for x in r[3:7])
            assert tail == pytest.approx(2.5132657e-2, rel=1e-7)
            assert abs(mc - analytic) <= 3 * se

    def test_validate_vanishing_hop_is_silent(self, tmp_path, capsys):
        # d^alpha underflows to 0 at dist = 1e-200: the on-off filter sees an
        # infinite SNR, so every trial survives and none falls short
        f = tmp_path / "v.cfg"
        f.write_text("dist = 1e-200\ntrials = 2000\n")
        out = tmp_path / "v.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["validate", "--config", str(f), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [(r[4], r[7], r[8]) for r in rows] == [("0", "2000", "1")] * 5

    @staticmethod
    def stub_validate(monkeypatch, analytic, memoryless, rejection):
        """run_validate on stubbed estimates against a stubbed closed form."""
        monkeypatch.setattr(analytics, "hop_sop", lambda rs, dist, scenario: analytic)
        monkeypatch.setattr(montecarlo, "hop_sop_estimates",
                            lambda rs, dist, scenario, trials, seed, powers_db:
                            (memoryless, rejection))

    def validate_rows(self, tmp_path, capsys):
        """(exit code, stdout lines, pass column) of a validate run."""
        out = tmp_path / "v.csv"
        rc = main(["validate", "--trials", "100", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        return rc, capsys.readouterr().out.splitlines(), [r[-1] for r in rows]

    def test_validate_power_violation_fails(self, tmp_path, capsys, monkeypatch):
        # the 80 dB estimate lies 10 combined stderrs from the others
        est = montecarlo.SopEstimate(0.1, 0.01, 1000, 0.0)
        far = montecarlo.SopEstimate(0.25, 0.01, 1000, 0.0)
        self.stub_validate(monkeypatch, 0.1, est, [est, est, far, est])
        rc, lines, verdicts = self.validate_rows(tmp_path, capsys)
        assert rc == 1
        assert verdicts == ["1", "1", "0", "0", "0"]
        assert [line.rsplit(" ", 1)[1] for line in lines[:5]] == ["[pass]"] * 2 + ["[FAIL]"] * 3

    def test_validate_zero_stderr_passes(self, tmp_path, capsys):
        # at lambda_e = 1e-9 no trial of 100 is in outage: the stderr is 0,
        # and the rows are judged by the binomial stderr at the closed form;
        # below about 1e-16 (1e-17 in a window of side 1) 1 - p rounds to 1,
        # where the stand-in must not cancel to 0
        for config in ("lambda_e = 1e-9", "lambda_e = 1e-20", "lambda_e = 1e-100",
                       "lambda_e = 1e-17\nwindow = 1", "lambda_e = 1e-20\nwindow = 1"):
            f = tmp_path / "v.cfg"
            f.write_text(f"{config}\ntrials = 100\n")
            out = tmp_path / "v.csv"
            rc = main(["validate", "--config", str(f), "--out", str(out)])
            assert rc == 0, config
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith("memoryless:") and lines[1].startswith("rejection:")
            assert all(line.endswith("[pass]") for line in lines[:5]), (config, lines)
            rows = [line.split(",") for line in out.read_text().splitlines()
                    if not line.startswith("#")][1:]
            for r in rows[:2]:
                assert float(r[5]) == 0.0 < float(r[6]) and r[-1] == "1"

    def test_validate_zero_count_far_from_closed_form_fails(self, tmp_path, capsys,
                                                            monkeypatch):
        # no outage in 100 trials against a closed form of 0.5: 10 binomial
        # stderrs (0.05 each) away
        zero = montecarlo.SopEstimate(0.0, 0.0, 100, 0.0)
        self.stub_validate(monkeypatch, 0.5, zero, [zero] * 4)
        rc, lines, verdicts = self.validate_rows(tmp_path, capsys)
        assert rc == 1
        assert verdicts == ["0", "0", "1", "1", "1"]
        assert lines[0].endswith("[FAIL]") and lines[1].endswith("[FAIL]")

    def test_validate_without_survivors_exit_code(self, tmp_path, capsys):
        # at -200 dB no trial passes the on-off threshold of rs = 30
        f = tmp_path / "v.cfg"
        f.write_text("power_db = -200\npowers = -200\nrs = 30\ntrials = 2000\n")
        rc = main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")])
        assert rc == 2

    def test_zero_density_route_is_unbounded(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_text("lambda_e = 0\n")
        rc = main(["route", "--config", str(f), "--source", "1", "--dest", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rs_star: unbounded" in out
        assert "c_s: unbounded" in out
        assert "metric=unbounded" in out
        assert "inf" not in out.replace("infeasible", "")

    def test_zero_density_rate_sweep_is_unbounded(self, tmp_path, capsys):
        # a density of -0.0 is the density 0: no data cell reads -0, in the
        # rate sweep or in the Monte Carlo runs' densities and closed forms
        f = tmp_path / "exp.cfg"
        out = tmp_path / "rates.csv"
        for zero in ("0", "-0.0"):
            f.write_text(f"lambdas = {zero}, 1e-5\n")
            rc = main(["rate-vs-lambda", "--config", str(f), "--out", str(out)])
            assert rc == 0
            rows = [line.split(",") for line in out.read_text().splitlines()
                    if not line.startswith("#")][1:]
            assert [r[3] for r in rows if r[2] == "0"] == ["unbounded"] * len(FIG_PATHS)
            assert all(r[3] not in ("unbounded", "inf") for r in rows if r[2] != "0")
        for command, config in (("sop-curve", "lambdas = -0.0, 1e-5"),
                                ("validate", "lambda_e = -0.0")):
            f.write_text(f"{config}\ntrials = 100\n")
            assert main([command, "--config", str(f), "--out", str(out)]) == 0
            cells = [c for line in out.read_text().splitlines() if not line.startswith("#")
                     for c in line.split(",")]
            assert "-0" not in cells and "0" in cells, command

    def test_zero_density_table_one_is_unbounded(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_text("lambda_e = 0\nn_legit = 10, 20\nreps = 3\n")
        out = tmp_path / "t.csv"
        rc = main(["table-one", "--config", str(f), "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [r[:3] for r in rows] == [["10", "unbounded", "unbounded"],
                                         ["20", "unbounded", "unbounded"]]

    def test_tiny_epsilon_route_is_infeasible(self, tmp_path, capsys):
        # 1 - epsilon rounds to 1, so no weight meets the outage constraint
        f = tmp_path / "exp.cfg"
        f.write_text("epsilon = 1e-17\n")
        rc = main(["route", "--config", str(f), "--source", "1", "--dest", "5"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-1].startswith("infeasible:") and err == ""

    def test_tiny_epsilon_table_one_is_infeasible(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_text("epsilon = 1e-17\nn_legit = 10, 20\nreps = 3\n")
        out = tmp_path / "t.csv"
        rc = main(["table-one", "--config", str(f), "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [r[:4] for r in rows] == [["10", "0", "0", "1"], ["20", "0", "0", "1"]]

    @pytest.mark.parametrize("line,err", [
        # the squared-rate sum overflows: its variance would read nan
        pytest.param("alpha = 1e160\nn_legit = 3\nreps = 3",
                     "alpha = 1e+160 overflows a float in the sum of table-one's secrecy rates",
                     id="alpha = 1e160"),
        # every squared deviation is finite, but math.fsum's partial sum overflows
        pytest.param("alpha = 3e154\nn_legit = 10\nreps = 2000",
                     "alpha = 3e+154 overflows a float in the sum of table-one's secrecy rates",
                     id="alpha = 3e154"),
        # the rate sum overflows too: its mean would read `unbounded`
        pytest.param("alpha = 1e308\nreps = 100",
                     "alpha = 1e+308 overflows a float in the sum of table-one's secrecy rates",
                     id="alpha = 1e308"),
        # one rate overflows: the first in (budget, rep) order is named, a
        # two-hop path of rep 2, where rep 0's first is a three-hop path
        pytest.param("alpha = 1e308\nlambda_e = 1.09e-6\nreps = 100",
                     "alpha = 1e+308 overflows a float in the secrecy rate of a path "
                     "of weight 2501.31", id="alpha = 1e308, lambda_e = 1.09e-6"),
    ])
    def test_table_one_rate_overflow_exit_code(self, tmp_path, capsys, line, err):
        f = tmp_path / "exp.cfg"
        f.write_text(line + "\n")
        out = tmp_path / "t.csv"
        rc = main(["table-one", "--config", str(f), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("xs,edges,times", [
        pytest.param((0, 1e200, 2e200), None, "", id="mesh"),
        # a path joins 1 and 3, whose first hop's squared length overflows
        pytest.param((0, 1e200, 1), "1,2\n2,3\n", "", id="edges"),
        # each squared length is finite, but N-1 = 2 of the longest overflow
        pytest.param((0, 1e154, 1), "1,2\n2,3\n", "2 times ", id="edges-path-weight"),
    ])
    def test_far_apart_nodes_exit_code(self, tmp_path, capsys, xs, edges, times):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("".join(f"{i},{x!r},0\n" for i, x in enumerate(xs, 1)))
        argv = ["route", "--topology", str(nodes), "--source", "1", "--dest", "3"]
        if edges:
            (tmp_path / "edges.csv").write_text(edges)
            argv += ["--edges", str(tmp_path / "edges.csv")]
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: nodes 1 and 2 lie so far apart that {times}their "
                       "squared distance overflows a float\n")

    def test_mesh_path_weight_may_overflow(self, tmp_path, capsys):
        # the nodes of `edges-path-weight` as a full mesh: a sum that
        # overflows is longer than the direct edge, so the route stands
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("1,0,0\n2,1e154,0\n3,1,0\n")
        rc = main(["route", "--topology", str(nodes), "--source", "1", "--dest", "3"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert "path: 1 -> 3\n" in out

    def test_density_bound_overflow_exit_code(self, tmp_path, capsys):
        # nodes 1e-160 apart: the rate (about 2000) fits a float, but the
        # density bound of a path of weight 1e-320 does not; alpha is not named
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("1,0,0\n2,1e-160,0\n")
        rc = main(["route", "--topology", str(nodes), "--source", "1", "--dest", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the density bound of a path of weight 9.99989e-321 "
            "over lambda_e = 1e-05 overflows a float\n")

    def test_unallocatable_input_exit_code(self, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError when an array cannot be allocated, e.g.
        # table-one's weight matrix at n_legit = 1000000; whether the host
        # refuses a huge allocation depends on its overcommit policy, so
        # the refusal is simulated
        msg = ("Unable to allocate 7.28 TiB for an array with shape "
               "(1, 1000002, 1000002) and data type float64")

        def refuse(xy):
            raise MemoryError(msg)

        monkeypatch.setattr(netmodel, "_squared_distances", refuse)
        out = tmp_path / "t.csv"
        for argv in (["table-one", "--reps", "1", "--out", str(out)],
                     ["route", "--source", "1", "--dest", "5"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {msg}\n")
        assert not out.exists()

    def test_non_integer_node_row_after_header_exit_code(self, tmp_path, capsys):
        # only the first row may be a header; a later `1.0` id is malformed,
        # not a second header to skip. A first row is a header only when its
        # id is not a number, and a field that does not parse names its row.
        nodes = tmp_path / "nodes.csv"
        for text, row in [("id,x,y\n0,0,0\n1.0,3,4\n2,0,10\n", "['1.0', '3', '4']"),
                          ("1.0,0,0\n0,0,0\n2,0,10\n", "['1.0', '0', '0']"),
                          ("nan,0,0\n0,0,0\n1,3,4\n", "['nan', '0', '0']"),
                          ("0,0,0\n1,1e,0\n", "['1', '1e', '0']")]:
            nodes.write_text(text)
            rc = main(["route", "--topology", str(nodes), "--source", "0", "--dest", "1"])
            assert rc == 2
            assert capsys.readouterr().err == f"error: malformed node row: {row}\n"

    def test_validate_draws_each_block_once(self, monkeypatch):
        # all five estimates share one pass: 7 blocks of 100000 trials,
        # one Philox stream each
        keys = []
        real = montecarlo.block_rng

        def counting(seed, stream, block):
            keys.append((seed, stream, block))
            return real(seed, stream, block)

        monkeypatch.setattr(montecarlo, "block_rng", counting)
        ok, _, rows = run_validate(ExperimentConfig(experiment="validate", trials=100000))
        assert len(rows) == 5
        assert len(keys) == len(set(keys)) == 7

    def test_cli_imports_without_scipy(self):
        # scipy is a test-only dependency (tests/oracles.py); the CLI never
        # loads it
        code = ("import contextlib, io, sys\n"
                "import secroute.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = secroute.cli.main(['route', '--source', '1', '--dest', '5'])\n"
                "assert rc == 0, rc\n"
                "print('scipy' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_package_never_imports_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src" / "secroute"
        for py in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(py.read_text(), str(py))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), py.name
