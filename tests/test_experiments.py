import math

import numpy as np
import pytest

from secroute import analytics
from secroute.cli import main
from secroute.experiments import (
    ConfigError,
    ExperimentConfig,
    FIG_PATHS,
    parse_config,
    random_placement,
    run_rate_sweeps,
    run_route,
    run_sop_curve,
    run_table_one,
    six_node_topology,
    write_csv,
)
from secroute.montecarlo import block_rng


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text(
            "experiment = rate-vs-lambda\n"
            "alpha = 4\n"
            "lambda_e = 2e-5  # overridden per sweep point\n"
            "epsilon = 0.2\n"
            "lambdas = 1e-6, 1e-5\n"
            "trials = 500\n"
            "seed = 77\n"
            "out = x.csv\n")
        cfg = parse_config(f)
        assert cfg.experiment == "rate-vs-lambda"
        assert cfg.epsilon == 0.2
        assert cfg.lambdas == (1e-6, 1e-5)
        assert cfg.seed == 77
        assert cfg.out == "x.csv"

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
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
        for pid, hops, lam, analytic, mc, se, trials, seed in rows:
            if lam == 0.0:
                assert analytic == 0.0 and mc == 0.0
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


class TestRandomPlacement:
    def test_corners_and_relays(self):
        rng = block_rng(1, 0, 0)
        topo = random_placement(10, rng)
        assert len(topo.nodes) == 12
        src, dst = topo.nodes[0], topo.nodes[11]
        assert (src.x, src.y) == (0.0, 0.0)
        assert (dst.x, dst.y) == (50.0, 50.0)
        for i in range(1, 11):
            n = topo.nodes[i]
            assert 0.0 <= n.x <= 50.0 and 0.0 <= n.y <= 50.0


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

    def test_route_infeasible_exit_code(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_text("lambda_e = 1.0\n")
        rc = main(["route", "--config", str(f), "--source", "1", "--dest", "5"])
        assert rc == 1

    def test_route_unreachable_exit_code(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0,0\n1,0,5\n2,0,10\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("0,1\n")
        rc = main(["route", "--topology", str(nodes), "--edges", str(edges),
                   "--source", "0", "--dest", "2"])
        assert rc == 1

    def test_bad_config_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.cfg"
        f.write_text("nonsense = 1\n")
        rc = main(["sop-curve", "--config", str(f)])
        assert rc == 2

    def test_missing_config_io_exit_code(self, capsys):
        rc = main(["sop-curve", "--config", "/does/not/exist.cfg"])
        assert rc == 3

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

    def test_one_column_edge_row_exit_code(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0,0\n1,0,5\n2,0,10\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("0,1\n2\n")
        rc = main(["route", "--topology", str(nodes), "--edges", str(edges),
                   "--source", "0", "--dest", "2"])
        assert rc == 2

    @pytest.mark.parametrize("line", ["lambda_e = nan", "power_db = inf"])
    def test_non_finite_scenario_exit_code(self, tmp_path, capsys, line):
        f = tmp_path / "exp.cfg"
        f.write_text(line + "\n")
        rc = main(["route", "--config", str(f), "--source", "1", "--dest", "5"])
        assert rc == 2
        assert "nan" not in capsys.readouterr().out

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
        f = tmp_path / "exp.cfg"
        f.write_text("lambdas = 0, 1e-5\n")
        out = tmp_path / "rates.csv"
        rc = main(["rate-vs-lambda", "--config", str(f), "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [r[3] for r in rows if r[2] == "0"] == ["unbounded"] * len(FIG_PATHS)
        assert all(r[3] not in ("unbounded", "inf") for r in rows if r[2] != "0")
