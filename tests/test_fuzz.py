"""A seeded input fuzzer over the six commands.

Each case writes a random `key = value` config, and for `route` a node CSV
and sometimes an edge CSV with bad, duplicate or co-located rows, then runs
`secroute.cli.main` on it. Every case must end in a documented exit code
(0-3) with no exception escaping, print an `error:` line when it fails on
its input, and write no `nan` and no `-0` into a CSV data row.

The work per case is bounded: trials, reps and network sizes are small, and
the window that caps each hop's eavesdropper disk is at most 100 wide, so a
Monte Carlo trial holds at most about 400 expected points and no case
allocates more than a few MiB.
"""

import random

import pytest

from secroute.cli import main
from secroute.experiments import EXPERIMENTS

CASES = 100

# per key: values a run accepts, at ordinary and boundary points, and
# values it must reject (or that leave no valid result, such as a density
# that puts too many eavesdroppers on a disk); a case draws from the second
# list at rate BAD_RATE per key
POOLS = {
    "alpha": (["4", "3", "2.5", "8", "2.0000001", "1e300"], ["2", "nan", "inf", "-3", "x"]),
    "lambda_e": (["1e-5", "1e-3", "0.05", "0", "-0.0", "5e-324", "1e-320"],
                 ["1e9", "nan", "inf", "-1e-5"]),
    "epsilon": (["0.1", "0.02", "0.5", "1e-17", "0.9999999999999999"],
                ["0", "1", "nan", "-0.1"]),
    "power_db": (["80", "60", "-300"], ["3000", "-3300", "nan", "inf"]),
    "window": (["100", "50", "20", "1"], ["0", "-5", "nan", "inf", "1e308"]),
    "rs": (["1", "0.5", "5", "1e3"], ["1e308", "0", "-1", "nan"]),
    "dist": (["10", "1", "25", "1e-300"], ["1e200", "0", "-1", "nan"]),
    "lambdas": (["1e-5", "1e-6,0.05", "0,1e-3", "-0.0", "1e-320,1e-4"],
                ["nan", "-1", "1e9,1e-5", ""]),
    "epsilons": (["0.1", "0.02,0.5", "1e-17,0.9999999999999999"], ["0", "nan,0.1", ""]),
    "n_legit": (["5", "1,2", "10,30", "3,3"], ["0", "-2,5", ""]),
    "powers": (["60,80", "100", "-50,60"], ["1e308", "nan", ""]),
    "trials": (["1", "50", "200"], ["0", "-3", "2.5"]),
    "reps": (["1", "3"], ["0", "-1"]),
    "seed": (["1", "0", "-5", "18446744073709551621"], ["1.5"]),
    "source": (["1", "0", "5"], ["99", "-1"]),
    "dest": (["5", "1", "3"], ["99"]),
}
BAD_RATE = 0.08
# keys every case sets, so no case runs the default 100 000 trials or
# 2000 reps, or the default window
ALWAYS = ("trials", "reps", "window", "n_legit")


def _nodes_csv(rnd) -> str:
    rows = ["id,x,y"] if rnd.random() < 0.5 else []
    for i in range(rnd.randint(1, 7)):
        rows.append(f"{i},{rnd.uniform(-20, 20)!r},{rnd.uniform(-20, 20)!r}")
    extras = [
        "1,0,0",            # a duplicate id, or a second one at the origin
        "6,0,0",
        "a,b,c",            # malformed
        "2,1e200,0",        # squared distances that overflow
        "3,nan,0",
        "4,1",              # too few fields
        "# comment", "",
    ]
    rows += rnd.sample(extras, rnd.randint(0, 3))
    return "\n".join(rows) + "\n"


def _edges_csv(rnd) -> str:
    rows = ["from,to"] if rnd.random() < 0.5 else []
    rows += [f"{rnd.randint(0, 7)},{rnd.randint(0, 7)}" for _ in range(rnd.randint(0, 8))]
    rows += rnd.sample(["1,1", "0,99", "x,1", "2", "# comment"], rnd.randint(0, 2))
    return "\n".join(rows) + "\n"


def _case(rnd, tmp_path):
    """argv for one random case, its files written into tmp_path."""
    command = rnd.choice(EXPERIMENTS)
    keys = set(ALWAYS) | set(rnd.sample(sorted(POOLS), rnd.randint(1, 6)))
    lines = []
    for key in sorted(keys):
        good, bad = POOLS[key]
        lines.append(f"{key} = {rnd.choice(bad if rnd.random() < BAD_RATE else good)}")
    if command == "route" and rnd.random() < 0.8:
        (tmp_path / "nodes.csv").write_text(_nodes_csv(rnd))
        lines.append(f"topology = {tmp_path / 'nodes.csv'}")
        if rnd.random() < 0.5:
            (tmp_path / "edges.csv").write_text(_edges_csv(rnd))
            lines.append(f"edges = {tmp_path / 'edges.csv'}")
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
    return [command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("case", range(CASES))
def test_every_input_ends_in_a_documented_exit(case, tmp_path, capsys):
    rnd = random.Random(2200 + case)
    argv = _case(rnd, tmp_path)
    config = (tmp_path / "run.cfg").read_text()
    code = main(argv)  # an exception escaping here is a traceback for the user
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), config
    assert "Traceback" not in out + err
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, (config, err)
    csv = tmp_path / "out.csv"
    if csv.exists():
        data = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
        for row in data[1:]:
            assert not any(f.strip().lower() in ("nan", "-nan", "-0") for f in row.split(",")), (
                config, row)
