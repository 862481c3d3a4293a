"""Pinned outputs: the SHA-256 of the CSV and the stdout of fixed CLI runs.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 before the
Monte Carlo block drivers were merged into one. A change meant to leave
every output byte-identical must keep them; a change that alters an output
on purpose records the new digests here and says why.

Re-recorded: the `sop-curve` CSV and the `validate` CSV and stdout, when
the Monte Carlo stopped drawing the fixed square window and drew each
hop's eavesdroppers on a disk sized from the truncation-bias bound. Every
estimate changed at a fixed seed, and both CSVs gained the `bias_bound`
column. The `sop-curve` stdout and the other three cases draw no point
and kept their digests.

Added later, recorded before the router read its candidates from the hop
table: `route` on a node/edge CSV pair whose sweep stops before its last
budget, `validate` at alpha = 2.5 where two rows read `weak` (exit 1),
and `rate-vs-epsilon`.

Added later, recorded before `table-one` swept its topologies as one
stack: `table-one` at lambda_e = 1e-4, where every rep of every size is
infeasible, and at lambda_e = 5e-5, where the infeasible fractions are
1, 1 and 0.4.

Added later, recorded before `route` ended its sweep at the rate bound:
`route` at lambda_e = 1.0, infeasible (exit 1), and `route` between the
two components of a 4-node edge list, unreachable (exit 1). Neither
finds a feasible candidate, so neither sweep can stop early.

Re-recorded then: the `route` stdout. Its audit now ends with the one
line `v>=2: pruned, no later budget's rate bound exceeds c_s` in place of
the budgets 2 to 5. The `route-edges` sweep reaches its fixed point
(v = 7) before the bound can end it, so its digest did not move.

Re-recorded when both sweeps also bounded a later budget's path by the
weights the sweep had already found (routing.later_paths_may_win): the
`route-edges` stdout. Its audit now ends with the line `v>=6: pruned, no
later budget's rate bound exceeds c_s` in place of the budgets 6 to 14,
and its path, rs_star and c_s are unchanged. No other digest moved. The
two-pass `table-one` stderr (the sum of squared deviations from the mean,
by math.fsum) moved none either: in these cases it rounds to the same 12
significant digits as the one-pass formula.

Re-recorded when the Monte Carlo added the eavesdropper field outside
each hop's disk exactly, as the alternating series of its Laplace
exponent, and sized each disk by a fixed tail share instead of by the
truncation-bias bound: the `sop-curve` CSV and the `validate` CSV and
stdout. Every radius changed, so every estimate changed at a fixed seed,
and both CSVs gained the `tail` column. The alpha = 2.5 `validate` case,
recorded as `validate-weak` when its rows read `weak` (exit 1), now reads
`pass` on every row and exits 0, so it is renamed `validate-small-alpha`.
The `sop-curve` stdout and every case that draws no point kept their
digests.

Re-recorded when each Monte Carlo block drew its eavesdroppers as one
Poisson total on its trials' disks laid end to end, in place of one
Poisson count per trial: the `sop-curve` CSV and the `validate` and
`validate-small-alpha` CSVs and stdouts. The stream layout changed, so
every estimate changed at a fixed seed. Over 200 fresh seeds at each of
four hops (alpha 2.5 to 4, lambda_e 1e-5 to 1e-3), the memoryless
estimates' mean z against the closed form read -0.07 to 0.03. The
`sop-curve` stdout and every case that draws no point kept their digests.

Re-recorded when the far field outside each hop's disk became one closed
form at every disk radius, the regularized incomplete beta function, and
the `bias_bound` column, which only the old capped-disk path filled, was
dropped: the `sop-curve`, `validate` and `validate-small-alpha` CSVs.
Each new CSV equals the one before with that column cut out, byte for
byte: no hop in these cases has its disk capped below (2 theta)^(1/alpha),
where the old path applied, so no estimate moved. Every stdout digest and both matrix digests kept theirs.

Re-recorded when each Monte Carlo block read every eavesdropper point as
one (u, gain) word pair, in place of all the u words and then all the
gain words, and summed each hop's interference in units of its own
length, I' = sum S (r/d)^-alpha, so that the outage tests take no d^alpha
alone: the `sop-curve` CSV and the `validate` and `validate-small-alpha`
CSVs and stdouts. The stream layout changed, so every estimate changed at
a fixed seed; the Poisson totals did not. Over 200 fresh seeds at each of
four hops (alpha 2.5 to 4, lambda_e 1e-5 to 1e-3), the memoryless
estimates' mean z against the closed form read -0.05 to 0.06. The `sop-curve`
stdout, every case that draws no point and both matrix digests kept
theirs.

Re-recorded when the path estimator averaged each trial's exact
conditional outage q = 1 - exp(-sum log1p((r/rho)^-alpha)) over the
trials, in place of counting outages on drawn legitimate gains
(Rao-Blackwellization): the `sop-curve` CSV. Its points did not move,
since each is still read as its (u, gain) word pair, but `mc_mean` and
`mc_stderr` changed on every row, the stderr now the sample stderr of q.
Over 40 fresh seeds on each of the 15 rows at 8192 trials, at each of
alpha 2.5, 3 and 4, the z-scores against the closed form read mean
+0.04, +0.01 and +0.03 with sd 0.99, 1.00 and 1.01, and the variance
fell 4.2-5.9, 2.8-3.3 and 1.9-2.0 times. Every other digest, the
`validate` cases and both matrix digests included, kept its own.

Each run works in its own directory with a relative `--out`, so the
`# out = ...` header line of the CSV does not depend on where tests run.
"""

import hashlib

import pytest

from secroute.cli import main

# a ring of relays 0..11 with chords, and three nodes 12..14 on no edge; from
# 0 to 7 the prefix rate bound ends the hop-budget sweep after v = 5, where
# the D^2/v bound alone leaves it to its fixed point at v = 7
NODES_CSV = """id,x,y
# relays
0,0,0
1,8,3
2,15,9
3,21,2
4,30,5
5,36,12
6,44,7
7,50,0
8,26,-14
9,12,-11
10,40,-9
11,6,18
12,60,60
13,-30,40
14,70,-20
"""
EDGES_CSV = """from,to
0,7
0,1
1,2
2,3
3,4
4,5
5,6
6,7
0,9
9,8
8,10
10,7
3,8
1,11
11,5
2,4
"""

# name: (argv, files written into the run directory, exit code,
#        CSV digest or None when no CSV is written, stdout digest)
CASES = {
    "sop-curve": (
        ["sop-curve", "--trials", "3000"], {}, 0,
        "b31b9dc81645ec3d7dec2623a8a0c2cf0d3f5c4b71ed910c537ff163857313f6",
        "7b395cc54f88359cbbcb470036ac15868ce985176bc8569492b1314bff55a860"),
    "validate": (
        ["validate", "--trials", "5000"], {}, 0,
        "e05eff12674ff925e2bd3c43994b36156a1ff043ed4e93c878cdbbaedadc1180",
        "86c078a3bdc98d2f5e2cb06f9fb6344e984d5fe0fc63ee0fab054b6f7c43ae1a"),
    "table-one": (
        ["table-one", "--config", "run.cfg"], {"run.cfg": "n_legit = 10, 20\nreps = 5\n"}, 0,
        "3fde641885dac06d34a3dffef16f0d38e96ad6126bef79926859cb21cef04177",
        "9a1a7511b7f5511a4798f2e43dd42dafa9f31d30410eb86843df8a3d9f3bbdaf"),
    "route": (
        ["route", "--source", "1", "--dest", "5"], {}, 0,
        None,  # route prints its report and writes no CSV
        "1de503ed2badd980c6f5223eeda510ac0a138f8fea04cd83fc1577039e70f2f5"),
    "rate-vs-lambda": (
        ["rate-vs-lambda"], {}, 0,
        "69227154f6b9e25bafa5810cbd07bd21117eb18b14023c19b9eaa82f3fd0187e",
        "7b395cc54f88359cbbcb470036ac15868ce985176bc8569492b1314bff55a860"),
    "route-edges": (
        ["route", "--topology", "nodes.csv", "--edges", "edges.csv",
         "--source", "0", "--dest", "7"],
        {"nodes.csv": NODES_CSV, "edges.csv": EDGES_CSV}, 0,
        None,
        "5754a254c490c237088764d5ba58bf60a6c7d9ced75985e3c61dd2a2784701a4"),
    "validate-small-alpha": (
        ["validate", "--trials", "5000", "--config", "run.cfg"],
        {"run.cfg": "alpha = 2.5\nlambda_e = 1e-4\n"}, 0,
        "25fb49fd220fd012b42906687fc622694d169bd8c872d43654c5caadb9a241d6",
        "5cd6cadb9a90fe873345c7fd7fb3a8d349af13cac1639d1891c913c457ad0c89"),
    "rate-vs-epsilon": (
        ["rate-vs-epsilon"], {}, 0,
        "5592b053199f796d3cfc87073f84a310ee6bb74cbdf822c1591244df7837ec41",
        "c0234888ef23369c0dd44648530e8f473dc1e211c187de423632a3d15fd67b99"),
    "table-one-infeasible": (
        ["table-one", "--config", "run.cfg"],
        {"run.cfg": "n_legit = 1, 50, 100\nreps = 40\nlambda_e = 1e-4\n"}, 0,
        "29ce3d52bd9562d74245bf90b4f9a4a6f7ea6d5cd1615d483f46af33347df8d6",
        "7e0e6191f30ab9bb1c15f0397479db14dcc50cf266776dd0696eb7287012b307"),
    "table-one-mixed": (
        ["table-one", "--config", "run.cfg"],
        {"run.cfg": "n_legit = 1, 50, 100\nreps = 40\nlambda_e = 5e-5\n"}, 0,
        "7fb547a3aca8e5ac066de1aef6f51b2548509587fc48cab12da92e7bf42450fa",
        "7e0e6191f30ab9bb1c15f0397479db14dcc50cf266776dd0696eb7287012b307"),
    "route-infeasible": (
        ["route", "--source", "1", "--dest", "5", "--config", "run.cfg"],
        {"run.cfg": "lambda_e = 1.0\n"}, 1,
        None,
        "c18a436a0098113591f83513d26001947f5b26310e839ac1eed412dd5960a987"),
    "route-unreachable": (
        ["route", "--topology", "nodes.csv", "--edges", "edges.csv",
         "--source", "0", "--dest", "3"],
        {"nodes.csv": "id,x,y\n0,0,0\n1,10,0\n2,20,0\n3,30,0\n",
         "edges.csv": "from,to\n0,1\n2,3\n"}, 1,
        None,
        "acc04ecb51131fa2385ac2f7e6c0d4b2b364c0debf56baace1fd5c97f3d83656"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_output_digests(name, tmp_path, monkeypatch, capsys):
    argv, files, code, csv_sha, stdout_sha = CASES[name]
    monkeypatch.chdir(tmp_path)
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    assert main(argv + ["--out", "out.csv"]) == code
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    out = tmp_path / "out.csv"
    if csv_sha is None:
        assert not out.exists()
    else:
        assert _sha256(out.read_bytes()) == csv_sha


# The byte-identity matrices: one combined SHA-256 over the exit code,
# stdout, stderr and CSV (or its absence) of each of a grid of runs, in
# grid order. Both digests were recorded with numpy 2.4.6 before the
# secrecy rate became one float in place of a result object; they cover the
# corners where a rate is unbounded (lambda_e = 0), infeasible (epsilon =
# 1e-17, lambda_e = 1e-2 or 1), subnormal or overflowing.
TABLE_ONE_GRID = (
    [(a, lam, eps) for a in (2.5, 3.0, 4.0, 8.0, 1e300)
     for lam in (0.0, 1e-5, 3e-4, 1e-2) for eps in (0.1, 1e-17)]
    + [(a, lam, 0.1) for a in (1e308, 1.7e308) for lam in (1e-5, 1e-320, 5e-324)])
RATE_GRID = [(cmd, a, lam, eps) for cmd in ("route", "rate-vs-lambda", "rate-vs-epsilon")
             for a in (2.5, 4.0, 8.0, 1e300, 1e308)
             for lam in (0.0, 1e-5, 3e-4, 1.0, 1e-320) for eps in (0.1, 1e-17)]
MATRIX_DIGESTS = {
    "table-one": "28efa1469b37d96b5d4a391b5f73bcfe6bacd30f930aea528cf5f1604f2f48ae",
    "rates": "56848ef95ca8c0e44a88c8e5fef9f3f276c0241d02dbff2fcc4ad65c3c1b7e8c",
}


def _matrix_digest(runs, tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for cmd, cfg in runs:
        (tmp_path / "run.cfg").write_text(cfg)
        code = main([cmd, "--config", "run.cfg", "--out", "out.csv"])
        captured = capsys.readouterr()
        out = tmp_path / "out.csv"
        csv = out.read_bytes() if out.exists() else b"(no csv)"
        out.unlink(missing_ok=True)
        for part in (str(code).encode(), captured.out.encode(), captured.err.encode(), csv):
            digest.update(b"%d:" % len(part) + part)
    return digest.hexdigest()


def test_table_one_matrix_digest(tmp_path, monkeypatch, capsys):
    runs = [("table-one", f"alpha = {a!r}\nlambda_e = {lam!r}\nepsilon = {eps!r}\n"
                          "n_legit = 1, 10, 60, 100\nreps = 150\n")
            for a, lam, eps in TABLE_ONE_GRID]
    assert len(runs) == 46
    assert _matrix_digest(runs, tmp_path, monkeypatch, capsys) == MATRIX_DIGESTS["table-one"]


def test_rate_matrix_digest(tmp_path, monkeypatch, capsys):
    runs = [(cmd, f"alpha = {a!r}\nlambda_e = {lam!r}\nepsilon = {eps!r}\n")
            for cmd, a, lam, eps in RATE_GRID]
    assert len(runs) == 150
    assert _matrix_digest(runs, tmp_path, monkeypatch, capsys) == MATRIX_DIGESTS["rates"]
