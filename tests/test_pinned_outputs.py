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

Each run works in its own directory with a relative `--out`, so the
`# out = ...` header line of the CSV does not depend on where tests run.
"""

import hashlib

import pytest

from secroute.cli import main

CASES = {
    "sop-curve": (
        ["sop-curve", "--trials", "3000"], "",
        "5009f2a345268677cd4f551a0a940faa33e15b0db4265c8c993712832c6edde2",
        "7b395cc54f88359cbbcb470036ac15868ce985176bc8569492b1314bff55a860"),
    "validate": (
        ["validate", "--trials", "5000"], "",
        "80912a1971ae8bca8f19539033bf7909f82b46e60726961fd556ebaae0ef0255",
        "97ea6f85cde996c95b02634f84e68102699fe2b38c59ad62c8f940741d34d535"),
    "table-one": (
        ["table-one"], "n_legit = 10, 20\nreps = 5\n",
        "3fde641885dac06d34a3dffef16f0d38e96ad6126bef79926859cb21cef04177",
        "9a1a7511b7f5511a4798f2e43dd42dafa9f31d30410eb86843df8a3d9f3bbdaf"),
    "route": (
        ["route", "--source", "1", "--dest", "5"], "",
        None,  # route prints its report and writes no CSV
        "1bbda6ea931f8e9eee7702b9c50fcb2b10988f75548004942cae21458ab62325"),
    "rate-vs-lambda": (
        ["rate-vs-lambda"], "",
        "69227154f6b9e25bafa5810cbd07bd21117eb18b14023c19b9eaa82f3fd0187e",
        "7b395cc54f88359cbbcb470036ac15868ce985176bc8569492b1314bff55a860"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_output_digests(name, tmp_path, monkeypatch, capsys):
    argv, config, csv_sha, stdout_sha = CASES[name]
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    assert main(argv + ["--out", "out.csv"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    out = tmp_path / "out.csv"
    if csv_sha is None:
        assert not out.exists()
    else:
        assert _sha256(out.read_bytes()) == csv_sha
