"""Pinned outputs: the SHA-256 of the CSV and the stdout of fixed CLI runs.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 before the
Monte Carlo block drivers were merged into one. A change meant to leave
every output byte-identical must keep them; a change that alters an output
on purpose records the new digests here and says why.

Each run works in its own directory with a relative `--out`, so the
`# out = ...` header line of the CSV does not depend on where tests run.
"""

import hashlib

import pytest

from secroute.cli import main

CASES = {
    "sop-curve": (
        ["sop-curve", "--trials", "3000"], "",
        "7809252785aa2a21d18e33e3b92b89adb32221f9fce94dc65d921cb46ecc70b6",
        "7b395cc54f88359cbbcb470036ac15868ce985176bc8569492b1314bff55a860"),
    "validate": (
        ["validate", "--trials", "5000"], "",
        "c60951171eb1b3d41d1aa3cce97c87e99c0a655193d03697db3bf9ca298e90ed",
        "06fdc54789ffa3bddf364ff9298f6fba6fcc86724b41a2f287579693c6441eb8"),
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
