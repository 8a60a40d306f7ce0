"""CLI stdout, byte for byte, against files stored under tests/golden/.

Each file holds the stdout of one invocation at degree <= 4.  To add a
case, put its argv in CASES and write the stdout of `orbivertex <argv>`
to tests/golden/<name>.out.
"""

from pathlib import Path

import pytest

from orbivertex import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "vertex_z2z2_json": ["vertex", "--group", "z2z2", "--leg", "2,1",
                         "--method", "closed,enumerate,transfer",
                         "--degree", "4", "--verify"],
    "vertex_z2z2_csv": ["vertex", "--group", "z2z2", "--leg", "2,1",
                        "--method", "closed,enumerate,transfer",
                        "--degree", "4", "--verify", "--format", "csv"],
    "vertex_zn_json": ["vertex", "--group", "zn", "--n", "3", "--leg", "2",
                       "--method", "closed,enumerate,transfer",
                       "--degree", "4", "--verify"],
    "vertex_zn_csv": ["vertex", "--group", "zn", "--n", "3", "--leg", "2",
                      "--method", "closed,enumerate,transfer",
                      "--degree", "4", "--verify", "--format", "csv"],
    "pyramid_json": ["pyramid", "--method", "enumerate,closed",
                     "--degree", "4", "--verify"],
    "rpc_antidiagonal_json": ["rpc", "--leg", "2,1", "--frame", "antidiagonal",
                              "--method", "interlacing,closed",
                              "--degree", "4", "--verify"],
    "rpc_diagonal_json": ["rpc", "--leg", "2", "--frame", "diagonal",
                          "--shift", "1", "--degree", "4"],
    "uniqueness_json": ["uniqueness", "--max-leg-size", "4", "--window", "6"],
    "uniqueness_csv": ["uniqueness", "--max-leg-size", "4", "--window", "6",
                       "--shifts", "0,2", "--format", "csv"],
    "verify_json": ["verify", "--degree", "4"],
    "verify_csv": ["verify", "--degree", "4", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(capsys, name):
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / (name + ".out")).read_text()
