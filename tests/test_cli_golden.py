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
                          "--degree", "4"],
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


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # main reuses one parser per process: every case forward, a call that
    # exits 2, then every case in reverse must still match its golden
    # stdout, so neither a filled namespace (_vertex_check sets args.n)
    # nor a failed parse leaks into the next call
    assert cli.build_parser() is cli.build_parser()
    names = sorted(CASES)
    for name in names:
        assert cli.main(CASES[name]) == 0, name
        assert capsys.readouterr().out == (GOLDEN / (name + ".out")).read_text()
    with pytest.raises(SystemExit) as ex:
        cli.main(["vertex", "--n", "3"])
    assert ex.value.code == 2
    assert capsys.readouterr().out == ""
    for name in reversed(names):
        assert cli.main(CASES[name]) == 0, name
        assert capsys.readouterr().out == (GOLDEN / (name + ".out")).read_text()
