import json

import pytest

from orbivertex import cli, dt_vertex, fock_transfer, routes, rpc
from orbivertex.dt_vertex import closed_z2z2_staircase
from orbivertex.qseries import Series
from oracles import series_sum


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_vertex_empty_leg_record(capsys):
    code, out = run_cli(capsys, ["vertex", "--leg", "", "--degree", "3"])
    assert code == 0
    data = json.loads(out)
    rec = data["results"][0]
    assert rec["vertex"] == "zero_leg"
    assert rec["group"] == "z2z2"
    assert rec["leg"] == []
    assert rec["method"] == "closed"
    assert rec["series"] == json.loads(closed_z2z2_staircase(0, 3).to_json())


def test_vertex_triple_agreement_example(capsys):
    code, out = run_cli(capsys, ["vertex", "--group", "z2z2", "--leg", "2,1",
                                 "--method", "closed,enumerate,transfer",
                                 "--degree", "6", "--verify"])
    assert code == 0
    data = json.loads(out)
    assert [r["method"] for r in data["results"]] == [
        "closed", "enumerate", "transfer"]
    assert data["results"][0]["series"] == data["results"][1]["series"]
    assert data["results"][1]["series"] == data["results"][2]["series"]


def test_vertex_zn_group(capsys):
    code, out = run_cli(capsys, ["vertex", "--group", "zn", "--n", "4",
                                 "--leg", "1", "--degree", "3",
                                 "--method", "closed,enumerate,transfer",
                                 "--verify"])
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["n"] == 4
    assert rec["series"]["vars"] == ["qt0", "qt1", "qt2", "qt3"]


def test_vertex_zn_default_n(capsys):
    code, out = run_cli(capsys, ["vertex", "--group", "zn", "--leg", "1",
                                 "--degree", "2", "--method", "enumerate"])
    assert code == 0
    _, explicit = run_cli(capsys, ["vertex", "--group", "zn", "--n", "4",
                                   "--leg", "1", "--degree", "2",
                                   "--method", "enumerate"])
    assert out == explicit
    assert json.loads(out)["results"][0]["n"] == 4


def test_pyramid_and_rpc_verify(capsys):
    code, _ = run_cli(capsys, ["pyramid", "--method", "closed,enumerate",
                               "--degree", "3", "--verify"])
    assert code == 0
    code, _ = run_cli(capsys, ["rpc", "--leg", "1", "--degree", "3",
                               "--method", "interlacing,closed", "--verify"])
    assert code == 0
    code, out = run_cli(capsys, ["rpc", "--leg", "1", "--degree", "3",
                                 "--frame", "diagonal"])
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["frame"] == "diagonal" and "shift" not in rec


def test_pyramid_is_rpc_at_the_empty_leg_in_the_diagonal_frame(capsys):
    _, pyramid = run_cli(capsys, ["pyramid", "--method", "enumerate,closed",
                                  "--degree", "10"])
    _, restricted = run_cli(capsys, ["rpc", "--leg", "", "--frame",
                                     "diagonal", "--method",
                                     "interlacing,closed", "--degree", "10"])

    def same_part(out):
        return [{k: v for k, v in rec.items()
                 if k not in ("vertex", "frame", "method")}
                for rec in json.loads(out)["results"]]

    assert same_part(pyramid) == same_part(restricted)
    assert len(same_part(pyramid)) == 2


# subcommand -> {method: independence class}, the first method the default
ROUTE_CLASSES = {
    "vertex": {"closed": "factors", "enumerate": "boxes",
               "transfer": "partners"},
    "pyramid": {"closed": "factors", "enumerate": "partners"},
    "rpc": {"interlacing": "partners", "closed": "factors"},
}


def test_route_table_classes_differ_within_each_subcommand(capsys):
    # every --verify compares routes that rest on different machinery
    got = {command: {method: routes.ROUTES[row].kind
                     for method, row in methods.items()}
           for command, methods in routes.CLI.items()}
    assert got == ROUTE_CLASSES
    parser = cli.build_parser()
    every = {method for classes in ROUTE_CLASSES.values() for method in classes}
    for command, classes in ROUTE_CLASSES.items():
        assert len(set(classes.values())) == len(classes), command
        # the view's methods in order, the first the default, are exactly
        # the --method choices
        assert list(routes.CLI[command]) == list(classes), command
        assert parser.parse_args([command]).method == (next(iter(classes)),)
        assert parser.parse_args(
            [command, "--method", ",".join(classes)]).method == tuple(classes)
        for method in sorted(every - set(classes)):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--method", method])
            err = capsys.readouterr().err
            assert "method must be one of " + ",".join(sorted(classes)) in err


def test_uniqueness_report(capsys):
    code, out = run_cli(capsys, ["uniqueness", "--max-leg-size", "3",
                                 "--window", "8", "--shifts", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["staircases_only"] is True
    assert data["symmetric_legs"] == [[], [1], [2, 1]]
    got = {tuple(r["leg"]): r["symmetric"] for r in data["results"]}
    assert got[(2,)] is False and got[(1, 1)] is False
    assert got[(3,)] is False and got[(2, 1)] is True


def test_uniqueness_default_window_finds_only_staircases(capsys):
    # the default window follows the legs; a window of 10 reads (12) and
    # (1^12) as symmetric
    code, out = run_cli(capsys, ["uniqueness", "--max-leg-size", "12"])
    assert code == 0
    data = json.loads(out)
    assert data["window"] == 14
    assert data["staircases_only"] is True
    assert data["symmetric_legs"] == [[], [1], [2, 1], [3, 2, 1], [4, 3, 2, 1]]


def test_uniqueness_drops_repeated_shifts(capsys, monkeypatch):
    # each leg's corners are read once per scan, at shift 0, whatever the
    # shifts asked for
    calls = []
    read_corners = rpc.corners

    def counted(v, l, ks):
        calls.append((v, l))
        return read_corners(v, l, ks)

    monkeypatch.setattr(rpc, "corners", counted)
    code, out = run_cli(capsys, ["uniqueness", "--max-leg-size", "2",
                                 "--window", "3", "--shifts", "0,0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["shifts"] == [0, 1]
    legs = [(), (1,), (2,), (1, 1)]
    assert sorted(calls) == sorted((v, 0) for v in legs)
    assert [[r["leg"], r["shift"]] for r in data["results"]] == sorted(
        [list(v), l] for v in legs for l in (0, 1))
    # the library scan drops repeats on its own
    calls.clear()
    assert rpc.uniqueness_scan(2, (1, 0, 1), 3) == rpc.uniqueness_scan(2, (0, 1), 3)
    assert sorted(calls) == sorted((v, 0) for v in legs for _ in range(2))


def test_verify_battery(capsys):
    code, out = run_cli(capsys, ["verify", "--degree", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(c["ok"] for c in data["checks"])


def test_verify_fails_on_unstable_transfer_window(capsys, monkeypatch):
    # the bracket on window + 2 of the zero-leg z2z2 check gains a term
    window = fock_transfer._transfer_args("z2z2", (), 3, "standard", None)[3]
    bracket = fock_transfer._bracket

    def tampered(v, cutoff, mode, n, w):
        s = bracket(v, cutoff, mode, n, w)
        if v == () and mode == "standard" and w == window + 2:
            s = series_sum(s, Series(s.names, cutoff, {(1, 1, 0, 0): 1}))
        return s

    monkeypatch.setattr(fock_transfer, "_bracket", tampered)
    code, out = run_cli(capsys, ["verify", "--degree", "3"])
    assert code == 1
    assert out.splitlines() == [
        "mismatch in zero_leg_enumerate_transfer: transfer vs wide "
        "at q0*qa: 1 != 2"]


def test_verify_prints_both_lines_of_a_failing_check(capsys, monkeypatch):
    # the bracket on the window itself gains a term, so both rows of the
    # zero-leg z2z2 check fail: against enumeration and against wide
    window = fock_transfer._transfer_args("z2z2", (), 3, "standard", None)[3]
    bracket = fock_transfer._bracket

    def tampered(v, cutoff, mode, n, w):
        s = bracket(v, cutoff, mode, n, w)
        if v == () and mode == "standard" and w == window:
            s = series_sum(s, Series(s.names, cutoff, {(1, 1, 0, 0): 1}))
        return s

    monkeypatch.setattr(fock_transfer, "_bracket", tampered)
    code, out = run_cli(capsys, ["verify", "--degree", "3"])
    assert code == 1
    assert out.splitlines() == [
        "mismatch in zero_leg_enumerate_transfer: enumerate vs transfer "
        "at q0*qa: 1 != 2",
        "mismatch in zero_leg_enumerate_transfer: transfer vs wide "
        "at q0*qa: 2 != 1"]


def test_verify_flag_prints_every_differing_method(capsys, monkeypatch):
    # enumerate gains q0*qa and transfer q0*qb; each is compared with closed
    def tamper(route, exps):
        def run(*args, **kwargs):
            s = route(*args, **kwargs)
            return series_sum(s, Series(s.names, s.cutoff, {exps: 1}))
        return run

    monkeypatch.setattr(dt_vertex, "enumerate_3d",
                        tamper(dt_vertex.enumerate_3d, (1, 1, 0, 0)))
    monkeypatch.setattr(fock_transfer, "vertex_by_transfer",
                        tamper(fock_transfer.vertex_by_transfer, (1, 0, 1, 0)))
    code, out = run_cli(capsys, ["vertex", "--leg", "2,1", "--degree", "3",
                                 "--method", "closed,enumerate,transfer",
                                 "--verify"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("mismatch closed vs enumerate at q0*qa: ")
    assert lines[1].startswith("mismatch closed vs transfer at q0*qb: ")


def test_mismatch_exits_one(capsys, monkeypatch):
    base = closed_z2z2_staircase(0, 2)
    tampered = series_sum(base, Series(base.names, 2, {(1, 1, 0, 0): 1}))
    monkeypatch.setattr(dt_vertex, "closed_z2z2_staircase",
                        lambda m, d: tampered)
    code, out = run_cli(capsys, ["vertex", "--leg", "", "--degree", "2",
                                 "--method", "closed,enumerate", "--verify"])
    assert code == 1
    assert "mismatch" in out and "q0*qa" in out


def test_parse_errors_exit_two(capsys):
    for argv in [["vertex", "--leg", "1,2"],
                 ["vertex", "--leg", "2,2", "--method", "closed"],
                 ["vertex", "--leg", "1", "--method", "closed", "--verify"],
                 ["rpc", "--leg", "2", "--method", "closed"],
                 ["vertex", "--method", "nosuch"],
                 ["vertex", "--workers", "4"],
                 ["nosuchcommand"]]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
    for shifts in ["0,", "x"]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["uniqueness", "--shifts", shifts])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "shifts must be comma-separated integers" in err, shifts
        assert "_shifts_arg" not in err, shifts


@pytest.mark.parametrize("flag, value, message", [
    ("--window", "-2", "window must be >= 0"),
    ("--max-leg-size", "-1", "max leg size must be >= 0"),
    ("--shifts", "0,-1", "shift l must be >= 0"),
])
def test_uniqueness_rejects_negative_bounds(capsys, monkeypatch, flag, value,
                                            message):
    def no_corners(*args, **kwargs):
        raise AssertionError("corners computed")

    # no leg is scanned before the bad value is seen
    monkeypatch.setattr(cli.rpc, "corners", no_corners)
    with pytest.raises(SystemExit) as exc:
        cli.main(["uniqueness", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# every function a route row calls, where the row looks it up
SERIES_FUNCTIONS = [
    (dt_vertex, "enumerate_3d"), (dt_vertex, "enumerate_one_leg"),
    (fock_transfer, "vertex_by_transfer"), (fock_transfer, "_wide"),
    (dt_vertex, "closed_z2z2_staircase"), (dt_vertex, "vertex_closed_zn"),
    (dt_vertex, "one_leg_zn_staircase"),
    (dt_vertex, "corollary_rpc_closed"), (rpc, "generating_function"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["vertex", "--workers", "4"], "unrecognized arguments",
                 id="workers"),
    # the series is the same at every shift, so rpc takes none
    pytest.param(["rpc", "--leg", "1", "--shift", "1"],
                 "unrecognized arguments: --shift 1", id="rpc-shift"),
    pytest.param(["vertex", "--leg", "1", "--method", "enumerate", "--verify"],
                 "at least two methods", id="vertex-verify-one-method"),
    pytest.param(["pyramid", "--method", "closed", "--verify"],
                 "at least two methods", id="pyramid-verify-one-method"),
    pytest.param(["rpc", "--leg", "2", "--method", "interlacing,closed"],
                 "staircase leg", id="rpc-closed-not-staircase"),
    pytest.param(["vertex", "--leg", "2", "--method",
                  "enumerate,transfer,closed"],
                 "staircase leg", id="vertex-closed-not-staircase"),
    pytest.param(["vertex", "--group", "z2z2", "--n", "7", "--leg", "1",
                  "--degree", "1", "--method", "enumerate"],
                 "n is for group zn, got n=7 with z2z2",
                 id="vertex-n-under-z2z2"),
    pytest.param(["vertex", "--n", "4", "--leg", "1"],
                 "n is for group zn, got n=4 with z2z2",
                 id="vertex-n-under-default-group"),
])
def test_bad_input_fails_before_any_series(capsys, monkeypatch, argv, message):
    called = []
    for module, name in SERIES_FUNCTIONS:
        monkeypatch.setattr(module, name,
                            lambda *a, _name=name, **k: called.append(_name))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert called == []


# one input error per subcommand that only main or _run can see
AFTER_PARSING = [
    (["vertex", "--n", "3"], "n is for group zn, got n=3 with z2z2"),
    (["pyramid", "--method", "closed", "--verify"],
     "--verify needs at least two methods"),
    (["rpc", "--leg", "2", "--method", "interlacing,closed"],
     "staircase product needs a staircase leg, got (2,)"),
    (["uniqueness", "--window", "-2"], "window must be >= 0, got -2"),
    (["verify", "--degree", "-1"], "degree must be >= 0"),
]


@pytest.mark.parametrize("argv, message", AFTER_PARSING,
                         ids=[argv[0] for argv, _ in AFTER_PARSING])
def test_input_errors_after_parsing_name_the_subcommand(capsys, argv, message):
    # the top-level usage line and "orbivertex: error:" were printed, where
    # argparse's own errors for the subcommand print the subcommand's
    command = argv[0]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: orbivertex %s [-h]" % command)
    assert captured.err.splitlines()[-1] == "orbivertex %s: error: %s" % (
        command, message)


def test_output_errors_name_the_subcommand(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    for command in ("vertex", "pyramid", "rpc", "uniqueness", "verify"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--output", str(target)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: orbivertex %s [-h]" % command)
        assert err.splitlines()[-1] == (
            "orbivertex %s: error: output directory %s does not exist"
            % (command, target.parent))


def test_deterministic_output(capsys):
    _, a = run_cli(capsys, ["vertex", "--leg", "1", "--degree", "3",
                            "--method", "enumerate"])
    _, b = run_cli(capsys, ["vertex", "--leg", "1", "--degree", "3",
                            "--method", "enumerate"])
    assert a == b
    _, c = run_cli(capsys, ["vertex", "--leg", "1", "--degree", "3",
                            "--method", "enumerate", "--format", "csv"])
    _, d = run_cli(capsys, ["vertex", "--leg", "1", "--degree", "3",
                            "--method", "enumerate", "--format", "csv"])
    assert c == d
    assert c.splitlines()[0] == "method,q0,qa,qb,qc,coef"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out = run_cli(capsys, ["vertex", "--leg", "", "--degree", "2",
                                 "--output", str(target)])
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["results"][0]["series"]["cutoff"] == 2


def test_output_into_missing_directory_fails_first(tmp_path, capsys,
                                                  monkeypatch):
    def no_walk(*args):
        raise AssertionError("series computed")

    monkeypatch.setattr(fock_transfer, "vertex_by_transfer", no_walk)
    monkeypatch.setattr(dt_vertex, "enumerate_3d", no_walk)
    for target, message in [
            (tmp_path / "missing" / "x",
             "output directory %s does not exist" % (tmp_path / "missing")),
            (tmp_path, "output %s is a directory" % tmp_path)]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["vertex", "--leg", "2,1", "--method", "transfer",
                      "--output", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(message)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--output", str(target)])
        assert exc.value.code == 2
        capsys.readouterr()
    assert not (tmp_path / "missing").exists()


def test_failed_write_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an OSError from --output escaped main as a traceback, exit 1 like a
    # mismatch; it is a usage error now, naming the path and the reason
    def refuse(path, mode="r"):
        raise PermissionError("permission denied")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    target = tmp_path / "out.json"
    with pytest.raises(SystemExit) as ex:
        cli.main(["vertex", "--degree", "3", "--output", str(target)])
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write %s: permission denied" % target in err


def test_zn_n_below_one_gives_one_message_per_method(capsys):
    # closed said "n must be >= 1", enumerate and transfer "zn group needs
    # n >= 1"
    errors = set()
    for method in ("closed", "enumerate", "transfer"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["vertex", "--group", "zn", "--n", "0", "--method",
                      method])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err.splitlines()[-1])
    assert len(errors) == 1
    assert "n must be >= 1 for group zn, got 0" in errors.pop()
