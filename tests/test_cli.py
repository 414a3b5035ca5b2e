"""Command-line interface: subcommands, config files, exit codes."""

import dataclasses

import pytest

from hvezones.cli import build_parser, main, make_config, parse_config_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hve_demo(capsys):
    code, out, err = run_cli(capsys, "hve-demo", "--width", "6", "--seed", "3")
    assert code == 0
    assert "pairings" in out
    assert "round trip: ok" in out
    assert "non-match sentinel" in out


def test_encode_and_tokens_round_trip(tmp_path, capsys):
    enc_path = tmp_path / "enc.tsv"
    code, _, _ = run_cli(capsys, "encode", "--algorithm", "GO", "--n", "16",
                         "--seed", "4", "--out", str(enc_path))
    assert code == 0
    text = enc_path.read_text()
    assert text.startswith("# n=16 k=4 algorithm=GO")
    assert len(text.splitlines()) == 17

    code, out, _ = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                           "--cells", "0,1,2,3")
    assert code == 0
    assert out.startswith("# cost=")
    assert "# pairing_cost=" in out

    code, out, _ = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                           "--fraction", "0.25", "--seed", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("# cost=")


def test_tokens_requires_zone_source(tmp_path, capsys):
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--n", "8", "--algorithm", "RANDOM",
            "--out", str(enc_path))
    code, _, err = run_cli(capsys, "tokens", "--encoding", str(enc_path))
    assert code == 2
    assert "error:" in err


def test_tokens_zero_fraction_names_the_fraction(tmp_path, capsys):
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--n", "8", "--algorithm", "RANDOM",
            "--out", str(enc_path))
    code, out, err = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                             "--fraction", "0")
    assert code == 2
    assert out == ""
    assert err == "error: fraction 0.0 yields no cells\n"


@pytest.mark.parametrize("fraction,shown", [("inf", "inf"), ("1e400", "inf"),
                                            ("nan", "nan")])
def test_tokens_non_finite_fraction_exits_with_one_line(tmp_path, capsys,
                                                         fraction, shown):
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--n", "16", "--algorithm", "GO",
            "--out", str(enc_path))
    code, out, err = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                             "--fraction", fraction)
    assert code == 2
    assert out == ""
    assert err == f"error: fraction {shown} yields no cells\n"


@pytest.mark.parametrize("cells,reason", [
    ("", "no cell ids given"),
    (" ", "no cell ids given"),
    ("1,,2", "invalid literal for int() with base 10: ''"),
    ("0,x", "invalid literal for int() with base 10: 'x'"),
])
def test_tokens_rejects_empty_or_malformed_cells(tmp_path, capsys, cells, reason):
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--n", "8", "--algorithm", "RANDOM",
            "--out", str(enc_path))
    code, out, err = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                             "--cells", cells)
    assert code == 2
    assert out == ""
    assert err == f"error: --cells: {reason}\n"


@pytest.mark.parametrize("body", [
    pytest.param("# n=2 k=1 algorithm=x\n0\t0\n5\t1\n", id="cell-out-of-range"),
    pytest.param("# k=1 algorithm=x\n0\t0\n1\t1\n", id="header-without-n"),
    pytest.param("# n=2 k=1 algorithm=x\n0\t0\n0\t1\n1\t0\n", id="duplicated-cell"),
    pytest.param("# n=2 k=1 algorithm=x\n0\t0\n1\t2\n", id="non-binary-codeword"),
])
def test_tokens_rejects_malformed_encoding(tmp_path, capsys, body):
    enc_path = tmp_path / "enc.tsv"
    enc_path.write_text(body)
    code, out, err = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                             "--cells", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_benchmark_with_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# tiny benchmark\n"
        "n = 16\n"
        "algorithm = go\n"
        "fractions = 0.25, 0.5\n"
        "trials = 2\n"
        "seed = 11\n")
    code, out, err = run_cli(capsys, "benchmark", "--config", str(cfg),
                             "--trials", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("algorithm,n,depth")
    assert len(lines) == 3  # one trial, two fractions
    assert all(line.startswith("GO,16,") for line in lines[1:])


def test_benchmark_csv_deterministic(tmp_path, capsys):
    args = ("benchmark", "--n", "16", "--algorithm", "RANDOM",
            "--fractions", "0.5", "--trials", "2", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.cfg"
    for line in ("granularity = 12\n", "walks = 100000\n"):  # walks: removed
        bad_key.write_text(line)
        code, _, err = run_cli(capsys, "benchmark", "--config", str(bad_key))
        assert code == 2
        assert "unknown key" in err

    bad_value = tmp_path / "bad2.cfg"
    bad_value.write_text("n = twelve\n")
    code, _, err = run_cli(capsys, "benchmark", "--config", str(bad_value))
    assert code == 2

    bad_line = tmp_path / "bad3.cfg"
    bad_line.write_text("n 12\n")
    with pytest.raises(Exception):
        parse_config_file(str(bad_line))


def test_invalid_parameter_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "benchmark", "--n", "16",
                           "--fractions", "0,0.5")
    assert code == 2
    assert "error:" in err


def test_bad_flag_value_exits_with_one_line(capsys):
    code, out, err = run_cli(capsys, "benchmark", "--n", "twelve")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --n: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["encode", "benchmark", "depth-sweep",
                                     "timing", "dynamics"])
def test_go_depth_beyond_width_exits_with_one_line(capsys, command):
    """A GO pass has no ring beyond k, so the config is refused up front
    rather than failing every trial; MSGO clamps its depth to k."""
    code, out, err = run_cli(capsys, command, "--algorithm", "GO", "--n", "5",
                             "--depth", "99", "--trials", "2")
    assert (code, out) == (2, "")
    assert err == "error: depth 99 outside [1, 3]\n"
    for algorithm, depth in (("GO", "3"), ("MSGO", "99")):
        code, out, err = run_cli(capsys, command, "--algorithm", algorithm,
                                 "--n", "5", "--depth", depth, "--trials", "1",
                                 "--fractions", "0.4", "--dyn-zones", "2")
        assert (code, err) == (0, ""), (algorithm, err)


@pytest.mark.parametrize("b", ["nan", "inf", "-1"])
def test_bad_sigmoid_gradient_exits_with_one_line(tmp_path, capsys, b):
    code, out, err = run_cli(capsys, "benchmark", "--n", "16", "--trials", "2",
                             "--b", b)
    assert (code, out) == (2, "")
    assert err == "error: sigmoid gradient b must be finite and >= 0\n"
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"n = 16\ntrials = 2\nb = {b}\n")
    code, out, err = run_cli(capsys, "benchmark", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: sigmoid gradient b must be finite and >= 0\n"


def test_experiment_flags_come_from_config_fields():
    """One flag per ExperimentConfig field; bool fields are switches named
    after the non-default value."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    flags = {option for action in subparsers["benchmark"]._actions
             for option in action.option_strings}
    assert flags == {
        "-h", "--help", "--config", "--out", "--n", "--algorithm", "--depth",
        "--a", "--b", "--fractions", "--noise", "--trials", "--seed",
        "--uniform-zones", "--no-verify", "--dummy-cover", "--alpha",
        "--continue-prob", "--dyn-zones"}
    cfg = make_config(build_parser().parse_args(
        ["benchmark", "--no-verify", "--dummy-cover"]))
    assert (cfg.verify, cfg.dummy_cover, cfg.uniform_zones) == (False, True, False)


def test_depth_sweep_and_timing_and_dynamics_smoke(capsys):
    code, out, _ = run_cli(capsys, "depth-sweep", "--n", "16", "--trials", "1",
                           "--fractions", "0.5", "--seed", "2")
    assert code == 0
    assert len(out.splitlines()) == 5  # header + four depths

    code, out, _ = run_cli(capsys, "timing", "--n", "32", "--algorithm", "SGO",
                           "--trials", "1", "--seed", "2")
    assert code == 0
    assert len(out.splitlines()) == 2

    code, out, _ = run_cli(capsys, "dynamics", "--n", "12", "--trials", "1",
                           "--fractions", "0.25", "--seed", "2",
                           "--dyn-zones", "5")
    assert code == 0
    assert out.splitlines()[1].startswith("GO-dynamic,12,")


def test_parse_config_file_types(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        "n = 64\n"
        "algorithm = msgo\n"
        "depth = 4\n"
        "a = 0.5          # inflection\n"
        "b = 30\n"
        "fractions = 0.1,0.2\n"
        "noise = 0.25\n"
        "trials = 5\n"
        "seed = 7\n"
        "uniform_zones = yes\n"
        "verify = off\n"
        "alpha = 0.9\n"
        "continue_prob = 0.5\n"
        "dyn_zones = 20\n")
    values = parse_config_file(str(cfg))
    assert values["algorithm"] == "MSGO"
    assert values["fractions"] == (0.1, 0.2)
    assert values["uniform_zones"] is True
    assert values["verify"] is False
    assert values["dyn_zones"] == 20


def test_benchmark_verification_failure_is_fatal(monkeypatch, capsys):
    """A query that misreports its pairings fails spot_check; every runner
    that minimizes aborts with one diagnostic line instead of a per-trial
    warning."""
    from hvezones import bench

    real_query = bench.query

    def misreporting_query(*args, **kwargs):
        result = real_query(*args, **kwargs)
        return dataclasses.replace(result, pairings=result.pairings + 1)

    monkeypatch.setattr(bench, "query", misreporting_query)
    for command, *extra in (("benchmark", "--algorithm", "GO"),
                            ("depth-sweep",),
                            ("dynamics", "--dyn-zones", "3")):
        code, out, err = run_cli(capsys, command, "--n", "16", *extra,
                                 "--fractions", "0.5", "--trials", "2", "--seed", "3")
        assert code == 1, command
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(
            "error: verification failed: trial 0: pairing counter mismatch")
