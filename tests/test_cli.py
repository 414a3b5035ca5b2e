"""Command-line interface: subcommands, config files, exit codes."""

import dataclasses
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import hvezones
from hvezones import bench, tokens
from hvezones.bench import ExperimentConfig
from hvezones.cli import (SUBCOMMAND_FIELDS, build_parser, main, make_config,
                          parse_config_file)
from hvezones.grid import read_encoding


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


def test_tokens_reports_match_pairings(tmp_path, capsys):
    """The footer sums, over the zone's cells, the pairings of every token
    up to the cell's first match, in the order the file lists them, and
    that order beats sorted order on this zone."""
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--algorithm", "HGE", "--n", "64", "--seed", "2",
            "--out", str(enc_path))
    cells = (0, 1, 2, 3, 5, 9, 17, 20, 33, 42, 63)
    code, out, _ = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                           "--cells", ",".join(map(str, cells)))
    assert code == 0
    lines = out.splitlines()
    patterns = [line for line in lines if not line.startswith("#")]
    with open(enc_path, encoding="utf-8") as fp:
        enc = read_encoding(fp)
    values = [enc.value(c) for c in cells]
    issued = tokens.match_pairings(patterns, values)
    assert lines[-1] == f"# match_pairings={issued}"
    assert issued < tokens.match_pairings(sorted(patterns), values)


def test_closed_stdout_exits_141_quietly():
    """A reader that takes one line and closes the pipe, as `| head -n 1`
    does, ends the run with status 141 and nothing on stderr.  The
    encoding (about 72 KB) outgrows a 64 KiB pipe buffer, so the writer
    meets the closed pipe."""
    src = pathlib.Path(hvezones.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hvezones.cli", "encode", "--algorithm", "HGE",
         "--n", "4096", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert proc.stdout.readline().startswith(b"# n=4096 ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


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
    assert err == "error: fraction 0.0 outside (0, 1]\n"


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
    assert err == f"error: fraction {shown} outside (0, 1]\n"


@pytest.mark.parametrize("fraction", ["1.5", "-0.1"])
def test_tokens_fraction_beyond_the_range_names_the_range(tmp_path, capsys, fraction):
    """A finite fraction outside (0, 1] would yield cells, or none; either
    way the message names the range it must lie in."""
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--n", "16", "--algorithm", "GO",
            "--out", str(enc_path))
    code, out, err = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                             "--fraction", fraction)
    assert code == 2
    assert out == ""
    assert err == f"error: fraction {fraction} outside (0, 1]\n"


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
        parse_config_file(str(bad_line), ["n"])

    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("n = 16\ntrials = 1\nn = 32\n")
    code, out, err = run_cli(capsys, "benchmark", "--config", str(repeated))
    assert (code, out) == (2, "")
    assert err == f"error: {repeated}:3: key 'n' repeated\n"


@pytest.mark.parametrize("command,line", [
    ("dynamics", "noise = 0.5"),
    ("depth-sweep", "algorithm = SGO"),
    ("timing", "fractions = 0.5"),
    ("encode", "trials = 2"),
    ("tokens", "n = 16"),
])
def test_config_key_the_subcommand_does_not_read_exits_with_one_line(
        tmp_path, capsys, command, line):
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--n", "8", "--out", str(enc_path))
    extra = ("--encoding", str(enc_path), "--fraction", "0.5") if command == "tokens" else ()
    code, out, err = run_cli(capsys, command, *extra, "--config", str(cfg))
    key = line.split()[0]
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cfg}:2: unknown key {key!r} (accepted: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "depth-sweep --n 16 --algorithm SGO --depth 2",
    "dynamics --n 16 --noise 0.5",
    "encode --noise 0.9",
    "encode --n 16 --trials 2",
    "timing --n 16 --fractions 0.5",
    "benchmark --n 16 --alpha 0.5",
    "tokens --encoding enc.tsv --fraction 0.5 --n 16",
])
def test_flag_the_subcommand_does_not_read_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("extra,reason", [
    ("--cells 0 --fraction 0.5", "tokens needs exactly one of --cells and --fraction"),
    ("--cells 0,1 --b nan", "--cells takes no sampling settings: --b"),
    ("--cells 0,1 --seed 3 --a 0.5", "--cells takes no sampling settings: --a, --seed"),
    ("--cells 0 --config {cfg}", "--cells takes no sampling settings: --config"),
])
def test_tokens_cells_take_no_sampling_settings(tmp_path, capsys, extra, reason):
    enc_path = tmp_path / "enc.tsv"
    run_cli(capsys, "encode", "--n", "8", "--out", str(enc_path))
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 2\n")
    code, out, err = run_cli(capsys, "tokens", "--encoding", str(enc_path),
                             *extra.format(cfg=cfg).split())
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_invalid_parameter_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "benchmark", "--n", "16",
                           "--fractions", "0,0.5")
    assert code == 2
    assert "error:" in err


def test_fractions_with_one_csv_label_exit_with_one_line(capsys):
    code, out, err = run_cli(capsys, "benchmark", "--n", "16", "--fractions",
                             "0.5,0.5000001", "--trials", "1", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == ("error: fractions 0.5 and 0.5000001 share the CSV label"
                   " 0.5\n")


def test_bad_flag_value_exits_with_one_line(capsys):
    code, out, err = run_cli(capsys, "benchmark", "--n", "twelve")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --n: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,extra", [
    pytest.param("encode", (), id="encode"),
    pytest.param("benchmark", ("--trials", "1", "--fractions", "0.4"), id="benchmark"),
    pytest.param("timing", ("--trials", "1"), id="timing"),
    pytest.param("dynamics", ("--trials", "1", "--fractions", "0.4", "--dyn-zones", "2"),
                 id="dynamics"),
])
def test_go_depth_beyond_width_exits_with_one_line(capsys, command, extra):
    """A GO pass has no ring beyond k, so the config is refused up front
    rather than failing every trial; MSGO clamps its depth to k."""
    code, out, err = run_cli(capsys, command, "--algorithm", "GO", "--n", "5",
                             "--depth", "99", *extra)
    assert (code, out) == (2, "")
    assert err == "error: depth 99 outside [1, 3]\n"
    for algorithm, depth in (("GO", "3"), ("MSGO", "99")):
        code, out, err = run_cli(capsys, command, "--algorithm", algorithm,
                                 "--n", "5", "--depth", depth, *extra)
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


def test_steep_sigmoid_gradient_saturates(capsys):
    """exp overflows at b = 1e308; the sigmoid saturates into its clamp
    instead of failing every trial."""
    code, out, err = run_cli(capsys, "encode", "--n", "4", "--b", "1e308")
    assert (code, err) == (0, "")
    assert out.startswith("# n=4 k=2 algorithm=GO")
    code, out, err = run_cli(capsys, "benchmark", "--n", "16", "--trials", "1",
                             "--fractions", "0.5", "--b", "1e308")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("GO,16,0,0.75,1e+308,0.5,")


FIELD_FLAGS = {
    "n": "--n", "algorithm": "--algorithm", "depth": "--depth", "a": "--a",
    "b": "--b", "fractions": "--fractions", "noise": "--noise",
    "trials": "--trials", "seed": "--seed", "uniform_zones": "--uniform-zones",
    "verify": "--no-verify", "dummy_cover": "--dummy-cover", "alpha": "--alpha",
    "continue_prob": "--continue-prob", "dyn_zones": "--dyn-zones"}


def test_subcommand_flags_come_from_their_table_entries():
    """Each subcommand has one flag per ExperimentConfig field it reads and
    no other, 50 (subcommand, field) pairs in all; bool fields are switches
    named after the non-default value."""
    assert set(FIELD_FLAGS) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    own = {"tokens": {"--encoding", "--cells", "--fraction", "--no-dummy-cover"}}
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(SUBCOMMAND_FIELDS) | {"hve-demo"}
    for command, fields in SUBCOMMAND_FIELDS.items():
        flags = {option for action in subparsers[command]._actions
                 for option in action.option_strings}
        assert flags == ({"-h", "--help", "--config", "--out"} | own.get(command, set())
                         | {FIELD_FLAGS[field] for field in fields}), command
    assert sum(map(len, SUBCOMMAND_FIELDS.values())) == 50
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
    values = parse_config_file(str(cfg), tuple(FIELD_FLAGS))
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


def _all_star_cover(zone, enc, allow_dummy_cover=True):
    """One all-star pattern: it covers every codeword, zone or not."""
    return tokens.TokenSet(("*" * enc.k,), 0, True, 0)


def _wrong_message(result):
    if result.matched:
        return dataclasses.replace(result, message=result.message + 1)
    return result


@pytest.mark.parametrize("extra,name,fake,reason", [
    ((), "minimize", _all_star_cover,
     "exact cover requested but extra codewords covered"),
    (("--dummy-cover",), "minimize", _all_star_cover,
     "token set covers a real cell outside the zone"),
    ((), "query", _wrong_message, "query recovered the wrong message"),
    ((), "query", lambda result: dataclasses.replace(result, message=None),
     "token match disagrees with zone membership"),
])
def test_benchmark_spot_check_failures_are_fatal(monkeypatch, capsys, extra, name,
                                                 fake, reason):
    """Each of spot_check's cover and match checks aborts the benchmark
    with one diagnostic line: a cover reaching codewords it may not, and a
    query whose message or match is wrong."""
    if name == "query":
        real_query = bench.query
        monkeypatch.setattr(bench, "query",
                            lambda *args, **kwargs: fake(real_query(*args, **kwargs)))
    else:
        monkeypatch.setattr(bench, "minimize", fake)
    code, out, err = run_cli(capsys, "benchmark", "--algorithm", "GO", "--n", "16",
                             *extra, "--fractions", "0.5", "--trials", "2", "--seed", "3")
    assert (code, out) == (1, "")
    assert err == f"error: verification failed: trial 0: {reason}\n"


def test_every_trial_failing_exits_1(monkeypatch, capsys):
    """When no trial yields rows, each failure is a warning and the run
    ends with one error line and status 1."""
    def failing_baseline(grid):
        raise ValueError("injected failure")

    monkeypatch.setattr(bench, "hge_baseline", failing_baseline)
    code, out, err = run_cli(capsys, "benchmark", "--algorithm", "GO", "--n", "16",
                             "--fractions", "0.5", "--trials", "2", "--seed", "3")
    assert (code, out.count("\n")) == (1, 1)     # the CSV header alone
    assert err == ("warning: trial 0: injected failure\n"
                   "warning: trial 1: injected failure\n"
                   "error: every trial failed\n")


def test_config_file_bad_boolean_exits_2(tmp_path, capsys):
    path = tmp_path / "bad_bool.cfg"
    path.write_text("n = 16\nverify = maybe\n")
    code, out, err = run_cli(capsys, "benchmark", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:2: not a boolean: 'maybe'\n"


# A valid value other than the default for every ExperimentConfig field
CHANGED = {"n": 12, "algorithm": "MSGO", "depth": 2, "a": 0.4, "b": 3.0,
           "fractions": (0.25,), "noise": 0.3, "trials": 2, "seed": 9,
           "uniform_zones": True, "verify": False, "dummy_cover": True,
           "alpha": 0.5, "continue_prob": 0.8, "dyn_zones": 2}


@pytest.mark.parametrize("command,runner", [
    ("benchmark", bench.run_experiment), ("depth-sweep", bench.run_depth_sweep),
    ("timing", bench.run_timing), ("dynamics", bench.run_dynamics)])
def test_runner_reads_no_field_its_subcommand_hides(command, runner):
    """A field a subcommand exposes no flag or key for must not move its
    runner's costs: otherwise the table hides a setting the runner reads."""
    assert set(CHANGED) == set(FIELD_FLAGS)
    assert all(getattr(ExperimentConfig(), f) != v for f, v in CHANGED.items())

    def costs(cfg):
        results, failures = runner(cfg)
        assert results and not failures
        return [(r.fraction, r.trial, r.depth, r.pairing_cost, r.baseline_cost,
                 r.improvement_pct) for r in results]

    base = ExperimentConfig(n=16, trials=1, fractions=(0.25, 0.5), dyn_zones=4)
    expected = costs(base)
    for field in CHANGED.keys() - set(SUBCOMMAND_FIELDS[command]):
        changed = dataclasses.replace(base, **{field: CHANGED[field]})
        assert costs(changed) == expected, field


def test_readme_cli_examples_parse(tmp_path):
    """Every `hvezones` line of README's CLI block names a subcommand and
    only flags that subcommand reads, and every example config file is
    accepted by the subcommand its first line names."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("hvezones ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
    configs = readme.split("```ini\n")[1:]
    assert len(configs) == 2
    for text in configs:
        text = text.split("```", 1)[0]
        command = text.split()[3]          # "# <file>: hvezones <command> ..."
        path = tmp_path / "example.cfg"
        path.write_text(text)
        make_config(build_parser().parse_args([command, "--config", str(path)]))
