"""Command-line interface.

Subcommands: encode, tokens, benchmark, depth-sweep, timing, dynamics,
hve-demo.  All but hve-demo read an optional config file of `key = value`
lines (# starts a comment); command-line flags override file values.
`SUBCOMMAND_FIELDS` names the ExperimentConfig fields each subcommand
reads, and its config keys and flags come from those fields alone, each
parsed from text by its type: `n = 64` is `--n 64`, `continue_prob` is
`--continue-prob`, and a bool field is a switch.  A flag or key the
subcommand does not read is refused.  CSV goes to stdout unless --out is
given.  Exit status is 0 on success, 2 with a diagnostic line on a
configuration error, 1 with a diagnostic line when a trial's
verification fails or every trial fails, and 141 without a word when the
reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import (IO, Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Tuple, get_type_hints)

from . import bench
from .bench import ExperimentConfig
from .grid import read_encoding, write_encoding
from .hve import MessageSpace, encrypt, gen_token, query, setup
from .tokens import match_pairings, minimize, pairing_cost, write_token_set


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_fractions(text: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


_PARSERS = {int: int, Optional[int]: int, float: float, str: str,
            bool: _parse_bool, Tuple[float, ...]: _parse_fractions}

# ExperimentConfig field -> parser of its text form, for config files and flags
CONFIG_FIELDS = {name: _PARSERS[hint]
                 for name, hint in get_type_hints(ExperimentConfig).items()}
CONFIG_FIELDS["algorithm"] = str.upper

_HELP = {
    "algorithm": "one of " + ", ".join(bench.ALGORITHMS),
    "fractions": "comma-separated alert fractions",
    "dummy_cover": "let benchmark tokens cover dummy codewords",
}


def parse_config_file(path: str, keys: Sequence[str]) -> Dict[str, object]:
    """The `key = value` lines of a config file, each key one of `keys`
    (ExperimentConfig field names) and given at most once."""
    values: Dict[str, object] = {}
    with open(path, encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                                  f"(accepted: {', '.join(keys)})")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeated")
            try:
                values[key] = CONFIG_FIELDS[key](text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config file values, overridden by the flags given; flags arrive as
    text and go through the same parsers as config-file values."""
    values: Dict[str, object] = {}
    if args.config:
        values.update(parse_config_file(args.config, args.fields))
    for key in args.fields:
        text = getattr(args, key)
        if text is None:
            continue
        try:
            values[key] = CONFIG_FIELDS[key](text)
        except ValueError as exc:
            raise ConfigError(f"--{key.replace('_', '-')}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


@contextlib.contextmanager
def _output(args: argparse.Namespace) -> Iterator[IO[str]]:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fp:
            yield fp
    else:
        yield sys.stdout


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment runner and write its CSV."""
    results, failures = args.runner(make_config(args))
    with _output(args) as out:
        bench.write_csv(out, results)
    for failure in failures:
        print(f"warning: {failure}", file=sys.stderr)
    if failures and not results:
        print("error: every trial failed", file=sys.stderr)
        return 1
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    cfg = make_config(args)
    enc = bench.build_encoding(cfg.algorithm, bench.trial_grid(cfg, 0), cfg, trial=0)
    with _output(args) as out:
        write_encoding(out, enc, params=f"depth={cfg.depth or '-'}", seed=cfg.seed)
    return 0


def _parse_cells(text: str) -> FrozenSet[int]:
    """Comma-separated cell ids of a zone; empty or malformed lists raise
    ConfigError."""
    if not text.strip():
        raise ConfigError("--cells: no cell ids given")
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--cells: {exc}") from exc


def cmd_tokens(args: argparse.Namespace) -> int:
    """Minimize the zone given by --cells, or the probability-weighted zone
    that trial 0 of `benchmark` draws at --fraction on a grid of the
    encoding's cell count."""
    if (args.cells is None) == (args.fraction is None):
        raise ConfigError("tokens needs exactly one of --cells and --fraction")
    with open(args.encoding, encoding="utf-8") as fp:
        enc = read_encoding(fp)
    if args.cells is not None:
        sampling = [f"--{key}" for key in ("config", *args.fields)
                    if getattr(args, key) is not None]
        if sampling:
            raise ConfigError(f"--cells takes no sampling settings: {', '.join(sampling)}")
        zone = _parse_cells(args.cells)
    else:
        cfg = dataclasses.replace(make_config(args), n=enc.n)
        zone = bench.trial_zone(cfg, bench.trial_grid(cfg, 0).probabilities(), 0,
                                args.fraction, uniform=False)
    ts = minimize(zone, enc, allow_dummy_cover=not args.no_dummy_cover)
    with _output(args) as out:
        write_token_set(out, ts, zone_size=len(zone), encoder=enc.algorithm)
        out.write(f"# pairing_cost={pairing_cost(ts)}\n")
        out.write(f"# bound={ts.bound}\n")
        out.write(f"# match_pairings="
                  f"{match_pairings(ts.patterns, (enc.value(c) for c in zone))}\n")
    return 0


def cmd_hve_demo(args: argparse.Namespace) -> int:
    width = args.width
    seed = args.seed if args.seed is not None else 0
    pk, sk = setup(width, seed=seed)
    rng = bench.stream(seed, "demo")
    messages = MessageSpace(pk.group, [1], seed=seed)
    attribute = "".join(rng.choice("01") for _ in range(width))
    pattern = "".join("*" if rng.random() < 0.5 else ch for ch in attribute)
    c = encrypt(pk, attribute, messages.element(1), rng)
    token = gen_token(sk, pattern, rng)
    result = query(pk.group, c, token, messages)
    mismatch = pattern[:-1] + ("0" if attribute[-1] == "1" else "1")
    miss = query(pk.group, c, gen_token(sk, mismatch, rng), messages)
    print(f"attribute : {attribute}")
    print(f"pattern   : {pattern}")
    print(f"match     : {'message ' + str(result.message) if result.matched else 'none'}")
    print(f"pairings  : {result.pairings}")
    print(f"mismatch pattern {mismatch} -> "
          f"{'message ' + str(miss.message) if miss.matched else 'non-match sentinel'}"
          f" ({miss.pairings} pairings)")
    roundtrip_ok = result.matched and result.message == 1 and not miss.matched
    print(f"round trip: {'ok' if roundtrip_ok else 'FAILED'}")
    return 0 if roundtrip_ok else 1


def _add_config_flags(parser: argparse.ArgumentParser,
                      fields: Tuple[str, ...]) -> None:
    """One flag per ExperimentConfig field in `fields`: `--<name>` taking a
    value, or a switch for a bool field, `--<name>` when it defaults to
    False and `--no-<name>` when it defaults to True."""
    parser.add_argument("--config", help="key = value config file")
    for field in dataclasses.fields(ExperimentConfig):
        if field.name not in fields:
            continue
        flag = field.name.replace("_", "-")
        help_text = _HELP.get(field.name)
        if CONFIG_FIELDS[field.name] is _parse_bool:
            parser.add_argument(f"--no-{flag}" if field.default else f"--{flag}",
                                action="store_const", const=str(not field.default),
                                dest=field.name, help=help_text)
        else:
            parser.add_argument(f"--{flag}", dest=field.name, help=help_text)
    parser.add_argument("--out", help="write output to a file instead of stdout")
    parser.set_defaults(fields=fields)


# The ExperimentConfig fields each subcommand reads: its flags and accepted
# config keys, and nothing else.  A setting a subcommand ignores would still
# be written into its CSV rows as if it had been applied.
SUBCOMMAND_FIELDS = {
    "encode": ("n", "algorithm", "depth", "a", "b", "seed"),
    "tokens": ("a", "b", "seed"),
    "benchmark": ("n", "algorithm", "depth", "a", "b", "fractions", "noise",
                  "trials", "seed", "uniform_zones", "verify", "dummy_cover"),
    "depth-sweep": ("n", "a", "b", "fractions", "trials", "seed",
                    "uniform_zones", "verify", "dummy_cover"),
    "timing": ("n", "algorithm", "depth", "a", "b", "trials", "seed"),
    "dynamics": ("n", "algorithm", "depth", "a", "b", "fractions", "trials",
                 "seed", "verify", "dummy_cover", "alpha", "continue_prob",
                 "dyn_zones"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvezones",
        description="Privacy-preserving location alert zones: encoders, "
                    "token minimization and evaluation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a generated grid and print it")
    _add_config_flags(p, SUBCOMMAND_FIELDS["encode"])
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("tokens", help="minimize an alert zone into patterns")
    p.add_argument("--encoding", required=True, help="encoding file to use")
    p.add_argument("--cells", help="comma-separated cell ids of the zone")
    p.add_argument("--fraction", type=float, help="sample a zone of this fraction")
    p.add_argument("--no-dummy-cover", action="store_true",
                   help="forbid covering dummy codewords")
    _add_config_flags(p, SUBCOMMAND_FIELDS["tokens"])
    p.set_defaults(func=cmd_tokens)

    p = sub.add_parser("hve-demo", help="one encrypt/token/query round")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_hve_demo)

    for name, runner, help_text in (
            ("benchmark", bench.run_experiment, "optimizer vs baseline sweep"),
            ("depth-sweep", bench.run_depth_sweep, "improvement vs pass depth"),
            ("timing", bench.run_timing, "encoding wall times"),
            ("dynamics", bench.run_dynamics, "static vs dynamic encodings")):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p, SUBCOMMAND_FIELDS[name])
        p.set_defaults(func=cmd_run, runner=runner)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, with the
        # status a shell reports for a producer that SIGPIPE killed, and
        # point fd 1 at devnull so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
