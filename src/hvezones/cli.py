"""Command-line interface.

Subcommands: encode, tokens, benchmark, depth-sweep, timing, dynamics,
hve-demo.  Experiment subcommands read an optional config file of
`key = value` lines (# starts a comment) whose keys mirror the
ExperimentConfig fields; command-line flags override file values.  CSV
goes to stdout unless --out is given.  Exit status is 0 on success, 2
with a diagnostic line on a configuration error, and 1 with a diagnostic
line when a trial's verification fails or every trial fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from typing import Dict, List, Optional

from . import bench
from .bench import ExperimentConfig, SigmoidModel, child_seed
from .grid import Grid, read_encoding, write_encoding
from .hve import MessageSpace, encrypt, gen_token, query, setup
from .tokens import minimize, pairing_cost, write_token_set

_BOOL_KEYS = {"uniform_zones", "verify", "dummy_cover"}
_INT_KEYS = {"n", "depth", "trials", "seed", "walks", "dyn_zones"}
_FLOAT_KEYS = {"a", "b", "noise", "alpha", "continue_prob"}


class ConfigError(ValueError):
    pass


def parse_config_file(path: str) -> Dict[str, object]:
    values: Dict[str, object] = {}
    field_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    with open(path, encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in field_names:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _parse_value(key, text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _parse_value(key: str, text: str) -> object:
    if key == "fractions":
        return tuple(float(part) for part in text.split(",") if part.strip())
    if key == "algorithm":
        return text.upper()
    if key in _BOOL_KEYS:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if key in _INT_KEYS:
        return int(text)
    if key in _FLOAT_KEYS:
        return float(text)
    raise ValueError(f"unsupported key {key!r}")


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    values: Dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in ("n", "algorithm", "depth", "a", "b", "noise", "trials", "seed",
                "alpha", "continue_prob", "walks", "dyn_zones"):
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "fractions", None):
        values["fractions"] = tuple(
            float(part) for part in args.fractions.split(","))
    if getattr(args, "uniform_zones", False):
        values["uniform_zones"] = True
    if getattr(args, "dummy_cover", False):
        values["dummy_cover"] = True
    if getattr(args, "no_verify", False):
        values["verify"] = False
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _open_out(args: argparse.Namespace):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return sys.stdout


def _emit(args: argparse.Namespace, results, failures: List[str]) -> int:
    out = _open_out(args)
    try:
        bench.write_csv(out, results)
    finally:
        if out is not sys.stdout:
            out.close()
    for failure in failures:
        print(f"warning: {failure}", file=sys.stderr)
    if failures and not results:
        print("error: every trial failed", file=sys.stderr)
        return 1
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    cfg = make_config(args)
    rng = random.Random(child_seed(cfg.seed, "probs", 0))
    probs = bench.gen_probabilities(cfg.n, SigmoidModel(cfg.a, cfg.b), rng)
    grid = Grid.regular(cfg.n, probs)
    enc = bench.build_encoding(cfg.algorithm, grid, cfg, trial=0)
    out = _open_out(args)
    try:
        write_encoding(out, enc, params=f"depth={cfg.depth or '-'}", seed=cfg.seed)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_tokens(args: argparse.Namespace) -> int:
    with open(args.encoding, encoding="utf-8") as fp:
        enc = read_encoding(fp)
    if args.cells:
        zone = frozenset(int(part) for part in args.cells.split(","))
    elif args.fraction:
        cfg = make_config(args)
        rng = random.Random(child_seed(cfg.seed, "probs", 0))
        probs = bench.gen_probabilities(enc.n, SigmoidModel(cfg.a, cfg.b), rng)
        zone_rng = random.Random(child_seed(cfg.seed, "zone", 0, f"{args.fraction:.6f}"))
        zone = bench.sample_zone(probs, args.fraction, zone_rng)
    else:
        raise ConfigError("tokens needs --cells or --fraction")
    ts = minimize(zone, enc, allow_dummy_cover=not args.no_dummy_cover)
    out = _open_out(args)
    try:
        write_token_set(out, ts, zone_size=len(zone), encoder=enc.algorithm)
        out.write(f"# pairing_cost={pairing_cost(ts)}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_hve_demo(args: argparse.Namespace) -> int:
    width = args.width
    seed = args.seed if args.seed is not None else 0
    pk, sk = setup(width, seed=seed)
    rng = random.Random(child_seed(seed, "demo"))
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


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = make_config(args)
    results, failures = bench.run_experiment(cfg)
    return _emit(args, results, failures)


def cmd_depth_sweep(args: argparse.Namespace) -> int:
    cfg = make_config(args)
    results, failures = bench.run_depth_sweep(cfg)
    return _emit(args, results, failures)


def cmd_timing(args: argparse.Namespace) -> int:
    cfg = make_config(args)
    results, failures = bench.run_timing(cfg)
    return _emit(args, results, failures)


def cmd_dynamics(args: argparse.Namespace) -> int:
    cfg = make_config(args)
    results, failures = bench.run_dynamics(cfg)
    return _emit(args, results, failures)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--algorithm", type=str.upper,
                        choices=list(bench.ALGORITHMS))
    parser.add_argument("--depth", type=int)
    parser.add_argument("--a", type=float)
    parser.add_argument("--b", type=float)
    parser.add_argument("--fractions", help="comma-separated alert fractions")
    parser.add_argument("--noise", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--continue-prob", type=float, dest="continue_prob")
    parser.add_argument("--walks", type=int)
    parser.add_argument("--dyn-zones", type=int, dest="dyn_zones")
    parser.add_argument("--uniform-zones", action="store_true", dest="uniform_zones")
    parser.add_argument("--dummy-cover", action="store_true", dest="dummy_cover",
                        help="let benchmark tokens cover dummy codewords")
    parser.add_argument("--no-verify", action="store_true", dest="no_verify")
    parser.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvezones",
        description="Privacy-preserving location alert zones: encoders, "
                    "token minimization and evaluation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a generated grid and print it")
    _add_config_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("tokens", help="minimize an alert zone into patterns")
    p.add_argument("--encoding", required=True, help="encoding file to use")
    p.add_argument("--cells", help="comma-separated cell ids of the zone")
    p.add_argument("--fraction", type=float, help="sample a zone of this fraction")
    p.add_argument("--no-dummy-cover", action="store_true",
                   help="forbid covering dummy codewords")
    _add_config_flags(p)
    p.set_defaults(func=cmd_tokens)

    p = sub.add_parser("hve-demo", help="one encrypt/token/query round")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_hve_demo)

    for name, func, help_text in (
            ("benchmark", cmd_benchmark, "optimizer vs baseline sweep"),
            ("depth-sweep", cmd_depth_sweep, "improvement vs pass depth"),
            ("timing", cmd_timing, "encoding wall times"),
            ("dynamics", cmd_dynamics, "static vs dynamic encodings")):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
