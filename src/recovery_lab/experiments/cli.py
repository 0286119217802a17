"""Command-line harness for dataset generation, fitting, and sweeps.

Every subcommand reads a JSON config (strictly validated: a version field
is required and unknown fields are rejected), honors --seed / --out /
--replicates / --threads overrides, and writes byte-deterministic outputs
into the target directory.  Exit codes: 0 success, 2 configuration error,
3 numerical-guard failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigError, NumericalGuardError, RecoveryLabError
from . import sweeps

CONFIG_VERSION = 1

# subcommand -> (handler, required keys, optional keys, takes threads)
_COMMON_OPTIONAL = {"seed"}
_REGISTRY: dict[str, tuple] = {
    "gen": (sweeps.run_gen, {"n", "domain", "noise", "preference"}, set(), False),
    "fit": (sweeps.run_fit, {"dataset", "family"}, {"domain", "refinements"}, False),
    "consistency": (
        sweeps.run_consistency,
        {"domain", "family", "noise", "true_preference", "n_grid"},
        {"replicates", "eval_steps", "delta", "exponent_d", "vc_dimension", "vc_k", "vc_trials"},
        True,
    ),
    "recovery": (
        sweeps.run_recovery,
        {"states", "truncation", "k_grid", "candidates", "true_index"},
        {"replicates", "interval", "disagreement_m"},
        True,
    ),
    "theorem2": (
        sweeps.run_theorem2_demo,
        set(),
        {"kind", "k_max", "act_truncation", "z_steps"},
        False,
    ),
    "ce-continuity": (sweeps.run_ce_continuity, set(), {"kind", "k_max"}, False),
    "nonid": (
        sweeps.run_nonidentification_demo,
        set(),
        {"prize_values", "state_prior", "k_max", "m"},
        False,
    ),
    "separation": (
        sweeps.run_separation,
        {"domain", "family", "noise", "n_pairs", "m"},
        {"exponent_d"},
        False,
    ),
    "vc": (sweeps.run_vc, {"domain", "family", "k", "trials"}, {"proposals"}, False),
    "uniqueness": (
        sweeps.run_dense_uniqueness_check,
        {"states", "candidates", "schedule"},
        {"interval"},
        False,
    ),
    "bound": (sweeps.run_bound, {"K", "C_bar", "V", "D", "delta", "n_grid"}, set(), False),
}


def load_config(path: str, required: set[str], optional: set[str]) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {p} must be a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"config {p} needs \"version\": {CONFIG_VERSION}, got {cfg.get('version')!r}"
        )
    allowed = required | optional | _COMMON_OPTIONAL | {"version"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"config {p} has unknown fields: {', '.join(unknown)}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"config {p} is missing fields: {', '.join(missing)}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recovery-lab",
        description="Utility recovery experiments over binary choice data.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _REGISTRY:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--replicates", type=int, default=None, help="override config replicates"
        )
        p.add_argument(
            "--threads", type=int, default=None, help="worker threads (outputs invariant)"
        )
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    known = set(_REGISTRY)
    if not argv or argv[0] in ("-h", "--help"):
        parser.print_help()
        return 0 if argv else 2
    if argv[0] not in known:
        sys.stderr.write(f"unknown subcommand {argv[0]!r}\n")
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    handler, required, optional, takes_threads = _REGISTRY[args.command]
    try:
        cfg = load_config(args.config, required, optional)
        if args.seed is not None:
            cfg["seed"] = args.seed
        seed = cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        if args.replicates is not None:
            cfg["replicates"] = args.replicates
        if takes_threads:
            output = handler(cfg, threads=sweeps.resolve_threads(args.threads))
        else:
            output = handler(cfg)
        output.write(args.out)
    except NumericalGuardError as exc:
        sys.stderr.write(f"numerical guard: {exc}\n")
        return 3
    except FileNotFoundError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except RecoveryLabError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
