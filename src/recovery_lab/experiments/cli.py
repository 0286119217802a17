"""Command-line harness for dataset generation, fitting, and sweeps.

Every subcommand reads a JSON config (strictly validated: a version field
is required, unknown fields are rejected, and each field is checked against
the subcommand's table in sweeps.py, which ``<subcommand> --help`` lists),
honors --seed / --out / --replicates / --threads overrides, and writes
byte-deterministic outputs into the target directory.  Exit codes: 0
success, 2 configuration error, 3 numerical-guard failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from ..errors import ConfigError, NumericalGuardError, RecoveryLabError
from . import sweeps
from .config import REQUIRED, Field

CONFIG_VERSION = 1

# subcommand -> (handler, field table, takes threads)
_REGISTRY: dict[str, tuple] = {
    "gen": (sweeps.run_gen, sweeps.GEN_FIELDS, False),
    "fit": (sweeps.run_fit, sweeps.FIT_FIELDS, False),
    "consistency": (sweeps.run_consistency, sweeps.CONSISTENCY_FIELDS, True),
    "recovery": (sweeps.run_recovery, sweeps.RECOVERY_FIELDS, True),
    "theorem2": (sweeps.run_theorem2_demo, sweeps.THEOREM2_FIELDS, False),
    "ce-continuity": (sweeps.run_ce_continuity, sweeps.CE_CONTINUITY_FIELDS, False),
    "nonid": (sweeps.run_nonidentification_demo, sweeps.NONID_FIELDS, False),
    "separation": (sweeps.run_separation, sweeps.SEPARATION_FIELDS, False),
    "vc": (sweeps.run_vc, sweeps.VC_FIELDS, False),
    "uniqueness": (sweeps.run_dense_uniqueness_check, sweeps.UNIQUENESS_FIELDS, False),
    "bound": (sweeps.run_bound, sweeps.BOUND_FIELDS, False),
}


def load_config(path: str, table: dict[str, Field]) -> dict:
    """The JSON config at path, with the names its field table allows and requires."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")

    def finite(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise ConfigError(f"config {p} has a non-finite number: {text}")
        return value

    try:
        cfg = json.loads(p.read_text(encoding="utf-8"), parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {p} must be a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"config {p} needs \"version\": {CONFIG_VERSION}, got {cfg.get('version')!r}"
        )
    unknown = sorted(set(cfg) - set(table) - {"version"})
    if unknown:
        raise ConfigError(f"config {p} has unknown fields: {', '.join(unknown)}")
    required = {name for name, field in table.items() if field.default is REQUIRED}
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
    for name, (_, table, _) in _REGISTRY.items():
        fields = [f"  version: {CONFIG_VERSION} (required)"]
        fields += [field.help(key) for key, field in table.items()]
        p = sub.add_parser(
            name,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog="config fields:\n" + "\n".join(fields),
        )
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
    handler, table, takes_threads = _REGISTRY[args.command]
    try:
        if args.replicates is not None and "replicates" not in table:
            raise ConfigError(f"--replicates: {args.command} has no replicates field")
        cfg = load_config(args.config, table)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.replicates is not None:
            cfg["replicates"] = args.replicates
        start = time.perf_counter()
        if takes_threads:
            output = handler(cfg, threads=sweeps.resolve_threads(args.threads))
        else:
            output = handler(cfg)
        output.report.wall_time_seconds = time.perf_counter() - start
        output.write(args.out)
    except NumericalGuardError as exc:
        sys.stderr.write(f"numerical guard: {exc}\n")
        return 3
    except (OSError, RecoveryLabError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
