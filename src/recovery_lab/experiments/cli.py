"""Command-line harness for dataset generation, fitting, and sweeps.

Every subcommand reads a JSON config (strictly validated: a version field
is required, unknown fields are rejected, and each field is checked against
the subcommand's table in sweeps.py, which ``<subcommand> --help`` lists)
and writes byte-deterministic outputs into the target directory.  A call
parses one subcommand, with only the flags it acts on (--replicates where its
table has ``replicates``, --threads where its handler takes threads, an
integer >= 1 that RECOVERY_LAB_THREADS overrides).  Exit codes: 0 success,
2 configuration or usage error (one ``config error:`` line), 3
numerical-guard failure or a size this host cannot allocate (one
``numerical guard:`` line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .._jsonio import count_field
from ..errors import ConfigError, NumericalGuardError, RecoveryLabError
from . import sweeps
from .config import REQUIRED, Field

CONFIG_VERSION = 1
THREADS_ENV = "RECOVERY_LAB_THREADS"

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
    try:  # a JSON integer: true and 1.0 are refused, not compared
        version = count_field(cfg, "version", CONFIG_VERSION, default=0)
    except ValueError:
        version = None
    if version != CONFIG_VERSION:
        raise ConfigError(f"version must be {CONFIG_VERSION} in config {p}, got {cfg.get('version')!r}")
    unknown = sorted(set(cfg) - set(table) - {"version"})
    if unknown:
        raise ConfigError(f"config {p} has unknown fields: {', '.join(unknown)}")
    required = {name for name, field in table.items() if field.default is REQUIRED}
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"config {p} is missing fields: {', '.join(missing)}")
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # every usage error is one config-error line
        raise ConfigError(f"{self.prog}: {message}")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand: the flags it acts on, and its field table
    as the --help epilog.  For None, the top-level usage."""
    if command is None:
        return _Parser(prog="recovery-lab", usage=f"%(prog)s {{{','.join(_REGISTRY)}}} --config CONFIG ...",
                       description="Utility recovery experiments over binary choice data.")
    _, table, takes_threads = _REGISTRY[command]
    fields = [f"  version: {CONFIG_VERSION} (required)", *(f.help(k) for k, f in table.items())]
    parser = _Parser(prog=f"recovery-lab {command}", formatter_class=argparse.RawDescriptionHelpFormatter,
                     epilog="config fields:\n" + "\n".join(fields))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", type=int, help="override config seed")
    if "replicates" in table:
        parser.add_argument("--replicates", type=int, help="override config replicates")
    if takes_threads:
        parser.add_argument("--threads", default="1", help=f"worker threads, >= 1 ({THREADS_ENV} overrides)")
    return parser


def thread_count(text: str, source: str) -> int:
    """The worker count text gives: an integer >= 1, or a config error naming source."""
    if not (text.isdecimal() and int(text) >= 1):
        raise ConfigError(f"{source} must be an integer >= 1, got {text!r}")
    return int(text)


def cli_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _REGISTRY else None
    try:
        parser = build_parser(command)
        if command is None:
            parser.parse_known_args(argv[:1])  # -h or --help prints the usage and exits
            got = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand given"
            parser.error(f"{got}; choose from {', '.join(_REGISTRY)}")
        args = parser.parse_args(argv[1:])
        handler, table, takes_threads = _REGISTRY[command]
        threads = {"threads": thread_count(args.threads, "--threads")} if takes_threads else {}
        if takes_threads and (env := os.environ.get(THREADS_ENV)):  # the environment overrides the flag
            threads["threads"] = thread_count(env, THREADS_ENV)
        cfg = load_config(args.config, table)
        cfg.update({k: v for k in ("seed", "replicates") if (v := vars(args).get(k)) is not None})
        start = time.perf_counter()
        output = handler(cfg, **threads)
        output.report.wall_time_seconds = time.perf_counter() - start
        output.write(args.out)
    except SystemExit:  # --help; usage errors raise ConfigError
        return 0
    except NumericalGuardError as exc:
        sys.stderr.write(f"numerical guard: {exc}\n")
        return 3
    except MemoryError as exc:  # a size this host cannot allocate
        sys.stderr.write(f"numerical guard: {str(exc) or 'out of memory'}\n")
        return 3
    except (OSError, RecoveryLabError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
