"""Finite-experiment machinery, sweep runners, and the CLI harness.

The harness, ``cli.cli_main``, is not imported here, so ``python -m
recovery_lab.experiments.cli`` runs it without a second copy of the module.
"""

from .prefgrids import eu_grid, grid_from_config, index_value_grid
from .report import RunReport, SweepOutput, line_chart_svg, quantile_stats
from .sigma import (
    ChoiceFunctionData,
    SigmaSequence,
    build_sigma,
    generated_choices,
    strongly_rationalizes,
    universe_values,
    weakly_rationalizes,
)
from .sweeps import (
    run_bound,
    run_ce_continuity,
    run_consistency,
    run_dense_uniqueness_check,
    run_fit,
    run_gen,
    run_nonidentification_demo,
    run_recovery,
    run_separation,
    run_theorem2_demo,
    run_vc,
)

__all__ = [
    "ChoiceFunctionData",
    "RunReport",
    "SigmaSequence",
    "SweepOutput",
    "build_sigma",
    "eu_grid",
    "generated_choices",
    "grid_from_config",
    "index_value_grid",
    "line_chart_svg",
    "quantile_stats",
    "run_bound",
    "run_ce_continuity",
    "run_consistency",
    "run_dense_uniqueness_check",
    "run_fit",
    "run_gen",
    "run_nonidentification_demo",
    "run_recovery",
    "run_separation",
    "run_theorem2_demo",
    "run_vc",
    "strongly_rationalizes",
    "universe_values",
    "weakly_rationalizes",
]
