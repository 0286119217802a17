"""Utility recovery from finite binary-choice data.

A simulation and estimation laboratory: monetary lotteries under
first-order stochastic dominance, acts with ambiguity-sensitive
representations, Euclidean Wald environments, noisy choice generation,
empirical-risk utility estimation, and the experiment sweeps that check
the recovery guarantees empirically.
"""

from . import estimation, experiments, lotteries, noisy_choice, wald_env
from . import aa_prefs
from .aa_prefs import (
    AAPreference,
    Act,
    BernoulliIndex,
    CostFunction,
    Prior,
    act_dominates,
    act_value,
    aggregator_eval,
    ce_act,
    ce_lottery,
    expected_utility,
    rep_distance,
)
from .estimation import (
    BoundParams,
    ErmResult,
    bound_eval,
    disagreement,
    empirical_score,
    erm_fit,
    mu_estimate,
    rho,
    separation_estimate,
    separation_exponent_check,
    vc_lower_bound,
)
from .lotteries import (
    DominanceVerdict,
    Interval,
    Lottery,
    cdf_eval,
    delta,
    enumerate_rational_lotteries,
    fosd_compare,
    lottery,
    lottery_join,
    lottery_meet,
    squeeze_bounds,
)
from .noisy_choice import (
    BoundedResponse,
    ConstantFlip,
    Dataset,
    generate_dataset,
    q_eval,
    read_dataset,
    write_dataset,
)
from .wald_env import (
    BoxDomain,
    ConeDomain,
    UtilityFamily,
    WaldUtility,
)

__version__ = "0.1.0"
