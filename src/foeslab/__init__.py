"""Exact instability and degeneracy diagnostics for finite discrete models.

Build a model from the zoo (or wrap any positive score function in a
FoesModel), then measure it: extremal log-ratios, one-flip sensitivity,
modal sets and their mass, sign-reversal behavior, RBM bound chains, and
MCMC mixing pathology — all computed exactly by log-domain enumeration.
"""

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    CertificateError,
    FoesModel,
    FoeslabError,
    OutcomeSpace,
    UniformModelError,
    log_sum_exp,
    replicate,
)
from .experiments import (
    GridCell,
    GridExperimentConfig,
    figure1_csv,
    run_figure1,
    sample_on_sphere,
)
from .metrics import (
    InstabilityReport,
    ModalSet,
    ParameterPath,
    PathThresholds,
    PathVerdict,
    check_prop1_condition,
    classify_path,
    delta_n,
    g_distance,
    graph_lower_bound,
    instability_report,
    lrep,
    modal_set,
    standardized_log_prob,
)
from .psr import (
    PsrReport,
    check_psr,
    complement_inclusion_holds,
    degeneracy_trend,
    sign_reversal_masses,
)
from .rbm_bounds import (
    RbmBoundsReport,
    StabilityConditions,
    bounds_report,
    f_theta,
    hidden_extremes_by_visible,
    stability_conditions,
    visible_extremes_by_hidden,
)
from .samplers import (
    ChainConfig,
    MhResult,
    MixingReport,
    apply_gibbs_sweep,
    expected_standardized_log_prob,
    expected_statistic,
    gibbs_full_conditional,
    normalized_score,
    run_gibbs,
    run_param_mh,
)
from .zoo import (
    DbmParams,
    GraphModelSpec,
    LinearExpFamily,
    RbmParams,
    graph_statistic_extremes,
    graph_statistics,
    make_bernoulli,
    make_dbm_marginal,
    make_graph_model,
    make_multinomial,
    make_rbm_joint,
    make_rbm_marginal,
    make_uniform,
)

__version__ = "0.1.0"
