"""Asymmetric replicator dynamics over Q-methodology factor-scored games.

The package couples three populations: stakeholder factor shares, a
community strategy mix, and per-factor positive-sign frequencies. It
ships the data of a twenty-stakeholder immersive-tourism case study as a
ready-to-run scenario.
"""

from .analysis import (
    AnalysisThresholds,
    FixationReport,
    TransientProfile,
    UtilityDiagnostics,
    analyze,
    classify_transients,
    count_inflections,
    detect_fixation,
    render_summary,
    utility_diagnostics,
)
from .dynamics import (
    GameState,
    IntegratorConfig,
    StateDerivative,
    Trajectory,
    integrate,
    replicator_field,
    vector_field,
)
from .payoff import (
    PayoffMatrix,
    build_payoff_matrix,
    expected_total_utility,
    factor_utilities,
)
from .qdata import (
    FlagAssignment,
    InitialConditions,
    LoadingMatrix,
    ZScoreMatrix,
    assignment_fractions,
    derive_x0,
    derive_z0,
    flag_stakeholders,
    load_loadings,
    load_share_table,
    load_zscores,
)
from .sampling import (
    SamplerConfig,
    StatementDistribution,
    load_distribution,
    repeat_stability,
    sample_y0,
)
from .scenario import (
    ResolvedScenario,
    case_study_path,
    load_case_study,
    load_scenario,
    run_case_study,
    run_scenario,
)
from .strategy_space import (
    CANONICAL_CODES,
    Dimension,
    StrategyCode,
    StrategySpace,
    build_strategy_space,
    parse_code,
)

__version__ = "0.1.0"
