"""Asymmetric replicator dynamics over Q-methodology factor-scored games.

The package couples three populations: stakeholder factor shares, a
community strategy mix, and per-factor positive-sign frequencies. It
ships the data of a twenty-stakeholder immersive-tourism case study as a
ready-to-run scenario.
"""

from .analysis import AnalysisThresholds, analyze, render_summary
from .dynamics import (
    GameState,
    IntegratorConfig,
    Trajectory,
    expected_total_utility,
    integrate,
    vector_field,
)
from .qdata import (
    FlagAssignment,
    LoadingMatrix,
    ZScoreMatrix,
    assignment_fractions,
    derive_x0,
    flag_stakeholders,
    load_loadings,
    load_share_table,
    load_zscores,
)
from .sampling import (
    SamplerConfig,
    StatementDistribution,
    load_distribution,
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
from .strategy_space import CANONICAL_CODES, STRATEGIES, StrategyCode, parse_code

__version__ = "0.1.0"
