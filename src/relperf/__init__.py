"""Equilibrium strategies of competitive CARA investment-consumption games
under general (non-exponential) discounting: closed forms, best-response
fixed-point iteration, Monte Carlo simulation, and spike-variation checks.
"""

from .core import (
    AgentType,
    TimeGrid,
    TypeDistribution,
    ValidationError,
    agent_violations,
    validate_agent,
)
from .discount import (
    DiscountFunction,
    ExponentialDiscount,
    HyperbolicDiscount,
    TabulatedDiscount,
    discount_eval,
    discount_from_dict,
    discount_log_integral,
)
from .nagent import (
    AgentConstants,
    DegenerateFixedPointError,
    NAgentAggregates,
    NAgentEquilibrium,
    Population,
    agent_constants,
    aggregates,
    c_star,
    hhat,
    investment_coefficients,
    pi_star,
    single_stock_h,
    single_stock_strategy,
)
from .mfg import (
    MFGAggregates,
    MFGTypeConstants,
    MeanFieldEquilibrium,
    effective_delta,
    mfg_aggregates,
    mfg_c_star,
    mfg_hhat,
    mfg_pi_star,
    mfg_type_constants,
)
from .best_response import (
    GridStrategyN,
    IterationReport,
    MFGridStrategy,
    best_response_mfg,
    best_response_nagent,
    best_response_profile,
    fixed_point_mfg,
    fixed_point_nagent,
    response_h,
)
from .simulate import (
    PathBundle,
    PayoffEstimate,
    SimConfig,
    SpikeGridReport,
    SpikeReport,
    SpikeSpec,
    expected_payoff,
    export_paths_csv,
    gaussian_moments,
    meanfield_consistency,
    simulate_paths,
    spike_grid,
    spike_test,
)
from .diagnostics import AnsatzFG, ansatz_for, check_fg, foc_residuals

__version__ = "0.1.0"
