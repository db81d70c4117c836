"""Equilibrium action-frequency bounds for reputation games."""

from .apps import (
    EntryDeterrenceParams,
    FiscalPolicyParams,
    ProductChoiceParams,
    ThreeProductParams,
    build_stage_game,
    closed_form_min_freq,
    expropriation_freq,
)
from .attain import TargetDecomposition, decompose_target
from .bounds import (
    FreqBound,
    IndifferencePiece,
    indifference_pieces,
    min_freq_curve,
    min_freq_grid,
    min_stackelberg_freq,
    min_stackelberg_freq_finite,
)
from .concentration import FiniteDist, TailReport, min_horizon, tail_exponent, tail_probability_mc
from .game import (
    GameFormatError,
    MixedAction,
    StageGame,
    emit_game,
    expected_payoffs,
    load_game,
    load_game_file,
    parse_mixed_action,
)
from .simulate import (
    IncentiveReport,
    PathStats,
    SimOutcome,
    SimParams,
    check_incentives,
    derive_params,
    estimate_frequencies,
    simulate_path,
)
from .stage import (
    AssumptionReport,
    StackelbergResult,
    best_replies_p2,
    check_assumptions,
    is_monotone_supermodular,
    lowest_pair,
    minmax_p1,
    stackelberg,
    vbar_p1,
)

__version__ = "0.1.0"
