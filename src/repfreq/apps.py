"""Canonical applied games and their closed-form minimal frequencies.

Each builder materializes the exact payoff table for its scenario; the
matching closed form serves as an independent oracle for the LP value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .game import StageGame


def _check_open_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class ProductChoiceParams:
    """Effort/quality game: gamma is the effort probability above which the
    buyer prefers the high-end product; costs are the seller's effort costs
    under each purchase."""

    gamma: float
    cost_high: float
    cost_low: float

    def __post_init__(self) -> None:
        _check_open_unit("gamma", self.gamma)
        _check_open_unit("cost_high", self.cost_high)
        _check_open_unit("cost_low", self.cost_low)


@dataclass(frozen=True)
class ThreeProductParams:
    """Product choice with an intermediate option. ``gamma_hi`` and
    ``gamma_lo`` are the buyer's switching thresholds (high vs mid, mid vs
    low); ``mid_value`` is the seller's margin on the intermediate product."""

    gamma_hi: float
    gamma_lo: float
    mid_value: float
    cost: float

    def __post_init__(self) -> None:
        _check_open_unit("gamma_hi", self.gamma_hi)
        _check_open_unit("gamma_lo", self.gamma_lo)
        _check_open_unit("mid_value", self.mid_value)
        _check_open_unit("cost", self.cost)
        if not self.gamma_lo < self.gamma_hi:
            raise ValueError("thresholds must satisfy 0 < gamma_lo < gamma_hi < 1")


@dataclass(frozen=True)
class EntryDeterrenceParams:
    """Incumbent versus a stream of potential entrants. ``subsidy`` shifts
    every entrant's entry payoff and maps to a shift of the entry threshold."""

    gamma: float
    cost_out: float
    cost_in: float
    subsidy: float = 0.0

    def __post_init__(self) -> None:
        _check_open_unit("gamma", self.gamma)
        _check_open_unit("cost_out", self.cost_out)
        if not (math.isfinite(self.cost_in) and self.cost_in > 0):
            raise ValueError(f"cost_in must be finite and positive, got {self.cost_in}")
        if not (math.isfinite(self.subsidy) and self.subsidy >= 0):
            raise ValueError(f"subsidy must be finite and nonnegative, got {self.subsidy}")

    @property
    def effective_gamma(self) -> float:
        return self.gamma + self.subsidy


@dataclass(frozen=True)
class FiscalPolicyParams:
    """Government choosing between a normal tax rate and expropriation."""

    tax: float
    cost: float

    def __post_init__(self) -> None:
        _check_open_unit("tax", self.tax)
        if not 0.0 < self.cost < 1.0 - self.tax:
            raise ValueError(f"cost must lie in (0, 1 - tax), got {self.cost}")


AppParams = Union[ProductChoiceParams, ThreeProductParams, EntryDeterrenceParams, FiscalPolicyParams]


def _ranked_game(actions1, actions2, u1, u2) -> StageGame:
    """An applied game whose actions are listed from highest-ranked to lowest."""
    return StageGame(actions1, actions2, u1, u2, order1=actions1, order2=actions2)


def build_stage_game(params: AppParams) -> StageGame:
    if isinstance(params, ProductChoiceParams):
        g, ch, cl = params.gamma, params.cost_high, params.cost_low
        return _ranked_game(
            ("H", "L"), ("h", "l"),
            [[1.0 - ch, -cl], [1.0, 0.0]], [[2.0 - g, 1.0], [-g, 0.0]],
        )
    if isinstance(params, ThreeProductParams):
        g1, g2, p, c = params.gamma_hi, params.gamma_lo, params.mid_value, params.cost
        # Buyer payoffs are pinned only through the two thresholds: low-end
        # worth 0 everywhere, mid-line crossing 0 at gamma_lo with unit slope,
        # high-line crossing the mid-line at gamma_hi with slope two.
        return _ranked_game(
            ("H", "L"), ("h", "m", "l"),
            [[1.0 - c, p - c, -c], [1.0, p, 0.0]], [[2.0 - g1 - g2, 1.0 - g2, 0.0], [-g1 - g2, -g2, 0.0]],
        )
    if isinstance(params, EntryDeterrenceParams):
        g, co, ci, s = params.gamma, params.cost_out, params.cost_in, params.subsidy
        return _ranked_game(
            ("F", "A"), ("O", "I"),
            [[1.0 - co, -ci], [1.0, 0.0]], [[0.0, -(1.0 - g) + s], [0.0, g + s]],
        )
    if isinstance(params, FiscalPolicyParams):
        t, c = params.tax, params.cost
        return _ranked_game(
            ("Normal", "Expropriate"), ("Invest", "NotInvest"),
            [[t, 0.0], [1.0, 0.0]], [[1.0 - t - c, 0.0], [-c, 0.0]],
        )
    raise TypeError(f"unsupported parameter set {type(params).__name__}")


def closed_form_min_freq(params: AppParams) -> float:
    """Closed-form minimal frequency of the commitment action per variant."""
    if isinstance(params, ProductChoiceParams):
        g, ch = params.gamma, params.cost_high
        return g * (1.0 - ch) / (1.0 - g * ch)
    if isinstance(params, ThreeProductParams):
        g1, g2, p, c = params.gamma_hi, params.gamma_lo, params.mid_value, params.cost
        if p <= g2 / g1:
            return g1 * (1.0 - c) / (1.0 - g1 * c)
        if c >= (1.0 - p) / (1.0 - g2):
            return g2 * (1.0 - c) / (p - g2 * c)
        return (g1 * (1.0 - p) - c * (g1 - g2)) / ((1.0 - p) - c * (g1 - g2))
    if isinstance(params, EntryDeterrenceParams):
        g, co = params.effective_gamma, params.cost_out
        if not 0.0 < g < 1.0:
            raise ValueError(
                f"effective entry threshold {g} outside (0, 1); the entrant has a dominant action"
            )
        return (1.0 - co) * g / (1.0 - co * g)
    if isinstance(params, FiscalPolicyParams):
        t, c = params.tax, params.cost
        return (t / (1.0 - t)) * (c / (1.0 - c))
    raise TypeError(f"unsupported parameter set {type(params).__name__}")


def expropriation_freq(params: FiscalPolicyParams) -> float:
    """Highest frequency of expropriation: the complement of the bound."""
    return 1.0 - closed_form_min_freq(params)
