"""Finite two-player stage games, mixed actions, and the game-file format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Probability vectors must sum to one within this slack, and from_vector's
# default tol absorbs LP-sized noise in signs and sum; both in probability
# units, and ``--tol`` reaches neither.
PROB_TOL = 1e-12
_VECTOR_TOL = 1e-9


class GameFormatError(ValueError):
    """A game document failed structural validation."""


@dataclass(frozen=True)
class MixedAction:
    """Probability distribution over one player's action labels."""

    weights: dict[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("mixed action must have at least one entry")
        for label, w in self.weights.items():
            if not isinstance(label, str):
                raise ValueError(f"action label must be a string, got {label!r}")
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"weight for {label!r} must be finite and nonnegative, got {w}")
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @classmethod
    def delta(cls, label: str) -> "MixedAction":
        return cls({label: 1.0})

    @classmethod
    def from_vector(cls, labels, vec, tol: float = _VECTOR_TOL) -> "MixedAction":
        """Build from a numeric vector, absorbing LP-sized rounding noise."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(labels),):
            raise ValueError(f"vector has shape {vec.shape}, expected one weight for each of {len(labels)} labels")
        weights = vec.tolist()
        for label, w in zip(labels, weights):
            if not math.isfinite(w):
                raise ValueError(f"weight for {label!r} must be finite, got {w}")
        low = min(weights, default=0.0)
        if low < -tol:
            raise ValueError(f"negative weight beyond tolerance: {low}")
        if low < 0.0:  # only the sum needs the clamp: a negative weight's quotient is dropped with the zeros
            vec = np.maximum(vec, 0.0)
        total = float(vec.sum())  # NumPy's pairwise order, which a Python sum would change from 8 entries on
        if abs(total - 1.0) > tol:
            raise ValueError(f"weights sum to {total}, expected 1 within {tol}")
        return cls({lab: w for lab, w in zip(labels, [v / total for v in weights]) if w > 0.0})

    def prob(self, label: str) -> float:
        return self.weights.get(label, 0.0)

    def support(self) -> tuple[str, ...]:
        return tuple(lab for lab, w in self.weights.items() if w > 0.0)

    def as_vector(self, labels) -> np.ndarray:
        """Weights in the order of ``labels``; a label not among them is refused at any weight."""
        for label in self.weights:
            if label not in labels:
                raise ValueError(f"unknown action {label!r}, expected one of {list(labels)}")
        return np.array([self.weights.get(lab, 0.0) for lab in labels], dtype=float)


def parse_mixed_action(text: str) -> MixedAction:
    """Parse the CLI encoding ``label:prob,label:prob,...``."""
    weights: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        label, sep, prob = part.rpartition(":")
        label = label.strip()
        if not sep or not label:
            raise ValueError(f"expected label:prob, got {part!r}")
        if label in weights:
            raise ValueError(f"duplicate label {label!r}")
        try:
            weights[label] = float(prob)
        except ValueError:
            raise ValueError(f"bad probability in {part!r}") from None
    return MixedAction(weights)


@dataclass(frozen=True, eq=False)
class StageGame:
    """Bimatrix stage game with named actions and optional action orders.

    ``u1``/``u2`` are |A| x |B| payoff matrices (rows follow ``actions1``).
    ``order1``/``order2`` list actions from highest-ranked to lowest and are
    only needed for the monotonicity checks; they are never inferred.
    """

    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    u1: np.ndarray
    u2: np.ndarray
    order1: tuple[str, ...] | None = None
    order2: tuple[str, ...] | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        for which in ("actions1", "actions2"):
            labels = tuple(getattr(self, which))
            if len(labels) < 2:
                raise GameFormatError(f"{which} needs at least two actions")
            if not all(isinstance(lab, str) and lab for lab in labels):
                raise GameFormatError(f"{which} labels must be nonempty strings")
            if len(set(labels)) != len(labels):
                raise GameFormatError(f"duplicate labels in {which}")
            object.__setattr__(self, which, labels)
        shape = (len(self.actions1), len(self.actions2))
        for which in ("u1", "u2"):
            mat = np.array(getattr(self, which), dtype=float)
            if mat.shape != shape:
                raise GameFormatError(f"{which} has shape {mat.shape}, expected {shape}")
            if not all(map(math.isfinite, mat.ravel().tolist())):
                raise GameFormatError(f"{which} contains a non-finite payoff")
            mat.setflags(write=False)
            object.__setattr__(self, which, mat)
        for which, order, labels in (
            ("order1", self.order1, self.actions1),
            ("order2", self.order2, self.actions2),
        ):
            if order is not None:
                if not (isinstance(order, (tuple, list)) and all(isinstance(v, str) for v in order)):
                    raise GameFormatError(f"{which} must be an array of action labels")
                order = tuple(order)
                if sorted(order) != sorted(labels):
                    raise GameFormatError(f"{which} must be a permutation of the action labels")
                object.__setattr__(self, which, order)

    def a_index(self, label: str) -> int:
        try:
            return self.actions1.index(label)
        except ValueError:
            raise ValueError(f"unknown player-1 action {label!r}") from None

    def b_index(self, label: str) -> int:
        try:
            return self.actions2.index(label)
        except ValueError:
            raise ValueError(f"unknown player-2 action {label!r}") from None

    def payoff1(self, a: str, b: str) -> float:
        return float(self.u1[self.a_index(a), self.b_index(b)])

    def payoff2(self, a: str, b: str) -> float:
        return float(self.u2[self.a_index(a), self.b_index(b)])

    @property
    def max_payoff1(self) -> float:
        return float(self.u1.max())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StageGame):
            return NotImplemented
        return (
            self.actions1 == other.actions1
            and self.actions2 == other.actions2
            and np.array_equal(self.u1, other.u1)
            and np.array_equal(self.u2, other.u2)
            and self.order1 == other.order1
            and self.order2 == other.order2
        )


def expected_payoffs(game: StageGame, alpha: MixedAction, beta: MixedAction) -> tuple[float, float]:
    """Expected (u1, u2) when players mix according to ``alpha`` and ``beta``."""
    av = alpha.as_vector(game.actions1)
    bv = beta.as_vector(game.actions2)
    return float(av @ game.u1 @ bv), float(av @ game.u2 @ bv)


_KNOWN_KEYS = {"actions1", "actions2", "u1", "u2", "order1", "order2", "name"}


def load_game(text: str) -> StageGame:
    """Parse and validate a UTF-8 JSON game document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"malformed game document: {exc}") from None
    if not isinstance(doc, dict):
        raise GameFormatError("game document must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise GameFormatError(f"unknown keys in game document: {sorted(unknown)}")
    for key in ("actions1", "actions2", "u1", "u2"):
        if key not in doc:
            raise GameFormatError(f"missing required key {key!r}")
        if not isinstance(doc[key], list):
            raise GameFormatError(f"{key} must be an array")
    for key in ("u1", "u2"):
        for row in doc[key]:
            if not isinstance(row, list) or not all(type(v) in (int, float) for v in row):  # not bool
                raise GameFormatError(f"{key} must be an array of numeric rows")
        if len({len(row) for row in doc[key]}) > 1:
            raise GameFormatError(f"{key} has rows of different lengths")
    if not isinstance(doc.get("name", ""), str):
        raise GameFormatError("name must be a string")
    return StageGame(
        actions1=tuple(doc["actions1"]),
        actions2=tuple(doc["actions2"]),
        u1=doc["u1"],
        u2=doc["u2"],
        order1=doc.get("order1"),
        order2=doc.get("order2"),
        name=doc.get("name"),
    )


def load_game_file(path) -> StageGame:
    with open(path, encoding="utf-8") as fh:
        return load_game(fh.read())


def emit_game(game: StageGame) -> str:
    """Serialize back to the file format; inverse of :func:`load_game`."""
    doc: dict = {
        "actions1": list(game.actions1),
        "actions2": list(game.actions2),
        "u1": [[float(v) for v in row] for row in game.u1],
        "u2": [[float(v) for v in row] for row in game.u2],
    }
    if game.order1 is not None:
        doc["order1"] = list(game.order1)
    if game.order2 is not None:
        doc["order2"] = list(game.order2)
    if game.name is not None:
        doc["name"] = game.name
    return json.dumps(doc, indent=2)
