import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repfreq.game import (
    GameFormatError,
    MixedAction,
    StageGame,
    emit_game,
    expected_payoffs,
    load_game,
    parse_mixed_action,
)
from repfreq.stage import best_replies_p2
from .conftest import fixture_path

pytestmark = []


def test_load_product_choice(product_choice):
    assert product_choice.actions1 == ("H", "L")
    assert product_choice.actions2 == ("h", "l")
    assert np.array_equal(product_choice.u1, [[0.6, -0.2], [1.0, 0.0]])
    assert np.array_equal(product_choice.u2, [[1.5, 1.0], [-0.5, 0.0]])


def test_load_three_by_two(nash_overlap):
    assert len(nash_overlap.actions1) == 3
    assert len(nash_overlap.actions2) == 2


def test_dimension_mismatch_rejected():
    doc = {
        "actions1": ["a", "b", "c"],
        "actions2": ["x", "y"],
        "u1": [[0, 0], [0, 0]],
        "u2": [[0, 0], [0, 0], [0, 0]],
    }
    with pytest.raises(GameFormatError, match="u1"):
        load_game(json.dumps(doc))


def test_duplicate_labels_rejected():
    with pytest.raises(GameFormatError, match="duplicate"):
        StageGame(("a", "a"), ("x", "y"), np.zeros((2, 2)), np.zeros((2, 2)))


def test_nonfinite_payoff_rejected():
    for value in (math.nan, math.inf, -math.inf):
        for which in ("u1", "u2"):
            payoffs = {"u1": np.zeros((2, 2)), "u2": np.zeros((2, 2))}
            payoffs[which][1, 0] = value
            with pytest.raises(GameFormatError, match=f"^{which} contains a non-finite payoff$"):
                StageGame(("a", "b"), ("x", "y"), **payoffs)


def test_finite_payoffs_whose_sum_overflows_are_accepted():
    game = StageGame(("a", "b"), ("x", "y"), [[1e308, 1e308], [0.0, 0.0]], [[0.0, 1e308], [1e308, 0.0]])
    assert game.u1.tolist() == [[1e308, 1e308], [0.0, 0.0]] and game.payoff2("b", "x") == 1e308


def test_malformed_document_rejected():
    with pytest.raises(GameFormatError, match="malformed"):
        load_game("{not json")
    with pytest.raises(GameFormatError, match="unknown keys"):
        load_game('{"actions1": ["a","b"], "actions2": ["x","y"], "u1": [[0,0],[0,0]], "u2": [[0,0],[0,0]], "extra": 1}')


@pytest.mark.parametrize(
    "change, message",
    [
        ({"order1": [1, "H"]}, "order1 must be an array of action labels"),
        ({"order2": "hl"}, "order2 must be an array of action labels"),
        ({"u1": [[True, -0.2], [1.0, 0.0]]}, "u1 must be an array of numeric rows"),
        ({"u2": [[1.5, 1.0], [-0.5, False]]}, "u2 must be an array of numeric rows"),
        ({"actions1": [["H"], "L"]}, "labels must be nonempty strings"),
    ],
)
def test_load_game_rejects_mistyped_fields(change, message):
    with pytest.raises(GameFormatError, match=message):
        load_game(json.dumps({**json.loads(fixture_path("product_choice").read_text()), **change}))


def test_load_game_accepts_integer_payoffs_and_label_orders():
    doc = {**json.loads(fixture_path("product_choice").read_text()), "u2": [[3, 2], [-1, 0]], "order2": None}
    game = load_game(json.dumps(doc))
    assert np.array_equal(game.u2, [[3.0, 2.0], [-1.0, 0.0]])
    assert (game.order1, game.order2) == (("H", "L"), None)


def test_order_must_be_permutation():
    with pytest.raises(GameFormatError, match="permutation"):
        StageGame(("a", "b"), ("x", "y"), np.zeros((2, 2)), np.zeros((2, 2)), order1=("a", "c"))


@pytest.mark.parametrize("order", [(1, "a"), "ab"])
def test_order_must_be_a_sequence_of_labels(order):
    with pytest.raises(GameFormatError, match="order1 must be an array of action labels"):
        StageGame(("a", "b"), ("x", "y"), np.zeros((2, 2)), np.zeros((2, 2)), order1=order)


def test_expected_payoffs_pure_profiles(product_choice):
    u1, u2 = expected_payoffs(product_choice, MixedAction.delta("H"), MixedAction.delta("h"))
    assert u1 == pytest.approx(0.6)  # 1 - cost_high
    assert u2 == pytest.approx(1.5)  # 2 - gamma
    for a in product_choice.actions1:
        for b in product_choice.actions2:
            u1, u2 = expected_payoffs(product_choice, MixedAction.delta(a), MixedAction.delta(b))
            assert u1 == product_choice.payoff1(a, b)
            assert u2 == product_choice.payoff2(a, b)


def test_expected_payoffs_hand_expansion(product_choice):
    alpha = MixedAction({"H": 0.5, "L": 0.5})
    u1, _ = expected_payoffs(product_choice, alpha, MixedAction.delta("h"))
    assert u1 == pytest.approx(0.5 * 0.6 + 0.5 * 1.0)


def test_expected_payoffs_unknown_label(product_choice):
    with pytest.raises(ValueError, match="unknown"):
        expected_payoffs(product_choice, MixedAction.delta("Z"), MixedAction.delta("h"))


@pytest.mark.parametrize("weight", [0.0, 0.5])
def test_unknown_label_is_refused_at_any_weight(product_choice, weight):
    alpha = MixedAction({"H": 0.5, "L": 0.5 - weight, "Typo": weight})
    beta = MixedAction({"h": 1.0 - weight, "Typo": weight})
    game = product_choice
    with pytest.raises(ValueError, match="unknown action 'Typo'"):
        alpha.as_vector(game.actions1)
    with pytest.raises(ValueError, match="unknown action 'Typo'"):
        expected_payoffs(game, alpha, MixedAction.delta("h"))
    with pytest.raises(ValueError, match="unknown action 'Typo'"):
        expected_payoffs(game, MixedAction.delta("H"), beta)
    with pytest.raises(ValueError, match="unknown action 'Typo'"):
        best_replies_p2(game, alpha)


def test_as_vector_names_the_first_unknown_label_in_the_actions_order(product_choice):
    alpha = MixedAction({"Zeta": 0.0, "H": 1.0, "Alpha": 0.0})
    with pytest.raises(ValueError, match="unknown action 'Zeta'"):
        alpha.as_vector(product_choice.actions1)


games_strategy = st.integers(2, 4).flatmap(
    lambda n_a: st.integers(2, 4).flatmap(
        lambda n_b: st.builds(
            lambda u1, u2: StageGame(
                tuple(f"a{i}" for i in range(n_a)),
                tuple(f"b{j}" for j in range(n_b)),
                np.array(u1),
                np.array(u2),
            ),
            st.lists(
                st.lists(st.floats(-10, 10, allow_nan=False), min_size=n_b, max_size=n_b),
                min_size=n_a,
                max_size=n_a,
            ),
            st.lists(
                st.lists(st.floats(-10, 10, allow_nan=False), min_size=n_b, max_size=n_b),
                min_size=n_a,
                max_size=n_a,
            ),
        )
    )
)


@settings(max_examples=50, deadline=None)
@given(games_strategy)
def test_round_trip(game):
    assert load_game(emit_game(game)) == game


def test_round_trip_preserves_orders(product_choice):
    clone = load_game(emit_game(product_choice))
    assert clone == product_choice
    assert clone.order1 == ("H", "L")
    assert clone.order2 == ("h", "l")


def _simplex(rng, labels):
    w = rng.dirichlet(np.ones(len(labels)))
    return MixedAction.from_vector(labels, w)


@settings(max_examples=40, deadline=None)
@given(games_strategy, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_bilinearity(game, seed, lam):
    rng = np.random.default_rng(seed)
    a1, a2 = _simplex(rng, game.actions1), _simplex(rng, game.actions1)
    beta = _simplex(rng, game.actions2)
    mix = MixedAction.from_vector(
        game.actions1,
        lam * a1.as_vector(game.actions1) + (1 - lam) * a2.as_vector(game.actions1),
        tol=1e-6,
    )
    lhs = expected_payoffs(game, mix, beta)
    rhs1 = expected_payoffs(game, a1, beta)
    rhs2 = expected_payoffs(game, a2, beta)
    for k in range(2):
        assert lhs[k] == pytest.approx(lam * rhs1[k] + (1 - lam) * rhs2[k], abs=1e-7)


def test_mixed_action_validation():
    with pytest.raises(ValueError):
        MixedAction({"a": 0.5, "b": 0.4})
    with pytest.raises(ValueError):
        MixedAction({"a": -0.1, "b": 1.1})
    with pytest.raises(ValueError):
        MixedAction({})
    act = MixedAction({"a": 0.25, "b": 0.75})
    assert act.prob("a") == 0.25
    assert act.prob("missing") == 0.0
    assert act.support() == ("a", "b")


def test_from_vector_needs_one_weight_per_label():
    assert MixedAction.from_vector(("a", "b"), [0.5, 0.5]).weights == {"a": 0.5, "b": 0.5}
    for vec in ([0.5, 0.5, 0.0], [1.0], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="one weight for each of 2 labels"):
            MixedAction.from_vector(("a", "b"), vec)


@pytest.mark.parametrize(
    "vec, message",
    [
        ([0.5, math.nan], "weight for 'b' must be finite, got nan"),
        ([0.5, math.inf], "weight for 'b' must be finite, got inf"),
        ([-math.inf, 0.5], "weight for 'a' must be finite, got -inf"),
        ([-0.1, 1.1], "negative weight beyond tolerance: -0.1"),
        ([0.4, 0.5], "weights sum to 0.9, expected 1 within 1e-09"),
    ],
    ids=["nan", "inf", "-inf", "negative", "sum"],
)
def test_from_vector_says_which_check_failed(vec, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MixedAction.from_vector(("a", "b"), vec)


def test_from_vector_divides_by_numpys_sum():
    # From 8 entries on, NumPy sums pairwise over 8 accumulators; a sum taken in
    # another order would move some weights by an ulp.
    rng = np.random.default_rng(35)
    for n in range(1, 13):
        labels = tuple(f"a{i}" for i in range(n))
        for _ in range(200):
            vec = rng.random(n) * (rng.random(n) < 0.8)
            vec = vec / vec.sum() if vec.any() else np.eye(n)[0]
            vec[(vec == 0.0) & (rng.random(n) < 0.5)] = -1e-12  # dust below zero, clamped
            clamped = np.maximum(vec, 0.0)
            expected = {lab: w for lab, w in zip(labels, (clamped / clamped.sum()).tolist()) if w > 0.0}
            weights = MixedAction.from_vector(labels, vec).weights
            assert weights == expected and list(weights) == list(expected)
            assert all(type(w) is float for w in weights.values())


def test_parse_mixed_action():
    act = parse_mixed_action("H:0.375,L:0.625")
    assert act.prob("H") == pytest.approx(0.375)
    assert act.prob("L") == pytest.approx(0.625)
    with pytest.raises(ValueError):
        parse_mixed_action("H=0.5,L=0.5")
    with pytest.raises(ValueError):
        parse_mixed_action("H:0.5,H:0.5")
    with pytest.raises(ValueError, match="duplicate label 'H'"):
        parse_mixed_action("H:1,H :1")  # labels are compared after stripping
    assert parse_mixed_action(" H :0.375, L:0.625").weights == {"H": 0.375, "L": 0.625}
    with pytest.raises(ValueError):
        parse_mixed_action("H:0.7,L:0.7")
