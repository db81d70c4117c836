import dataclasses
import functools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repfreq.apps import ProductChoiceParams, build_stage_game
from repfreq.bounds import min_stackelberg_freq
from repfreq.game import MixedAction, StageGame
from repfreq import simulate
from repfreq.simulate import (
    _MAX_CHUNK_BLOCKS,
    PHASE_ABSORB,
    PHASE_COMP,
    PHASE_REVIEW,
    _Chunk,
    _chunk_blocks,
    _horizon,
    check_incentives,
    derive_params,
    estimate_frequencies,
    simulate_path,
)

from ._reference_sim import simulate_path as reference_simulate_path
from ._trace import traced_path
from .conftest import APPLIED_GAMES, random_assumption_games

TARGET_PC = MixedAction({"H": 0.375, "L": 0.625})


@pytest.fixture(scope="module")
def pc_params(product_choice):
    return derive_params(product_choice, TARGET_PC, eps1=0.01, delta=0.999)


def equality_target(game) -> MixedAction:
    return min_stackelberg_freq(game, equality=True).marginal(game)


def test_derived_structure(product_choice, pc_params):
    p = pc_params
    assert (p.a_star, p.b_star) == ("H", "h")
    assert (p.a_prime, p.b_prime) == ("L", "l")
    # Mixture weight sits just below the buyer threshold after the margin.
    assert p.alpha_prime.prob("L") == pytest.approx(0.499, abs=1e-9)
    assert p.p == pytest.approx(0.499, abs=1e-9)
    assert p.c == pytest.approx(-math.log(0.01) / min(p.r1_star, p.r2_star), abs=1e-9)
    assert p.t1 == math.ceil((1.0 + p.c) / (1.0 - 0.6))
    assert p.t2_bar == math.ceil(math.log(0.99) / math.log(0.999))
    assert p.delta_bar == pytest.approx(0.99)
    assert p.delta_bar_theory >= p.delta_bar
    assert math.exp(-min(p.r1_star, p.r2_star) * p.c) <= 0.01 + 1e-12


def test_z_variables_have_negative_mean(pc_params):
    assert pc_params.z1.mean < 0
    assert pc_params.z2.mean == pytest.approx(-pc_params.eps1, abs=1e-9)
    assert pc_params.z1.max_value > 0
    assert pc_params.z2.max_value > 0


def test_no_tempting_action_is_rejected(nash_overlap):
    target = MixedAction({"M": 0.5, "L": 0.5})
    with pytest.raises(ValueError, match="no action beats"):
        derive_params(nash_overlap, target, eps1=0.05, delta=0.999)


def test_no_room_to_mix_toward_the_tempting_action_is_rejected():
    # At tol 0, b0 is a0's unique reply by 5e-324 alone, and the tempting action
    # a1 has b1 ahead of b0 by 1, so b0 stays a strict reply only to mixtures
    # with weight up to 5e-324 on a1; half of that rounds to 0. Every reply
    # ties against a2, so the target pays v* = 1 with a third of a2 on b2.
    game = StageGame(
        ("a0", "a1", "a2"),
        ("b0", "b1", "b2"),
        [[1.0, 0.0, 0.0], [2.0, -1.0, -1.0], [0.0, 0.0, 3.0]],
        [[5e-324, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    )
    target = MixedAction({"a0": 0.5, "a2": 0.5})
    with pytest.raises(ValueError, match="cannot mix toward the tempting action while keeping the reply strict"):
        derive_params(game, target, eps1=0.01, delta=0.999, tol=0.0)


def test_unattainable_target_is_rejected(product_choice):
    with pytest.raises(ValueError, match="not attainable"):
        derive_params(product_choice, MixedAction.delta("L"), eps1=0.05, delta=0.999)


def test_delta_below_bound_is_rejected(product_choice):
    with pytest.raises(ValueError, match="below the construction bound"):
        derive_params(product_choice, TARGET_PC, eps1=0.01, delta=0.5)
    # delta = 1 - eps1 is the bound itself, which simulate_path refuses too.
    with pytest.raises(ValueError, match="at or below the construction bound"):
        derive_params(product_choice, TARGET_PC, eps1=0.01, delta=0.99)


def test_path_determinism(product_choice, pc_params):
    a = traced_path(product_choice, pc_params, 0.999, seed=11, stream=3)
    b = traced_path(product_choice, pc_params, 0.999, seed=11, stream=3)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.phases, b.phases)
    assert a.payoff == b.payoff
    assert a.blocks == b.blocks
    c = simulate_path(product_choice, pc_params, 0.999, seed=12, stream=3)
    assert c.payoff != a.payoff


def test_block_payoff_identity(product_choice, pc_params):
    delta = 0.999
    st = traced_path(product_choice, pc_params, delta, seed=5)
    assert st.blocks, "path should complete at least one block"
    burn_per_period = (1 - delta) * (pc_params.v_star - 0.0)  # compensation pays 0 here
    for blk in st.blocks:
        assert abs(blk.expected_residual) <= 1e-6
        # The realized end misses zero by at most one compensation period.
        assert abs(blk.realized_residual) <= burn_per_period + 1e-12


def test_block_accounting_matches_record(product_choice, pc_params):
    delta = 0.999
    st = traced_path(product_choice, pc_params, delta, seed=5)
    pay = product_choice.u1[st.actions, st.replies]
    v_star = pc_params.v_star
    # Recompute each completed block's residual from the per-period record.
    t = st.prep_periods
    for blk in st.blocks:
        length = blk.length
        local = pay[t : t + length]
        disc = delta ** np.arange(length)
        resid = (1 - delta) * float(disc @ (local - v_star))
        assert resid == pytest.approx(blk.realized_residual, abs=1e-9)
        t += length


def test_frequencies_near_target(product_choice, pc_params):
    out = estimate_frequencies(product_choice, pc_params, 0.999, reps=300, seed=2)
    assert abs(out.freq["H"] - 0.375) <= 0.05
    assert abs(out.payoff - 0.6) <= 0.02
    assert sum(out.freq.values()) == pytest.approx(1.0, abs=1e-6)
    assert out.phase_stats["max_block_residual"] <= 1e-6


def test_estimate_determinism(product_choice, pc_params):
    a = estimate_frequencies(product_choice, pc_params, 0.999, reps=120, seed=33)
    b = estimate_frequencies(product_choice, pc_params, 0.999, reps=120, seed=33)
    assert a == b


def test_trivial_target_runs_pure_commitment(product_choice):
    params = derive_params(product_choice, MixedAction.delta("H"), eps1=0.01, delta=0.999)
    assert params.trivial
    out = estimate_frequencies(product_choice, params, 0.999, reps=100, seed=0)
    assert out.freq["H"] >= 0.99
    assert out.payoff == pytest.approx(0.6, abs=1e-6)


@pytest.mark.parametrize("delta", [0.5, 0.995, 0.999])
def test_always_commit_paths_prepare_to_the_horizon(product_choice, delta):
    # The weight of periods 0 .. t_max, already in discounted-average units.
    w = simulate._total_weight(delta)
    params = derive_params(product_choice, MixedAction.delta("H"), eps1=0.01, delta=delta)
    ia = product_choice.a_index("H")
    idle = ["review_periods", "absorb_periods", "comp_periods", "absorb_entries", "block_count"]
    idle += ["breach_low", "breach_high", "absorb_cap_ends"]
    for st in simulate_path(product_choice, params, delta, seed=3, stream=range(4)):
        assert st.freq[ia] == w and not np.delete(st.freq, ia).any()
        assert st.payoff == params.v_star * w
        assert st.phase_weights.tolist() == [w, 0.0, 0.0, 0.0]
        assert st.prep_periods == _horizon(delta) + 1
        assert [getattr(st, name) for name in idle] == [0] * len(idle)
        assert st.max_residual == 0.0 and st.comp_unending is False


def test_absorbing_subphase_breach_rate():
    # A low buyer threshold lets the mixture lean hard on the tempting
    # action, so reviews pass often and the absorbing subphase is exercised.
    game = build_stage_game(ProductChoiceParams(gamma=0.1, cost_high=0.4, cost_low=0.2))
    eps1 = 0.2
    params = derive_params(game, equality_target(game), eps1=eps1, delta=0.999)
    out = estimate_frequencies(game, params, 0.999, reps=200, seed=17)
    entries = out.phase_stats["absorb_entries"] * out.reps
    breaches = (out.phase_stats["breach_low"] + out.phase_stats["breach_high"]) * out.reps
    assert entries >= 1000, "configuration must actually reach the absorbing subphase"
    rate = breaches / entries
    se = math.sqrt(rate * (1 - rate) / entries) if 0 < rate < 1 else 0.0
    assert rate <= 2 * eps1 + 3 * se


def test_check_incentives_product_choice(product_choice, pc_params):
    report = check_incentives(product_choice, pc_params, 0.999)
    assert report.passes
    assert report.slack > 0
    assert report.deviation_cap == pytest.approx((1 - 0.999) * 1.0 + 0.999 * 0.0, abs=1e-12)


def test_check_incentives_shrinks_near_discount_edge(product_choice, pc_params):
    # Closer to the enforced bound the compensation dip deepens, so the slack
    # shrinks but stays positive while the burn capacity holds up.
    near = check_incentives(product_choice, pc_params, 0.998)
    far = check_incentives(product_choice, pc_params, 0.999)
    assert 0 < near.slack < far.slack


def test_check_incentives_fails_when_minmax_dominates(matching_pennies):
    # Assumption on payoffs fails here: the minmax value exceeds the
    # commitment payoff, so the deviation cap cannot be beaten.
    target = equality_target(matching_pennies)
    params = derive_params(matching_pennies, target, eps1=0.05, delta=0.999)
    report = check_incentives(matching_pennies, params, 0.999)
    assert not report.passes
    assert report.slack < 0


@pytest.mark.parametrize("k", [1e-3, 1e3])
@pytest.mark.parametrize("eps1", [0.01, 0.2])
@pytest.mark.parametrize("name", [*APPLIED_GAMES, "absorbing"])
def test_rescaling_u2_leaves_the_construction_unchanged(games, name, eps1, k):
    # Player 2 only best-replies, so u2 -> k*u2 (k > 0) changes no reply, hence
    # no constant of the construction and no incentive. Beyond 1e+-3 the LP
    # witness itself drifts by more than 1e-9.
    if name == "absorbing":
        game = build_stage_game(ProductChoiceParams(gamma=0.1, cost_high=0.4, cost_low=0.2))
    else:
        game = games[name]
    target = equality_target(game)

    def derived(g):
        params = derive_params(g, target, eps1=eps1, delta=0.999)
        slack = check_incentives(g, params, 0.999).slack
        exact = (params.t1, params.t2_bar, params.a_prime, params.b_prime)
        return exact, (params.p, params.c, params.r1_star, params.r2_star, slack)

    exact, close = derived(game)
    moved_exact, moved_close = derived(dataclasses.replace(game, u2=k * game.u2))
    assert moved_exact == exact
    assert moved_close == pytest.approx(close, rel=1e-9, abs=0.0)


def test_estimate_validates_reps(product_choice, pc_params):
    with pytest.raises(ValueError, match="reps"):
        estimate_frequencies(product_choice, pc_params, 0.999, reps=10, seed=0)


def test_simulate_validates_delta(product_choice, pc_params):
    with pytest.raises(ValueError, match="delta"):
        simulate_path(product_choice, pc_params, 0.95, seed=0)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        derive_params(product_choice, TARGET_PC, eps1=0.01, delta=1.0)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        check_incentives(product_choice, pc_params, 1.0)


@pytest.mark.parametrize(
    "eps1, message",
    [
        (0.0, r"eps1 must lie in \(0, 1\)"),
        # The drift mean, -eps1 in exact arithmetic, rounds to 0 or above. At
        # 5e-324, eps1 * w also rounds to 0, and that law entry is dropped.
        (5e-324, "drift variable has nonnegative mean"),
        (1e-17, "drift variable has nonnegative mean"),
    ],
)
def test_an_eps1_at_or_near_zero_is_refused(product_choice, eps1, message):
    with pytest.raises(ValueError, match=message):
        derive_params(product_choice, TARGET_PC, eps1=eps1, delta=0.999)


def test_an_eps1_below_the_float_spacing_at_1_leaves_no_absorbing_period():
    # 1 - eps1 rounds to 1, so t2_bar = ceil(log(1 - eps1) / log(delta)) is 0;
    # on this integer game both drift variables still have a negative mean.
    game = StageGame(
        ("a0", "a1", "a2"),
        ("b0", "b1", "b2"),
        [[1.0, -1.0, -2.0], [-2.0, 1.0, -2.0], [2.0, 0.0, -1.0]],
        [[0.0, 0.0, -1.0], [-1.0, -2.0, 1.0], [-2.0, 1.0, -2.0]],
    )
    with pytest.raises(ValueError, match="absorbing subphase cap degenerates to zero periods"):
        derive_params(game, equality_target(game), eps1=1e-200, delta=0.999)


def test_a_discount_vector_past_the_cap_is_refused_and_always_commit_needs_none(product_choice):
    # t2_bar = ceil(log(0.1) / log(delta)) = 23,025,850 entries, above MAX_HORIZON.
    delta = 0.9999999
    params = derive_params(product_choice, TARGET_PC, eps1=0.9, delta=delta)
    with pytest.raises(ValueError, match="would take 23025850 entries, above the cap of 10000000"):
        simulate_path(product_choice, params, delta, seed=0)
    # Always-commit parameters have t1 = t2_bar = 0, so no cap applies to them.
    trivial = derive_params(product_choice, MixedAction.delta("H"), eps1=0.9, delta=delta)
    assert simulate_path(product_choice, trivial, delta, seed=0).prep_periods == _horizon(delta) + 1


def test_paths_that_end_in_preparation_hand_their_generators_back(product_choice, pc_params, monkeypatch):
    # With p = 0 no preparation word is tempting, so every path prepares to
    # the horizon and never draws a block; a later path re-keys the generator
    # of one that ended, so no more generators are made than paths run at once.
    delta = 0.999
    params = dataclasses.replace(pc_params, p=0.0)
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    paths = simulate_path(product_choice, params, delta, seed=1, stream=range(200))
    assert {(st.prep_periods, st.block_count) for st in paths} == {(18_412, 0)}
    assert 0 < len(made) <= simulate._paths_at_once(params, _horizon(delta)) < 200


def test_negative_seed_accepted(product_choice, pc_params):
    st = simulate_path(product_choice, pc_params, 0.999, seed=-7)
    assert st.payoff == pytest.approx(0.6, abs=0.05)


def absorbing_game_params(delta: float):
    game = build_stage_game(ProductChoiceParams(gamma=0.1, cost_high=0.4, cost_low=0.2))
    return game, derive_params(game, equality_target(game), eps1=0.2, delta=delta)


def path_ending(st, horizon: int) -> str:
    """How the path meets the horizon: in which phase it is cut, or "exact"."""
    if st.prep_periods + sum(blk.length for blk in st.blocks) == horizon:
        return "exact"
    return {PHASE_REVIEW: "review", PHASE_ABSORB: "absorb", PHASE_COMP: "comp"}[int(st.phases[-1])]


def clipped_final_block_endings(game, params, delta) -> Counter:
    """Check 500 paths' sums, counts and phase weights against their traces;
    count how they meet the horizon."""
    horizon = _horizon(delta) + 1
    weights = (1 - delta) * delta ** np.arange(horizon)
    endings = Counter()
    for stream in range(500):
        st = traced_path(game, params, delta, seed=3, stream=stream)
        assert len(st.actions) == horizon
        rebuilt = np.bincount(st.actions, weights=weights, minlength=len(game.actions1))
        assert np.abs(rebuilt - st.freq).max() <= 1e-12
        assert abs(weights @ game.u1[st.actions, st.replies] - st.payoff) <= 1e-12
        phase_rebuilt = np.bincount(st.phases, weights=weights, minlength=4)
        assert np.abs(phase_rebuilt - st.phase_weights).max() <= 1e-12
        counts = (st.prep_periods, st.review_periods, st.absorb_periods, st.comp_periods)
        assert counts == tuple(np.bincount(st.phases, minlength=4))
        assert sum(counts) == horizon
        assert st.prep_periods + sum(blk.length for blk in st.blocks) <= horizon
        in_absorb = np.concatenate(([False], st.phases == PHASE_ABSORB))
        assert st.absorb_entries == np.count_nonzero(in_absorb[1:] & ~in_absorb[:-1])
        endings[path_ending(st, horizon)] += 1
    return endings


def test_bookkeeping_of_the_clipped_final_block():
    delta = 0.995
    game, params = absorbing_game_params(delta)
    endings = clipped_final_block_endings(game, params, delta)
    assert set(endings) == {"review", "absorb", "comp", "exact"}, endings


@pytest.mark.parametrize(
    "config, expected",
    [("trivial", {"exact"}), ("criterion7", {"comp"}), ("beyond_horizon", {"review"})],
    ids=["trivial", "criterion7", "beyond_horizon"],
)
def test_bookkeeping_of_the_clipped_final_block_in_other_configurations(product_choice, config, expected):
    # The trivial target never leaves preparation. At this delta no criterion-7
    # block burns its surplus before the horizon, so every path is cut in its
    # first compensation run; t1 beyond the horizon cuts every path in its
    # first review.
    delta = 0.995
    if config == "trivial":
        game, params = product_choice, derive_params(product_choice, MixedAction.delta("H"), eps1=0.01, delta=delta)
    elif config == "criterion7":
        game, params = product_choice, derive_params(product_choice, TARGET_PC, eps1=0.01, delta=delta)
    else:
        game = random_assumption_games(40, 1305, 5)[1]
        params = derive_params(game, equality_target(game), eps1=0.01, delta=delta)
    endings = clipped_final_block_endings(game, params, delta)
    assert set(endings) == expected, endings


def path_summaries(simulate, game, params, delta, paths: int, seed: int) -> dict[str, np.ndarray]:
    i_star = game.a_index(params.a_star)
    rows = []
    for stream in range(paths):
        st = simulate(game, params, delta, seed, stream=stream)
        breaches = sum(blk.breach in ("low", "high") for blk in st.blocks)
        # Periods after the last recorded block: the cut final block.
        tail = np.bincount(st.phases[st.prep_periods + sum(blk.length for blk in st.blocks) :], minlength=4)
        rows.append((
            st.freq[i_star], st.payoff, len(st.blocks), st.absorb_entries, breaches,
            st.review_periods, st.absorb_periods, st.comp_periods, *tail[1:],
        ))
    names = (
        "freq_star", "payoff", "blocks", "absorb_entries", "breaches", "review", "absorb", "comp",
        "tail_review", "tail_absorb", "tail_comp",
    )
    return dict(zip(names, np.array(rows, dtype=float).T))


def two_sample_z(x: np.ndarray, y: np.ndarray) -> float:
    se = math.sqrt(x.var(ddof=1) / len(x) + y.var(ddof=1) / len(y))
    diff = x.mean() - y.mean()
    return diff / se if se > 0 else (0.0 if diff == 0 else math.inf)


@pytest.mark.parametrize("config, delta", [("criterion7", 0.995), ("criterion7", 0.999), ("absorbing", 0.995)])
def test_chunked_paths_match_the_per_period_reference(product_choice, config, delta):
    # The reference steps each block in Python with its own draws, so the two
    # simulators agree in distribution only: compare path means by a two-sample
    # z. Distinct seeds keep the samples independent, since both simulators
    # draw a path's first review the same way. At delta = 0.995 the criterion-7
    # surplus cannot be burned before the horizon, so no block completes there;
    # delta = 0.999 checks its blocks.
    if config == "criterion7":
        game, params = product_choice, derive_params(product_choice, TARGET_PC, eps1=0.01, delta=delta)
    else:
        game, params = absorbing_game_params(delta)
    new = path_summaries(traced_path, game, params, delta, paths=400, seed=41)
    reference = functools.partial(reference_simulate_path, record=True)
    old = path_summaries(reference, game, params, delta, paths=400, seed=43)
    for name in (name for name in new if name != "breaches"):
        z = two_sample_z(new[name], old[name])
        assert abs(z) <= 4, f"{name}: z = {z:.2f}"
    entries = np.array([new["absorb_entries"].sum(), old["absorb_entries"].sum()])
    breaches = np.array([new["breaches"].sum(), old["breaches"].sum()])
    if config == "absorbing":
        assert entries.min() >= 1000
        pooled = breaches.sum() / entries.sum()
        se = math.sqrt(pooled * (1 - pooled) * (1 / entries[0] + 1 / entries[1]))
        z = (breaches[0] / entries[0] - breaches[1] / entries[1]) / se
        assert abs(z) <= 4, f"breach rate: z = {z:.2f}"
    else:
        assert entries.max() == 0


@pytest.mark.parametrize("config", ["criterion7", "absorbing"])
def test_phase_shares_split_the_discounted_weight(product_choice, pc_params, config):
    if config == "criterion7":
        game, params = product_choice, pc_params
    else:
        game, params = absorbing_game_params(0.999)
    out = estimate_frequencies(game, params, 0.999, reps=100, seed=17)
    shares = [out.phase_stats[f"share_{phase}"] for phase in ("prep", "review", "absorb", "comp")]
    assert min(shares) >= 0
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    # The criterion-7 reviews are never all tempting, so absorption carries no weight.
    if config == "criterion7":
        assert out.phase_stats["share_absorb"] == 0
    else:
        assert out.phase_stats["share_absorb"] > 0


def test_path_tallies_match_the_block_records():
    delta = 0.999
    game, params = absorbing_game_params(delta)
    breaches = 0
    for stream in range(50):
        st = simulate_path(game, params, delta, seed=8, stream=stream)
        rec = traced_path(game, params, delta, seed=8, stream=stream)
        ends = Counter(blk.breach for blk in rec.blocks)
        tallies = (st.block_count, st.breach_low, st.breach_high, st.absorb_cap_ends)
        assert tallies == (len(rec.blocks), ends["low"], ends["high"], ends["cap"])
        assert st.max_residual == max(abs(blk.expected_residual) for blk in rec.blocks)
        breaches += st.breach_low + st.breach_high
    assert breaches > 0


def joint_law(params) -> np.ndarray:
    """The cumulative law of an absorbing period's outcome codes but the last:
    each witness atom k at (1 - eps1) * q_k, then the mixture's tempting action
    at eps1 * p; its commitment action takes the rest."""
    return np.append((1 - params.eps1) * params.atom_cum, 1 - params.eps1 + params.eps1 * params.p)


def test_word_edges_follow_the_probabilities_they_quantise(pc_params):
    assert pc_params.p_edge == round(pc_params.p * 2**32)
    assert np.array_equal(pc_params.joint_edges, np.rint(joint_law(pc_params) * 2**32))
    moved = dataclasses.replace(pc_params, p=0.5, eps1=0.25)
    assert moved.p_edge == 2**31
    assert np.array_equal(moved.joint_edges, np.rint(np.append(0.75 * pc_params.atom_cum, 0.875) * 2**32))
    with pytest.raises(TypeError):
        dataclasses.replace(pc_params, p_edge=0)


def test_chunk_draws_raw_philox_halves_against_integer_edges():
    delta = 0.999
    game, params = absorbing_game_params(delta)
    key = np.array([2**63 + 5, 9], dtype=np.uint64)
    blocks = 48
    chunk = _Chunk([np.random.Philox(key=key)], game, params, delta, np.array([blocks]), np.array([0]), _horizon(delta))
    raw = np.random.Philox(key=key).random_raw

    def halves(rows: int, cols: int) -> np.ndarray:
        m = rows * cols
        return raw((m + 1) // 2).view(np.uint32)[:m].reshape(rows, cols)

    def edge(prob):
        return np.round(np.asarray(prob) * 2.0**32)

    review = halves(blocks, params.t1) < edge(params.p)
    rows = np.flatnonzero(review.all(axis=1))
    assert rows.size, "the chunk must reach the absorbing subphase"
    assert np.array_equal(chunk.review, review)
    assert np.array_equal(chunk.rows, rows)
    # One word per absorbing period: its code is the number of joint edges <= it.
    absorbing = halves(rows.size, params.t2_bar)
    assert np.array_equal(chunk.outcome, np.searchsorted(edge(joint_law(params)), absorbing, side="right"))
    # The coin's probability is quantised to 2**-32, and a word below its edge
    # ends the compensation run one period early.
    coins = halves(1, blocks)[0]
    phi_edge = chunk.phi * 2.0**32
    assert np.array_equal(phi_edge, np.round(phi_edge))
    assert np.array_equal(chunk.comp_len, np.where(chunk.burns, chunk.n_comp - (coins < phi_edge), 0))


def test_absorbing_codes_follow_the_joint_law_of_device_and_action():
    # Over a million absorbing periods, each code's count lies within 4 sigma
    # of its share: (1 - eps1) * q_k for witness atom k, then eps1 * p for the
    # mixture's tempting action and eps1 * (1 - p) for its commitment action.
    delta = 0.999
    game, params = absorbing_game_params(delta)
    paths = 100
    bitgens = [np.random.Philox(key=np.array([23, k], dtype=np.uint64)) for k in range(paths)]
    blocks = np.full(paths, _MAX_CHUNK_BLOCKS)
    chunk = _Chunk(bitgens, game, params, delta, blocks, np.zeros(paths, dtype=np.int64), _horizon(delta))
    cells = chunk.outcome.size
    assert cells >= 10**6
    eps1, p = params.eps1, params.p
    share = np.append((1 - eps1) * np.diff(params.atom_cum, prepend=0.0), [eps1 * p, eps1 * (1 - p)])
    counts = np.bincount(chunk.outcome.ravel(), minlength=len(share))
    assert len(counts) == len(share)
    sigma = np.sqrt(cells * share * (1 - share))
    assert np.all(np.abs(counts - cells * share) <= 4 * sigma), (counts, cells * share)


def block_length_estimate(game, params, delta) -> int:
    """t1 plus the fewest compensation periods whose burn covers a review's
    mean surplus, found by summing the periods one by one."""
    v, t1 = params.v_star, params.t1
    tempt = (game.payoff1(params.a_prime, params.b_star) - v) * round(params.p * 2**32) / 2**32
    surplus = tempt * (delta ** np.arange(t1)).sum()
    burn = np.cumsum((v - game.payoff1(params.a_prime, params.b_prime)) * delta ** (t1 + np.arange(_horizon(delta))))
    return t1 + 1 + int(np.argmax(burn >= surplus))


def record_chunk_sizes(monkeypatch) -> list[int]:
    """The blocks of every chunk the next single-path simulations draw, in order."""
    sizes = []

    class Recording(_Chunk):
        def __init__(self, bitgens, game, params, delta, blocks, t, t_max):
            sizes.append(int(blocks[0]))
            super().__init__(bitgens, game, params, delta, blocks, t, t_max)

    monkeypatch.setattr(simulate, "_Chunk", Recording)
    return sizes


def assert_later_chunks_follow_the_path(st, sizes, delta):
    ends = np.cumsum([blk.length for blk in st.blocks])
    for k, drawn in enumerate(np.cumsum(sizes[:-1])):
        periods = int(ends[drawn - 1])
        left = _horizon(delta) + 1 - st.prep_periods - periods
        assert sizes[k + 1] == min(sizes[0], _chunk_blocks(left, int(drawn), periods))


def test_later_chunks_are_sized_from_the_path_so_far(games, pc_params, monkeypatch):
    # ceil(R * n / L) + 1 blocks, capped.
    assert _chunk_blocks(1000, 48, 4000) == 13
    assert _chunk_blocks(1001, 48, 4000) == 14
    assert _chunk_blocks(18000, 48, 4800) == _MAX_CHUNK_BLOCKS == 128
    sizes = record_chunk_sizes(monkeypatch)
    delta = 0.999
    # The first chunk is sized from t1 plus the compensation run that burns a
    # review's mean surplus; sized from t1 alone, these two would take 44 and
    # 128 blocks.
    for config, first in [("criterion7", 31), ("fiscal_witness", 50)]:
        game, params = config_game_params(config, games, pc_params)
        sizes.clear()
        st = traced_path(game, params, delta, seed=3)
        left = _horizon(delta) + 1 - st.prep_periods
        assert sizes[0] == _chunk_blocks(left, 1, block_length_estimate(game, params, delta)) == first
    game, params = absorbing_game_params(delta)
    sizes.clear()
    st = traced_path(game, params, delta, seed=3)
    left = _horizon(delta) + 1 - st.prep_periods
    assert sizes[0] == _chunk_blocks(left, 1, block_length_estimate(game, params, delta)) and len(sizes) >= 3
    assert_later_chunks_follow_the_path(st, sizes, delta)


def test_no_later_chunk_is_larger_than_the_first(monkeypatch):
    # A block length estimated at the horizon makes the first chunk two
    # blocks, so the cap binds on every later chunk but the last, which the
    # horizon may cut to one block.
    delta = 0.999
    game, params = absorbing_game_params(delta)
    monkeypatch.setattr(simulate, "_block_length", lambda *args: float(_horizon(delta)))
    sizes = record_chunk_sizes(monkeypatch)
    st = traced_path(game, params, delta, seed=3)
    assert sizes[0] == 2 and set(sizes[1:-1]) == {2} and len(sizes) > 50
    assert_later_chunks_follow_the_path(st, sizes, delta)


@pytest.mark.parametrize("config", ["criterion7", "fiscal_witness"])
def test_chunks_draw_few_blocks_past_the_ones_a_path_uses(games, pc_params, monkeypatch, config):
    # A path uses its completed blocks and the one cut at the horizon; the
    # first chunk, sized from the estimated block length, overdraws by little.
    delta = 0.999
    game, params = config_game_params(config, games, pc_params)
    drawn = []

    class Counting(_Chunk):
        def __init__(self, *args):
            super().__init__(*args)
            drawn.append(int(self.sizes.sum()))

    monkeypatch.setattr(simulate, "_Chunk", Counting)
    paths = simulate_path(game, params, delta, seed=3, stream=range(100))
    used = sum(st.block_count for st in paths) + len(paths)
    assert sum(drawn) <= 1.15 * used


def test_estimates_run_clean_when_no_block_fits_the_horizon():
    # t1 = 6,608,367 exceeds the 18,411-period horizon, so every path is cut
    # in its first block's review, whose compensation run could burn almost
    # nothing; pytest turns any numpy warning into an error.
    game = random_assumption_games(1, 1301, 3)[0]
    delta = 0.999
    params = derive_params(game, equality_target(game), eps1=0.05, delta=delta)
    assert params.t1 > _horizon(delta)
    out = estimate_frequencies(game, params, delta, 100, 5)
    assert out.phase_stats["blocks"] == 0


def same_paths(a, b) -> bool:
    """Every field of two PathStats equal, bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif x != y or type(x) is not type(y):
            return False
    return True


def config_game_params(config, games, pc_params):
    """A named configuration's game and parameters at delta = 0.999."""
    delta = 0.999
    if config == "criterion7":
        return games["product_choice"], pc_params
    if config == "absorbing":
        return absorbing_game_params(delta)
    if config == "trivial":
        return games["product_choice"], derive_params(games["product_choice"], MixedAction.delta("H"), 0.01, delta)
    # fiscal_witness: the first chunk is the largest a path draws, at the cap
    # of _MAX_CHUNK_BLOCKS. beyond_horizon: t1 exceeds the horizon, so every
    # review is cut short and kept in fewer columns than t1.
    game = games["fiscal_policy"] if config == "fiscal_witness" else random_assumption_games(40, 1305, 5)[1]
    return game, derive_params(game, equality_target(game), eps1=0.01, delta=delta)


@pytest.mark.parametrize("config", ["criterion7", "absorbing", "fiscal_witness", "beyond_horizon", "trivial"])
def test_a_batch_gives_each_stream_what_it_gives_alone(games, pc_params, config):
    delta = 0.999
    game, params = config_game_params(config, games, pc_params)
    batch = simulate_path(game, params, delta, seed=5, stream=range(3, 28))
    assert len(batch) == 25
    for stream, st in enumerate(batch, 3):
        assert same_paths(st, simulate_path(game, params, delta, seed=5, stream=stream)), stream


@pytest.mark.parametrize("config", ["criterion7", "absorbing", "fiscal_witness", "beyond_horizon", "trivial"])
def test_estimates_do_not_depend_on_how_many_paths_run_at_once(games, pc_params, monkeypatch, config):
    delta = 0.999
    game, params = config_game_params(config, games, pc_params)
    monkeypatch.setattr(simulate, "_BATCH_CELLS", 1)
    assert simulate._paths_at_once(params, _horizon(delta)) == 1
    one = estimate_frequencies(game, params, delta, reps=120, seed=9)
    monkeypatch.setattr(simulate, "_BATCH_CELLS", 2**40)
    assert simulate._paths_at_once(params, _horizon(delta)) >= 120
    every = estimate_frequencies(game, params, delta, reps=120, seed=9)
    assert one == every


@pytest.mark.parametrize("config, floor", [("criterion7", 48), ("fiscal_witness", 48), ("absorbing", 32)])
def test_an_estimate_runs_many_paths_at_once_in_a_small_working_set(games, pc_params, config, floor):
    # A round keeps a byte per review or absorbing period, so at least
    # `floor` paths fit in one round, and the traced allocations of a whole
    # estimate still peak below 3 MiB.
    delta = 0.999
    game, params = config_game_params(config, games, pc_params)
    assert simulate._paths_at_once(params, _horizon(delta)) >= floor
    tracemalloc.start()
    try:
        estimate_frequencies(game, params, delta, 100, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_a_batch_fails_as_its_first_failing_stream_does_alone():
    # At eps1 = 0.2 some blocks of this game enter compensation with a payoff
    # deficit. A batch keeps running its other paths, then raises for its first
    # failing stream, with the message that stream raises alone.
    game = random_assumption_games(40, 1302, 2)[2]
    delta = 0.999
    params = derive_params(game, equality_target(game), eps1=0.2, delta=delta)
    with pytest.raises(RuntimeError, match="payoff deficit") as batch:
        simulate_path(game, params, delta, seed=7, stream=range(3, 43))
    for stream in range(3, 43):
        try:
            simulate_path(game, params, delta, seed=7, stream=stream)
        except RuntimeError as alone:
            assert str(alone) == str(batch.value)
            break
    else:
        pytest.fail("no stream fails alone")


def test_paths_cut_in_their_first_review_read_only_the_words_before_the_horizon():
    # t1 = 9,967,238 against an 18,411-period horizon: a path prepares, then is
    # cut inside its first review. Rebuild it from the raw Philox words: 256
    # preparation words a draw until one is tempting, then the review's words
    # up to the horizon, tempting where w < round(p * 2**32).
    game = random_assumption_games(40, 1305, 5)[1]
    delta = 0.999
    params = derive_params(game, equality_target(game), eps1=0.01, delta=delta)
    t_max = _horizon(delta)
    assert params.t1 > t_max
    ia_star, ia_prime, jb_star = game.a_index(params.a_star), game.a_index(params.a_prime), game.b_index(params.b_star)
    weights = (1 - delta) * delta ** np.arange(t_max + 1)
    edge = round(params.p * 2**32)
    for stream in range(4):
        raw = np.random.Philox(key=np.array([7, stream], dtype=np.uint64)).random_raw(t_max + 256)
        words = raw.view(np.uint32)
        t = used = 0  # periods prepared, raw words read
        while t <= t_max:
            n = min(256, t_max - t + 1)
            hits = np.flatnonzero(words[2 * used : 2 * used + n] < edge)
            used += (n + 1) // 2
            t += hits[0] + 1 if hits.size else n
            if hits.size:
                break
        actions = np.full(t_max + 1, ia_star)
        if hits.size:
            actions[t - 1] = ia_prime
        review = words[2 * used : 2 * used + t_max + 1 - t] < edge
        actions[t:] = np.where(review, ia_prime, ia_star)
        st = simulate_path(game, params, delta, seed=7, stream=stream)
        assert (st.prep_periods, st.review_periods, st.block_count) == (t, t_max + 1 - t, 0)
        assert np.abs(st.freq - np.bincount(actions, weights=weights, minlength=len(game.actions1))).max() <= 1e-12
        assert abs(st.payoff - weights @ game.u1[actions, jb_star]) <= 1e-12
