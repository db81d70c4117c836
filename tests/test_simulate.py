import math
from collections import Counter

import numpy as np
import pytest

from repfreq.apps import ProductChoiceParams, build_stage_game
from repfreq.bounds import min_stackelberg_freq
from repfreq.game import MixedAction
from repfreq.simulate import (
    PHASE_ABSORB,
    PHASE_COMP,
    PHASE_REVIEW,
    _horizon,
    check_incentives,
    derive_params,
    estimate_frequencies,
    simulate_path,
)

from ._reference_sim import simulate_path as reference_simulate_path

TARGET_PC = MixedAction({"H": 0.375, "L": 0.625})


@pytest.fixture(scope="module")
def pc_params(product_choice):
    return derive_params(product_choice, TARGET_PC, eps1=0.01, delta=0.999)


def equality_target(game) -> MixedAction:
    fb = min_stackelberg_freq(game, equality=True)
    vec = fb.q * fb.alpha1.as_vector(game.actions1) + (1 - fb.q) * fb.alpha2.as_vector(game.actions1)
    return MixedAction.from_vector(game.actions1, vec, tol=1e-7)


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


def test_unattainable_target_is_rejected(product_choice):
    with pytest.raises(ValueError, match="not attainable"):
        derive_params(product_choice, MixedAction.delta("L"), eps1=0.05, delta=0.999)


def test_delta_below_bound_is_rejected(product_choice):
    with pytest.raises(ValueError, match="below the construction bound"):
        derive_params(product_choice, TARGET_PC, eps1=0.01, delta=0.5)


def test_literal_z2_variant_rejected_when_mean_nonnegative(product_choice):
    # The literal centering subtracts only eps1, leaving the commitment-payoff
    # mean intact, so the exponent root does not exist.
    with pytest.raises(ValueError, match="nonnegative mean"):
        derive_params(product_choice, TARGET_PC, eps1=0.01, delta=0.999, z2_variant="literal")


def test_path_determinism(product_choice, pc_params):
    a = simulate_path(product_choice, pc_params, 0.999, seed=11, stream=3, record=True)
    b = simulate_path(product_choice, pc_params, 0.999, seed=11, stream=3, record=True)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.phases, b.phases)
    assert a.payoff == b.payoff
    assert a.blocks == b.blocks
    c = simulate_path(product_choice, pc_params, 0.999, seed=12, stream=3)
    assert c.payoff != a.payoff


def test_block_payoff_identity(product_choice, pc_params):
    delta = 0.999
    st = simulate_path(product_choice, pc_params, delta, seed=5, record=True)
    assert st.blocks, "path should complete at least one block"
    burn_per_period = (1 - delta) * (pc_params.v_star - 0.0)  # compensation pays 0 here
    for blk in st.blocks:
        assert abs(blk.expected_residual) <= 1e-6
        # The realized end misses zero by at most one compensation period.
        assert abs(blk.realized_residual) <= burn_per_period + 1e-12


def test_block_accounting_matches_record(product_choice, pc_params):
    delta = 0.999
    st = simulate_path(product_choice, pc_params, delta, seed=5, record=True)
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


def test_estimate_validates_reps(product_choice, pc_params):
    with pytest.raises(ValueError, match="reps"):
        estimate_frequencies(product_choice, pc_params, 0.999, reps=10, seed=0)


def test_simulate_validates_delta(product_choice, pc_params):
    with pytest.raises(ValueError, match="delta"):
        simulate_path(product_choice, pc_params, 0.95, seed=0)


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


def test_bookkeeping_of_the_clipped_final_block():
    delta = 0.995
    game, params = absorbing_game_params(delta)
    horizon = _horizon(delta) + 1
    weights = (1 - delta) * delta ** np.arange(horizon)
    endings = Counter()
    for stream in range(500):
        st = simulate_path(game, params, delta, seed=3, stream=stream, record=True)
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
    assert set(endings) == {"review", "absorb", "comp", "exact"}, endings


def path_summaries(simulate, game, params, delta, paths: int, seed: int) -> dict[str, np.ndarray]:
    i_star = game.a_index(params.a_star)
    rows = []
    for stream in range(paths):
        st = simulate(game, params, delta, seed, stream=stream, record=True)
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
    new = path_summaries(simulate_path, game, params, delta, paths=400, seed=41)
    old = path_summaries(reference_simulate_path, game, params, delta, paths=400, seed=43)
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
