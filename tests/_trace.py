"""A simulated path's per-period trace, rebuilt from the simulator's chunks.

:func:`repfreq.simulate.simulate_path` keeps only a path's sums and tallies.
:func:`traced_path` runs it with every ``_Chunk`` it builds and every
preparation ``_prepare`` returns kept, then lays the path out period by
period from them, so the tests can check the block sums against the
mechanism.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np

from repfreq import simulate
from repfreq.simulate import BREACHES, PHASE_ABSORB, PHASE_COMP, PHASE_PREP, PHASE_REVIEW, _burned, _horizon

from ._reference_sim import BlockRecord


def traced_path(game, params, delta, seed, stream=0):
    """``simulate_path(game, params, delta, seed, stream)`` with its trace.

    The result has every ``PathStats`` field, plus ``actions``, ``replies``
    and ``phases`` (one entry per period up to the horizon) and ``blocks``,
    one :class:`BlockRecord` per completed block. Block residuals are in
    discounted-average units: the block identity says the block-local average
    payoff equals the commitment payoff, so the device-expected residual must
    vanish.
    """
    chunks, preps = [], []
    prepare = simulate._prepare

    class Kept(simulate._Chunk):
        def __init__(self, *args):
            super().__init__(*args)
            chunks.append(self)

    def kept_prepare(*args):
        preps.append(prepare(*args))
        return preps[-1]

    with mock.patch.object(simulate, "_Chunk", Kept), mock.patch.object(simulate, "_prepare", kept_prepare):
        stats = simulate.simulate_path(game, params, delta, seed, stream)

    t_max = _horizon(delta)
    ia_star, jb_star = game.a_index(params.a_star), game.b_index(params.b_star)
    actions = np.full(t_max + 1, ia_star, dtype=np.int16)
    replies = np.full(t_max + 1, jb_star, dtype=np.int16)
    phases = np.full(t_max + 1, PHASE_PREP, dtype=np.uint8)
    blocks = []
    if preps:  # not the trivial always-commit path
        (prep, hit), = preps
        ia_prime, jb_prime = game.a_index(params.a_prime), game.b_index(params.b_prime)
        if hit:
            actions[prep - 1] = ia_prime
        # Every normal-phase period not in review or absorbing is compensation.
        actions[prep:], replies[prep:], phases[prep:] = ia_prime, jb_prime, PHASE_COMP
        out_b = params.out_b
        for chunk in chunks:
            _lay_out(chunk, params.t1, jb_star, out_b, actions, replies, phases)
            blocks += _records(chunk, np.flatnonzero(chunk.kept), delta)
    return SimpleNamespace(**vars(stats), blocks=blocks, actions=actions, replies=replies, phases=phases)


def _lay_out(chunk, t1, jb_star, out_b, actions, replies, phases) -> None:
    """Write the review and absorbing periods of the chunk's blocks inside the
    horizon, each from its start for its span."""
    idx = np.flatnonzero(chunk.span)
    start, span = chunk.start[idx], chunk.span[idx]
    steps = np.arange(chunk.width)
    keep = steps < np.minimum(span, t1)[:, None]
    at = (start[:, None] + steps)[keep]
    actions[at] = np.where(chunk.review[idx], chunk.ia_prime, chunk.ia_star)[keep]
    replies[at] = jb_star
    phases[at] = PHASE_REVIEW
    j = np.flatnonzero(chunk.row_of[idx] >= 0)
    if j.size:
        steps = np.arange(chunk.outcome.shape[1])
        keep = (steps < chunk.absorb_len[idx[j], None]) & (t1 + steps < span[j, None])
        at = (start[j, None] + t1 + steps)[keep]
        outcome = chunk.outcome[chunk.row_of[idx[j]]][keep]
        actions[at] = chunk.out_a.take(outcome)
        replies[at] = out_b.take(outcome)
        phases[at] = PHASE_ABSORB


def _records(chunk, idx, delta) -> list[BlockRecord]:
    # The residual left after the compensation run as drawn, comp_len periods.
    burned = (chunk.params.v_star - chunk.u_comp) * _burned(chunk.comp_len, chunk.lead, chunk.log_d)
    realized = np.where(chunk.burns, chunk.g - burned, chunk.g)
    cols = zip(
        chunk.length[idx].tolist(),
        chunk.breach[idx].tolist(),
        chunk.burns[idx].tolist(),
        chunk.phi[idx].tolist(),
        ((1.0 - delta) * chunk.expected_residual[idx]).tolist(),
        ((1.0 - delta) * realized[idx]).tolist(),
    )
    return [
        BlockRecord(length, code != 0, BREACHES[code], phi if burns else None, expected, realized)
        for length, code, burns, phi, expected, realized in cols
    ]
