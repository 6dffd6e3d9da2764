"""Batched ordering rounds: JK / mod-JK (Section 4, vectorized).

One :func:`ordering_round` performs, for every live node at once, what
:class:`~repro.core.ordering.OrderingProtocol` does per node:

* evaluate the misplacement predicate ``(a_j - a_i)(r_j - r_i) < 0``
  against every view neighbor's *current* values (the cycle model's
  "view is up-to-date when a message is sent");
* select a gossip partner per the configured policy — uniformly random
  (JK), uniformly random misplaced, or the Equation-2 max-gain
  misplaced neighbor (mod-JK), whose local-sequence ranks are computed
  with per-row ``argsort`` over the view-plus-self items;
* perform the ``REQ``/``ACK`` exchange: re-check the predicate at
  processing time and swap random values when it holds.

Exchanges are scheduled into node-disjoint waves by the shared cycle
plan (:mod:`repro.bulk`); values update between waves, so a swap sees
the *current* state of both sides exactly as the reference engine's
sequential processing does.  With atomic exchanges the predicate is
symmetric, hence both sides swap together and the random values are
conserved as a multiset — the invariant behind the SDM floor analysis
(Section 4.4).  Under the planned message-overlap model
(:mod:`repro.bulk.concurrency`) exchanges can instead complete
one-sidedly from stale payloads, reproducing the paper's
Section-4.5.2 concurrency regimes in batched form.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.bulk.concurrency import InlineExchangeApplier, run_exchanges
from repro.core.ordering import (
    SELECTION_MAX_GAIN,
    SELECTION_RANDOM,
    SELECTION_RANDOM_MISPLACED,
)
from repro.vectorized.state import EMPTY, ArrayState

__all__ = ["ordering_round", "select_partners"]

_SELECTIONS = (SELECTION_RANDOM, SELECTION_MAX_GAIN, SELECTION_RANDOM_MISPLACED)


def _valid_slots(state: ArrayState, view: np.ndarray) -> np.ndarray:
    """Occupied-and-alive mask over view slots.  The liveness gather is
    skipped while no removal has happened since the last purge."""
    occupied = view != EMPTY
    if not state.maybe_dead_entries:
        return occupied
    return occupied & state.alive[np.where(occupied, view, 0)]


def _random_valid_column_from(
    valid: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Per row, a uniformly random column among the ``True`` ones,
    resolved from pre-drawn per-row uniforms (the plan draws one global
    block; the sharded backend hands each shard its slice, so any
    worker count consumes the stream identically).

    Rows without any valid column return 0; callers mask them out.
    """
    if len(valid) == 0:
        return np.empty(0, dtype=np.int64)
    counts = valid.sum(axis=1)
    picks = (uniforms * np.maximum(counts, 1)).astype(np.int64)
    if counts.min() == valid.shape[1]:  # all slots valid: direct pick
        return picks
    cumulative = np.cumsum(valid, axis=1)
    return np.argmax(cumulative > picks[:, None], axis=1)


_NO_ID = np.iinfo(np.int64).max  # invalid slots: sorts after every id


def _with_self(own: np.ndarray, peers: np.ndarray) -> np.ndarray:
    """The view-plus-self item matrix: column 0 is the node itself,
    columns 1.. its view slots."""
    return np.concatenate([own[:, None], peers], axis=1)


def _ranks_by_id(keys: np.ndarray, by_id: np.ndarray) -> np.ndarray:
    """Per-row 0-based ranks of ``keys`` with ties broken by id —
    the batched twin of ``ordering.local_sequences``.  ``by_id`` is each
    row's stable argsort of its ids, shared by both local sequences."""
    keys_by_id = np.take_along_axis(keys, by_id, axis=1)
    by_key = np.argsort(keys_by_id, axis=1, kind="stable")
    order = np.take_along_axis(by_id, by_key, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(keys.shape[1]), keys.shape), axis=1
    )
    return ranks


def _max_gain_columns(
    ids: np.ndarray, attr: np.ndarray, value: np.ndarray, misplaced: np.ndarray
) -> np.ndarray:
    """mod-JK partner selection: per row of view-plus-self items (from
    :func:`_with_self`), the view column of the misplaced neighbor
    maximizing Equation 2's score.  Invalid slots carry id ``_NO_ID``
    and ``+inf`` keys, so they sort to the tail and valid items get the
    local ranks the reference computes over the valid items alone.

    On a gain tie this takes the *first view column* among the tied
    neighbors; the reference engine (``OrderingProtocol``) takes the
    *smallest id*.  The two agree whenever the maximum is unique.
    """
    by_id = np.argsort(ids, axis=1, kind="stable")
    l_alpha = _ranks_by_id(attr, by_id)
    l_rho = _ranks_by_id(value, by_id)
    la_self, lr_self = l_alpha[:, :1], l_rho[:, :1]
    la_peer, lr_peer = l_alpha[:, 1:], l_rho[:, 1:]
    gain = la_self * lr_peer + la_peer * lr_self - la_peer * lr_peer
    gain = np.where(misplaced, gain, -np.inf)
    return np.argmax(gain, axis=1)


def select_partners(
    state: ArrayState,
    live: np.ndarray,
    selection: str,
    uniforms: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partner selection of one ordering round: the single function
    every bulk executor calls (the vectorized :func:`ordering_round`,
    the sharded and distributed ``ord_select`` kernel).  ``uniforms``
    holds one pre-drawn uniform per ``live`` row for the two random
    policies.  Returns ``(initiators, targets, intended)``.  Max-gain
    ranks only the rows that have a misplaced neighbor, so its cost
    falls with the disorder.
    """
    view = state.view_ids[live]
    valid = _valid_slots(state, view)
    safe = np.where(valid, view, 0)
    a_self = state.attribute[live]
    r_self = state.value[live]
    a_peer = np.where(valid, state.attribute[safe], np.inf)
    r_peer = np.where(valid, state.value[safe], np.inf)
    misplaced = valid & ((a_peer - a_self[:, None]) * (r_peer - r_self[:, None]) < 0.0)

    if selection == SELECTION_RANDOM:
        rows = np.flatnonzero(valid.any(axis=1))
        cols = _random_valid_column_from(valid, uniforms)[rows]
        intended = misplaced[rows, cols]
    else:
        rows = np.flatnonzero(misplaced.any(axis=1))
        if selection == SELECTION_RANDOM_MISPLACED:
            cols = _random_valid_column_from(misplaced, uniforms)[rows]
        else:
            cols = _max_gain_columns(
                _with_self(live[rows], np.where(valid[rows], view[rows], _NO_ID)),
                _with_self(a_self[rows], a_peer[rows]),
                _with_self(r_self[rows], r_peer[rows]),
                misplaced[rows],
            )
        intended = np.ones(len(rows), dtype=bool)
    return live[rows], view[rows, cols], intended


def ordering_round(
    state: ArrayState,
    plan,
    selection: str = SELECTION_MAX_GAIN,
    stats=None,
    queue=None,
    cycle: int = 0,
) -> None:
    """One batched active round of the configured ordering variant,
    consuming the :class:`~repro.bulk.CyclePlan`'s ordering-phase
    schedule (including the planned message-overlap and fault models;
    ``queue`` is the delayed-delivery mailbox, consulted only when the
    plan carries an enabled fault model)."""
    if selection not in _SELECTIONS:
        raise ValueError(
            f"unknown selection {selection!r}; expected one of {_SELECTIONS}"
        )
    live = state.live_ids()
    if len(live) < 2:
        return
    uniforms = None
    if selection != SELECTION_MAX_GAIN:
        uniforms = plan.ordering_uniforms(len(live))
    initiators, targets, intended = select_partners(state, live, selection, uniforms)
    if stats is not None:
        stats.note_round(
            messages=2 * len(initiators), intended=int(intended.sum())
        )
    applier = InlineExchangeApplier(state, len(initiators))
    run_exchanges(
        state,
        plan,
        initiators,
        targets,
        intended,
        applier,
        stats,
        queue=queue,
        cycle=cycle,
    )
