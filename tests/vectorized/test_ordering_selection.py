"""The bulk engines' mod-JK partner choice against the reference
engine's rule (``OrderingProtocol._select_partner``: ``local_sequences``
plus ``pairwise_gain`` over the misplaced neighbors in ascending id
order).

The two agree wherever the rule is unambiguous: distinct ids in the
view and a unique maximum gain.  On a gain tie they differ by design —
the bulk engines take the first view column among the tied neighbors,
the reference the smallest id — which the last test pins.
"""

import numpy as np

from repro.core.ordering import (
    SELECTION_MAX_GAIN,
    is_misplaced,
    local_sequences,
    pairwise_gain,
)
from repro.core.slices import SlicePartition
from repro.vectorized import VectorSimulation
from repro.vectorized.ordering import select_partners
from repro.vectorized.state import COLUMNS, EMPTY, ArrayState


def reference_choice(state, node):
    """The reference engine's mod-JK pick for ``node`` over the bulk
    state: ``(best_id, distinct_ids, unique_max)``, with ``best_id``
    ``None`` when no neighbor is misplaced."""
    attribute, value = state.attribute, state.value
    peers = [
        int(peer)
        for peer in state.view_ids[node]
        if peer != EMPTY and state.alive[peer]
    ]
    items = [(node, attribute[node], value[node])]
    items += [(peer, attribute[peer], value[peer]) for peer in peers]
    misplaced = sorted(
        peer
        for peer in set(peers)
        if is_misplaced(attribute[node], value[node], attribute[peer], value[peer])
    )
    if not misplaced:
        return None, True, True
    l_alpha, l_rho = local_sequences(items)
    gains = [pairwise_gain(l_alpha, l_rho, node, peer) for peer in misplaced]
    best = max(gains)
    distinct = len(set(peers)) == len(peers) and node not in peers
    return misplaced[gains.index(best)], distinct, gains.count(best) == 1


def choices(state):
    """The bulk target per initiator, and the reference verdict per
    live node."""
    live = state.live_ids()
    initiators, targets, _ = select_partners(state, live, SELECTION_MAX_GAIN)
    bulk = dict(zip(initiators.tolist(), targets.tolist()))
    reference = {int(node): reference_choice(state, int(node)) for node in live}
    return bulk, reference


class TestMaxGainRule:
    def test_bulk_choice_matches_reference_rule(self):
        sim = VectorSimulation(
            size=1500,
            partition=SlicePartition.equal(10),
            protocol="mod-jk",
            view_size=20,
            seed=11,
        )
        compared = 0
        for _cycle in range(6):
            bulk, reference = choices(sim.state)
            selecting = {
                node for node, (best, _, _) in reference.items() if best is not None
            }
            assert set(bulk) == selecting
            for node, (best, distinct, unique) in reference.items():
                if best is not None and distinct and unique:
                    assert bulk[node] == best
                    compared += 1
            sim.run_cycle()
        assert compared > 1500

    def test_gain_tie_takes_first_column_not_smallest_id(self):
        # Node 0 sits between neighbors 3 (lower attribute, higher
        # value) and 5 (higher attribute, lower value); both are
        # misplaced with Equation-2 score 2.  Its view lists 5 first.
        n, c = 6, 2
        arrays = {
            name: np.zeros((n, c) if width == "view" else n, dtype=dtype)
            for name, (dtype, width) in COLUMNS.items()
        }
        arrays["alive"][:] = True
        arrays["attribute"][:] = [2.0, 0.0, 0.0, 1.0, 0.0, 3.0]
        arrays["value"][:] = [0.5, 0.0, 0.0, 0.75, 0.0, 0.25]
        arrays["view_ids"][:] = EMPTY
        arrays["view_ids"][0] = [5, 3]
        state = ArrayState.from_arrays(c, arrays, n, fixed_capacity=False)

        bulk, reference = choices(state)
        best, distinct, unique = reference[0]
        assert (best, distinct, unique) == (3, True, False)
        assert bulk[0] == 5
