"""Property-based tests for ordering-algorithm invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import (
    SELECTION_MAX_GAIN,
    SELECTION_RANDOM,
    SELECTION_RANDOM_MISPLACED,
    exchange_gain,
    is_misplaced,
    local_disorder,
    local_sequences,
)
from repro.metrics.disorder import global_disorder
from repro.vectorized.ordering import (
    _random_valid_column_from,
    _valid_slots,
    select_partners,
)
from repro.vectorized.state import COLUMNS, EMPTY, ArrayState


class _N:
    __slots__ = ("node_id", "attribute", "value", "alive")

    def __init__(self, node_id, attribute, value):
        self.node_id = node_id
        self.attribute = attribute
        self.value = value
        self.alive = True


node_items = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False, exclude_min=True),
    ),
    min_size=2,
    max_size=40,
)

# The ordering algorithms draw random values from a continuous uniform
# distribution, so they are distinct almost surely; several exchange
# properties (e.g. "a misplaced swap reduces disorder") genuinely
# require that — with ties, id tie-breaking can shift third parties.
distinct_node_items = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False, exclude_min=True),
    ),
    min_size=2,
    max_size=40,
    unique_by=(lambda t: t[1],),
)


def build(items):
    return [(i, attr, value) for i, (attr, value) in enumerate(items)]


class TestPredicateProperties:
    @given(items=node_items)
    def test_misplacement_symmetric(self, items):
        triples = build(items)
        for i, a_i, r_i in triples:
            for j, a_j, r_j in triples:
                assert is_misplaced(a_i, r_i, a_j, r_j) == is_misplaced(
                    a_j, r_j, a_i, r_i
                )

    @given(items=distinct_node_items)
    def test_swap_of_misplaced_pair_never_increases_inversions(self, items):
        triples = build(items)
        for i, a_i, r_i in triples:
            for j, a_j, r_j in triples:
                if j <= i or not is_misplaced(a_i, r_i, a_j, r_j):
                    continue
                l_alpha, l_rho = local_sequences(triples)
                gain = exchange_gain(l_alpha, l_rho, i, j, len(triples))
                assert gain >= 0.0  # a misplaced swap never hurts locally


class TestLocalDisorderProperties:
    @given(items=node_items)
    def test_nonnegative(self, items):
        assert local_disorder(build(items)) >= 0.0

    @given(items=node_items)
    def test_zero_iff_sequences_agree(self, items):
        triples = build(items)
        l_alpha, l_rho = local_sequences(triples)
        agrees = all(l_alpha[i] == l_rho[i] for i, _a, _r in triples)
        assert (local_disorder(triples) == 0.0) == agrees

    @given(items=distinct_node_items)
    def test_swapping_misplaced_pair_reduces_disorder(self, items):
        triples = build(items)
        for index_i in range(len(triples)):
            i, a_i, r_i = triples[index_i]
            for index_j in range(index_i + 1, len(triples)):
                j, a_j, r_j = triples[index_j]
                if not is_misplaced(a_i, r_i, a_j, r_j):
                    continue
                swapped = list(triples)
                swapped[index_i] = (i, a_i, r_j)
                swapped[index_j] = (j, a_j, r_i)
                assert local_disorder(swapped) <= local_disorder(triples)
                return  # one verified pair per example keeps this fast


class TestGlobalDisorderProperties:
    @given(items=node_items)
    def test_gdm_nonnegative(self, items):
        nodes = [_N(i, a, v) for i, (a, v) in enumerate(items)]
        assert global_disorder(nodes) >= 0.0

    @given(items=node_items)
    def test_gdm_zero_for_identical_orderings(self, items):
        ordered = sorted(items)
        nodes = [
            _N(i, attr, (i + 1) / (len(ordered) + 1))
            for i, (attr, _v) in enumerate(ordered)
        ]
        assert global_disorder(nodes) == 0.0

    @given(items=node_items)
    def test_gdm_invariant_under_value_relabeling(self, items):
        # GDM depends only on the value *order*, not magnitudes.
        # Halving is exact in floating point, so it is injective and
        # order-preserving (a cube would underflow tiny values to 0).
        nodes = [_N(i, a, v) for i, (a, v) in enumerate(items)]
        squashed = [_N(i, a, v / 2) for i, (a, v) in enumerate(items)]
        assert global_disorder(nodes) == global_disorder(squashed)


# ----------------------------------------------------------------------
# Bulk partner selection: the work-proportional select_partners against
# the all-rows computation it replaced
# ----------------------------------------------------------------------


def _reference_local_ranks(keys, ids):
    by_id = np.argsort(ids, axis=1, kind="stable")
    keys_by_id = np.take_along_axis(keys, by_id, axis=1)
    by_key = np.argsort(keys_by_id, axis=1, kind="stable")
    order = np.take_along_axis(by_id, by_key, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(keys.shape[1]), keys.shape), axis=1
    )
    return ranks


def _reference_max_gain_columns(live, view, valid, misplaced, state):
    """Ranks and gains for every live row, as the bulk engines computed
    them before selection was restricted to rows with a misplaced
    neighbor."""
    ids = np.concatenate([live[:, None], np.where(valid, view, EMPTY)], axis=1)
    attr = np.concatenate(
        [
            state.attribute[live][:, None],
            np.where(valid, state.attribute[np.where(valid, view, 0)], np.inf),
        ],
        axis=1,
    )
    value = np.concatenate(
        [
            state.value[live][:, None],
            np.where(valid, state.value[np.where(valid, view, 0)], np.inf),
        ],
        axis=1,
    )
    ids_for_ties = np.where(ids == EMPTY, np.iinfo(np.int64).max, ids)
    l_alpha = _reference_local_ranks(attr, ids_for_ties)
    l_rho = _reference_local_ranks(value, ids_for_ties)
    la_self, lr_self = l_alpha[:, :1], l_rho[:, :1]
    la_peer, lr_peer = l_alpha[:, 1:], l_rho[:, 1:]
    gain = la_self * lr_peer + la_peer * lr_self - la_peer * lr_peer
    gain = np.where(misplaced, gain, -np.inf)
    return np.argmax(gain, axis=1)


def _reference_select_partners(state, live, selection, uniforms):
    view = state.view_ids[live]
    valid = _valid_slots(state, view)
    safe = np.where(valid, view, 0)
    a_self = state.attribute[live][:, None]
    r_self = state.value[live][:, None]
    a_peer = np.where(valid, state.attribute[safe], np.inf)
    r_peer = np.where(valid, state.value[safe], np.inf)
    misplaced = valid & ((a_peer - a_self) * (r_peer - r_self) < 0.0)
    if selection == SELECTION_RANDOM:
        rows = valid.any(axis=1)
        cols = _random_valid_column_from(valid, uniforms)
        intended = misplaced[np.arange(len(live)), cols]
    elif selection == SELECTION_RANDOM_MISPLACED:
        rows = misplaced.any(axis=1)
        cols = _random_valid_column_from(misplaced, uniforms)
        intended = rows.copy()
    else:
        rows = misplaced.any(axis=1)
        cols = _reference_max_gain_columns(live, view, valid, misplaced, state)
        intended = rows.copy()
    targets = view[np.arange(len(live)), cols][rows]
    return live[rows], targets, intended[rows]


# Few distinct keys, so equal attributes and equal values on different
# ids are common; EMPTY slots, duplicate ids within a view, dead rows
# (and pointers to them) and rows without a misplaced neighbor all occur.
_KEYS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def selection_states(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    c = draw(st.integers(min_value=1, max_value=6))
    capacity = n + draw(st.integers(min_value=0, max_value=3))
    arrays = {
        name: np.zeros((capacity, c) if width == "view" else capacity, dtype=dtype)
        for name, (dtype, width) in COLUMNS.items()
    }
    arrays["attribute"][:n] = draw(st.lists(_KEYS, min_size=n, max_size=n))
    arrays["value"][:n] = draw(st.lists(_KEYS, min_size=n, max_size=n))
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    alive[draw(st.integers(min_value=0, max_value=n - 1))] = True
    arrays["alive"][:n] = alive
    slots = st.integers(min_value=EMPTY, max_value=n - 1)
    arrays["view_ids"][:] = EMPTY
    view = draw(st.lists(slots, min_size=n * c, max_size=n * c))
    arrays["view_ids"][:n] = np.array(view, dtype=np.int64).reshape(n, c)
    state = ArrayState.from_arrays(c, arrays, n, fixed_capacity=False)
    state.maybe_dead_entries = not all(alive) or draw(st.booleans())
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    count = state.live_count
    uniforms = np.array(draw(st.lists(unit, min_size=count, max_size=count)))
    return state, uniforms


class TestSelectPartnersEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        case=selection_states(),
        selection=st.sampled_from(
            [SELECTION_RANDOM, SELECTION_MAX_GAIN, SELECTION_RANDOM_MISPLACED]
        ),
    )
    def test_matches_all_rows_reference(self, case, selection):
        state, uniforms = case
        live = state.live_ids()
        got = select_partners(state, live, selection, uniforms)
        want = _reference_select_partners(state, live, selection, uniforms)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
