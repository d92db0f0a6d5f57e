"""The one-pass RPST codec against the two-pass oracle.

``tests/oracles/rpst_codec.py`` is the codec as it shipped before
encode-once.  For any tree the live :func:`to_bytes` must produce the
oracle's bytes exactly, :func:`state_digest`, the oracle digest and
:func:`blob_digest` must agree, and both decoders must rebuild the
same tree from those bytes.
"""

from __future__ import annotations

import collections
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centers import build_center_simulation, center_slugs
from repro.errors import StateError
from repro.state import (
    STATE_SCHEMA_VERSION,
    SimState,
    blob_digest,
    from_bytes,
    restore,
    snapshot,
    state_digest,
    state_fingerprint,
    to_bytes,
)
from tests.oracles import rpst_codec as oracle

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
numpy_scalars = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.integers(-(2**15), 2**15 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # NaN and ±inf included: the oracle comparison is on bytes.
    st.floats(),
    st.text(max_size=12),
    numpy_scalars,
)

DTYPES = ("<f8", "<f4", "<i8", "<i4", "<u2", "|u1", "|b1", "<c16")


@st.composite
def ndarrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(st.sampled_from([(0,), (5,), (2, 3), (3, 1, 2)]))
    size = int(np.prod(shape))
    raw = draw(st.binary(min_size=size * dtype.itemsize,
                         max_size=size * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if dtype == np.bool_:
        arr = arr.astype(bool)  # only 0/1 bytes are valid booleans
    if draw(st.booleans()) and arr.ndim and arr.shape[0] > 1:
        arr = arr[::2]  # non-contiguous view
    return arr


# Hashable, mutually incomparable key mixes: ints, bools (True == 1),
# strings with and without the "__" marker prefix, tuples.
keys = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.text(max_size=6),
    st.text(max_size=4).map(lambda s: "__" + s),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)

set_items = st.one_of(st.integers(-5, 5), st.text(max_size=4),
                      st.tuples(st.integers(0, 2)))

trees = st.recursive(
    st.one_of(scalars, ndarrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(set_items, max_size=4),
        st.frozensets(set_items, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=3).map(
            collections.OrderedDict
        ),
    ),
    max_leaves=24,
)

states = st.dictionaries(st.text(max_size=8), trees, max_size=5).map(
    lambda data: SimState(STATE_SCHEMA_VERSION, "equiv", data)
)


def assert_equivalent(state: SimState) -> bytes:
    """Live and oracle codecs agree on *state*; returns the blob."""
    blob = to_bytes(state)
    assert blob == oracle.to_bytes(state)
    digest = state_digest(state)
    assert digest == oracle.state_digest(state) == blob_digest(blob)
    live_back = from_bytes(blob)
    oracle_back = oracle.from_bytes(blob)
    assert live_back.schema == oracle_back.schema
    assert live_back.repro_version == oracle_back.repro_version
    # Re-encoding through the oracle compares the decoded trees exactly:
    # container kinds (tuple/set/list), dtypes, NaN bit patterns.
    assert oracle.to_bytes(live_back) == oracle.to_bytes(oracle_back) == blob
    return blob


class TestTreeEquivalence:
    @given(states)
    @settings(max_examples=300, deadline=None)
    def test_bytes_digests_and_decode_match_oracle(self, state):
        assert_equivalent(state)

    def test_bool_int_and_marker_keys(self):
        state = SimState(STATE_SCHEMA_VERSION, "equiv", {
            "flags": [True, 1, False, 0, np.bool_(True), np.int8(1)],
            "mixed": {1: "int", "1": "str", (1,): "tuple"},
            "marker": {"__nd__": 0, "__t__": [1], "plain": 2},
            "sets": ({3, 1, 2}, frozenset({"b", "a"})),
            "floats": [float("nan"), float("inf"), -float("inf"), -0.0],
        })
        assert_equivalent(state)

    def test_error_names_the_dict_path(self):
        state = SimState(STATE_SCHEMA_VERSION, "equiv",
                         {"outer": {"inner": [1, {"bad": object()}]}})
        with pytest.raises(StateError) as live_exc:
            to_bytes(state)
        with pytest.raises(StateError) as oracle_exc:
            oracle.to_bytes(state)
        assert str(live_exc.value) == str(oracle_exc.value)
        assert "'data.outer.inner.bad'" in str(live_exc.value)


# ----------------------------------------------------------------------
# Real snapshots: the nine centers mid-run
# ----------------------------------------------------------------------
def _center_factory(slug: str):
    return build_center_simulation(slug, seed=2, duration=4 * 3600.0).simulation


@pytest.fixture(scope="module")
def center_states():
    out = {}
    for slug in center_slugs():
        sim_obj = _center_factory(slug)
        sim_obj.run_batched(until=sim_obj.sim.now + 2 * 3600.0)
        out[slug] = snapshot(sim_obj)
    return out


class TestCenterSnapshots:
    @pytest.mark.parametrize("slug", center_slugs())
    def test_center_snapshot_matches_oracle(self, center_states, slug):
        state = center_states[slug]
        blob = assert_equivalent(state)
        assert blob_digest(blob) == state_fingerprint(state)

    def test_restore_from_live_decode(self, center_states):
        state = center_states["lrz"]
        restored = restore(from_bytes(to_bytes(state)),
                           functools.partial(_center_factory, "lrz"))
        assert state_fingerprint(snapshot(restored)) == state_fingerprint(state)
