"""``stable_group_order`` is the stable argsort of its keys, exactly.

The replay's grouping of picks by station, the collector's interning and
regroup by DIP, ``window_rows``' window index and the epoch engine's
dispatch all narrow their integer keys to the smallest type that holds
``bound - 1`` before a stable sort, so numpy radix-sorts keys of 16 bits or
fewer.  The permutation must be the one the wide key sorts to, at every
width boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import stable_group_order

BOUNDS = [1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 70_000]


@st.composite
def keyed(draw):
    bound = draw(st.sampled_from(BOUNDS))
    size = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["spread", "few", "constant", "edges"]))
    if kind == "spread":
        keys = rng.integers(0, bound, size)
    elif kind == "few":  # long runs of equal keys
        keys = rng.choice(rng.integers(0, bound, 3), size)
    elif kind == "constant":
        keys = np.full(size, draw(st.sampled_from([0, bound - 1])))
    else:  # the largest keys the narrow type holds, next to the smallest
        keys = rng.choice([0, bound - 1, max(0, bound - 2)], size)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return keys.astype(dtype), bound


@settings(max_examples=300, deadline=None)
@given(keyed())
def test_the_order_is_the_wide_stable_argsort(case):
    keys, bound = case
    order = stable_group_order(keys, bound)
    expected = keys.astype(np.int64).argsort(kind="stable")
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("size", [0, 1, 1000])
def test_empty_and_constant_keys_keep_their_order(bound, size):
    for value in {0, bound - 1}:
        keys = np.full(size, value, dtype=np.int32)
        assert np.array_equal(stable_group_order(keys, bound), np.arange(size))
