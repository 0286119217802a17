"""The batched record streams reproduce numpy's default_rng([*seed, i]) exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab._streams import Streams

WORDS = st.integers(min_value=0, max_value=2**40)
IDS = st.lists(
    st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=6,
)


def numpy_doubles(seed, i, k):
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    return np.random.default_rng([*base, int(i)]).random(k)


def read(seed, ids, k, at=0):
    """The kernel's doubles at positions at..at+k-1 of each id's stream."""
    ids = np.asarray(ids, dtype=np.int64)
    return Streams(seed, ids).read(np.arange(len(ids)), np.asarray(at)[..., None] + np.arange(k))


@settings(max_examples=60, deadline=None)
@given(seed=st.lists(WORDS, min_size=1, max_size=3), ids=IDS, k=st.integers(1, 9))
def test_matches_default_rng(seed, ids, k):
    want = np.array([numpy_doubles(seed, i, k) for i in ids])
    assert np.array_equal(read(seed, ids, k), want)


@settings(max_examples=30, deadline=None)
@given(seed=WORDS, ids=IDS, data=st.data())
def test_reads_each_stream_at_its_own_position(seed, ids, data):
    # rows read at different positions, as rejection sampling moves them on
    at = data.draw(st.lists(st.integers(0, 300), min_size=len(ids), max_size=len(ids)))
    got = read(seed, ids, 3, at=np.array(at))
    for r, (i, a) in enumerate(zip(ids, at)):
        assert np.array_equal(got[r], numpy_doubles(seed, i, a + 3)[a:])


def test_reads_a_subset_of_rows():
    streams = Streams([4, 5], np.array([0, 7, 9]))
    got = streams.read(np.array([2, 0]), np.array([[1, 2], [0, 1]]))
    assert np.array_equal(got[0], numpy_doubles([4, 5], 9, 3)[1:])
    assert np.array_equal(got[1], numpy_doubles([4, 5], 0, 2))


def test_int_seed_equals_one_word_list():
    assert np.array_equal(read(123, [0, 5], 5), read([123], [0, 5], 5))
    assert np.array_equal(read(123, [5], 5)[0], np.random.default_rng([123, 5]).random(5))


def test_multiword_seed():
    seed = [2**64 + 3, 0, 2**96 - 1]
    assert np.array_equal(read(seed, [11], 4)[0], numpy_doubles(seed, 11, 4))


def test_long_reads_past_the_table_start():
    # a row deep into rejection sampling reads thousands of doubles ahead
    assert np.array_equal(read([1, 2], [3], 5, at=4000)[0], numpy_doubles([1, 2], 3, 4005)[4000:])


def test_rejects_negative_and_non_integer_seed_words():
    for seed in (-1, [3, -2], [1.5], 2.0):
        with pytest.raises((ValueError, TypeError)):
            Streams(seed, np.array([0]))


def test_rejects_ids_outside_one_word():
    for ids in ([-1], [2**32]):
        with pytest.raises(ValueError):
            Streams(0, np.array(ids, dtype=np.int64))
