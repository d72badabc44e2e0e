import numpy as np
from hypothesis import given, settings, strategies as st

from biflab.rng import counter_bits, counter_choice, counter_key, counter_uniform


def test_pure_function_of_key():
    a = counter_bits(42, np.arange(100, dtype=np.uint64), 7)
    b = counter_bits(42, np.arange(100, dtype=np.uint64), 7)
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), start=st.integers(0, 2 ** 63),
       size=st.integers(0, 600), step=st.integers(0, 2 ** 64 - 1),
       n_choices=st.integers(1, 7), cuts=st.lists(st.integers(0, 600), max_size=8))
def test_split_invariance(seed, start, size, step, n_choices, cuts):
    # drawing an index range in one batch or in chunks gives identical bits
    idx = np.arange(start, start + size, dtype=np.uint64)
    edges = [0] + sorted(min(c, size) for c in cuts) + [size]
    chunks = [idx[a:b] for a, b in zip(edges, edges[1:])]
    for draw in (lambda i: counter_bits(seed, i, step),
                 lambda i: counter_uniform(seed, i, step),
                 lambda i: counter_choice(seed, i, step, n_choices)):
        whole = draw(idx)
        parts = np.concatenate([draw(c) for c in chunks])
        assert whole.dtype == parts.dtype and np.array_equal(whole, parts)


def test_uniform_range_and_moments():
    u = counter_uniform(1, np.arange(200000, dtype=np.uint64), 0)
    assert np.all((u >= 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002


def test_choice_bounds_and_balance():
    k = counter_choice(5, np.arange(120000, dtype=np.uint64), 2, 3)
    assert k.min() == 0 and k.max() == 2
    counts = np.bincount(k, minlength=3) / len(k)
    assert np.all(np.abs(counts - 1 / 3) < 0.01)


def test_keys_decorrelate():
    idx = np.arange(5000, dtype=np.uint64)
    assert not np.array_equal(counter_bits(1, idx, 0), counter_bits(2, idx, 0))
    assert not np.array_equal(counter_bits(1, idx, 0), counter_bits(1, idx, 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), start=st.integers(0, 2 ** 63),
       size=st.integers(0, 300), steps=st.lists(st.integers(0, 2 ** 64 - 1), max_size=6),
       n_choices=st.integers(1, 7))
def test_key_mixed_once_draws_the_same_bits(seed, start, size, steps, n_choices):
    # the sampler mixes (seed, index) once and draws every step from it
    idx = np.arange(start, start + size, dtype=np.uint64)
    key = counter_key(seed, idx)
    for step in steps:
        assert np.array_equal(counter_bits(seed, idx, step, key=key),
                              counter_bits(seed, idx, step))
        assert np.array_equal(counter_choice(seed, idx, step, n_choices, key=key),
                              counter_choice(seed, idx, step, n_choices))
