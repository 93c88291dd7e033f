"""Deterministic stream layout: same key, same numbers; disjoint keys,
independent numbers; agent order never matters; and every batched key
equal, bit for bit, to the key NumPy's SeedSequence gives Philox."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcbo import rng


def test_same_key_reproduces_the_same_draws():
    a = rng.stream(42, rng.AGENT, 3).standard_normal(8)
    b = rng.stream(42, rng.AGENT, 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_draws():
    base = rng.stream(42, rng.AGENT, 3).standard_normal(8)
    assert not np.array_equal(base, rng.stream(43, rng.AGENT, 3).standard_normal(8))
    assert not np.array_equal(base, rng.stream(42, rng.DATA, 3).standard_normal(8))
    assert not np.array_equal(base, rng.stream(42, rng.AGENT, 4).standard_normal(8))


def test_domain_tags_are_distinct():
    tags = [rng.DATA, rng.INIT, rng.AGENT, rng.ROUND, rng.PROJECTION, rng.SERVER]
    assert len(set(tags)) == len(tags)


def test_agent_streams_are_independent_of_draw_order():
    first = rng.agent_streams(7, 3)
    forward = [g.standard_normal(4) for g in first]

    second = rng.agent_streams(7, 3)
    backward = [second[i].standard_normal(4) for i in (2, 1, 0)][::-1]
    for a, b in zip(forward, backward):
        assert np.array_equal(a, b)


def test_agent_streams_match_explicit_keys():
    streams = rng.agent_streams(11, 2)
    for i, gen in enumerate(streams):
        expected = rng.stream(11, rng.AGENT, i).standard_normal(5)
        assert np.array_equal(gen.standard_normal(5), expected)


# --- The batched key kernel against NumPy's own SeedSequence -------------

DOMAINS = [rng.DATA, rng.INIT, rng.AGENT, rng.ROUND, rng.PROJECTION, rng.SERVER]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 5,
              2**73 + 12345]


def seed_sequence_stream(seed, domain, index):
    ss = np.random.SeedSequence(entropy=(seed, domain, index))
    return np.random.Generator(np.random.Philox(ss))


def assert_same_stream(gen, expected):
    state, want = gen.bit_generator.state, expected.bit_generator.state
    assert state["bit_generator"] == want["bit_generator"] == "Philox"
    for field in ("counter", "key"):
        assert np.array_equal(state["state"][field], want["state"][field])
    assert np.array_equal(state["buffer"], want["buffer"])
    for field in ("buffer_pos", "has_uint32", "uinteger"):
        assert state[field] == want[field]
    assert np.array_equal(gen.standard_normal(7), expected.standard_normal(7))
    assert np.array_equal(gen.integers(0, 2**63, size=3), expected.integers(0, 2**63, size=3))


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**80)),
       domain=st.sampled_from(DOMAINS),
       n=st.integers(1, 40), data=st.data())
def test_batched_streams_equal_seed_sequence_streams(seed, domain, n, data):
    i = data.draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    assert_same_stream(rng.streams(seed, domain, n)[i],
                       seed_sequence_stream(seed, domain, i))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_every_domain_and_edge_seed_matches_at_index_0(seed, domain):
    assert_same_stream(rng.streams(seed, domain, 3)[0], seed_sequence_stream(seed, domain, 0))
    assert_same_stream(rng.stream(seed, domain), seed_sequence_stream(seed, domain, 0))


@pytest.mark.parametrize("index", [2**32 - 1, 2**32 + 3, 2**64 + 9])
def test_single_streams_with_multi_word_indices_match(index):
    for seed in (0, 2**64 + 5):
        assert_same_stream(rng.stream(seed, rng.AGENT, index),
                           seed_sequence_stream(seed, rng.AGENT, index))


def test_keys_match_generate_state_for_any_entropy_length():
    for entropy in [(0,), (5, 50), (2**64 + 1, 3, 2**40), (1, 2, 3, 4, 5, 2**33)]:
        want = np.random.SeedSequence(entropy=entropy).generate_state(2, np.uint64)
        assert np.array_equal(rng.keys(*entropy)[0], want)


def test_negative_seed_domain_or_index_raises():
    for args in [(-1, rng.AGENT, 0), (0, -1, 0), (0, rng.AGENT, -1)]:
        with pytest.raises(ValueError):
            rng.stream(*args)
    with pytest.raises(ValueError):
        rng.streams(-1, rng.AGENT, 3)


def test_streams_survive_pickle_and_deepcopy():
    gen = rng.streams(3, rng.AGENT, 2)[1]
    gen.standard_normal(3)
    twins = [pickle.loads(pickle.dumps(gen)), copy.deepcopy(gen)]
    draws = gen.standard_normal(5)
    for twin in twins:
        assert np.array_equal(twin.standard_normal(5), draws)
