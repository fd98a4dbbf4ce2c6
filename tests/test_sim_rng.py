"""Unit tests for the seeded RNG wrapper."""

import random

import pytest

from repro.sim import SeededRng

DRAWS = 10_000


@pytest.mark.parametrize("seed", [0, 7, 29, 31, 2**31 - 1])
def test_draws_equal_the_stdlib_floats(seed):
    """``random``, ``uniform`` and ``expovariate`` restate
    ``random.Random``'s own formulas; every float must be the stdlib's,
    bit for bit, or every digest in the repository moves."""
    ours, theirs = SeededRng(seed), random.Random(seed)
    for _ in range(DRAWS):
        assert ours.random() == theirs.random()
        assert ours.uniform(0, 2.5e-6) == theirs.uniform(0, 2.5e-6)
        assert ours.uniform(-3.0, 7.25) == theirs.uniform(-3.0, 7.25)
        assert ours.expovariate(40.0) == theirs.expovariate(40.0)


def test_same_seed_same_stream():
    a = SeededRng(42)
    b = SeededRng(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = SeededRng(1)
    b = SeededRng(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_uniform_bounds():
    rng = SeededRng(7)
    for _ in range(100):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_truncated_gauss_respects_bounds():
    rng = SeededRng(7)
    for _ in range(200):
        value = rng.truncated_gauss(9.0, 3.0, 8.0, 10.0)
        assert 8.0 <= value <= 10.0


def test_truncated_gauss_pathological_params_clamped():
    rng = SeededRng(7)
    value = rng.truncated_gauss(100.0, 0.001, 0.0, 1.0)
    assert 0.0 <= value <= 1.0


def test_zipf_weights_normalized_and_decreasing():
    rng = SeededRng(7)
    weights = rng.zipf_weights(10, skew=1.0)
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_zipf_weights_empty():
    assert SeededRng(7).zipf_weights(0) == []


def test_weighted_index_in_range():
    rng = SeededRng(7)
    weights = rng.zipf_weights(5)
    for _ in range(100):
        assert 0 <= rng.weighted_index(weights) < 5


def test_weighted_index_respects_skew():
    rng = SeededRng(7)
    weights = rng.zipf_weights(20, skew=2.0)
    picks = [rng.weighted_index(weights) for _ in range(2000)]
    # Rank 0 should dominate under heavy skew.
    assert picks.count(0) > picks.count(10)


def test_expovariate_positive():
    rng = SeededRng(7)
    for _ in range(50):
        assert rng.expovariate(10.0) > 0


def test_spawn_independent_streams():
    rng = SeededRng(42)
    child_a = rng.spawn("traffic")
    child_b = rng.spawn("mobility")
    assert [child_a.random() for _ in range(5)] != [child_b.random() for _ in range(5)]
    # Deterministic: re-spawning gives the same stream.
    again = SeededRng(42).spawn("traffic")
    assert SeededRng(42).spawn("traffic").random() == again.random()
