"""Tests for repro.utils: bit math, deterministic RNG, id allocation."""

import multiprocessing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import (
    DeterministicRng,
    IdAllocator,
    bits_for_value,
    ceil_div,
    ceil_log2,
    is_power_of_two,
    next_power_of_two,
)


class TestBits:
    def test_powers_of_two_detected(self):
        for exponent in range(12):
            assert is_power_of_two(1 << exponent)

    def test_non_powers_rejected(self):
        for value in (0, -1, 3, 5, 6, 7, 9, 12, 100):
            assert not is_power_of_two(value)

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(3) == 4
        assert next_power_of_two(64) == 64
        assert next_power_of_two(65) == 128

    def test_next_power_of_two_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)

    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(5) == 3
        assert ceil_log2(1024) == 10

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(0, 5) == 0

    def test_ceil_div_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_bits_for_value(self):
        assert bits_for_value(0) == 1
        assert bits_for_value(1) == 1
        assert bits_for_value(255) == 8
        assert bits_for_value(256) == 9

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_next_power_is_power_and_bounds(self, value):
        power = next_power_of_two(value)
        assert is_power_of_two(power)
        assert power >= value
        assert power < 2 * value

    @given(st.integers(min_value=1, max_value=1 << 20),
           st.integers(min_value=1, max_value=1 << 10))
    def test_ceil_div_matches_float_ceiling(self, numerator, denominator):
        import math

        assert ceil_div(numerator, denominator) == math.ceil(
            numerator / denominator
        )


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_fork_is_independent(self):
        base = DeterministicRng(7)
        fork1 = base.fork("x")
        fork2 = base.fork("x")
        assert [fork1.random() for _ in range(5)] == [
            fork2.random() for _ in range(5)
        ]
        assert base.fork("x").random() != base.fork("y").random()

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng().choice([])

    def test_shuffle_preserves_elements(self):
        rng = DeterministicRng(5)
        items = list(range(30))
        shuffled = rng.shuffle(list(items))
        assert sorted(shuffled) == items

    def test_accept_extremes(self):
        rng = DeterministicRng(1)
        assert all(rng.accept(1.0) for _ in range(10))
        assert not any(rng.accept(0.0) for _ in range(10))


def _spawned_draws(payload):
    """Module-level pool target: draws from a spawned child stream."""
    seed, key = payload
    child = DeterministicRng(seed).spawn(*key)
    return [child.randint(0, 1 << 30) for _ in range(8)]


class TestSpawn:
    def test_same_key_same_stream(self):
        a = DeterministicRng(42).spawn(3, 1)
        b = DeterministicRng(42).spawn(3, 1)
        assert [a.random() for _ in range(8)] == [
            b.random() for _ in range(8)
        ]

    def test_spawn_does_not_consume_parent_state(self):
        parent = DeterministicRng(7)
        before = [parent.spawn("k", 0).random() for _ in range(3)]
        parent.randint(0, 10**9)  # advance the parent stream
        after = [parent.spawn("k", 0).random() for _ in range(3)]
        assert before == after

    def test_sibling_streams_are_independent(self):
        parent = DeterministicRng(5)
        first = parent.spawn(1, 0)
        second = parent.spawn(1, 1)
        draws_first = [first.randint(0, 1 << 30) for _ in range(8)]
        # Draining one sibling must not perturb the other.
        replay = parent.spawn(1, 0)
        assert [replay.randint(0, 1 << 30) for _ in range(8)] == (
            draws_first
        )
        assert draws_first != [
            second.randint(0, 1 << 30) for _ in range(8)
        ]

    def test_distinct_keys_distinct_streams(self):
        parent = DeterministicRng(0)
        streams = {
            tuple(parent.spawn("gen", i, j).randint(0, 1 << 30)
                  for _ in range(4))
            for i in range(4) for j in range(4)
        }
        assert len(streams) == 16

    def test_spawn_differs_from_fork(self):
        parent = DeterministicRng(9)
        assert parent.spawn("x").random() != parent.fork("x").random()

    def test_spawn_requires_key(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).spawn()

    def test_spawn_rejects_unhashable_key_types(self):
        with pytest.raises(TypeError):
            DeterministicRng(0).spawn([1, 2])

    def test_key_types_are_distinguished(self):
        parent = DeterministicRng(0)
        assert parent.spawn(1).random() != parent.spawn("1").random()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork start method",
    )
    def test_child_streams_reproduce_across_processes(self):
        payloads = [(13, (2, idx)) for idx in range(3)]
        local = [_spawned_draws(p) for p in payloads]
        with multiprocessing.get_context("fork").Pool(2) as pool:
            remote = pool.map(_spawned_draws, payloads)
        assert remote == local


class TestIdAllocator:
    def test_sequential_allocation(self):
        ids = IdAllocator()
        assert ids.allocate("pe") == "pe0"
        assert ids.allocate("pe") == "pe1"
        assert ids.allocate("sw") == "sw0"

    def test_reserve_bumps_counter(self):
        ids = IdAllocator()
        ids.reserve("pe7")
        assert ids.allocate("pe") == "pe8"

    def test_reserve_nonconforming_name_is_noop(self):
        ids = IdAllocator()
        ids.reserve("weird-name")
        assert ids.allocate("weird") == "weird0"

    def test_peek_does_not_consume(self):
        ids = IdAllocator()
        assert ids.peek("pe") == 0
        ids.allocate("pe")
        assert ids.peek("pe") == 1
