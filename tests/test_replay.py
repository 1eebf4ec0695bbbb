import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flowrl.replay import (
    ConsolidationMemory,
    ReplayBuffer,
    assign_priority,
    mixed_batch,
    retain_top_fraction,
    sample,
    sampling_probabilities,
)


def store(rewards, nodes=None, ts=None, period=1, actions=None):
    """Independent transitions: transition i goes from [t_i, r_i] to [t_i + 1, r_i]."""
    rewards = np.asarray(rewards, dtype=float)
    n = len(rewards)
    ts = np.arange(n) if ts is None else np.asarray(ts)
    pairs = np.stack([np.stack([ts, rewards], 1), np.stack([ts + 1, rewards], 1)], axis=1)
    return ReplayBuffer(
        pairs.reshape(2 * n, 2),
        row=np.arange(0, 2 * n, 2),
        action=np.zeros(n) if actions is None else actions,
        reward=rewards,
        terminal=np.zeros(n, dtype=bool),
        node_id=[f"n{i}" for i in range(n)] if nodes is None else nodes,
        period=np.full(n, period),
        t=ts,
    )


def transitions(buf):
    """(node_id, t, reward, state, next state) of every transition, as hashable tuples."""
    batch = buf.gather(np.arange(len(buf)))
    return [
        (str(node), int(t), float(r), tuple(s), tuple(s2))
        for node, t, r, s, s2 in zip(buf.node_id, buf.t, batch.rewards, batch.states, batch.next_states)
    ]


class TestPriority:
    def test_reward_passthrough(self):
        assert assign_priority([0.9]).tolist() == [0.9]

    def test_floor_applies_at_zero(self):
        assert assign_priority([0.0]).tolist() == [1e-3]

    def test_elementwise_max_oracle(self):
        rng = np.random.default_rng(0)
        rewards = rng.uniform(0, 1.2, 200)
        rewards[rng.integers(0, 200, 30)] = 0.0
        expected = np.array([max(float(r), 1e-3) for r in rewards])
        np.testing.assert_array_equal(assign_priority(rewards), expected)

    def test_negative_reward_rejected(self):
        with pytest.raises(ValueError):
            assign_priority([0.5, -0.1])


class TestSamplingProbabilities:
    def test_equal_priorities_uniform(self):
        p = sampling_probabilities([2.0, 2.0, 2.0, 2.0])
        np.testing.assert_allclose(p, 0.25)

    def test_three_one_split(self):
        np.testing.assert_allclose(sampling_probabilities([3.0, 1.0]), [0.75, 0.25])

    def test_omega_zero_flattens(self):
        p = sampling_probabilities([10.0, 1.0, 0.1], omega=0.0)
        np.testing.assert_allclose(p, 1 / 3)

    def test_normalization_tight(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pr = rng.uniform(1e-3, 10, size=int(rng.integers(1, 50)))
            omega = float(rng.uniform(0, 3))
            assert abs(sampling_probabilities(pr, omega).sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        pr = rng.uniform(0.1, 5, 20)
        for omega in (0.0, 0.5, 1.0, 2.0):
            p1 = sampling_probabilities(pr, omega)
            p2 = sampling_probabilities(123.456 * pr, omega)
            np.testing.assert_allclose(p1, p2, rtol=1e-12)


class TestBuffer:
    def test_extend_keeps_every_transition_in_order(self):
        rng = np.random.default_rng(3)
        rewards = rng.uniform(0, 1, 50)
        buf = ReplayBuffer()
        for i, r in enumerate(rewards):
            buf.extend(store([r], nodes=[f"n{i}"], ts=[i]))
        assert len(buf) == 50
        assert buf.node_id.tolist() == [f"n{i}" for i in range(50)]
        batch = buf.gather(np.arange(50))
        np.testing.assert_array_equal(batch.states, np.stack([np.arange(50), rewards], 1))
        np.testing.assert_array_equal(batch.next_states, np.stack([np.arange(50) + 1, rewards], 1))
        np.testing.assert_array_equal(buf.priorities(), np.maximum(rewards, 1e-3))

    def test_sample_distribution_three_one(self):
        buf = store([3.0, 1.0], nodes=["heavy", "light"])
        rng = np.random.default_rng(42)
        idx = sample(buf, 100_000, 1.0, rng)
        freq = np.count_nonzero(buf.node_id[idx] == "heavy") / len(idx)
        assert 0.74 <= freq <= 0.76

    def test_sample_deterministic_for_fixed_seed(self):
        buf = store(0.1 * (np.arange(20) + 1))
        b1 = sample(buf, 32, 1.0, np.random.default_rng(9))
        b2 = sample(buf, 32, 1.0, np.random.default_rng(9))
        assert buf.node_id[b1].tolist() == buf.node_id[b2].tolist()

    @settings(max_examples=100, deadline=None)
    @given(rewards=arrays(np.float64, st.integers(1, 2000), elements=st.floats(0.0, 1.5)),
           omega=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
    @example(rewards=np.random.default_rng(6).uniform(0, 1.5, 5000), omega=0.5, seed=5000)
    def test_sample_matches_generator_choice(self, rewards, omega, seed):
        n = len(rewards)
        buf = store(rewards)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        p = sampling_probabilities(buf.priorities(), omega)
        for _ in range(3):
            np.testing.assert_array_equal(
                sample(buf, 128, omega, ours), ref.choice(n, 128, replace=True, p=p)
            )
            np.testing.assert_array_equal(ours.integers(0, 7, 32), ref.integers(0, 7, 32))

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample(ReplayBuffer(), 4, 1.0, np.random.default_rng(0))

    def test_allocated_pool_rejects_overfill(self):
        pool = ReplayBuffer.allocate(5, 2, 2, ["a", "bb"])
        pool.add_rollout(np.zeros((4, 2)), [0, 1, 2], [0.1, 0.2, 0.3], "a", 1, 10)
        with pytest.raises(ValueError, match="no room"):
            pool.add_rollout(np.zeros((4, 2)), [0, 1, 2], [0.1, 0.2, 0.3], "bb", 1, 10)
        pool.add_rollout(np.ones((3, 2)), [3, 4], [0.4, 0.5], "bb", 1, 10)
        assert len(pool) == 5
        assert pool.node_id.tolist() == ["a"] * 3 + ["bb"] * 2
        assert pool.terminal.tolist() == [False, False, True, False, True]
        assert pool.row.tolist() == [0, 1, 2, 4, 5]


class TestRetainTopFraction:
    def test_twenty_distinct_keeps_one(self):
        items = store(0.05 * (np.arange(20) + 1), nodes=[f"n{i:02d}" for i in range(20)])
        kept = retain_top_fraction(items, 0.05)
        assert len(kept) == 1
        assert kept.reward[0] == 1.0

    def test_all_equal_uses_tie_order(self):
        items = store(np.full(100, 0.5), nodes=[f"n{i:03d}" for i in range(100)])
        kept = retain_top_fraction(items, 0.05)
        assert kept.node_id.tolist() == [f"n{i:03d}" for i in range(5)]

    def test_matches_iterative_selection_oracle(self):
        rng = np.random.default_rng(4)
        rewards = rng.choice([0.2, 0.5, 0.8, 1.0], size=1000)
        items = store(rewards, nodes=[f"n{rng.integers(0, 50):02d}" for _ in range(1000)])
        kept = retain_top_fraction(items, 0.05)
        # oracle: repeatedly extract the max-priority item, ties by (node_id, t)
        pool = transitions(items)
        expected = []
        for _ in range(math.ceil(0.05 * len(items))):
            best = None
            for e in pool:
                if best is None:
                    best = e
                    continue
                kb = (-max(best[2], 1e-3), best[0], best[1])
                ke = (-max(e[2], 1e-3), e[0], e[1])
                if ke < kb:
                    best = e
            expected.append(best)
            pool.remove(best)
        assert transitions(kept) == expected

    def test_size_is_ceil_fraction(self):
        rng = np.random.default_rng(5)
        for n in range(1, 61):
            items = store(rng.uniform(0, 1, n))
            assert len(retain_top_fraction(items, 0.05)) == math.ceil(0.05 * n)
            assert len(retain_top_fraction(items, 0.37)) == math.ceil(0.37 * n)

    def test_result_is_subset(self):
        items = store(0.1 * np.arange(1, 30), ts=np.arange(1, 30))
        kept = retain_top_fraction(items, 0.2)
        assert set(transitions(kept)) <= set(transitions(items))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            retain_top_fraction(ReplayBuffer(), 0.05)


def fill_buffer(n=40):
    return store(np.full(n, 0.5), nodes=[f"buf{i}" for i in range(n)])


def fill_memory(n=10):
    mem = ConsolidationMemory()
    mem.add_period(1, store(np.full(n, 0.9), nodes=[f"mem{i}" for i in range(n)], period=1))
    return mem


class TestMixedBatch:
    def test_rho_zero_is_pure_buffer(self):
        batch = mixed_batch(fill_buffer(), fill_memory(), 64, 0.0, 1.0, np.random.default_rng(0))
        assert len(batch.rewards) == 64
        assert np.all(batch.rewards == 0.5)

    def test_rho_one_is_pure_memory(self):
        batch = mixed_batch(fill_buffer(), fill_memory(), 64, 1.0, 1.0, np.random.default_rng(0))
        assert len(batch.rewards) == 64
        assert np.all(batch.rewards == 0.9)

    def test_quarter_mix_counts_exact(self):
        buf, mem = fill_buffer(), fill_memory()
        for seed in range(20):
            batch = mixed_batch(buf, mem, 128, 0.25, 1.0, np.random.default_rng(seed))
            assert len(batch.rewards) == 128
            assert np.count_nonzero(batch.rewards == 0.9) == 32
            assert np.all(batch.rewards[:32] == 0.9)  # memory rows come first

    def test_empty_memory_falls_back_to_buffer(self):
        batch = mixed_batch(fill_buffer(), ConsolidationMemory(), 32, 0.5, 1.0, np.random.default_rng(0))
        assert len(batch.rewards) == 32
        assert np.all(batch.rewards == 0.5)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mixed_batch(ReplayBuffer(), fill_memory(), 8, 0.25, 1.0, np.random.default_rng(0))

    def test_batch_size_exact_for_odd_mixes(self):
        buf, mem = fill_buffer(), fill_memory()
        for b, rho in ((7, 0.3), (13, 0.5), (1, 1.0), (1, 0.0), (99, 0.77)):
            batch = mixed_batch(buf, mem, b, rho, 1.0, np.random.default_rng(1))
            assert [len(column) for column in batch] == [b] * 5


class TestConsolidationMemory:
    def test_period_bookkeeping(self):
        mem = ConsolidationMemory()
        mem.add_period(1, store([0.5], nodes=["a"], period=1))
        mem.add_period(2, store([0.5, 0.5], nodes=["b", "c"], period=2))
        assert mem.periods() == [1, 2]
        assert len(mem) == 3
        assert mem.for_period(2).node_id.tolist() == ["b", "c"]

    def test_duplicate_period_rejected(self):
        mem = ConsolidationMemory()
        mem.add_period(1, store([0.5]))
        with pytest.raises(ValueError):
            mem.add_period(1, store([0.5]))

    def test_draw_uniform_with_replacement(self):
        mem = fill_memory(3)
        drawn = mem.draw(1000, np.random.default_rng(0))
        assert len(drawn) == 1000
        assert set(mem.store.node_id[drawn].tolist()) == {"mem0", "mem1", "mem2"}


def test_memory_columns_round_trip(tmp_path):
    mem = ConsolidationMemory()
    mem.add_period(1, store(0.1 * np.arange(7), ts=np.arange(7), actions=np.arange(7) % 5))
    mem.add_period(2, store([0.3, 0.9], nodes=["x", "yy"], period=2))
    np.savez(tmp_path / "mem.npz", **mem.store.columns())
    with np.load(tmp_path / "mem.npz") as data:
        back = ReplayBuffer(**data)
    assert len(back) == len(mem) == 9
    for name, column in mem.store.columns().items():
        np.testing.assert_array_equal(getattr(back, name), column)
        assert getattr(back, name).dtype == column.dtype
    assert transitions(back) == transitions(mem.store)
