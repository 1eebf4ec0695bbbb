import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _helpers import make_dataset, make_series, memory_columns, store, traced_peak, window_table_rows
from _oracles import gather, sampling_probabilities
from flowrl.env import RewardWeights, StateAssembler, fit_discretizer
from flowrl.ingest import GeneratorConfig, generate_synthetic
from flowrl.qnet import QNetwork
from flowrl.replay import (
    COLUMNS,
    ConsolidationMemory,
    ReplayBuffer,
    Rollouts,
    assign_priority,
    mixed_batch,
    retain_top_fraction,
    sample,
)
from flowrl.trainer import (
    TrainerConfig,
    fit_period,
    generate_rollout,
    generate_training_experiences,
    init_agent,
    load_agent,
    save_agent,
)


def transitions(store):
    """(node_id, t, reward, state, next state) of every transition, as hashable tuples."""
    batch = gather(store, np.arange(len(store)))
    node_id, _, ts = store.origins()
    return [
        (str(node), int(t), float(r), tuple(s), tuple(s2))
        for node, t, r, s, s2 in zip(node_id, ts, batch.rewards, batch.states, batch.next_states)
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

    @pytest.mark.parametrize("omega", [0, 0.5, 0.7, 1, 2])
    def test_cdf_is_the_normalized_cumsum_in_one_array(self, omega):
        """The kept CDF has the bits of the cumulative sum of the sampling
        distribution rescaled by its last entry, the sampled indices depend
        on them, and building it holds little beyond the CDF itself."""
        rewards = np.random.default_rng(4).exponential(1.0, 50_000)
        rewards[::9] = 0.0  # floored
        buf = store(rewards)
        reference = sampling_probabilities(buf.priorities(), omega).cumsum()
        reference /= reference[-1]
        cdf, peak = traced_peak(lambda: buf.cdf(omega))
        assert cdf.tobytes() == reference.tobytes()
        assert peak <= 1.2 * cdf.nbytes, peak / cdf.nbytes

    def test_cdf_rejects_negative_omega(self):
        with pytest.raises(ValueError, match="omega must be >= 0"):
            sample(store([1.0, 2.0]), 4, -0.5, np.random.default_rng(0))


class TestBuffer:
    def test_memory_keeps_every_transition_in_order(self):
        rng = np.random.default_rng(3)
        rewards = rng.uniform(0, 1, 50)
        memory = ConsolidationMemory()
        for i, r in enumerate(rewards):
            memory.add_period(i + 1, store([r], nodes=[f"n{i}"], ts=[i], period=i + 1))
        assert len(memory) == 50
        batch = gather(memory, np.arange(50))
        np.testing.assert_array_equal(batch.states, window_table_rows(np.arange(50), rewards))
        np.testing.assert_array_equal(batch.next_states, window_table_rows(np.arange(50) + 1, rewards))
        np.testing.assert_array_equal(memory.priorities(), np.maximum(rewards, 1e-3))

    def test_only_an_empty_store_is_extended(self):
        pool = store([0.5, 0.25])
        buf = ReplayBuffer()
        buf.extend(pool)
        assert len(buf) == 2 and buf.steps is pool.steps and buf.reward is pool.reward
        with pytest.raises(ValueError, match="cannot extend a store of 2 transitions"):
            buf.extend(store([0.5]))

    def test_sample_distribution_three_one(self):
        buf = store([3.0, 1.0], nodes=["heavy", "light"])
        rng = np.random.default_rng(42)
        idx = sample(buf, 100_000, 1.0, rng)
        freq = np.count_nonzero(buf.origins(idx)[0] == "heavy") / len(idx)
        assert 0.74 <= freq <= 0.76

    def test_sample_deterministic_for_fixed_seed(self):
        buf = store(0.1 * (np.arange(20) + 1))
        b1 = sample(buf, 32, 1.0, np.random.default_rng(9))
        b2 = sample(buf, 32, 1.0, np.random.default_rng(9))
        assert buf.origins(b1)[0].tolist() == buf.origins(b2)[0].tolist()

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

    def test_allocated_pool_lays_out_every_rollout(self):
        """allocate sets every window start and terminal flag; rollout r
        writes its node's rows into block r of n + W rows, in any order,
        and its transitions' origins come from their window starts."""
        asm = two_node_assembler()
        disc = fit_discretizer(asm.dataset.flows_in("train"))
        net = QNetwork.initialize(asm.dim, hidden=8, seed=1)
        pools = []
        for order in ((0, 1), (1, 0)):
            pool = ReplayBuffer.allocate(["a", "bb"], 3, asm.window, 7, 2)
            assert pool.start.tolist() == [0, 1, 2, 5 + 0, 5 + 1, 5 + 2]  # n + W = 5 rows per rollout
            assert pool.terminal.tolist() == [False, False, True, False, False, True]
            for r in order:  # a generator per rollout, so the order changes no draw
                generate_rollout(asm, disc, pool, r, net, np.full(3, 0.5), np.random.default_rng(r),
                                 RewardWeights(), 0.05)
            pools.append(pool)
        pool, backwards = pools
        for name in ("steps", *COLUMNS):
            assert getattr(pool, name).tobytes() == getattr(backwards, name).tobytes(), name
        assert len(pool) == 6
        node_id, period, t = pool.origins()
        assert node_id.tolist() == ["a"] * 3 + ["bb"] * 3
        assert t.tolist() == [2, 3, 4, 2, 3, 4]
        assert period.tolist() == [7] * 6
        assert pool.degree.tolist() == [asm.degree("a")] * 3 + [asm.degree("bb")] * 3
        np.testing.assert_array_equal(pool.steps, np.concatenate([asm.rows(v, 0, 5) for v in ("a", "bb")]))
        for nodes, n, table in ((["a", "bb"], 0, (4, 6)), ([], 3, (0, 6))):  # no step, no node
            pool = ReplayBuffer.allocate(nodes, n, asm.window, 7, 2)
            assert len(pool) == 0 and pool.steps.shape == table
            assert [column.tolist() for column in pool.origins()] == [[], [], []]

    def test_allocate_holds_only_its_own_arrays(self):
        """Laying out 40 rollouts of 2,000 steps allocates the table and the
        columns, and no temporary of the pool's length (640,000 bytes for
        one int64 column): what else it holds is numpy's fixed iteration
        buffers, about 128 KiB, and one rollout's 2,000 offsets."""
        k, n, w = 40, 2_000, 6
        pool, peak = traced_peak(lambda: ReplayBuffer.allocate([f"n{r:02d}" for r in range(k)], n, w, 1, w))
        own = pool.steps.nbytes + pool.rollouts.nodes.nbytes + sum(getattr(pool, c).nbytes for c in COLUMNS)
        assert peak - own <= 256 * 1024, peak - own

    def test_empty_allocated_pool_has_no_origins(self):
        """A pool allocated for no rollout, as a period whose training split
        ends at or before W gets, holds nothing, names no origin, and goes
        into a memory as no transitions."""
        pool = ReplayBuffer.allocate([], 0, 3, 7, 3)
        assert len(pool) == 0 and pool.steps.shape == (0, 6)
        assert [column.tolist() for column in pool.origins()] == [[], [], []]
        memory = ConsolidationMemory()
        memory.add_period(7, pool)
        assert len(memory) == 0 and memory.steps.shape == (0, 6)

    def test_memory_copies_windows_out_of_the_pool(self):
        """The memory keeps each distinct row of the retained transitions'
        (6, W + 1) windows once, copied out of the period's table, with
        each transition's degree, and replays the pool's transitions
        unchanged; a pool of another period is rejected."""
        asm = two_node_assembler()
        steps = np.concatenate([asm.rows("a", 0, 10), asm.rows("bb", 0, 10)])  # t0 = W = 2
        pool = ReplayBuffer(asm.window, steps, Rollouts(np.array(["a", "bb"]), 7, 2, 8),
                            start=[5 - 2, 6 - 2, 10 + 9 - 2], degree=[1.0] * 3, action=[1, 2, 3], reward=[0.5, 0.75, 0.25],
                            terminal=[False, True, True])
        assert [column.tolist() for column in pool.origins()] == [["a", "a", "bb"], [7] * 3, [5, 6, 9]]
        memory = ConsolidationMemory()
        with pytest.raises(ValueError, match="period 8"):
            memory.add_period(8, pool)
        memory.add_period(7, pool)
        # a@3..5 and a@4..6 share two steps; bb@7..9 stands apart
        expected = np.concatenate([asm.rows("a", 3, 7), asm.rows("bb", 7, 10)])
        np.testing.assert_array_equal(memory.steps, expected)
        assert memory.start.tolist() == [0, 1, 4] and memory.degree.tolist() == [1.0, 1.0, 1.0]
        assert not np.shares_memory(memory.steps, pool.steps)
        assert transitions(memory) == transitions(pool)
        assert memory.period.tolist() == [7, 7, 7] and memory.t.tolist() == [5, 6, 9]


def two_node_assembler():
    series = {v: make_series(v, np.arange(10.0) + i) for i, v in enumerate(("a", "bb"))}
    return StateAssembler(make_dataset(7, ["a", "bb"], [("a", "bb")], series), window=2)


class TestRetainTopFraction:
    def test_twenty_distinct_keeps_one(self):
        items = store(0.05 * (np.arange(20) + 1), nodes=[f"n{i:02d}" for i in range(20)])
        kept = retain_top_fraction(items, 0.05)
        assert len(kept) == 1
        assert kept.reward[0] == 1.0

    def test_all_equal_uses_tie_order(self):
        items = store(np.full(100, 0.5), nodes=[f"n{i:03d}" for i in range(100)])
        kept = retain_top_fraction(items, 0.05)
        assert kept.origins()[0].tolist() == [f"n{i:03d}" for i in range(5)]

    def test_matches_iterative_selection_oracle(self):
        rng = np.random.default_rng(4)
        rewards = rng.choice([0.2, 0.5, 0.8, 1.0], size=1000)
        items = store(rewards, nodes=[f"n{rng.integers(0, 50):02d}" for _ in range(1000)], ts=np.arange(1000))
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

    def test_ties_break_as_lexsort_by_node_then_time(self):
        """On a pool of three distinct rewards in shuffled (node, t) order,
        the kept transitions are lexsort((t, node_id, -priority))'s first."""
        rng = np.random.default_rng(12)
        n = 3000
        items = store(rng.choice([0.0, 0.4, 1.0], size=n), ts=rng.integers(0, 60, n),
                      nodes=[f"n{i:02d}" for i in rng.integers(0, 40, n)])
        node_id, _, t = items.origins()
        order = np.lexsort((t, node_id, -items.priorities()))
        every = transitions(items)
        for fraction in (0.05, 0.3, 1.0):
            kept = retain_top_fraction(items, fraction)
            want = order[:math.ceil(fraction * n)]
            assert kept.start.tolist() == items.start[want].tolist()
            assert transitions(kept) == [every[i] for i in want]

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
        assert mem.node_id[mem.period == 2].tolist() == ["b", "c"]

    def test_duplicate_period_rejected(self):
        mem = ConsolidationMemory()
        mem.add_period(1, store([0.5]))
        with pytest.raises(ValueError):
            mem.add_period(1, store([0.5]))

    def test_origins_read_the_memory_columns(self):
        mem = ConsolidationMemory()
        assert [column.tolist() for column in mem.origins()] == [[], [], []]
        mem.add_period(1, store([0.5], nodes=["a"], ts=[4], period=1))
        mem.add_period(2, store([0.5, 0.5], nodes=["b", "c"], ts=[7, 3], period=2))
        assert [column.tolist() for column in mem.origins()] == [["a", "b", "c"], [1, 2, 2], [4, 7, 3]]
        assert [column.tolist() for column in mem.origins([2, 0])] == [["c", "a"], [2, 1], [3, 4]]

    def test_draw_uniform_with_replacement(self):
        mem = fill_memory(3)
        drawn = mem.draw(1000, np.random.default_rng(0))
        assert len(drawn) == 1000
        assert set(mem.node_id[drawn].tolist()) == {"mem0", "mem1", "mem2"}


def test_memory_columns_round_trip(tmp_path):
    mem = ConsolidationMemory()
    mem.add_period(1, store(0.1 * np.arange(7), ts=np.arange(7), actions=np.arange(7) % 5))
    mem.add_period(2, store([0.3, 0.9], nodes=["x", "yy"], period=2))
    np.savez(tmp_path / "mem.npz", **memory_columns(mem))
    with np.load(tmp_path / "mem.npz") as data:
        back = ConsolidationMemory(mem.window, **data)
    assert len(back) == len(mem) == 9
    for name, column in memory_columns(mem).items():
        np.testing.assert_array_equal(getattr(back, name), column)
        assert getattr(back, name).dtype == column.dtype
    assert transitions(back) == transitions(mem)


def test_add_period_copies_rows_not_windows():
    """Retaining the top 5% of a 120-sensor, 400-step period copies each
    table row of their windows once, and nothing window by window: the
    memory's add_period holds at most 3x the bytes it adds (one copied
    (6, W + 1) window per transition held 6.4x)."""
    config = GeneratorConfig(periods=1, initial_nodes=120, growth_per_period=0, steps_per_period=400,
                             noise_sigma=2.0, phase_jitter_steps=20.0)
    ds = generate_synthetic(config, 5)[0]
    disc, asm = fit_period(ds, 12)
    net = QNetwork.initialize(asm.dim, hidden=16, seed=1)
    pool = generate_training_experiences(ds, ds.nodes, net, TrainerConfig(window=12), RewardWeights(),
                                         asm, disc, np.random.default_rng(0))
    retained = retain_top_fraction(pool, 0.05)
    assert pool.steps.shape == (120 * (228 + 12), 6)  # a block of n + W rows per rollout
    memory = ConsolidationMemory()
    _, peak = traced_peak(lambda: memory.add_period(ds.period, retained))
    added = sum(column.nbytes for column in memory_columns(memory).values())
    assert len(memory) == len(retained) > 1000
    assert peak <= 3 * added, peak / added


class StepTable:
    """One period's step table for the memory property test: key
    i * (T + 1) + t is node i at time t, and row key of `steps` holds the
    random channels values[i, :, t]. `windows` is the oracle's gather: the
    window of a key reads the steps t - W .. t of node i one step at a
    time."""

    def __init__(self, period, values, degree, window):
        self.values, self._degree, self.period, self.window = values, degree, period, window
        self.steps = values.transpose(0, 2, 1).reshape(-1, 6)

    def degree(self, keys):
        return self._degree[keys // self.values.shape[2]]

    def windows(self, keys):
        out = np.empty((len(keys), 6, self.window + 1))
        for k, key in enumerate(keys):
            node, t = divmod(int(key), self.values.shape[2])
            for j in range(self.window + 1):
                out[k, :, j] = self.values[node, :, t - self.window + j]
        return out, self.degree(keys)


class WindowMemory:
    """The oracle of ConsolidationMemory: one copied (6, W + 1) window per
    retained transition, with no steps shared."""

    def __init__(self):
        self.parts = []

    def add_period(self, table, retained):
        columns = (retained.action, retained.reward, retained.terminal)
        self.parts.append((*table.windows(retained.start + retained.window), *columns))

    def __len__(self):
        return sum(len(part[1]) for part in self.parts)

    def window_columns(self, idx):
        return tuple(np.concatenate(column)[idx] for column in zip(*self.parts))

    def draw(self, count, rng):
        return rng.integers(0, len(self), size=count)


@st.composite
def retained_periods(draw):
    """W, then per period a StepTable and a retained pool over its table,
    in which node i's block starts at its row W - W = 0: a random subset of
    the period's transitions in random order, so that windows overlap,
    touch and lie apart."""
    window = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods = []
    for period in range(1, draw(st.integers(1, 3)) + 1):
        nodes, length = draw(st.integers(1, 3)), window + draw(st.integers(1, 12))
        table = StepTable(period, rng.random((nodes, 6, length + 1)), rng.random(nodes), window)
        keys = [i * (length + 1) + t for i in range(nodes) for t in range(window, length)]
        keys = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        keys, n = np.array(keys), len(keys)
        layout = Rollouts(np.array([f"n{i}" for i in range(nodes)]), period, window, length + 1 - window)
        retained = ReplayBuffer(window, table.steps, layout, start=keys - window, degree=table.degree(keys),
                                action=rng.integers(0, 5, n), reward=rng.random(n),
                                terminal=rng.random(n) < 0.2)
        periods.append((period, table, retained))
    return window, periods


def assert_bitwise_equal(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(retained_periods(), st.integers(0, 2**32 - 1))
def test_step_table_memory_matches_one_window_per_transition(drawn, seed):
    """The memory's windows, and the mixed batches built from them, equal
    those of a memory that copies one window per transition, bit for bit,
    before and after a checkpoint round trip."""
    window, periods = drawn
    memory, oracle = ConsolidationMemory(), WindowMemory()
    for period, table, retained in periods:
        memory.add_period(period, retained)
        oracle.add_period(table, retained)
    rng = np.random.default_rng(seed)
    idx = np.concatenate([np.arange(len(oracle)), rng.integers(0, len(oracle), 50)])
    buffer = periods[-1][2]
    agent = init_agent(TrainerConfig(window=window, hidden=4))
    agent.memory = memory
    with tempfile.TemporaryDirectory() as tmp:
        save_agent(agent, Path(tmp) / "agent.npz")
        loaded = load_agent(Path(tmp) / "agent.npz").memory
    for got in (memory, loaded):
        assert len(got) == len(oracle)
        assert_bitwise_equal(got.window_columns(idx), oracle.window_columns(idx))
        for rho in (0.25, 1.0):
            assert_bitwise_equal(mixed_batch(buffer, got, 32, rho, 1.0, np.random.default_rng(seed)),
                                 mixed_batch(buffer, oracle, 32, rho, 1.0, np.random.default_rng(seed)))
