import dataclasses
import gc
import math
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import _mdp
from _oracles import (
    build_state,
    compute_reward,
    evaluate_period_per_horizon,
    forward,
    gather,
    predict_horizon,
    tabular_q_update,
    td_target,
)
from _helpers import make_dataset, make_series, traced_peak
from flowrl.env import Calibration, RewardWeights, StateAssembler, classify, fit_discretizer, state_dim
from flowrl.replay import ConsolidationMemory, ReplayBuffer, mixed_batch, retain_top_fraction, sample
from flowrl.drift import DriftConfig
from flowrl.ingest import GeneratorConfig, generate_synthetic
from flowrl.qnet import QNetwork, apply_update, forward_batch, init_optimizer, loss_and_gradients, param_views
from flowrl.trainer import (
    AgentState,
    TrainerConfig,
    epsilon_schedule,
    generate_rollout,
    generate_training_experiences,
    init_agent,
    load_agent,
    evaluate_period,
    fit_period,
    predict_horizon_block,
    run_continual,
    run_full_retrain,
    run_period,
    save_agent,
    td_targets,
    train_on_buffer,
)


class TestTdTarget:
    def test_gamma_zero_returns_reward(self):
        assert td_target(0.7, [5.0, 9.0], 0.0, False) == 0.7

    def test_terminal_ignores_next_q(self):
        assert td_target(0.3, [100.0, 200.0, 0.0, 0.0, 0.0], 0.9, True) == 0.3

    def test_bootstrap_example(self):
        assert td_target(1.0, [0.0, 2.0, 1.0, 0.0, 0.0], 0.5, False) == 2.0

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(0)
        rewards = rng.uniform(0, 1, 40)
        next_qs = rng.standard_normal((40, 5))
        terminals = rng.random(40) < 0.3
        got = td_targets(rewards, next_qs, 0.5, terminals)
        for i in range(40):
            assert got[i] == td_target(rewards[i], next_qs[i], 0.5, bool(terminals[i]))


class TestTabular:
    def test_single_backup_full_step(self):
        q = np.zeros((2, 2))
        tabular_q_update(q, 0, 1, 1.0, 1, alpha=1.0, gamma=0.0)
        assert q[0, 1] == 1.0

    def test_fixed_point_unchanged(self):
        q = _mdp.analytic_q()
        before = q.copy()
        for s, a, r, nxt, _ in _mdp.all_transitions():
            tabular_q_update(q, s, a, r, nxt, alpha=0.5, gamma=_mdp.GAMMA)
        np.testing.assert_allclose(q, before, atol=1e-12)

    def test_two_state_chain_converges_to_hand_solution(self):
        # state 0 with actions stay/go; go reaches the absorbing state with
        # reward 1. By hand: Q(0,go) = 1, Q(0,stay) = gamma * max Q(0,.) = 0.5.
        rng = np.random.default_rng(1)
        q = np.zeros((2, 2))
        for _ in range(2000):
            a = int(rng.integers(0, 2))
            if a == 1:
                tabular_q_update(q, 0, 1, 1.0, 1, alpha=0.5, gamma=0.5)
            else:
                tabular_q_update(q, 0, 0, 0.0, 0, alpha=0.5, gamma=0.5)
        np.testing.assert_allclose(q[0], [0.5, 1.0], atol=1e-3)
        assert np.all(q[1] == 0)


class TestEpsilonSchedule:
    CFG = TrainerConfig(eps_start=1.0, eps_end=0.05, eps_decay_steps=100)

    def test_endpoints_and_linearity(self):
        eps = epsilon_schedule(np.array([0, 50, 100, 500]), self.CFG)
        assert eps[0] == 1.0
        assert abs(eps[1] - 0.525) < 1e-12
        assert eps[2] == 0.05
        assert eps[3] == 0.05


def diurnal_dataset(seed=0, nodes=6, steps=200, period=1, noise=2.0, jitter=20.0):
    cfg = GeneratorConfig(
        periods=period, initial_nodes=nodes, growth_per_period=0,
        steps_per_period=steps, noise_sigma=noise, phase_jitter_steps=jitter,
    )
    return generate_synthetic(cfg, seed)[period - 1]


def rollout_fixture(eps=0.0, seed=3):
    ds = diurnal_dataset()
    asm = StateAssembler(ds, window=6)
    disc = fit_discretizer(ds.flows_in("train"))
    node = sorted(ds.series)[0]
    lo, hi = ds.splits.train
    n = hi - max(6, lo)
    net = QNetwork.initialize(asm.dim, hidden=16, seed=1)
    rng = np.random.default_rng(seed)
    pool = ReplayBuffer.allocate([node], n, 6, ds.period, max(6, lo))
    return generate_rollout(
        asm, disc, node, "train", net, np.full(n, eps), rng, RewardWeights(), 0.05, pool
    ), ds


class TestRollouts:
    def test_chain_property(self):
        rollout, ds = rollout_fixture(eps=0.3)
        exps = rollout.experiences
        assert len(exps) > 0
        batch = gather(exps, np.arange(len(exps)))
        np.testing.assert_array_equal(batch.next_states[:-1], batch.states[1:])
        ts = exps.origins()[2]
        assert np.all(np.diff(ts) == 1)
        for k in (0, len(exps) - 1):
            np.testing.assert_array_equal(batch.states[k], build_state(ds, rollout.node_id, ts[k], 6))
            np.testing.assert_array_equal(batch.next_states[k],
                                          build_state(ds, rollout.node_id, ts[k] + 1, 6))

    def test_terminal_only_on_last(self):
        rollout, _ = rollout_fixture(eps=0.3)
        flags = rollout.experiences.terminal.tolist()
        assert flags[-1] is True
        assert not any(flags[:-1])

    def test_greedy_rollout_deterministic(self):
        r1, _ = rollout_fixture(eps=0.0, seed=1)
        r2, _ = rollout_fixture(eps=0.0, seed=999)  # rng irrelevant at eps=0
        assert r1.experiences.action.tolist() == r2.experiences.action.tolist()
        assert r1.experiences.reward.tolist() == r2.experiences.reward.tolist()

    def test_rewards_match_scalar_recomputation(self):
        rollout, ds = rollout_fixture(eps=0.5)
        disc = fit_discretizer(ds.flows_in("train"))
        asm = StateAssembler(ds, window=6)
        exps = rollout.experiences
        node_id, _, ts = exps.origins(slice(20))
        for node, t, action, reward in zip(node_id, ts, exps.action[:20], exps.reward[:20]):
            actual = int(classify(disc, ds.series[node].flow[t]))
            speed_norm = float(np.clip(ds.series[node].speed[t] / asm.calibration.speed_max, 0.0, 1.0))
            occ = float(ds.series[node].occupancy[t])
            assert reward == compute_reward(int(action), actual, speed_norm, occ, RewardWeights())


class TestPredictHorizon:
    def setup_method(self):
        self.ds = diurnal_dataset(seed=5)
        self.disc = fit_discretizer(self.ds.flows_in("train"))
        self.asm = StateAssembler(self.ds, window=6)
        self.net = QNetwork.initialize(self.asm.dim, hidden=16, seed=2)
        self.node = sorted(self.ds.series)[0]

    def test_h1_equals_greedy_one_step(self):
        t = 30
        classes, flows = predict_horizon(
            self.net, self.ds, self.node, t, 1, self.disc, window=6,
            calibration=self.asm.calibration,
        )
        s = self.asm.states(self.node, [t])[0]
        expected = int(np.argmax(forward(self.net, s)))
        assert classes.shape == (1,) and flows.shape == (1,)
        assert classes[0] == expected
        assert flows[0] == self.disc.representatives[expected]

    def test_h12_length(self):
        classes, flows = predict_horizon(
            self.net, self.ds, self.node, 40, 12, self.disc, window=6,
            calibration=self.asm.calibration,
        )
        assert classes.shape == (12,)
        assert flows.shape == (12,)

    def test_block_matches_singles(self):
        anchors = np.array([10, 17, 40])
        blk_cls, blk_flow = predict_horizon_block(
            self.net, self.asm, self.disc, self.node, anchors, 5
        )
        for i, t in enumerate(anchors):
            cls, flow = predict_horizon(
                self.net, self.ds, self.node, int(t), 5, self.disc, window=6,
                calibration=self.asm.calibration,
            )
            np.testing.assert_array_equal(blk_cls[i], cls)
            np.testing.assert_array_equal(blk_flow[i], flow)

    def test_repeated_anchors_roll_out_once(self, monkeypatch):
        import flowrl.trainer as trainer_mod

        real_forward = trainer_mod.forward_batch
        rows = []

        def counting_forward(net, states, frozen=None):
            rows.append(states.shape[0])
            return real_forward(net, states, frozen)

        monkeypatch.setattr(trainer_mod, "forward_batch", counting_forward)
        anchors = np.array([40, 10, 40, 17, 10])
        blk_cls, blk_flow = predict_horizon_block(
            self.net, self.asm, self.disc, self.node, anchors, 5
        )
        assert rows == [3] * 5
        assert blk_cls.shape == blk_flow.shape == (5, 5)
        for i, t in enumerate(anchors):
            cls, flow = predict_horizon(
                self.net, self.ds, self.node, int(t), 5, self.disc, window=6,
                calibration=self.asm.calibration,
            )
            np.testing.assert_array_equal(blk_cls[i], cls)
            np.testing.assert_array_equal(blk_flow[i], flow)

    def test_steps_read_sliding_views_of_one_history(self, monkeypatch):
        """Each step's own windows are a view one time slot further into
        one history buffer: no step copies or shifts a window."""
        import flowrl.trainer as trainer_mod

        real_forward = trainer_mod.forward_batch
        owns = []

        def recording_forward(net, states, frozen=None):
            owns.append(states)
            return real_forward(net, states, frozen)

        monkeypatch.setattr(trainer_mod, "forward_batch", recording_forward)
        anchors = np.array([40, 10, 17, 33])
        n, horizon = len(anchors), 6
        predict_horizon_block(self.net, self.asm, self.disc, self.node, anchors, horizon)
        assert len(owns) == horizon
        base = owns[0].__array_interface__["data"][0]
        for j, own in enumerate(owns):
            assert own.shape == (n, 3 * 6)
            assert np.shares_memory(own, owns[0])
            assert own.__array_interface__["data"][0] - base == j * 3 * n * 8

    def test_zero_net_forecasts_class_zero(self):
        for dueling in (True, False):
            net = QNetwork.initialize(self.asm.dim, hidden=16, seed=3, dueling=dueling)
            net.theta[:] = 0.0  # every Q-value ties, so each step takes the lowest class
            anchors = np.array([40, 10, 17, 40])
            classes, flows = predict_horizon_block(net, self.asm, self.disc, self.node, anchors, 7)
            np.testing.assert_array_equal(classes, np.zeros((4, 7), dtype=int))
            np.testing.assert_array_equal(flows, np.full((4, 7), self.disc.representatives[0]))

    def test_too_little_history_rejected(self):
        with pytest.raises(ValueError, match="history"):
            predict_horizon_block(self.net, self.asm, self.disc, self.node, np.array([2]), 3)


def period_pool(ds, window=6, seed=4):
    """A pool of every node's training rollout over ds."""
    cfg = TrainerConfig(window=window)
    asm = StateAssembler(ds, window=window)
    net = QNetwork.initialize(asm.dim, hidden=16, seed=seed)
    return generate_training_experiences(ds, ds.nodes, net, cfg, RewardWeights(), asm,
                                         fit_discretizer(ds.flows_in("train")),
                                         np.random.default_rng(seed))


class TestKeyedPool:
    def test_mixed_batch_rows_equal_oracle_states(self):
        """Every row of a mixed batch holds the oracle's states of its
        transition: memory rows from the retained period-1 transitions,
        buffer rows from the period-2 pool, terminal rows included, whose
        next state is at the end of the training split."""
        dss = generate_synthetic(GeneratorConfig(periods=2, initial_nodes=3, growth_per_period=1,
                                                 steps_per_period=60, noise_sigma=2.0), 5)
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=4, hidden=16)
        agent = init_agent(cfg, seed=0)
        run_period(None, dss[0], agent, cfg, RewardWeights(), seed=0)
        pool = period_pool(dss[1], window=4)
        memory = agent.memory
        n = dss[1].splits.train[1] - 4
        assert len(memory) > 0 and pool.steps.shape == (len(dss[1].nodes) * (n + 4), 6)
        assert memory.window == 4 and memory.steps.shape[1] == 6
        n_memory, size, omega = 128, 512, 0.0
        batch = mixed_batch(pool, memory, size, n_memory / size, omega, np.random.default_rng(8))
        replay = np.random.default_rng(8)
        mem_idx = memory.draw(n_memory, replay)
        buf_idx = sample(pool, size - n_memory, omega, replay)
        by_period = {ds.period: ds for ds in dss}
        rows = [(memory, i) for i in mem_idx] + [(pool, i) for i in buf_idx]
        hi = dss[1].splits.train[1]
        ends = 0
        for k, (store, i) in enumerate(rows):
            if store is pool:
                (node,), (period,), (t,) = pool.origins([i])
            else:
                node, period, t = memory.node_id[i], memory.period[i], memory.t[i]
            ds = by_period[int(period)]
            np.testing.assert_array_equal(batch.states[k], build_state(ds, str(node), int(t), 4))
            np.testing.assert_array_equal(batch.next_states[k], build_state(ds, str(node), int(t) + 1, 4))
            assert batch.actions[k] == store.action[i] and batch.rewards[k] == store.reward[i]
            assert batch.terminals[k] == store.terminal[i]
            if store is pool and store.terminal[i]:
                assert t + 1 == hi
                ends += 1
        assert set(memory.period[mem_idx].tolist()) == {1}
        assert ends > 0

    def test_memory_states_equal_assembler_and_oracle_states(self):
        """Every retained transition of a run_period gathers, from the
        memory's step table, the state and next state that its period's
        assembler builds at t and t + 1, bit for bit, and that the oracle
        builds from the dataset's values."""
        dss = generate_synthetic(GeneratorConfig(periods=2, initial_nodes=3, growth_per_period=1,
                                                 steps_per_period=60, noise_sigma=2.0), 9)
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=4,
                            consolidation_fraction=0.2, hidden=16)
        agent = init_agent(cfg, seed=0)
        for prev, curr in zip([None, *dss], dss):
            run_period(prev, curr, agent, cfg, RewardWeights(), seed=0, drift_cfg=DriftConfig(fraction=1.0))
        memory = agent.memory
        assert memory.periods() == [1, 2]
        assert len(memory.steps) < len(memory) * (4 + 1)  # neighbouring windows share steps
        batch = gather(memory, np.arange(len(memory)))
        for k in range(len(memory)):
            ds = dss[int(memory.period[k]) - 1]
            node, t = str(memory.node_id[k]), int(memory.t[k])
            asm = StateAssembler(ds, window=4)
            np.testing.assert_array_equal(batch.states[k], asm.states(node, [t])[0])
            np.testing.assert_array_equal(batch.next_states[k], asm.states(node, [t + 1])[0])
            np.testing.assert_array_equal(batch.states[k], build_state(ds, node, t, 4))
            np.testing.assert_array_equal(batch.next_states[k], build_state(ds, node, t + 1, 4))

    def test_period_pool_holds_at_most_100_bytes_per_transition(self):
        """The pool keeps window starts, not state rows: what building it
        and its sampling distribution leaves allocated besides its own step
        table, a block of n + W rows per rollout, is at most 100 bytes per
        transition (a materialized 73-float state row alone is 584)."""
        ds = diurnal_dataset(nodes=6, steps=400)
        cfg = TrainerConfig(window=12)
        asm = StateAssembler(ds, window=12)
        disc = fit_discretizer(ds.flows_in("train"))
        net = QNetwork.initialize(asm.dim, hidden=16, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pool = generate_training_experiences(ds, ds.nodes, net, cfg, RewardWeights(), asm, disc,
                                                 np.random.default_rng(0))
            pool.cdf(cfg.sampling_omega)
            held = tracemalloc.get_traced_memory()[0] - before - pool.steps.nbytes
        finally:
            tracemalloc.stop()
        assert len(pool) == 6 * (240 - 12)
        assert pool.steps.shape == (len(ds.nodes) * (240 - 12 + 12), 6)
        assert held / len(pool) <= 100, f"{held / len(pool):.0f} bytes per transition"

    def test_pools_of_several_periods_chain_their_keys(self):
        """A memory of the pools of several periods puts the window rows of
        each period's table after the last, and its window starts with
        them: it gathers the same states as each pool alone."""
        dss = generate_synthetic(GeneratorConfig(periods=3, initial_nodes=3, growth_per_period=1,
                                                 steps_per_period=50, noise_sigma=2.0), 6)
        pools = [period_pool(ds) for ds in dss]
        chained = ConsolidationMemory()
        for ds, pool in zip(dss, pools):
            chained.add_period(ds.period, pool)
        assert len(chained) == sum(map(len, pools))
        rows = [np.unique(pool.start[:, None] + np.arange(pool.window + 1)) for pool in pools]
        np.testing.assert_array_equal(chained.steps, np.concatenate([p.steps[r] for p, r in zip(pools, rows)]))
        idx = np.random.default_rng(0).permutation(len(chained))
        batch = gather(chained, idx)
        start = np.cumsum([0] + [len(p) for p in pools])
        for k, i in enumerate(idx):
            p = int(np.searchsorted(start, i, side="right")) - 1
            alone = gather(pools[p], [i - start[p]])
            np.testing.assert_array_equal(batch.states[k], alone.states[0])
            np.testing.assert_array_equal(batch.next_states[k], alone.next_states[0])
        first = idx[idx < start[1]][:7]
        kept = pools[0].subset(first)
        assert kept.steps is pools[0].steps
        np.testing.assert_array_equal(gather(kept, np.arange(7)).states, gather(chained, first).states)


def test_period_pool_holds_only_its_candidates_rows(monkeypatch):
    """From period 2 on, the pool's step table holds one block of n + W
    rows per drift candidate, its node's rows over [t0 - W, hi) of the
    training split, and no row of any other node (a table of every node
    over the whole period held N * (T + 1) rows)."""
    import flowrl.trainer as trainer_mod

    dss = generate_synthetic(GeneratorConfig(periods=2, initial_nodes=20, growth_per_period=2,
                                             steps_per_period=120, noise_sigma=2.0), 3)
    real, pools = trainer_mod.generate_training_experiences, []

    def keep(*args):
        pools.append(real(*args))
        return pools[-1]

    monkeypatch.setattr(trainer_mod, "generate_training_experiences", keep)
    cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=4, hidden=8)
    agent = init_agent(cfg, seed=0)
    reports = [run_period(prev, curr, agent, cfg, RewardWeights(), seed=0, drift_cfg=DriftConfig(fraction=0.1))
               for prev, curr in zip([None, *dss], dss)]
    ds, pool, candidates = dss[1], pools[1], sorted(reports[1].candidates)
    lo, hi = ds.splits.train
    n = hi - max(4, lo)
    assert 0 < len(candidates) < len(ds.nodes)
    assert pool.steps.shape == (len(candidates) * (n + 4), 6)
    assert pool.rollouts.nodes.tolist() == candidates
    asm = StateAssembler(ds, window=4)
    blocks = pool.steps.reshape(len(candidates), n + 4, 6)
    for v in ds.nodes:
        rows = asm.rows(v, hi - n - 4, hi)
        held = [k for k, block in enumerate(blocks) if np.array_equal(block, rows)]
        assert held == ([candidates.index(v)] if v in candidates else []), v


def test_full_retrain_takes_a_period_too_short_to_train():
    """A period whose training split ends at or before W gives an empty
    pool: the retrain baseline pools it as no transitions, still scores
    that period, and trains the next on the later period's alone."""
    def period(p, length):
        t = np.arange(length)
        series = {f"v{i}": make_series(f"v{i}", (t * 7 + i * 13) % 100 + 1.0) for i in range(3)}
        return make_dataset(p, list(series), [("v0", "v1")], series)

    short, long = period(1, 20), period(2, 60)  # training splits [0, 12) and [0, 36)
    cfg = TrainerConfig(epochs=1, batch_size=16, horizons=(1,), window=12, hidden=4)
    reports, touched = run_full_retrain([short, long], cfg, RewardWeights(), seed=0)
    assert [r.experiences_generated for r in reports] == [0, 3 * (36 - 12)]
    assert touched == 3 * (36 - 12) and reports[0].epoch_losses == []
    assert all(set(r.metrics) == {"val", "test"} and 1 in r.metrics["test"] for r in reports)


def constant_flow_dataset():
    # one constant-flow node among varied neighbors, so the pooled training
    # flows still give the discretizer five distinct, untied quantiles
    t = np.arange(60)
    series = {"flat": make_series("flat", np.full(60, 50.0))}
    for i in range(5):
        series[f"vary{i}"] = make_series(f"vary{i}", (t * 7 + i * 13) % 100)
    return make_dataset(1, list(series), [("flat", "vary0")], series)


def test_converged_net_predicts_constant_flow_class():
    ds = constant_flow_dataset()
    cfg = TrainerConfig(
        epochs=60, batch_size=16, learning_rate=0.01, horizons=(1, 3), window=4,
        eps_start=1.0, eps_end=0.2, eps_decay_steps=40, gamma=0.1,
    )
    agent, _ = run_continual([ds], cfg, RewardWeights(), seed=4)
    disc = fit_discretizer(ds.flows_in("train"))
    true_class = int(classify(disc, 50.0))
    classes, _ = predict_horizon(agent.net, ds, "flat", 40, 6, disc, window=4)
    assert np.all(classes == true_class)


class TestRunPeriod:
    def test_first_period_all_nodes_are_candidates(self):
        ds = diurnal_dataset(seed=6, steps=120)
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=6, hidden=16)
        agent = init_agent(cfg, seed=0)
        report = run_period(None, ds, agent, cfg, RewardWeights(), seed=0)
        assert report.candidates == tuple(sorted(ds.series))
        assert report.experiences_generated > 0
        assert set(report.per_node_test_mae) == set(ds.series)

    def test_identical_periods_fraction_zero_trains_nothing(self):
        ds1 = diurnal_dataset(seed=7, steps=120, period=1)
        series = {k: make_series(k, s.flow, s.speed, s.occupancy) for k, s in ds1.series.items()}
        ds2 = make_dataset(2, sorted(ds1.snapshot.nodes), sorted(ds1.snapshot.edges), series)
        cfg = TrainerConfig(epochs=2, batch_size=32, horizons=(1,), window=6, hidden=16)
        agent = init_agent(cfg, seed=0)
        run_period(None, ds1, agent, cfg, RewardWeights(), seed=0)
        report = run_period(ds1, ds2, agent, cfg, RewardWeights(), seed=0,
                            drift_cfg=DriftConfig(fraction=0.0))
        assert report.candidates == ()
        assert report.experiences_generated == 0
        assert report.updates == 0
        # evaluation still covers every node at every horizon
        assert set(report.per_node_test_mae) == set(ds2.series)
        assert 1 in report.metrics["test"]

    def test_consolidation_memory_grows_per_period(self):
        cfg_gen = GeneratorConfig(periods=2, initial_nodes=5, growth_per_period=1,
                                  steps_per_period=120, noise_sigma=2.0)
        dss = generate_synthetic(cfg_gen, 8)
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=6,
                            consolidation_fraction=0.05)
        agent, reports = run_continual(dss, cfg, RewardWeights(), seed=1)
        assert agent.memory.periods() == [1, 2]
        import math
        for report in reports:
            expected = math.ceil(0.05 * report.experiences_generated)
            assert int(np.sum(agent.memory.period == report.period)) == expected

    def test_report_dict_has_no_timings(self):
        ds = diurnal_dataset(seed=9, steps=120)
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=6, hidden=16)
        agent = init_agent(cfg, seed=0)
        report = run_period(None, ds, agent, cfg, RewardWeights(), seed=0)
        payload = report.to_report_dict()
        assert "timings" not in payload
        assert report.timings["total_seconds"] > 0
        timing = report.to_timings_dict()
        assert set(timing) >= {"period", "total_seconds", "per_epoch_seconds"}



def test_agent_checkpoint_round_trip(tmp_path):
    ds = diurnal_dataset(seed=11, steps=120)
    cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=6)
    agent, _ = run_continual([ds], cfg, RewardWeights(), seed=2)
    path = tmp_path / "agent.npz"
    save_agent(agent, path)
    loaded = load_agent(path)
    np.testing.assert_array_equal(loaded.net.theta, agent.net.theta)
    np.testing.assert_array_equal(loaded.opt.m, agent.opt.m)
    np.testing.assert_array_equal(loaded.opt.v, agent.opt.v)
    assert loaded.opt.m.shape == loaded.opt.v.shape == loaded.net.theta.shape
    for name, p in param_views(loaded.net.theta, 37, 64).items():
        assert np.shares_memory(getattr(loaded.net, name), loaded.net.theta), name
        np.testing.assert_array_equal(p, getattr(agent.net, name))
    with np.load(path) as data:
        opt_keys = sorted(k for k in data.files if k.startswith(("opt_m_", "opt_v_")))
        assert len(opt_keys) == 16
        m = param_views(agent.opt.m, 37, 64)
        v = param_views(agent.opt.v, 37, 64)
        for key in opt_keys:
            moments = m if key.startswith("opt_m_") else v
            np.testing.assert_array_equal(data[key], moments[key[len("opt_m_"):]], err_msg=key)
    assert loaded.opt.step == agent.opt.step
    assert loaded.updates == agent.updates
    assert len(loaded.memory) == len(agent.memory) > 0
    for name, column in agent.memory.columns().items():
        np.testing.assert_array_equal(getattr(loaded.memory, name), column)
    with np.load(path) as data:
        assert int(data["version"]) == 4
        assert not [key for key in data.files if key.startswith("buf_")]
    s = np.linspace(0, 1, agent.net.input_dim)
    np.testing.assert_array_equal(forward(agent.net, s), forward(loaded.net, s))


def test_period_working_set_is_freed_when_it_returns(monkeypatch):
    """The agent holds only what save_agent writes, so once run_period
    returns nothing keeps that period's pool, the state table it keys
    into or its training workspace alive: weak references to its
    assembler and its workspace are dead. The pool is gone already when
    evaluation starts."""
    import flowrl.trainer as trainer_mod

    assemblers, workspaces, pools, pool_alive_at_eval = [], [], [], []
    real_fit_period = trainer_mod.fit_period
    real_workspace = trainer_mod.Workspace
    real_train, real_evaluate = trainer_mod.train_on_buffer, trainer_mod.evaluate_period

    def recording_fit_period(dataset, window):
        discretizer, assembler = real_fit_period(dataset, window)
        assemblers.append(weakref.ref(assembler))
        return discretizer, assembler

    def recording_workspace(*args):
        work = real_workspace(*args)
        workspaces.append(weakref.ref(work))
        return work

    def recording_train(agent, pool, *args):
        pools.append(weakref.ref(pool))
        return real_train(agent, pool, *args)

    def checking_evaluate(*args):
        gc.collect()
        pool_alive_at_eval.append(pools[0]() is not None)
        return real_evaluate(*args)

    monkeypatch.setattr(trainer_mod, "fit_period", recording_fit_period)
    monkeypatch.setattr(trainer_mod, "Workspace", recording_workspace)
    monkeypatch.setattr(trainer_mod, "train_on_buffer", recording_train)
    monkeypatch.setattr(trainer_mod, "evaluate_period", checking_evaluate)
    ds = diurnal_dataset(seed=11, steps=120)
    cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=6, hidden=16)
    agent = init_agent(cfg, seed=0)
    run_period(None, ds, agent, cfg, RewardWeights(), seed=0)
    gc.collect()
    assert agent.updates > 0 and len(agent.memory) > 0  # replay read the table
    assert len(assemblers) == 1 and len(workspaces) == 1
    assert assemblers[0]() is None and workspaces[0]() is None
    assert pool_alive_at_eval == [False]
    assert [f.name for f in dataclasses.fields(AgentState)] == ["net", "opt", "memory", "updates"]


def reference_training(agent, pool, cfg, rng):
    """train_on_buffer's epochs as the same five calls without a workspace,
    each on fresh arrays, the target re-synced by a copy of the net."""
    batches = math.ceil(len(pool) / cfg.batch_size)
    target = agent.net.copy()
    epoch_losses = []
    for _ in range(cfg.epochs):
        losses = np.empty(batches)
        for b in range(batches):
            states, actions, rewards, next_states, terminals = mixed_batch(
                pool, agent.memory, cfg.batch_size, cfg.mix_rho, cfg.sampling_omega, rng)
            next_q = forward_batch(target if cfg.use_target_network else agent.net, next_states)
            targets = td_targets(rewards, next_q, cfg.gamma, terminals)
            losses[b], grad = loss_and_gradients(agent.net, states, actions, targets)
            apply_update(agent.net, grad, agent.opt)
            agent.updates += 1
            if cfg.use_target_network and agent.updates % cfg.sync_interval == 0:
                target = agent.net.copy()
        epoch_losses.append(float(losses.mean()))
    return epoch_losses


def pool_and_memory(window, with_memory):
    """Period 2's pool, and a memory holding period 1's top fifth or nothing."""
    pool = period_pool(diurnal_dataset(seed=21, period=2), window=window)
    memory = ConsolidationMemory()
    if with_memory:
        memory.add_period(1, retain_top_fraction(period_pool(diurnal_dataset(seed=22), window=window), 0.2))
    return pool, memory


@pytest.mark.parametrize("target", [True, False])
@pytest.mark.parametrize("with_memory", [True, False])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("dueling", [True, False])
def test_workspace_training_matches_fresh_arrays(dueling, optimizer, with_memory, target):
    """train_on_buffer, whose updates share one workspace, gives the bytes
    of the reference loop: losses, parameters, optimizer moments and step,
    and the generator's state, over more than 600 updates and a target
    sync."""
    pool, memory = pool_and_memory(4, with_memory)
    cfg = TrainerConfig(batch_size=16, epochs=14, window=4, use_target_network=target, hidden=8,
                        dueling=dueling, optimizer=optimizer)
    assert cfg.epochs * math.ceil(len(pool) / cfg.batch_size) > max(600, cfg.sync_interval)
    agents = [init_agent(cfg, seed=3) for _ in range(2)]
    for agent in agents:
        agent.memory = memory
    rngs = [np.random.default_rng(9) for _ in agents]
    got = train_on_buffer(agents[0], pool, cfg, rngs[0], 2)
    want = reference_training(agents[1], pool, cfg, rngs[1])
    assert np.array(got).tobytes() == np.array(want).tobytes()
    mine, ref = agents
    assert mine.updates == ref.updates and mine.opt.step == ref.opt.step
    for a, b in ((mine.net.theta, ref.net.theta), (mine.opt.m, ref.opt.m), (mine.opt.v, ref.opt.v)):
        assert a.tobytes() == b.tobytes()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_training_update_allocates_less_than_two_activation_blocks(monkeypatch):
    """After a warm-up update, one update of train_on_buffer allocates at
    most 2 x batch x hidden floats beyond what it held when it started: the
    batch, the activations, the gradient and the optimizer's temporaries
    are written into the training phase's workspace."""
    import flowrl.trainer as trainer_mod

    batch, hidden, window = 128, 64, 12
    pool, memory = pool_and_memory(window, with_memory=True)
    cfg = TrainerConfig(batch_size=batch, epochs=1, window=window, hidden=hidden)
    agent = init_agent(cfg, seed=0)
    agent.memory = memory
    assert math.ceil(len(pool) / batch) >= 3
    readings = []  # (traced bytes, peak since the last reading) as each update starts
    real_mixed_batch = trainer_mod.mixed_batch

    def reading_mixed_batch(*args, **kwargs):
        readings.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return real_mixed_batch(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "mixed_batch", reading_mixed_batch)
    tracemalloc.start()
    try:
        train_on_buffer(agent, pool, cfg, np.random.default_rng(0), 2)
    finally:
        tracemalloc.stop()
    (start, _), (_, peak) = readings[1], readings[2]
    assert peak - start <= 2 * batch * hidden * 8, (peak - start) / (batch * hidden * 8)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    import flowrl.trainer as trainer_mod

    path = tmp_path / "checkpoint_1.npz"
    agent = init_agent(TrainerConfig(window=2, hidden=8), seed=1)
    save_agent(agent, path)
    before = path.read_bytes()

    def failing_savez(file, **arrays):
        file.write(b"PK\x03\x04 partial")
        raise OSError("No space left on device")

    monkeypatch.setattr(trainer_mod.np, "savez", failing_savez)
    agent.net.theta += 1.0
    with pytest.raises(OSError, match="No space"):
        save_agent(agent, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_1.npz"]


def bits(a):
    return np.asarray(a).view(np.uint64)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    input_dim=st.integers(1, 12),
    hidden=st.integers(1, 10),
    dueling=st.booleans(),
    step=st.integers(0, 2**62),
    updates=st.integers(0, 2**62),
)
def test_checkpoint_round_trip_property(data, input_dim, hidden, dueling, step, updates):
    net = QNetwork.initialize(input_dim, hidden=hidden, dueling=dueling)
    agent = AgentState(net, init_optimizer(net), ConsolidationMemory())
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for vector, elements in ((net.theta, finite), (agent.opt.m, finite),
                             (agent.opt.v, st.floats(0, allow_infinity=False))):
        vector[:] = data.draw(arrays(np.float64, vector.shape, elements=elements))
    agent.opt.step = step
    agent.updates = updates
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "agent.npz"
        save_agent(agent, path)
        loaded = load_agent(path)
    for got, want in ((loaded.net.theta, agent.net.theta), (loaded.opt.m, agent.opt.m),
                      (loaded.opt.v, agent.opt.v)):
        np.testing.assert_array_equal(bits(got), bits(want))
    assert (loaded.net.input_dim, loaded.net.hidden_dim) == (input_dim, hidden)
    assert loaded.net.dueling == dueling
    assert (loaded.opt.step, loaded.updates) == (step, updates)


def noisy_dataset(seed, nodes, steps):
    """A chain of sensors with uniformly random readings: with weights drawn
    from N(0, 1), a network's greedy classes then vary by anchor and step."""
    rng = np.random.default_rng(seed)
    ids = [f"n{i}" for i in range(nodes)]
    series = {n: make_series(n, rng.uniform(1, 100, steps), rng.uniform(20, 70, steps),
                             rng.uniform(0, 1, steps)) for n in ids}
    return make_dataset(1, ids, list(zip(ids, ids[1:])), series)


@settings(max_examples=40, deadline=None)
@given(
    window=st.integers(1, 12),
    horizon=st.integers(1, 20),
    flow_max=st.floats(10, 200),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_block_rollout_matches_scalar_oracle(window, horizon, flow_max, seed, data):
    # flow_max below most representatives exercises the clip of the fed-back flow
    ds = noisy_dataset(seed, 2, 60)
    disc = fit_discretizer(ds.flows_in("train"))
    asm = StateAssembler(ds, window=window, calibration=Calibration(flow_max, 70.0))
    net = QNetwork.initialize(asm.dim, hidden=16)
    net.theta[:] = np.random.default_rng(seed).standard_normal(net.theta.size)
    anchors = np.array(data.draw(st.lists(st.integers(window, 60), min_size=1, max_size=8)))
    classes, flows = predict_horizon_block(net, asm, disc, "n0", anchors, horizon)
    for i, t in enumerate(anchors):
        cls, flow = predict_horizon(net, ds, "n0", int(t), horizon, disc, window=window,
                                    calibration=asm.calibration)
        np.testing.assert_array_equal(classes[i], cls)
        np.testing.assert_array_equal(flows[i], flow)


@settings(max_examples=40, deadline=None)
@given(
    horizons=st.lists(st.integers(1, 20), min_size=1, max_size=3, unique=True),
    window=st.integers(1, 12),
    nodes=st.integers(1, 5),
    steps=st.integers(30, 90),
    seed=st.integers(0, 2**32 - 1),
)
@example(horizons=[12, 3], window=6, nodes=3, steps=90, seed=7)  # the longest horizon first
def test_evaluate_period_matches_per_horizon_rollouts(horizons, window, nodes, steps, seed):
    ds = noisy_dataset(seed, nodes, steps)
    disc = fit_discretizer(ds.flows_in("train"))
    asm = StateAssembler(ds, window=window)
    net = QNetwork.initialize(asm.dim, hidden=16)
    net.theta[:] = np.random.default_rng(seed).standard_normal(net.theta.size)
    horizons = tuple(horizons)
    metrics, per_node = evaluate_period(ds, net, disc, asm, horizons)
    want_metrics, want_per_node = evaluate_period_per_horizon(ds, net, disc, asm, horizons)
    assert [(s, list(m)) for s, m in metrics.items()] == \
        [(s, list(m)) for s, m in want_metrics.items()]
    assert metrics == want_metrics
    assert list(per_node.items()) == list(want_per_node.items())


def test_evaluation_memory_is_bounded_by_a_segment():
    """evaluate_period holds one int8 class per scored forecast, one
    node's rollout and one (split, h) segment's arrays at a time, far
    below the state table (a whole period's flows and classes held 0.69x)."""
    ds = diurnal_dataset(seed=5, nodes=120, steps=400)
    disc, asm = fit_period(ds, 12)
    net = QNetwork.initialize(asm.dim, hidden=16, seed=2)
    _, peak = traced_peak(lambda: evaluate_period(ds, net, disc, asm, (3, 12)))
    table = len(ds.nodes) * (ds.length + 1) * 6 * 8  # the (N * (T + 1), 6) float64 state table
    assert table > 2e6
    assert peak <= 0.35 * table, peak / table


def test_evaluation_never_builds_the_state_table():
    """Setting up and evaluating a period computes each node's states from
    its readings and never builds a table of every node's rows: its traced
    peak stays far below that table's size (a set-up that built the table
    held 1.3x)."""
    ds = diurnal_dataset(seed=5, nodes=120, steps=400)
    net = QNetwork.initialize(state_dim(12), hidden=16, seed=2)
    fit_period(ds, 12)  # its first call imports numpy.ma, which would be traced

    def set_up_and_evaluate():
        disc, asm = fit_period(ds, 12)
        evaluate_period(ds, net, disc, asm, (3, 12))
        return asm

    asm, peak = traced_peak(set_up_and_evaluate)
    table = len(ds.nodes) * (ds.length + 1) * 6 * 8
    assert table > 2e6
    assert peak < 0.5 * table, peak / table


def test_evaluation_rolls_out_once_per_node(monkeypatch):
    import flowrl.trainer as trainer_mod

    ds = diurnal_dataset(seed=3, nodes=5, steps=120)
    disc = fit_discretizer(ds.flows_in("train"))
    asm = StateAssembler(ds, window=6)
    net = QNetwork.initialize(asm.dim, hidden=8, seed=1)
    real_forward = trainer_mod.forward_batch
    rows = []

    def counting_forward(net, states, frozen=None):
        rows.append(states.shape[0])
        return real_forward(net, states, frozen)

    monkeypatch.setattr(trainer_mod, "forward_batch", counting_forward)
    evaluate_period(ds, net, disc, asm, (12, 3))
    anchors = sum(hi - 3 - max(6, lo) + 1 for lo, hi in (ds.splits.val, ds.splits.test))
    assert anchors > 0
    assert len(rows) == 5 * 12
    assert sum(rows) == 5 * 12 * anchors
