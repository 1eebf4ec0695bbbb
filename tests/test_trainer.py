import tempfile
import tracemalloc
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
from flowrl.env import Calibration, RewardWeights, StateAssembler, classify, fit_discretizer
from flowrl.replay import KeyedStates, ReplayBuffer, mixed_batch, sample
from flowrl.drift import DriftConfig
from flowrl.ingest import GeneratorConfig, generate_synthetic
from flowrl.qnet import QNetwork, param_views
from flowrl.trainer import (
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
    run_period,
    save_agent,
    td_targets,
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
    pool = ReplayBuffer.allocate(n, KeyedStates(asm))
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
            speed_norm = float(asm.node_channels(node)[t, 1])
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
    """A keyed pool of every node's training rollout over ds."""
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
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=4)
        agent = init_agent(4 * 6 + 1, hidden=16, seed=0)
        run_period(None, dss[0], agent, cfg, RewardWeights(), seed=0)
        pool = period_pool(dss[1], window=4)
        memory = agent.memory
        assert len(memory) > 0 and isinstance(pool.states, KeyedStates)
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
                            consolidation_fraction=0.2)
        agent = init_agent(4 * 6 + 1, hidden=16, seed=0)
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
        """The pool keeps keys, not state rows: what building it and its
        sampling distribution leaves allocated is at most 100 bytes per
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
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(pool) == 6 * (240 - 12)
        assert held / len(pool) <= 100, f"{held / len(pool):.0f} bytes per transition"

    def test_pools_of_several_periods_chain_their_keys(self):
        """Extending a store with the pools of several periods keys each
        period's transitions past the last: the chained store gathers the
        same states and origins as each pool alone."""
        dss = generate_synthetic(GeneratorConfig(periods=3, initial_nodes=3, growth_per_period=1,
                                                 steps_per_period=50, noise_sigma=2.0), 6)
        pools = [period_pool(ds) for ds in dss]
        chained = ReplayBuffer()
        for pool in pools:
            chained.extend(pool)
        assert len(chained.states.tables) == 3 and len(chained) == sum(map(len, pools))
        idx = np.random.default_rng(0).permutation(len(chained))
        batch = gather(chained, idx)
        ids, periods, ts = chained.origins(idx)
        start = np.cumsum([0] + [len(p) for p in pools])
        for k, i in enumerate(idx):
            p = int(np.searchsorted(start, i, side="right")) - 1
            alone = gather(pools[p], [i - start[p]])
            np.testing.assert_array_equal(batch.states[k], alone.states[0])
            np.testing.assert_array_equal(batch.next_states[k], alone.next_states[0])
            assert (ids[k], periods[k], ts[k]) == tuple(c[0] for c in pools[p].origins([i - start[p]]))
            assert periods[k] == dss[p].period
        kept = chained.subset(idx[:7])
        assert kept.states is chained.states
        np.testing.assert_array_equal(gather(kept, np.arange(7)).states, batch.states[:7])


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
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=6)
        agent = init_agent(6 * 6 + 1, hidden=16, seed=0)
        report = run_period(None, ds, agent, cfg, RewardWeights(), seed=0)
        assert report.candidates == tuple(sorted(ds.series))
        assert report.experiences_generated > 0
        assert set(report.per_node_test_mae) == set(ds.series)

    def test_identical_periods_fraction_zero_trains_nothing(self):
        ds1 = diurnal_dataset(seed=7, steps=120, period=1)
        series = {k: make_series(k, s.flow, s.speed, s.occupancy) for k, s in ds1.series.items()}
        ds2 = make_dataset(2, sorted(ds1.snapshot.nodes), sorted(ds1.snapshot.edges), series)
        cfg = TrainerConfig(epochs=2, batch_size=32, horizons=(1,), window=6)
        agent = init_agent(6 * 6 + 1, hidden=16, seed=0)
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
        cfg = TrainerConfig(epochs=1, batch_size=32, horizons=(1,), window=6)
        agent = init_agent(6 * 6 + 1, hidden=16, seed=0)
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
    assert len(agent.buffer) > 0
    assert len(loaded.buffer) == 0  # the period pool is not saved
    with np.load(path) as data:
        assert int(data["version"]) == 4
        assert not [key for key in data.files if key.startswith("buf_")]
    s = np.linspace(0, 1, agent.net.input_dim)
    np.testing.assert_array_equal(forward(agent.net, s), forward(loaded.net, s))


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    import flowrl.trainer as trainer_mod

    path = tmp_path / "checkpoint_1.npz"
    agent = init_agent(13, hidden=8, seed=1)
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
    agent = init_agent(input_dim, hidden=hidden, dueling=dueling)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for vector in (agent.net.theta, agent.opt.m, agent.opt.v):
        vector[:] = data.draw(arrays(np.float64, vector.shape, elements=finite))
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
    table = asm._table.nbytes
    assert table > 2e6
    assert peak <= 0.35 * table, peak / table


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
