"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the expensive three-period stream experiments (criteria 7 and 8)
share one module-scoped fixture.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import _mdp
from _helpers import make_dataset, make_series, store
from flowrl.cli import main as cli_main
from flowrl.drift import _kl, detect
from flowrl.ingest import DriftSpec, GeneratorConfig, generate_synthetic
from flowrl.metrics import compute_metrics
from flowrl.env import RewardWeights
from flowrl.qnet import QNetwork, dueling_aggregate, forward_batch, loss_and_gradients, param_views
from flowrl.replay import sample
from flowrl.trainer import TrainerConfig, run_continual, run_full_retrain


def _report(num, message):
    print(f"\n[acceptance] criterion {num}: PASS - {message}")


# --- criterion 1: gradient correctness ------------------------------------

def _loss_only(net, states, actions, targets):
    q = forward_batch(net, states)
    err = q[np.arange(len(actions)), actions] - targets
    return float(np.mean(err**2))


def _fd_gradient(net, states, actions, targets, name, index, h=1e-5):
    p = getattr(net, name)
    orig = p[index]
    p[index] = orig + h
    up = _loss_only(net, states, actions, targets)
    p[index] = orig - h
    down = _loss_only(net, states, actions, targets)
    p[index] = orig
    return (up - down) / (2 * h)


def _kink_free_sample(net, rng, margin=1e-4):
    # central differences are invalid on the rectifier kink itself
    for _ in range(500):
        s = rng.uniform(-1, 1, net.input_dim)
        z1 = net.w1 @ s + net.b1
        z2 = net.w2 @ np.maximum(z1, 0) + net.b2
        if np.abs(z1).min() > margin and np.abs(z2).min() > margin:
            return s
    raise AssertionError("no kink-free sample found")


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for pair in range(100):
        net = QNetwork.initialize(7, hidden=8, seed=pair, dueling=bool(pair % 2))
        states = _kink_free_sample(net, rng)[None, :]
        actions = np.array([int(rng.integers(0, 5))])
        targets = np.array([float(rng.uniform(-1, 1))])
        _, grad = loss_and_gradients(net, states, actions, targets)
        for name, g in param_views(grad, net.input_dim, net.hidden_dim).items():
            for index in np.ndindex(g.shape):
                fd = _fd_gradient(net, states, actions, targets, name, index)
                denom = max(abs(fd), abs(g[index]), 1e-8)
                rel = abs(fd - g[index]) / denom
                worst = max(worst, rel)
                assert rel < 1e-4, (pair, name, index, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    _report(1, f"100 nets, every parameter within 1e-4 of central differences "
               f"(worst {worst:.2e}, {elapsed:.1f}s)")


# --- criterion 2: dueling invariance ---------------------------------------

def test_criterion_02_dueling_invariance():
    grid = 2.0**-24  # shared binary grid makes the constant shift exact in floats
    rng = np.random.default_rng(1002)
    net = QNetwork.initialize(25, hidden=32, seed=5)
    for _ in range(1000):
        s = rng.uniform(-1, 1, (1, 25))
        h1 = np.maximum(s @ net.w1.T + net.b1, 0)
        h2 = np.maximum(h1 @ net.w2.T + net.b2, 0)
        value = (h2 @ net.wv.T + net.bv)[0]
        adv = np.round((h2 @ net.wa.T + net.ba)[0] / grid) * grid
        c = np.round(float(rng.uniform(-8, 8)) / grid) * grid
        q1 = dueling_aggregate(value, adv)
        q2 = dueling_aggregate(value, adv + c)
        assert np.array_equal(q1, q2)
    _report(2, "advantage offsets cancel bit-identically over 1000 random states")


# --- criterion 3: tabular oracle agreement ---------------------------------

def test_criterion_03_tabular_oracle_agreement():
    start = time.perf_counter()
    q_star = _mdp.analytic_q()
    q_tab = _mdp.run_tabular(alpha=0.2, episodes=3000, seed=3)
    assert np.max(np.abs(q_tab - q_star)) < 1e-3, "tabular run missed the fixed point"

    net = _mdp.train_deep(seed=3, steps=2500)
    q_deep = _mdp.deep_q_values(net)
    for s in range(3):
        assert int(np.argmax(q_deep[s])) == int(np.argmax(q_tab[s])), f"policy differs at state {s}"
    assert np.max(np.abs(q_deep - q_star[:3])) < 0.1, "deep Q-values drifted past 0.1"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion took {elapsed:.1f}s"
    _report(3, f"tabular within 1e-3 of the hand-solved fixed point, deep policy matches "
               f"on all states, Q gap {np.max(np.abs(q_deep - q_star[:3])):.3f} ({elapsed:.1f}s)")


# --- criterion 4: sampling fidelity ----------------------------------------

def test_criterion_04_sampling_fidelity():
    buf = store([3.0, 1.0], nodes=["heavy", "light"])
    idx = sample(buf, 100_000, 1.0, np.random.default_rng(4))
    freq = np.count_nonzero(buf.origins(idx)[0] == "heavy") / len(idx)
    assert 0.74 <= freq <= 0.76, f"P(heavy) = {freq}"

    priorities = [5.0, 0.01, 1.0, 2.5, 0.4]
    buf2 = store(priorities, nodes=[f"n{i}" for i in range(5)])
    idx2 = sample(buf2, 100_000, 0.0, np.random.default_rng(5))
    counts = {f"n{i}": 0 for i in range(5)}
    for node in buf2.origins(idx2)[0].tolist():
        counts[node] += 1
    freqs = {k: v / len(idx2) for k, v in counts.items()}
    for node, f in freqs.items():
        assert abs(f - 0.2) < 0.01, f"{node} at {f}"
    _report(4, f"P(heavy) = {freq:.4f} in [0.74, 0.76]; omega=0 uniform within 0.01")


# --- criterion 5: KL correctness --------------------------------------------

def test_criterion_05_kl_correctness():
    p, q = np.array([0.5, 0.5]), np.array([0.9, 0.1])
    assert _kl(p, p) == 0.0
    hand = _kl(p, q)
    assert abs(hand - 0.5108) < 1e-4

    rng = np.random.default_rng(1005)
    min_kl = np.inf
    for _ in range(10_000):
        bins = int(rng.integers(2, 16))
        a = rng.dirichlet(np.full(bins, 0.5))
        b = rng.dirichlet(np.full(bins, 0.5))
        # Laplace-style smoothing keeps both strictly positive
        a = (a + 1e-3) / (1 + bins * 1e-3)
        b = (b + 1e-3) / (1 + bins * 1e-3)
        kl = _kl(a, b)
        min_kl = min(min_kl, kl)
        assert kl >= 0.0

    # detect on one node over two periods of 5 steps, in 2 bins: the pooled
    # range [0, 10] splits at 5, where a value counts in the upper bin and
    # the top value in the closed last bin, so the periods count [3, 2] and
    # [1, 4], smoothed by 1 over 5 + 2
    before, after = [0.0, 2.0, 4.0, 6.0, 10.0], [1.0, 5.0, 7.0, 8.0, 9.0]
    prev, curr = (make_dataset(period, ["a"], [], {"a": make_series("a", flows)})
                  for period, flows in ((1, before), (2, after)))
    scored = detect(prev, curr, bins=2, smoothing=1.0).scores["a"]
    p_after = [(count + 1) / (5 + 2) for count in (1, 4)]
    q_before = [(count + 1) / (5 + 2) for count in (3, 2)]
    by_hand = sum(pk * math.log(pk / qk) for pk, qk in zip(p_after, q_before))
    assert abs(scored - by_hand) < 1e-12
    _report(5, f"KL(p,p) = 0 exactly, hand value {hand:.4f} within 1e-4 of 0.5108, "
               f"10k random pairs nonnegative (min {min_kl:.2e}), "
               f"detect's 2-bin score {scored:.6f} equals the hand count's {by_hand:.6f}")


# --- criterion 6: drift recovery --------------------------------------------

def test_criterion_06_drift_recovery():
    start = time.perf_counter()
    sigma = 4.0
    planted = {f"s{i:04d}" for i in range(5)}  # 10% of the 50 surviving nodes
    cfg = GeneratorConfig(
        periods=2, initial_nodes=50, growth_per_period=5, steps_per_period=2000,
        noise_sigma=sigma, phase_jitter_steps=40.0, amplitude_jitter=0.25,
        drift=tuple(DriftSpec(node, 2, 3 * sigma) for node in sorted(planted)),
    )
    prev, curr = generate_synthetic(cfg, 2026)
    report = detect(prev, curr, fraction=0.10)
    recall = len(planted & set(report.top_kl_nodes)) / len(planted)
    elapsed = time.perf_counter() - start
    assert recall >= 0.9, f"recall {recall}"
    assert elapsed < 30.0, f"criterion took {elapsed:.1f}s"
    _report(6, f"planted-drift recall {recall:.2f} at 3-sigma magnitude ({elapsed:.1f}s)")


# --- criteria 7 and 8: shared three-period stream ----------------------------

STREAM_SEED = 42
STREAM_CFG = TrainerConfig(
    batch_size=128, learning_rate=0.001,  # pinned batch size and optimizer rate
    epochs=8, window=12, horizons=(3, 12), eps_decay_steps=10_000,
    mix_rho=0.25, gamma=0.85,
)


@pytest.fixture(scope="module")
def stream_runs():
    drift = tuple(DriftSpec(f"s{i:04d}", 2, 30.0) for i in range(5)) + tuple(
        DriftSpec(f"s{i:04d}", 3, 30.0) for i in range(5, 11)
    )
    gen = GeneratorConfig(
        periods=3, initial_nodes=50, growth_per_period=5, steps_per_period=2000,
        noise_sigma=4.0, phase_jitter_steps=40.0, amplitude_jitter=0.25, drift=drift,
    )
    datasets = generate_synthetic(gen, STREAM_SEED)
    weights = RewardWeights()
    start = time.perf_counter()
    _, continual = run_continual(datasets, STREAM_CFG, weights, seed=STREAM_SEED)
    retrain, retrain_touched = run_full_retrain(datasets, STREAM_CFG, weights, seed=STREAM_SEED)
    _, no_memory = run_continual(
        datasets, replace(STREAM_CFG, mix_rho=0.0), weights, seed=STREAM_SEED
    )
    elapsed = time.perf_counter() - start
    return {
        "datasets": datasets,
        "continual": continual,
        "retrain": retrain,
        "retrain_touched": retrain_touched,
        "no_memory": no_memory,
        "elapsed": elapsed,
    }


def test_criterion_07_continual_vs_retrain_bound(stream_runs):
    h = STREAM_CFG.horizons[0]
    mae_continual = stream_runs["continual"][-1]["metrics"]["test"][str(h)]["mae"]
    mae_retrain = stream_runs["retrain"][-1]["metrics"]["test"][str(h)]["mae"]
    ratio = mae_continual / mae_retrain
    touched_continual = sum(r["experiences"]["generated"] for r in stream_runs["continual"])
    touched_retrain = stream_runs["retrain_touched"]
    budget = touched_continual / touched_retrain
    elapsed = stream_runs["elapsed"]
    assert ratio <= 1.25, f"MAE ratio {ratio:.3f}"
    assert budget <= 0.40, f"experience budget {budget:.3f}"
    assert elapsed < 600.0, f"stream experiments took {elapsed:.0f}s"
    _report(7, f"final-period MAE ratio {ratio:.3f} <= 1.25, experience budget "
               f"{budget:.3f} <= 0.40 ({touched_continual} vs {touched_retrain}; {elapsed:.0f}s)")


def test_criterion_08_forgetting_ablation(stream_runs):
    datasets = stream_runs["datasets"]
    with_memory = stream_runs["continual"][-1]
    without_memory = stream_runs["no_memory"][-1]
    assert with_memory["candidates"] == without_memory["candidates"]
    first_period_nodes = set(datasets[0].snapshot.nodes)
    old_nodes = sorted(
        (first_period_nodes & set(datasets[-1].snapshot.nodes)) - set(with_memory["candidates"]["nodes"])
    )
    assert old_nodes, "no old nodes to evaluate"
    mae_with = float(np.mean([with_memory["per_node_test_mae"][n] for n in old_nodes]))
    mae_without = float(np.mean([without_memory["per_node_test_mae"][n] for n in old_nodes]))
    assert mae_without > mae_with, (
        f"expected forgetting: rho=0 gave {mae_without:.3f} vs rho=0.25 {mae_with:.3f}"
    )
    _report(8, f"old-node MAE {mae_without:.3f} (rho=0) > {mae_with:.3f} (rho=0.25), "
               f"+{100 * (mae_without / mae_with - 1):.1f}% without consolidation")


# --- criterion 9: metric identities ------------------------------------------

def test_criterion_09_metric_identities():
    m = compute_metrics([2.0, 4.0], [1.0, 2.0], [1, 2], [0, 2])
    assert m.mae == 1.5
    assert abs(m.rmse - math.sqrt(2.5)) < 1e-12
    assert m.mape == 100.0

    rng = np.random.default_rng(1009)
    for _ in range(10_000):
        n = int(rng.integers(1, 30))
        pred = rng.uniform(0, 100, n)
        actual = rng.uniform(0.5, 100, n)
        cls = rng.integers(0, 5, n)
        ms = compute_metrics(pred, actual, cls, cls)
        assert ms.mae <= ms.rmse + 1e-12
    _report(9, "worked example exact (mae 1.5, rmse sqrt(2.5), mape 100%); "
               "MAE <= RMSE on 10k random vectors")


# --- criterion 10: end-to-end determinism -------------------------------------

ACCEPTANCE_CLI_CONFIG = """
[run]
seed = 7

[env]
window = 6

[trainer]
epochs = 2
batch_size = 64
horizons = 1,3
eps_decay_steps = 1000

[generator]
periods = 2
initial_nodes = 8
growth_per_period = 2
steps_per_period = 200
noise_sigma = 3.0
phase_jitter_steps = 20.0
"""


def test_criterion_10_end_to_end_determinism(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(ACCEPTANCE_CLI_CONFIG)
    data = tmp_path / "data"
    assert cli_main(["generate", "--config", str(config), "--out-dir", str(data)]) == 0
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out1)]) == 0
    assert cli_main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out2)]) == 0
    reports1 = {p.name: p.read_bytes() for p in sorted(out1.glob("report_*.json"))}
    reports2 = {p.name: p.read_bytes() for p in sorted(out2.glob("report_*.json"))}
    assert reports1, "no reports written"
    assert reports1 == reports2
    sample_report = json.loads(next(iter(reports1.values())))
    assert "metrics" in sample_report
    _report(10, f"two cmd_train runs produced byte-identical reports ({sorted(reports1)})")
