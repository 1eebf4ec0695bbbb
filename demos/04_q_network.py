"""The dueling Q-network: analytic gradients and a solvable toy problem.

First a finite-difference spot check of the hand-derived backprop, then
Q-learning on a four-state chain whose Bellman fixed point is known in
closed form, with both a tabular learner and the network agreeing on it.
"""

import numpy as np

from flowrl import (
    QNetwork,
    apply_update,
    forward_batch,
    init_optimizer,
    loss_and_gradients,
    param_views,
    td_targets,
)

# --- gradient spot check ------------------------------------------------
rng = np.random.default_rng(0)
net = QNetwork.initialize(input_dim=7, hidden=8, seed=1)
states = rng.uniform(-1, 1, (1, 7))
actions = np.array([2])
targets = np.array([0.3])
_, grad = loss_and_gradients(net, states, actions, targets)  # one vector laid out like net.theta

h = 1e-5
worst = 0.0
for name, g in param_views(grad, net.input_dim, net.hidden_dim).items():
    p = getattr(net, name)
    for idx in np.ndindex(p.shape):
        orig = p[idx]
        p[idx] = orig + h
        q = forward_batch(net, states)
        up = float(np.mean((q[0, 2] - targets[0]) ** 2))
        p[idx] = orig - h
        q = forward_batch(net, states)
        down = float(np.mean((q[0, 2] - targets[0]) ** 2))
        p[idx] = orig
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
print(f"worst relative gradient error vs central differences: {worst:.2e}")

# --- four-state chain: advance toward the rewarding absorbing state ------
GAMMA = 0.5


def step(s, a):
    nxt = min(s + 1, 3) if a == 1 else s
    reward = 1.0 if (a == 1 and nxt == 3 and s != 3) else 0.0
    return nxt, reward, nxt == 3


q_star = np.zeros((4, 2))
for s in range(3):
    q_star[s, 1] = GAMMA ** (2 - s)
    q_star[s, 0] = GAMMA * q_star[s, 1]
print("\nhand-solved Q*:")
print(np.round(q_star, 4))

# tabular learner: one temporal-difference backup per step
q_tab = np.zeros((4, 2))
rng = np.random.default_rng(1)
for _ in range(3000):
    s = int(rng.integers(0, 3))
    for _ in range(20):
        a = int(rng.integers(0, 2))
        nxt, r, done = step(s, a)
        q_tab[s, a] += 0.2 * (r + GAMMA * np.max(q_tab[nxt]) - q_tab[s, a])
        if done:
            break
        s = nxt
print(f"tabular max |Q - Q*| = {np.max(np.abs(q_tab - q_star)):.2e}")

# the dueling net, fit on one-hot states with bootstrapped targets
transitions = [(s, a, *step(s, a)) for s in range(3) for a in range(2)]
S = np.eye(4)[[t[0] for t in transitions]]
A = np.array([t[1] for t in transitions])
NS = np.eye(4)[[t[2] for t in transitions]]
R = np.array([t[3] for t in transitions])
D = np.array([t[4] for t in transitions])

deep = QNetwork.initialize(4, hidden=32, seed=2)
opt = init_optimizer(deep, learning_rate=0.003)
for _ in range(2500):
    targets = td_targets(R, forward_batch(deep, NS)[:, :2], GAMMA, D)
    _, grad = loss_and_gradients(deep, S, A, targets)
    apply_update(deep, grad, opt)

q_deep = forward_batch(deep, np.eye(4)[:3])[:, :2]
print(f"deep    max |Q - Q*| = {np.max(np.abs(q_deep - q_star[:3])):.2e}")
print("greedy actions (0=stay, 1=advance):",
      {s: int(np.argmax(q_deep[s])) for s in range(3)})
