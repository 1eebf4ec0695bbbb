"""Tiny deterministic chain MDP used as a convergence oracle.

Four states 0..3, two actions (0 = stay, 1 = advance). Advancing from
state 2 reaches the absorbing state 3 and pays reward 1; everything else
pays 0. With gamma = 0.5 the Bellman fixed point is solvable by hand.
"""

import numpy as np

from _oracles import tabular_q_update
from flowrl.qnet import QNetwork, forward_batch, init_optimizer, loss_and_gradients, apply_update
from flowrl.trainer import td_targets

N_STATES = 4
N_ACTIONS = 2
TERMINAL = 3
GAMMA = 0.5


def step(s: int, a: int):
    """Returns (next_state, reward, terminal)."""
    if a == 1:
        nxt = min(s + 1, TERMINAL)
    else:
        nxt = s
    reward = 1.0 if (a == 1 and nxt == TERMINAL and s != TERMINAL) else 0.0
    return nxt, reward, nxt == TERMINAL


def analytic_q():
    """Hand-solved fixed point of the Bellman equations.

    Q(s, advance) = gamma^(2-s) for s in {0,1,2} (discounted distance to
    the rewarding transition), Q(s, stay) = gamma * Q(s, advance), and the
    absorbing state is all zeros.
    """
    q = np.zeros((N_STATES, N_ACTIONS))
    for s in range(3):
        q[s, 1] = GAMMA ** (2 - s)
        q[s, 0] = GAMMA * q[s, 1]
    return q


def one_hot(s: int) -> np.ndarray:
    v = np.zeros(N_STATES)
    v[s] = 1.0
    return v


def run_tabular(alpha=0.2, episodes=3000, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q = np.zeros((N_STATES, N_ACTIONS))
    for _ in range(episodes):
        s = int(rng.integers(0, 3))
        for _ in range(20):
            a = int(rng.integers(0, N_ACTIONS))
            nxt, r, terminal = step(s, a)
            tabular_q_update(q, s, a, r, nxt, alpha, GAMMA)
            if terminal:
                break
            s = nxt
    return q


def all_transitions():
    """Every (state, action) pair of the MDP, one transition each."""
    out = []
    for s in range(3):
        for a in range(N_ACTIONS):
            nxt, r, terminal = step(s, a)
            out.append((s, a, r, nxt, terminal))
    return out


def train_deep(seed=0, steps=2500, hidden=32, lr=0.003) -> QNetwork:
    """Fit the dueling net to the MDP by sweeping all transitions each step.

    Targets are bootstrapped from the current net but restricted to the
    two real actions; the remaining three heads are unused.
    """
    net = QNetwork.initialize(N_STATES, hidden=hidden, seed=seed)
    opt = init_optimizer(net, learning_rate=lr)
    transitions = all_transitions()
    states = np.stack([one_hot(s) for s, *_ in transitions])
    actions = np.array([a for _, a, *_ in transitions])
    rewards = np.array([r for _, _, r, *_ in transitions])
    next_states = np.stack([one_hot(n) for *_, n, _ in transitions])
    terminals = np.array([t for *_, t in transitions])
    for _ in range(steps):
        next_q = forward_batch(net, next_states)[:, :N_ACTIONS]
        targets = td_targets(rewards, next_q, GAMMA, terminals)
        _, grad = loss_and_gradients(net, states, actions, targets)
        apply_update(net, grad, opt)
    return net


def deep_q_values(net: QNetwork) -> np.ndarray:
    states = np.stack([one_hot(s) for s in range(3)])
    return forward_batch(net, states)[:, :N_ACTIONS]
