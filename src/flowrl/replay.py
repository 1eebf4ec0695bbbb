"""Experience storage: reward-prioritized replay plus a consolidation memory.

Both stores keep transitions as columns over a time-major (K, 6) step
table: transition i reads the W + 1 rows from start[i] on, its state cut
from the first W and its next state from the last W. A period's pool
(`ReplayBuffer`) owns its table, one block per rollout (`Rollouts`).
Priorities equal the floored reward, which never changes once a
transition exists, so the sampling distribution p_i^omega / sum_k p_k^omega
is one cumulative sum per pool and a batch is a binary search of uniform
draws, with replacement. After each period the pool's top fraction by
priority is copied, each row of its windows once, into a consolidation
memory that later batches replay to guard old-node knowledge.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .env import state_dim, window_rows

PRIORITY_FLOOR = 1e-3

# Per-transition columns of a ReplayBuffer, in window_columns order after start.
COLUMNS = {
    "start": np.int64,  # the (6, W + 1) window is steps[start : start + W + 1].T
    "degree": np.float64,
    "action": np.int64,
    "reward": np.float64,
    "terminal": np.bool_,
}
# A ConsolidationMemory's columns: its step table, a pool's columns, each transition's origin.
MEMORY_COLUMNS = {
    "steps": np.float64,  # (C, 6): own flow, speed, occupancy, then the neighbour means
    **COLUMNS,
    "node_id": np.str_,
    "period": np.int64,
    "t": np.int64,  # time index of the prediction step within its period
}


class Batch(NamedTuple):
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray


def assign_priority(rewards, floor: float = PRIORITY_FLOOR) -> np.ndarray:
    """Reward-as-priority with a positive floor so nothing starves."""
    rewards = np.asarray(rewards, dtype=float)
    if np.any(rewards < 0):
        raise ValueError(f"rewards must be nonnegative, got {rewards.min()}")
    return np.maximum(rewards, floor)


class Rollouts(NamedTuple):
    """A period pool's table layout: block r, its n + W rows from r(n + W)
    on, holds node nodes[r]'s rows in `period` over [t0 - W, t0 + n)."""

    nodes: np.ndarray  # sorted node ids
    period: int
    t0: int
    n: int


class ReplayBuffer:
    """Columnar transitions over the step table `steps` of windows of
    W + 1 rows; a period's pool table is laid out by its `rollouts`."""

    COLUMNS = COLUMNS

    def __init__(self, window: int | None = None, steps=None, rollouts: Rollouts | None = None, **columns):
        self.window, self.rollouts = window, rollouts
        self.steps = np.empty((0, 6)) if steps is None else np.asarray(steps, dtype=np.float64)
        for name, dtype in self.COLUMNS.items():
            if name != "steps":
                setattr(self, name, np.asarray(columns.pop(name, ()), dtype=dtype))
        if columns:
            raise TypeError(f"unknown columns {sorted(columns)}")
        self._cdf: tuple[float, np.ndarray] | None = None

    @cached_property
    def _windows(self) -> np.ndarray:
        """_windows[s] is the (6, W + 1) window that starts at row s, a view."""
        return np.lib.stride_tricks.sliding_window_view(self.steps, self.window + 1, axis=0)

    @classmethod
    def allocate(cls, nodes, n: int, window: int, period: int, t0: int) -> ReplayBuffer:
        """Room for an n-step rollout of each node from time t0 on, in
        order, each written by next_block and add_rollout."""
        k = len(nodes)
        store = cls(window, np.zeros((k * (n + window), 6)),
                    Rollouts(np.asarray(nodes, dtype=np.str_), period, t0, n),
                    **{name: np.empty(k * n, dtype) for name, dtype in COLUMNS.items()})
        store._fill = 0  # next free transition; only an allocated pool takes rollouts
        return store

    def __len__(self) -> int:
        return len(self.action)

    def origins(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(node_id, period, t) of transitions idx."""
        nodes, period, t0, n = self.rollouts
        r, offset = np.divmod(self.start[idx], n + self.window)
        return nodes[r], np.full(len(r), period, dtype=np.int64), t0 + offset

    def subset(self, idx) -> ReplayBuffer:
        """Transitions idx, over the same table."""
        return ReplayBuffer(self.window, self.steps, self.rollouts,
                            **{name: getattr(self, name)[idx] for name in COLUMNS})

    def next_block(self) -> np.ndarray:
        """The (n + W, 6) rows of the next rollout to add, a view of its block."""
        if self._fill >= len(self):
            raise ValueError("no room for another rollout")
        r, stride = self._fill // self.rollouts.n, self.rollouts.n + self.window
        return self.steps[r * stride:(r + 1) * stride]

    def add_rollout(self, actions, rewards, degree: float) -> ReplayBuffer:
        """Write the next rollout's n transitions, which read its block,
        into the next free slots; returns a view of them."""
        n, s = self.rollouts.n, self._fill
        if len(actions) != n or s + n > len(self):
            raise ValueError(f"no room for a rollout of {len(actions)} steps")
        span = slice(s, s + n)
        self.start[span] = s // n * (n + self.window) + np.arange(n)
        self.degree[span] = degree
        self.action[span] = actions
        self.reward[span] = rewards
        self.terminal[span] = np.arange(n) == n - 1
        self._fill = s + n
        self._cdf = None
        return self.subset(span)

    def extend(self, items: ReplayBuffer) -> None:
        """Take items' transitions into this empty store without copying
        them; the pools of several periods go into a ConsolidationMemory."""
        if len(self):
            raise ValueError(f"cannot extend a store of {len(self)} transitions")
        vars(self).update(vars(items))

    def window_columns(self, idx) -> tuple[np.ndarray, ...]:
        """(windows, degree, action, reward, terminal) of transitions idx."""
        return (self._windows[self.start[idx]], self.degree[idx], self.action[idx],
                self.reward[idx], self.terminal[idx])

    def priorities(self) -> np.ndarray:
        return assign_priority(self.reward)

    def cdf(self, omega: float) -> np.ndarray:
        """Cumulative sampling distribution, built the way Generator.choice
        builds it, in the one array that is kept until the contents change."""
        if self._cdf is None or self._cdf[0] != omega:
            if omega < 0:
                raise ValueError(f"omega must be >= 0, got {omega}")
            cdf = self.priorities()  # a fresh array: tests/_oracles.py's sampling_probabilities, in place
            cdf **= omega
            cdf /= cdf.sum()
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            self._cdf = (omega, cdf)
        return self._cdf[1]


def sample(buffer: ReplayBuffer, batch_size: int, omega: float,
           rng: np.random.Generator) -> np.ndarray:
    """Indices of a batch drawn with replacement under the priority
    distribution; the same indices and generator state as
    rng.choice(len(buffer), batch_size, p=probabilities)."""
    if len(buffer) == 0:
        raise ValueError("cannot sample from an empty replay buffer")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return buffer.cdf(omega).searchsorted(rng.random(batch_size), side="right")


def retain_top_fraction(experiences: ReplayBuffer, fraction: float) -> ReplayBuffer:
    """The ceil(fraction*N) highest-priority transitions of a period's pool,
    ties broken by (node_id, t) ascending so that the set is deterministic:
    a subset of the input, over the same step table. A pool lays out its
    rollouts by sorted node id, each in time order, so (node_id, t) order
    is the order of the windows' starts."""
    if len(experiences) == 0:
        raise ValueError("cannot retain from an empty collection")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    k = math.ceil(fraction * len(experiences))
    order = np.lexsort((experiences.start, -experiences.priorities()))
    return experiences.subset(order[:k])


class ConsolidationMemory(ReplayBuffer):
    """Transitions of several periods, in the order the periods were added,
    with each transition's origin, in the columns of MEMORY_COLUMNS: the
    agent's retained transitions of every past period, or the full-retrain
    baseline's pool. Its step table is its own and holds each row of the
    added windows once, as neighbouring windows share rows. The first
    period added sets its window W."""

    COLUMNS = MEMORY_COLUMNS

    def columns(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in MEMORY_COLUMNS}

    def origins(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(node_id, period, t) of transitions idx."""
        return self.node_id[idx], self.period[idx], self.t[idx]

    def periods(self) -> list[int]:
        return sorted(set(self.period.tolist()))

    def add_period(self, period: int, retained: ReplayBuffer) -> None:
        """Append the transitions of `period`'s pool `retained`, copying each
        row of their windows out of its table once, one column at a time."""
        if period in self.periods():
            raise ValueError(f"period {period} already retained")
        node_id, periods, t = retained.origins()
        if np.any(periods != period):
            raise ValueError(f"retained transitions do not all come from period {period}")
        w = retained.window
        if self.window not in (None, w):
            raise ValueError(f"retained windows span {w + 1} steps, the memory's {self.window + 1}")
        rows = np.unique(retained.start[:, None] + np.arange(w + 1))
        added = {name: getattr(retained, name) for name in COLUMNS}
        added.update(steps=retained.steps[rows], start=len(self.steps) + rows.searchsorted(retained.start),
                     node_id=node_id, period=periods, t=t)
        for name in MEMORY_COLUMNS:
            setattr(self, name, np.concatenate([getattr(self, name), added.pop(name)]))
        self.window = w
        vars(self).pop("_windows", None)
        self._cdf = None

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Indices of a uniform draw with replacement from the memory."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if len(self) == 0:
            raise ValueError("consolidation memory is empty")
        return rng.integers(0, len(self), size=count)


def _write_rows(store: ReplayBuffer, idx: np.ndarray, out: Batch, rows: slice) -> None:
    """Write transitions idx of `store` into `rows` of `out`, the state and
    next state of each cut from its window."""
    windows, degree, actions, rewards, terminals = store.window_columns(idx)
    window_rows(windows[..., :-1], degree, out=out.states[rows])
    window_rows(windows[..., 1:], degree, out=out.next_states[rows])
    out.actions[rows], out.rewards[rows], out.terminals[rows] = actions, rewards, terminals


def mixed_batch(buffer: ReplayBuffer, memory: ConsolidationMemory, batch_size: int,
                rho: float, omega: float, rng: np.random.Generator,
                out: Batch | None = None) -> Batch:
    """A batch of exactly batch_size: round(rho*B) uniform memory replays
    (skipped while the memory is empty), remainder prioritized from the
    buffer, written into `out`'s arrays of batch_size rows (fresh ones if
    none are given) and returned.

    Memory rows are drawn first and come first, then buffer rows, so the
    draw order is reproducible for a fixed generator.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 <= rho <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if len(buffer) == 0:
        raise ValueError("cannot build a batch from an empty replay buffer")
    if out is None:
        dim = state_dim(buffer.window)
        out = Batch(np.empty((batch_size, dim)), np.empty(batch_size, np.int64), np.empty(batch_size),
                    np.empty((batch_size, dim)), np.empty(batch_size, np.bool_))
    elif len(out.states) != batch_size:
        raise ValueError(f"a batch of {batch_size} rows into arrays of {len(out.states)}")
    n_memory = int(rho * batch_size + 0.5) if len(memory) > 0 else 0
    if n_memory:
        _write_rows(memory, memory.draw(n_memory, rng), out, slice(0, n_memory))
    if n_memory < batch_size:
        _write_rows(buffer, sample(buffer, batch_size - n_memory, omega, rng), out,
                    slice(n_memory, batch_size))
    return out
