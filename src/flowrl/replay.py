"""Experience storage: reward-prioritized replay plus a consolidation memory.

Transitions are kept in columns (`ReplayBuffer`). A rollout of n steps
stores its n + 1 state rows once, and each step's next state is the row
after its own. Priorities equal the (floored) reward, which never changes
once a transition exists, so the sampling distribution
p_i^omega / sum_k p_k^omega becomes one cumulative sum per pool and every
batch is a binary search of uniform draws, with replacement. After each
period the top fraction of that period's transitions by priority is copied
into a consolidation memory and replayed into later training batches to
guard old-node knowledge against forgetting.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

PRIORITY_FLOOR = 1e-3
CONSOLIDATION_FRACTION = 0.05

# Per-transition columns of a ReplayBuffer; its `states` matrix holds the rows.
COLUMNS = {
    "row": np.int64,
    "action": np.int64,
    "reward": np.float64,
    "terminal": np.bool_,
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


class ReplayBuffer:
    """Columnar transitions: transition i goes from states[row[i]] to
    states[row[i] + 1], with the action, reward and terminal flag of that
    step and its origin (node_id, period, t)."""

    def __init__(self, states=None, **columns):
        self.states = np.zeros((0, 0)) if states is None else np.asarray(states, dtype=float)
        for name, dtype in COLUMNS.items():
            setattr(self, name, np.asarray(columns.pop(name, ()), dtype=dtype))
        if columns:
            raise TypeError(f"unknown columns {sorted(columns)}")
        self._fill = (len(self.row), len(self.states))  # next free transition and state row
        self._cdf: tuple[float, np.ndarray] | None = None

    @classmethod
    def allocate(cls, transitions: int, rollouts: int, dim: int, node_ids) -> ReplayBuffer:
        """Room for `rollouts` rollouts of `transitions` steps in all, to be
        written by add_rollout; node_ids are the nodes that will roll out."""
        width = np.array(list(node_ids), dtype=np.str_).dtype
        columns = {name: np.empty(transitions, width if dtype is np.str_ else dtype)
                   for name, dtype in COLUMNS.items()}
        store = cls(np.empty((transitions + rollouts, dim)), **columns)
        store._fill = (0, 0)
        return store

    def __len__(self) -> int:
        return len(self.row)

    def columns(self) -> dict[str, np.ndarray]:
        return {"states": self.states, **{name: getattr(self, name) for name in COLUMNS}}

    def add_rollout(self, states, actions, rewards, node_id: str, period: int,
                    t0: int) -> ReplayBuffer:
        """Write one rollout (n + 1 state rows, n steps from time t0) into
        the next free slots; returns a view of its transitions."""
        n = len(actions)
        s, r = self._fill
        if n < 1 or s + n > len(self.row) or r + n + 1 > len(self.states):
            raise ValueError(f"no room for a rollout of {n} steps")
        self.states[r : r + n + 1] = states
        span = slice(s, s + n)
        self.row[span] = np.arange(r, r + n)
        self.action[span] = actions
        self.reward[span] = rewards
        self.terminal[span] = np.arange(n) == n - 1
        self.node_id[span] = node_id
        self.period[span] = period
        self.t[span] = np.arange(t0, t0 + n)
        self._fill = (s + n, r + n + 1)
        self._cdf = None
        return ReplayBuffer(self.states, **{name: getattr(self, name)[span] for name in COLUMNS})

    def extend(self, items: ReplayBuffer) -> None:
        """Append items' transitions; an empty store takes items' arrays
        without copying them."""
        for name, column in concatenate(self, items).columns().items():
            setattr(self, name, column)
        self._fill = (len(self.row), len(self.states))
        self._cdf = None

    def take(self, idx) -> ReplayBuffer:
        """A compact copy of transitions idx, each with its own (state,
        next state) pair of rows."""
        idx = np.asarray(idx, dtype=np.int64)
        pairs = np.stack([self.row[idx], self.row[idx] + 1], axis=1).ravel()
        columns = {name: getattr(self, name)[idx] for name in COLUMNS}
        columns["row"] = np.arange(0, 2 * len(idx), 2)
        return ReplayBuffer(self.states[pairs], **columns)

    def gather(self, idx) -> Batch:
        rows = self.row[idx]
        return Batch(self.states[rows], self.action[idx], self.reward[idx],
                     self.states[rows + 1], self.terminal[idx])

    def priorities(self) -> np.ndarray:
        return assign_priority(self.reward)

    def cdf(self, omega: float) -> np.ndarray:
        """Cumulative sampling distribution, built the way Generator.choice
        builds it and kept until the contents change."""
        if self._cdf is None or self._cdf[0] != omega:
            cdf = sampling_probabilities(self.priorities(), omega).cumsum()
            cdf /= cdf[-1]
            self._cdf = (omega, cdf)
        return self._cdf[1]


def concatenate(first: ReplayBuffer, second: ReplayBuffer) -> ReplayBuffer:
    """The transitions of both stores, first's before second's; an empty
    side returns the other store itself."""
    if len(first) == 0 or len(second) == 0:
        return second if len(first) == 0 else first
    columns = {name: np.concatenate([first_col, getattr(second, name)])
               for name, first_col in first.columns().items() if name != "row"}
    columns["row"] = np.concatenate([first.row, second.row + len(first.states)])
    return ReplayBuffer(**columns)


def sampling_probabilities(priorities, omega: float = 1.0) -> np.ndarray:
    """Normalized sampling distribution p_i^omega / sum_k p_k^omega."""
    p = np.asarray(priorities, dtype=float)
    if p.size == 0:
        raise ValueError("no priorities to normalize")
    if np.any(p <= 0):
        raise ValueError("priorities must be positive")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    w = p**omega
    return w / w.sum()


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


def retain_top_fraction(experiences: ReplayBuffer,
                        fraction: float = CONSOLIDATION_FRACTION) -> ReplayBuffer:
    """The ceil(fraction*N) highest-priority transitions of a period.

    Ties break by (node_id, t) ascending, so the retained set is
    deterministic. The result is a copy of a subset of the input.
    """
    if len(experiences) == 0:
        raise ValueError("cannot retain from an empty collection")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    k = math.ceil(fraction * len(experiences))
    order = np.lexsort((experiences.t, experiences.node_id, -experiences.priorities()))
    return experiences.take(order[:k])


class ConsolidationMemory:
    """Retained top-priority transitions of every past period, in the order
    the periods were added."""

    def __init__(self, store: ReplayBuffer | None = None):
        self.store = store if store is not None else ReplayBuffer()

    def __len__(self) -> int:
        return len(self.store)

    def periods(self) -> list[int]:
        return sorted(set(self.store.period.tolist()))

    def add_period(self, period: int, retained: ReplayBuffer) -> None:
        if period in self.periods():
            raise ValueError(f"period {period} already retained")
        if np.any(retained.period != period):
            raise ValueError(f"retained transitions do not all come from period {period}")
        self.store = concatenate(self.store, retained)

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Indices of a uniform draw with replacement from the store."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if len(self) == 0:
            raise ValueError("consolidation memory is empty")
        return rng.integers(0, len(self), size=count)


def mixed_batch(buffer: ReplayBuffer, memory: ConsolidationMemory, batch_size: int,
                rho: float, omega: float, rng: np.random.Generator) -> Batch:
    """A batch of exactly batch_size: round(rho*B) uniform memory replays
    (skipped while the memory is empty), remainder prioritized from the
    buffer.

    Memory rows are drawn first and come first, then buffer rows, so the
    draw order is reproducible for a fixed generator.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 <= rho <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if len(buffer) == 0:
        raise ValueError("cannot build a batch from an empty replay buffer")
    n_memory = int(rho * batch_size + 0.5) if len(memory) > 0 else 0
    parts = []
    if n_memory:
        parts.append(memory.store.gather(memory.draw(n_memory, rng)))
    if n_memory < batch_size:
        parts.append(buffer.gather(sample(buffer, batch_size - n_memory, omega, rng)))
    if len(parts) == 1:
        return parts[0]
    return Batch(*(np.concatenate(pair) for pair in zip(*parts)))
