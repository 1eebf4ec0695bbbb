"""Experience storage: reward-prioritized replay plus a consolidation memory.

Both stores keep transitions in one format: columns over a time-major
(K, 6) step table, where transition i reads the W + 1 rows from start[i]
on, its state cut from the first W and its next state from the last W,
with its node's degree, its action, reward and terminal flag. A period's
pool (`ReplayBuffer`) reads the table of its period's `StateAssembler`,
in which a row is a state key, so start[i] is the key of its state minus
W. Priorities equal the (floored) reward, which never changes once a
transition exists, so the sampling distribution
p_i^omega / sum_k p_k^omega becomes one cumulative sum per pool and
every batch is a binary search of uniform draws, with replacement. After
each period the top fraction of that period's transitions by priority
goes into a consolidation memory, which copies each table row of their
windows once into a table of its own, and is replayed into later
training batches to guard old-node knowledge against forgetting.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .env import window_rows

PRIORITY_FLOOR = 1e-3
CONSOLIDATION_FRACTION = 0.05

# Per-transition columns of a ReplayBuffer, in window_columns order after
# start.
COLUMNS = {
    "start": np.int64,  # the (6, W + 1) window is steps[start : start + W + 1].T
    "degree": np.float64,
    "action": np.int64,
    "reward": np.float64,
    "terminal": np.bool_,
}
# Columns of a ConsolidationMemory: its step table, then a ReplayBuffer's
# columns and the origin of each transition.
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


def _window_batch(windows, degree, actions, rewards, terminals) -> Batch:
    """A batch whose state and next state of row i are cut from windows[i]."""
    return Batch(window_rows(windows[..., :-1], degree), actions, rewards,
                 window_rows(windows[..., 1:], degree), terminals)


def assign_priority(rewards, floor: float = PRIORITY_FLOOR) -> np.ndarray:
    """Reward-as-priority with a positive floor so nothing starves."""
    rewards = np.asarray(rewards, dtype=float)
    if np.any(rewards < 0):
        raise ValueError(f"rewards must be nonnegative, got {rewards.min()}")
    return np.maximum(rewards, floor)


class ReplayBuffer:
    """Columnar transitions over the step table `steps` of windows of
    W + 1 rows. A period's pool has a `source`, its period's
    `StateAssembler` (or anything with its `steps`, `window`, `degree` and
    `origins`), and reads the source's table at its first batch."""

    COLUMNS = COLUMNS

    def __init__(self, source=None, **columns):
        self.source = source
        self.window = source.window if source is not None else None
        for name, dtype in self.COLUMNS.items():
            empty = np.empty((0, 6)) if name == "steps" else ()
            setattr(self, name, np.asarray(columns.pop(name, empty), dtype=dtype))
        if columns:
            raise TypeError(f"unknown columns {sorted(columns)}")
        self._fill = len(self.action)  # next free transition
        self._cdf: tuple[float, np.ndarray] | None = None

    @cached_property
    def steps(self) -> np.ndarray:
        """The source's step table, read at the first batch."""
        return self.source.steps

    @cached_property
    def _windows(self) -> np.ndarray:
        """_windows[s] is the (6, W + 1) window that starts at row s, a view."""
        return np.lib.stride_tricks.sliding_window_view(self.steps, self.window + 1, axis=0)

    @classmethod
    def allocate(cls, transitions: int, source) -> ReplayBuffer:
        """Room for `transitions` transitions, to be written by add_rollout."""
        store = cls(source, **{name: np.empty(transitions, dtype) for name, dtype in COLUMNS.items()})
        store._fill = 0
        return store

    def __len__(self) -> int:
        return len(self.action)

    def origins(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(node_id, period, t) of transitions idx."""
        return self.source.origins(self.start[idx] + self.window)

    def subset(self, idx) -> ReplayBuffer:
        """Transitions idx, over the same source."""
        return ReplayBuffer(self.source, **{name: getattr(self, name)[idx] for name in COLUMNS})

    def add_rollout(self, keys, actions, rewards) -> ReplayBuffer:
        """Write one rollout (n steps from state keys[0] to keys[-1] + 1)
        into the next free slots; returns a view of its transitions."""
        n = len(actions)
        s = self._fill
        if n < 1 or s + n > len(self):
            raise ValueError(f"no room for a rollout of {n} steps")
        span = slice(s, s + n)
        self.start[span] = np.asarray(keys) - self.window
        self.degree[span] = self.source.degree(keys)
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
        builds it and kept until the contents change."""
        if self._cdf is None or self._cdf[0] != omega:
            cdf = sampling_probabilities(self.priorities(), omega).cumsum()
            cdf /= cdf[-1]
            self._cdf = (omega, cdf)
        return self._cdf[1]


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
    deterministic. The result is a subset of the input, over the same
    step table.
    """
    if len(experiences) == 0:
        raise ValueError("cannot retain from an empty collection")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    k = math.ceil(fraction * len(experiences))
    node_id, _, t = experiences.origins()
    order = np.lexsort((t, node_id, -experiences.priorities()))
    return experiences.subset(order[:k])


class ConsolidationMemory(ReplayBuffer):
    """Transitions of several periods, in the order the periods were added,
    in the columns of MEMORY_COLUMNS: a store over a step table of its own,
    so that it holds no reference to a period's table, with each
    transition's origin: the agent's retained transitions of every past
    period, or the full-retrain baseline's pool. Each table row of the
    added windows is copied once, as neighbouring windows share rows."""

    COLUMNS = MEMORY_COLUMNS

    def __init__(self, window: int | None = None, **columns):
        super().__init__(**columns)
        self.window = window  # W, set by the first period added when None

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


def mixed_batch(buffer: ReplayBuffer, memory: ConsolidationMemory, batch_size: int,
                rho: float, omega: float, rng: np.random.Generator) -> Batch:
    """A batch of exactly batch_size: round(rho*B) uniform memory replays
    (skipped while the memory is empty), remainder prioritized from the
    buffer.

    Memory rows are drawn first and come first, then buffer rows, so the
    draw order is reproducible for a fixed generator. The windows of both
    are cut into state rows together.
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
        parts.append(memory.window_columns(memory.draw(n_memory, rng)))
    if n_memory < batch_size:
        parts.append(buffer.window_columns(sample(buffer, batch_size - n_memory, omega, rng)))
    return _window_batch(*(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))))
