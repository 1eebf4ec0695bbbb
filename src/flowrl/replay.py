"""Experience storage: reward-prioritized replay plus a consolidation memory.

Transitions are kept in columns (`ReplayBuffer`). Transition i goes from
state row[i] to state row[i] + 1 of the store's `states`, which is either
a matrix of its own or `KeyedStates`, keys into the state tables of the
periods the transitions came from. A period's pool is keyed: it holds a
key, an action, a reward and a terminal flag per transition, and a batch
reads its states from the period's table by key. Priorities equal the
(floored) reward, which never changes once a transition exists, so the
sampling distribution p_i^omega / sum_k p_k^omega becomes one cumulative
sum per pool and every batch is a binary search of uniform draws, with
replacement. After each period the top fraction of that period's
transitions by priority is copied, states included, into a consolidation
memory and replayed into later training batches to guard old-node
knowledge against forgetting.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

PRIORITY_FLOOR = 1e-3
CONSOLIDATION_FRACTION = 0.05

# Per-transition columns of every ReplayBuffer.
TRANSITION_COLUMNS = {
    "row": np.int64,
    "action": np.int64,
    "reward": np.float64,
    "terminal": np.bool_,
}
# The origin of each transition: stored by a store with a state matrix,
# derived from the keys by a keyed one.
ORIGIN_COLUMNS = {
    "node_id": np.str_,
    "period": np.int64,
    "t": np.int64,  # time index of the prediction step within its period
}
COLUMNS = {**TRANSITION_COLUMNS, **ORIGIN_COLUMNS}


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


class KeyedStates:
    """The state keys of one or more period state tables, numbered back to
    back: key offsets[p] + k is key k of tables[p]. A table is a
    `StateAssembler`, or anything with its `key_count`, `pairs` and
    `origins`."""

    def __init__(self, *tables):
        self.tables = tables
        self.offsets = np.cumsum([0, *(table.key_count for table in tables)])

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def _by_table(self, keys, method: str) -> tuple[np.ndarray, ...]:
        """`method` of each key's table, answered in key order."""
        if len(self.tables) == 1:
            return getattr(self.tables[0], method)(keys)
        part = self.offsets.searchsorted(keys, side="right") - 1
        answers = [getattr(table, method)(keys[part == p] - self.offsets[p])
                   for p, table in enumerate(self.tables)]
        back = np.argsort(np.argsort(part, kind="stable"))  # each key's place among the answers
        return tuple(np.concatenate(pieces)[back] for pieces in zip(*answers))

    def pairs(self, keys) -> tuple[np.ndarray, np.ndarray]:
        return self._by_table(keys, "pairs")

    def origins(self, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._by_table(keys, "origins")


class ReplayBuffer:
    """Columnar transitions: transition i goes from state row[i] to
    row[i] + 1 of `states`, with the action, reward and terminal flag of
    that step and its origin (node_id, period, t).

    `states` is either a matrix of state rows, with the origin columns
    stored beside it, or `KeyedStates`, from whose keys the origin is
    derived."""

    def __init__(self, states=None, **columns):
        keyed = isinstance(states, KeyedStates)
        if not keyed:
            states = np.zeros((0, 0)) if states is None else np.asarray(states, dtype=float)
        self.states = states
        for name, dtype in TRANSITION_COLUMNS.items():
            setattr(self, name, np.asarray(columns.pop(name, ()), dtype=dtype))
        self._origins = None if keyed else tuple(
            np.asarray(columns.pop(name, ()), dtype=dtype) for name, dtype in ORIGIN_COLUMNS.items()
        )
        if columns:
            raise TypeError(f"unknown columns {sorted(columns)}")
        self._fill = len(self.row)  # next free transition
        self._cdf: tuple[float, np.ndarray] | None = None

    @classmethod
    def allocate(cls, transitions: int, states: KeyedStates) -> ReplayBuffer:
        """Room for `transitions` keyed transitions, to be written by add_rollout."""
        store = cls(states, **{name: np.empty(transitions, dtype)
                               for name, dtype in TRANSITION_COLUMNS.items()})
        store._fill = 0
        return store

    def __len__(self) -> int:
        return len(self.row)

    @property
    def keyed(self) -> bool:
        return self._origins is None

    def origins(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(node_id, period, t) of transitions idx."""
        if self.keyed:
            return self.states.origins(self.row[idx])
        return tuple(column[idx] for column in self._origins)

    @property
    def node_id(self) -> np.ndarray:
        return self.origins()[0]

    @property
    def period(self) -> np.ndarray:
        return self.origins()[1]

    @property
    def t(self) -> np.ndarray:
        return self.origins()[2]

    def columns(self) -> dict[str, np.ndarray]:
        """`states` and every column a store of this kind keeps."""
        columns = {"states": self.states, **{name: getattr(self, name) for name in TRANSITION_COLUMNS}}
        if not self.keyed:
            columns.update(zip(ORIGIN_COLUMNS, self._origins))
        return columns

    def add_rollout(self, keys, actions, rewards) -> ReplayBuffer:
        """Write one rollout (n steps from state keys[0] to keys[-1] + 1)
        into the next free slots; returns a view of its transitions."""
        n = len(actions)
        s = self._fill
        if n < 1 or s + n > len(self.row):
            raise ValueError(f"no room for a rollout of {n} steps")
        span = slice(s, s + n)
        self.row[span] = keys
        self.action[span] = actions
        self.reward[span] = rewards
        self.terminal[span] = np.arange(n) == n - 1
        self._fill = s + n
        self._cdf = None
        return ReplayBuffer(self.states, **{name: getattr(self, name)[span] for name in TRANSITION_COLUMNS})

    def extend(self, items: ReplayBuffer) -> None:
        """Append items' transitions; an empty store takes items' arrays
        without copying them."""
        vars(self).update(vars(concatenate(self, items)))
        self._fill = len(self.row)
        self._cdf = None

    def _pairs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        if self.keyed:
            return self.states.pairs(rows)
        return self.states[rows], self.states[rows + 1]

    def take(self, idx) -> ReplayBuffer:
        """A compact copy of transitions idx with a state matrix of its
        own, in which each has its own (state, next state) pair of rows."""
        idx = np.asarray(idx, dtype=np.int64)
        states, next_states = self._pairs(self.row[idx])
        columns = {name: getattr(self, name)[idx] for name in TRANSITION_COLUMNS}
        columns.update(zip(ORIGIN_COLUMNS, self.origins(idx)))
        columns["row"] = np.arange(0, 2 * len(idx), 2)
        pairs = np.stack([states, next_states], axis=1).reshape(2 * len(idx), states.shape[1])
        return ReplayBuffer(pairs, **columns)

    def gather(self, idx) -> Batch:
        states, next_states = self._pairs(self.row[idx])
        return Batch(states, self.action[idx], self.reward[idx], next_states, self.terminal[idx])

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
    side returns the other store itself. Both keep a state matrix, or both
    are keyed, and then the second's keys follow the first's."""
    if len(first) == 0 or len(second) == 0:
        return second if len(first) == 0 else first
    if first.keyed != second.keyed:
        raise TypeError("cannot concatenate a keyed store with a materialized one")
    columns = {name: np.concatenate([first_col, getattr(second, name)])
               for name, first_col in first.columns().items() if name not in ("states", "row")}
    columns["row"] = np.concatenate([first.row, second.row + len(first.states)])
    if first.keyed:
        states = KeyedStates(*first.states.tables, *second.states.tables)
    else:
        states = np.concatenate([first.states, second.states])
    return ReplayBuffer(states, **columns)


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
    node_id, _, t = experiences.origins()
    order = np.lexsort((t, node_id, -experiences.priorities()))
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
        if retained.keyed:
            raise ValueError("retained transitions must carry their states, not keys into their period")
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
