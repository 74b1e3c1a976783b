# Tabular softmax student policies and frozen teacher tables.
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_FLOOR = 1e-8

# Index that selects every row: `action_probs(ALL_STATES)` is the whole
# (num_states, vocab_size) table, computed by the same per-row code.
ALL_STATES = slice(None)


def floor_distribution(p: np.ndarray, floor: float) -> np.ndarray:
    """Mix a uniform floor into a distribution, staying exactly on the simplex."""
    if floor == 0.0:
        return p
    return (p + floor) / (1.0 + p.shape[-1] * floor)


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark `a` read-only and return it."""
    a.setflags(False)  # write=False, passed by position: a third of the cost
    return a


class SoftmaxPolicy:
    """Trainable student: one logit per (state, token), floored softmax rows.

    `logits` is a read-only float64 table. Assigning `policy.logits = new`
    is the only update: it stores a read-only float64 copy of `new` and
    empties `tables`, so a table derived from old logits is never read
    again. An in-place write raises.

    `tables` holds what is derived from the current logits, built once per
    logits value by its one builder and read-only: the whole-table softmax
    here, and `env.state_tables`, the samplers' forms of it and
    `divergence.divergence_gradient` elsewhere. Keys that depend on a
    teacher hold the teacher object itself, so a table cannot be mistaken
    for that of a later teacher; teachers are immutable.
    """

    def __init__(self, logits, floor: float = DEFAULT_FLOOR):
        if floor < 0:
            raise ValueError("floor must be nonnegative")
        self._floor = floor
        self.logits = logits

    @property
    def logits(self) -> np.ndarray:  # (num_states, vocab_size)
        return self._logits

    @logits.setter
    def logits(self, value) -> None:
        table = np.array(value, np.float64)
        if table.ndim != 2:
            raise ValueError("logits must be a (num_states, vocab_size) table")
        self._logits = read_only(table)
        self.tables = {}

    @property
    def floor(self) -> float:
        return self._floor

    @property
    def num_states(self) -> int:
        return self._logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self._logits.shape[1]

    def _softmax(self) -> tuple[np.ndarray, np.ndarray]:
        """The unfloored and floored softmax of every logit row."""
        both = self.tables.get("softmax")
        if both is None:
            z = self._logits - self._logits.max(axis=-1, keepdims=True)
            e = np.exp(z)
            raw = read_only(e / e.sum(axis=-1, keepdims=True))
            both = self.tables["softmax"] = (
                raw, read_only(floor_distribution(raw, self._floor)))
        return both

    def raw_probs(self, state) -> np.ndarray:
        """Unfloored softmax of the logit row `state` (or of every row, for
        `ALL_STATES`)."""
        return self._softmax()[0][state]

    def action_probs(self, state) -> np.ndarray:
        return self._softmax()[1][state]

    def copy(self) -> "SoftmaxPolicy":
        return SoftmaxPolicy(self._logits, self._floor)

    @classmethod
    def uniform(cls, num_states: int, vocab_size: int,
                floor: float = DEFAULT_FLOOR) -> "SoftmaxPolicy":
        return cls(np.zeros((num_states, vocab_size)), floor)

    @classmethod
    def from_probs(cls, probs: np.ndarray,
                   floor: float = DEFAULT_FLOOR) -> "SoftmaxPolicy":
        """Logit table whose softmax reproduces `probs` (up to the floor)."""
        p = np.asarray(probs, dtype=np.float64)
        return cls(np.log(np.clip(p, 1e-300, None)), floor)


@dataclass(frozen=True, eq=False)
class TeacherPolicy:
    """Frozen probability table, rows floored onto the simplex; `probs` is
    read-only. Compared and hashed by identity, as cache keys need."""

    probs: np.ndarray
    floor: float = DEFAULT_FLOOR
    _stacks: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("probs must be a (num_states, vocab_size) table")
        if (p < 0).any():
            raise ValueError("probabilities must be nonnegative")
        sums = p.sum(axis=1)
        # np.allclose(sums, 1.0, atol=1e-9), without its set-up cost
        if not (np.abs(sums - 1.0) <= 1e-9 + 1e-5).all():
            raise ValueError("teacher rows must sum to 1")
        p = p / sums[:, None]
        object.__setattr__(self, "probs",
                           read_only(floor_distribution(p, self.floor)))

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[1]

    def action_probs(self, state) -> np.ndarray:
        return self.probs[state]

    def rows(self, count: int) -> np.ndarray:
        """`probs` repeated down to `count` rows, one copy per cell of a
        student that stacks count // num_states cells: `probs` itself for
        one cell, otherwise built once per count and read-only."""
        if count == len(self.probs):
            return self.probs
        if count not in self._stacks:
            self._stacks[count] = read_only(np.concatenate(
                [self.probs] * (count // len(self.probs))))
        return self._stacks[count]


def teacher_copy(teacher: TeacherPolicy, floor: float | None = None) -> SoftmaxPolicy:
    """Student whose rows match the teacher's up to re-flooring (divergence ~ floor^2)."""
    f = teacher.floor if floor is None else floor
    return SoftmaxPolicy(np.log(teacher.probs), f)


def save_policy(policy: SoftmaxPolicy, path) -> None:
    """Checkpoint format: .npz with little-endian float64 `logits` and `floor`.

    `path` is a file name or a binary file object.
    """
    np.savez(path, logits=policy.logits.astype("<f8"),
             floor=np.array([policy.floor], dtype="<f8"))


def load_policy(path) -> SoftmaxPolicy:
    with np.load(path) as data:
        return SoftmaxPolicy(data["logits"], float(data["floor"][0]))
