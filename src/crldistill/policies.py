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


@dataclass
class SoftmaxPolicy:
    """Trainable student: one logit per (state, token), floored softmax rows."""

    logits: np.ndarray  # (num_states, vocab_size)
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        self.logits = np.array(self.logits, dtype=np.float64)
        if self.logits.ndim != 2:
            raise ValueError("logits must be a (num_states, vocab_size) table")
        if self.floor < 0:
            raise ValueError("floor must be nonnegative")

    @property
    def num_states(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[1]

    def raw_probs(self, state) -> np.ndarray:
        """Unfloored softmax of the logit row `state` (or of every row, for
        `ALL_STATES`)."""
        row = self.logits[state]
        z = row - row.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def action_probs(self, state) -> np.ndarray:
        return floor_distribution(self.raw_probs(state), self.floor)

    def copy(self) -> "SoftmaxPolicy":
        return SoftmaxPolicy(self.logits.copy(), self.floor)

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


@dataclass
class TeacherPolicy:
    """Frozen probability table, rows floored onto the simplex."""

    probs: np.ndarray
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("probs must be a (num_states, vocab_size) table")
        if (p < 0).any():
            raise ValueError("probabilities must be nonnegative")
        sums = p.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("teacher rows must sum to 1")
        p = p / sums[:, None]
        self.probs = floor_distribution(p, self.floor)

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[1]

    def action_probs(self, state) -> np.ndarray:
        return self.probs[state]


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
