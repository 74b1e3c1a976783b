# Finite token MDPs: deterministic transitions over a small vocabulary,
# binary terminal reward, episodic rollout and exhaustive enumeration.
from __future__ import annotations

import bisect
import re
from collections import namedtuple
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
import yaml

from . import divergence as dv
from .policies import ALL_STATES, TeacherPolicy, read_only

ENUMERATION_LEAF_CAP = 10**6


class EnumerationCapExceeded(RuntimeError):
    """Raised when exhaustive enumeration would exceed the leaf cap."""


@dataclass(frozen=True)
class TokenMdp:
    """Episodic MDP whose actions are tokens and whose transitions are deterministic.

    `transition[s, a]` gives the successor state. Episodes start at
    `initial_state`, end on entering a terminal state, and truncate at
    `horizon_cap` steps with zero reward.
    """

    num_states: int
    vocab_size: int
    transition: np.ndarray  # (num_states, vocab_size) int
    initial_state: int
    terminal_states: frozenset[int]
    horizon_cap: int
    task_reward: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_states <= 0 or self.vocab_size <= 0 or self.horizon_cap <= 0:
            raise ValueError("num_states, vocab_size and horizon_cap must be positive")
        # a read-only copy, so the cached tree below cannot go stale
        t = np.array(self.transition, dtype=np.int64)
        if t.shape != (self.num_states, self.vocab_size):
            raise ValueError("transition table must be (num_states, vocab_size)")
        if (t < 0).any() or (t >= self.num_states).any():
            raise ValueError("transition targets out of range")
        t.flags.writeable = False
        object.__setattr__(self, "transition", t)
        for s in self.terminal_states:
            if not 0 <= s < self.num_states:
                raise ValueError(f"terminal state {s} out of range")
            r = self.task_reward.get(s, 0.0)
            if r not in (0.0, 1.0):
                raise ValueError("task rewards must be binary")
        if self.initial_state in self.terminal_states:
            raise ValueError("initial state may not be terminal")

    @cached_property
    def terminal(self) -> np.ndarray:
        """Whether each state is terminal, (num_states,) bool, read-only."""
        terminal = np.zeros(self.num_states, dtype=bool)
        terminal[list(self.terminal_states)] = True
        return read_only(terminal)

    @cached_property
    def reward_of(self) -> np.ndarray:
        """Task reward on entering each state (0 if running), read-only."""
        rewards = [self.task_reward.get(s, 0.0)
                   for s in range(self.num_states)]
        return read_only(np.where(self.terminal, rewards, 0.0))

    @cached_property
    def leaf_count(self) -> int:
        """Leaves of the trajectory tree, counted exactly with Python ints
        per (depth, state) over the transition table, without building it."""
        ends = self.terminal[self.transition]
        # below[s]: leaves under a running state s at the current depth;
        # at depth horizon_cap each running row is one leaf
        below = np.ones(self.num_states, dtype=object)
        for _ in range(self.horizon_cap):
            below = np.where(ends, 1, below[self.transition]).sum(axis=1)
        return int(below[self.initial_state])

    @cached_property
    def _step_lists(self) -> tuple[list, list, list]:
        """`transition`, `terminal` and `reward_of` as lists, for the plain
        Python steps of `rollout`."""
        return (self.transition.tolist(), self.terminal.tolist(),
                self.reward_of.tolist())

    def rows(self, cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`transition`, `terminal` and `reward_of` for a stack of `cells`
        copies of the MDP, where row c * num_states + s is state s of cell c
        and every successor stays in its cell: the tables themselves for one
        cell, otherwise built once per count and read-only."""
        if cells == 1:
            return self.transition, self.terminal, self.reward_of
        tables = self._stacks.get(cells)
        if tables is None:
            first = np.arange(cells) * self.num_states
            successor = (self.transition + first[:, None, None]).reshape(
                -1, self.vocab_size)
            tables = self._stacks[cells] = (
                read_only(successor), read_only(np.tile(self.terminal, cells)),
                read_only(np.tile(self.reward_of, cells)))
        return tables

    @cached_property
    def _stacks(self) -> dict:
        return {}

    @cached_property
    def _tree(self) -> "_Steps":
        """The trajectory tree's policy-free arrays, built once (see
        `enumerate_batch`) and read-only, since every batch shares them."""
        return _Steps(*map(read_only, _build_tree(self)))


@dataclass(eq=False)
class TrajectoryBatch:
    """B trajectories as padded (B, T) arrays, the form the estimator uses.

    Row k holds trajectory k's first `lengths[k]` steps: acting states (the
    rows of the acting student's table: the states themselves unless the
    student stacks several cells), tokens, task rewards of the states
    entered, and at the acting states the budget cost and the penalty
    divergence against the teacher under the acting student. Past a row's
    length every entry is 0. `ledgers` keeps the budget ledgers that
    `shaping` builds for the batch, one per budget.
    """

    states: np.ndarray  # (B, T) int
    tokens: np.ndarray  # (B, T) int
    lengths: np.ndarray  # (B,) int
    rewards: np.ndarray  # (B, T) float
    costs: np.ndarray  # (B, T) float
    penalties: np.ndarray  # (B, T) float
    terminated: np.ndarray  # (B,) bool
    ledgers: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def live(self) -> np.ndarray:
        """(B, T) mask of the steps each row actually took."""
        return np.arange(self.states.shape[1]) < self.lengths[:, None]

    def __len__(self) -> int:
        return len(self.lengths)

    def block(self, start: int, stop: int) -> "TrajectoryBatch":
        """Rows start..stop-1 as a batch of views; the batch for all rows."""
        if (start, stop) == (0, len(self)):
            return self
        return TrajectoryBatch(*(getattr(self, name)[start:stop]
                                 for name in _ROW_FIELDS))

    @classmethod
    def stack(cls, batches) -> "TrajectoryBatch":
        """The rows of the given equally wide batches, in order; a batch is
        returned as it is."""
        if isinstance(batches, cls):
            return batches
        batches = list(batches)
        if len({b.states.shape[1] for b in batches}) != 1:
            raise ValueError("stack needs one or more equally wide batches")
        return cls(*(np.concatenate([getattr(b, name) for b in batches])
                     for name in _ROW_FIELDS))


# the per-row arrays of a batch, in constructor order
_ROW_FIELDS = tuple(f.name for f in fields(TrajectoryBatch) if f.init)


def step(mdp: TokenMdp, state: int, token: int) -> tuple[int, float, bool]:
    """Apply one token: returns (next_state, task_reward, is_terminal)."""
    if not 0 <= state < mdp.num_states:
        raise ValueError(f"state {state} out of range")
    if not 0 <= token < mdp.vocab_size:
        raise ValueError(f"token {token} out of range")
    nxt = int(mdp.transition[state, token])
    return nxt, float(mdp.reward_of[nxt]), bool(mdp.terminal[nxt])


def rollout(mdp, student, teacher, spec,
            rng: np.random.Generator) -> TrajectoryBatch:
    """Sample one episode under the student, as a one-row batch as wide as
    a `rollout_batch` row (horizon_cap), recording teacher divergences.

    Steps in plain Python over list forms of the cumulative-probability,
    cost and penalty tables, built once per student logits, teacher and
    spec kinds and kept in `student.tables`, with `rollout_batch`'s token
    rule: the number of cumulative probabilities <= u, clipped to
    vocab_size - 1. Draws exactly one `rng.random()` per step, so it samples
    the episode that `rollout_batch` samples from a row of the same draws,
    and leaves the stream just past the episode's last step.
    """
    key = ("rollout", teacher, spec.cost_kind, spec.penalty_kind)
    lists = student.tables.get(key)
    if lists is None:
        _, cost, pen = state_tables(mdp, student, teacher, spec)
        lists = student.tables[key] = (_cumulative(student).tolist(),
                                       cost.tolist(), pen.tolist())
    cum, cost, pen = lists
    successor, terminal, reward = mdp._step_lists
    last = mdp.vocab_size - 1
    states, tokens, rewards = [], [], []
    s = mdp.initial_state
    for _ in range(mdp.horizon_cap):
        # cum[s] never decreases, so bisect_right counts its entries <= u
        a = min(bisect.bisect_right(cum[s], rng.random()), last)
        states.append(s)
        tokens.append(a)
        s = successor[s][a]
        rewards.append(reward[s])
        if terminal[s]:
            break
    pad = [0] * (mdp.horizon_cap - len(states))
    ints = np.array([states + pad, tokens + pad], dtype=np.int64)
    floats = np.array([rewards + pad, [cost[x] for x in states] + pad,
                       [pen[x] for x in states] + pad], dtype=np.float64)
    return TrajectoryBatch(ints[:1], ints[1:], np.array([len(states)]),
                           floats[:1], floats[1:2], floats[2:],
                           np.array([terminal[s]]))


def state_tables(mdp, student, teacher, spec):
    """Per-state arrays of a fixed student: action probabilities
    (num_states, vocab_size), and the cost and penalty divergences against
    the teacher (num_states,), each computed over the whole table at once
    with the per-state formulas (a stacked student's rows against the
    teacher's rows of their states). The penalty table is the cost table
    itself when `spec.penalty_kind == spec.cost_kind`. Built once per student
    logits, teacher and spec kinds, kept in `student.tables`, read-only.
    """
    key = ("state_tables", teacher, spec.cost_kind, spec.penalty_kind)
    tables = student.tables.get(key)
    if tables is None:
        probs = student.action_probs(ALL_STATES)
        mu = teacher.rows(student.num_states)
        cost = read_only(dv.divergence(probs, mu, spec.cost_kind))
        pen = cost if spec.penalty_kind == spec.cost_kind else \
            read_only(dv.divergence(probs, mu, spec.penalty_kind))
        tables = student.tables[key] = (probs, cost, pen)
    return tables


def _cumulative(student) -> np.ndarray:
    """Each state's cumulative action probabilities, the samplers' token
    rule table; built once per student logits."""
    cum = student.tables.get("cumulative")
    if cum is None:
        cum = student.tables["cumulative"] = read_only(
            np.cumsum(student.action_probs(ALL_STATES), axis=1))
    return cum


class _Steps(NamedTuple):
    """The policy-free part of a batch: its steps, the `live` mask and the
    task rewards of the states entered (0 past each row's length)."""

    states: np.ndarray
    tokens: np.ndarray
    lengths: np.ndarray
    terminated: np.ndarray
    live: np.ndarray
    rewards: np.ndarray


def _task_steps(rows, states, tokens, lengths, terminated) -> _Steps:
    """The steps with their `live` mask and task rewards, looked up in the
    (transition, terminal, reward_of) `rows` that `states` index."""
    successor, _, reward_of = rows
    live = np.arange(states.shape[1]) < lengths[:, None]
    rewards = np.where(live, reward_of[successor[states, tokens]], 0.0)
    return _Steps(states, tokens, lengths, terminated, live, rewards)


def _lookup_batch(steps: _Steps, cost, pen) -> TrajectoryBatch:
    """The batch of the given steps, with costs and penalties from the
    per-state tables of `state_tables` (0 past each row's length)."""
    costs = np.where(steps.live, cost[steps.states], 0.0)
    pens = costs if pen is cost else np.where(steps.live, pen[steps.states],
                                              0.0)
    batch = TrajectoryBatch(steps.states, steps.tokens, steps.lengths,
                            steps.rewards, costs, pens, steps.terminated)
    batch.live = steps.live  # fills the cached property
    return batch


def rollout_batch(mdp, student, teacher, spec,
                  uniforms: np.ndarray) -> TrajectoryBatch:
    """Sample one episode per row of `uniforms`, shape (B, horizon_cap), or
    (C, B, horizon_cap) for a student that stacks C cells' tables (cell c's
    state s is row c * num_states + s): then row b of block c is sampled by
    cell c and is row c * B + b of the batch.

    Row k acts at step t on `uniforms[k, t]` with the token rule of
    `rollout`: the number of cumulative probabilities <= u, clipped to
    vocab_size - 1. A row filled with the first horizon_cap draws of a stream
    therefore gives the episode `rollout` samples from that stream. The
    student is fixed for the call, so all rows step together on its
    cumulative-probability, cost and penalty tables and on `mdp.rows(C)`.
    """
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim == 2:
        u = u[None]
    if u.ndim != 3 or u.shape[2] != mdp.horizon_cap:
        raise ValueError("uniforms must have shape (batch, horizon_cap)"
                         " or (cells, batch, horizon_cap)")
    cells, count = u.shape[0], u.shape[0] * u.shape[1]
    if student.num_states != cells * mdp.num_states:
        raise ValueError(f"a student of {student.num_states} states cannot"
                         f" sample {cells} cells of {mdp.num_states}")
    u = u.reshape(count, mdp.horizon_cap)
    rows = mdp.rows(cells)
    successor, terminal, _ = rows
    _, cost, pen = state_tables(mdp, student, teacher, spec)
    cum = _cumulative(student)

    states = np.zeros((count, mdp.horizon_cap), dtype=np.int64)
    tokens = np.zeros((count, mdp.horizon_cap), dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    state = np.repeat(np.arange(cells) * mdp.num_states + mdp.initial_state,
                      count // cells)
    for t in range(mdp.horizon_cap):
        running = np.flatnonzero(~terminal[state])
        if running.size == 0:
            break
        s = state[running]
        a = np.minimum((cum[s] <= u[running, t, None]).sum(axis=1),
                       mdp.vocab_size - 1)
        states[running, t] = s
        tokens[running, t] = a
        lengths[running] = t + 1
        state[running] = successor[s, a]
    return _lookup_batch(_task_steps(rows, states, tokens, lengths,
                                     terminal[state]), cost, pen)


def _build_tree(mdp) -> _Steps:
    """Every trajectory of `mdp` in lexicographic token order.

    The tree grows one depth at a time: each running row becomes one row per
    token, in token order, and each finished row is carried as itself, so
    the rows keep the order of a depth-first walk. The arrays are as wide as
    the longest row.
    """
    v, width = mdp.vocab_size, mdp.horizon_cap
    states = np.zeros((1, width), dtype=np.int64)
    tokens = np.zeros((1, width), dtype=np.int64)
    lengths = np.zeros(1, dtype=np.int64)
    state = np.array([mdp.initial_state], dtype=np.int64)
    for t in range(width):
        done = mdp.terminal[state]
        if done.all():
            break
        states, tokens, lengths, state = (
            np.repeat(x, np.where(done, 1, v), axis=0)
            for x in (states, tokens, lengths, state))
        rows = np.flatnonzero(~mdp.terminal[state])
        s = state[rows]
        a = np.tile(np.arange(v), len(rows) // v)
        states[rows, t] = s
        tokens[rows, t] = a
        lengths[rows] = t + 1
        state[rows] = mdp.transition[s, a]
    cut = lengths.max()
    return _task_steps(mdp.rows(1), states[:, :cut].copy(),
                       tokens[:, :cut].copy(), lengths, mdp.terminal[state])


def enumerate_batch(mdp, student, teacher, spec,
                    leaf_cap: int = ENUMERATION_LEAF_CAP):
    """Every trajectory of the student, as a batch in lexicographic token
    order (the order of a depth-first walk), and its exact probability,
    shape (B,).

    The transitions are deterministic, so the tree's steps, task rewards and
    `live` mask depend on the MDP alone: it is built once per MDP, kept on
    it, and every batch shares its read-only arrays. A call looks up the
    student's action probabilities, costs and penalties in `state_tables`.
    A leaf's probability is the product of its action probabilities taken
    left to right from 1.0, and the probabilities sum to one.

    Raises EnumerationCapExceeded exactly when the tree has more than
    `leaf_cap` leaves (`TokenMdp.leaf_count`), before building anything.
    """
    if mdp.leaf_count > leaf_cap:
        raise EnumerationCapExceeded(
            f"enumeration exceeds cap of {leaf_cap} leaves")
    tree = mdp._tree
    probs, cost, pen = state_tables(mdp, student, teacher, spec)
    # x * 1.0 == x, so past a row's length the product keeps its bits
    factors = np.where(tree.live, probs[tree.states, tree.tokens], 1.0)
    prob = np.ones(len(factors))
    for column in factors.T:
        prob = prob * column
    return _lookup_batch(tree, cost, pen), prob


def discounted_sum(steps: np.ndarray, discount: float) -> np.ndarray:
    """Each row of a (B, T) step array summed with weights discount ** t,
    one column at a time from the left. Entries past a row's length must be
    0; they leave the sum's bits unchanged."""
    acc = np.zeros(len(steps))
    scale = 1.0
    for t in range(steps.shape[1]):
        acc = acc + scale * steps[:, t]
        scale *= discount
    return acc


def weighted_sum(weights, values) -> float:
    """sum_k weights[k] * values[k], added in row order from 0.0 as a
    running scalar total adds them (accumulate runs left to right, unlike
    np.sum's pairwise order)."""
    terms = np.concatenate(([0.0], np.multiply(weights, values)))
    return float(np.add.accumulate(terms)[-1])


# one leaf of `enumerate_trajectories`: its row's steps as lists
_Leaf = namedtuple("_Leaf", "states tokens task_rewards costs "
                            "penalty_divergences terminated")


def enumerate_trajectories(mdp, student, teacher, spec,
                           leaf_cap: int = ENUMERATION_LEAF_CAP):
    """`enumerate_batch` as (leaf, probability) pairs, each leaf a row's
    first `lengths[k]` entries as lists; only the benchmark reads it."""
    batch, probs = enumerate_batch(mdp, student, teacher, spec, leaf_cap)
    steps = [a.tolist() for a in (batch.states, batch.tokens, batch.rewards,
                                  batch.costs, batch.penalties)]
    return [(_Leaf(*(rows[k][:n] for rows in steps), terminated), p)
            for k, (n, terminated, p) in enumerate(zip(
                batch.lengths.tolist(), batch.terminated.tolist(),
                probs.tolist()))]


# ---------------------------------------------------------------------------
# Built-in task family


def chain(length: int = 3, horizon_cap: int = 8) -> TokenMdp:
    """Straight chain: token 0 advances, token 1 ends in a zero-reward sink.

    States 0..length-1 are on the path, `length` is the rewarded goal and
    `length + 1` the sink.
    """
    goal, sink = length, length + 1
    n = length + 2
    trans = np.empty((n, 2), dtype=np.int64)
    for s in range(length):
        trans[s] = (s + 1, sink)
    trans[goal] = (goal, goal)
    trans[sink] = (sink, sink)
    return TokenMdp(n, 2, trans, 0, frozenset({goal, sink}), horizon_cap,
                    {goal: 1.0, sink: 0.0})


def chain_with_distractors(decision_states: int = 3,
                           horizon_cap: int = 8) -> TokenMdp:
    """Chain of decision states; only advancing through all of them succeeds.

    Tokens: 0 advances along the chain, 1 and 2 both derail toward the
    zero-reward fail state. Two properties shape the budget dynamics:

    * decision states are always followed by at least one more step (a commit
      state), so the cost incurred at each decision state is covered by a
      later budget check;
    * every exit from the chain is an action the teacher itself supports, so
      a policy pushed over the budget is pulled back toward the teacher
      rather than toward some teacher-unlikely escape.
    """
    k = decision_states
    commit_good, commit_bad = k, k + 1
    goal, fail = k + 2, k + 3
    n = k + 4
    trans = np.empty((n, 3), dtype=np.int64)
    for s in range(k):
        nxt = s + 1 if s + 1 < k else commit_good
        trans[s] = (nxt, commit_bad, commit_bad)
    trans[commit_good] = (goal, goal, goal)
    trans[commit_bad] = (fail, fail, fail)
    trans[goal] = (goal, goal, goal)
    trans[fail] = (fail, fail, fail)
    return TokenMdp(n, 3, trans, 0, frozenset({goal, fail}), horizon_cap,
                    {goal: 1.0, fail: 0.0})


def tension_teacher(mdp: TokenMdp, advance: float = 0.86,
                    floor: float = 1e-8):
    """Teacher for chain_with_distractors: mostly advances, keeps hazard mass.

    The leftover hazard mass (split over the derailing tokens) is sized so
    that suppressing it entirely at every decision state costs more
    divergence than the default budget allows, while a small residual hazard
    stays affordable.
    """
    if not 0.0 < advance < 1.0:
        raise ValueError("advance must be in (0, 1)")
    hazard = (1.0 - advance) / 2.0
    probs = np.full((mdp.num_states, mdp.vocab_size), 1.0 / mdp.vocab_size)
    for s in range(mdp.num_states):
        # Decision states are the ones where the token choice matters;
        # commits and terminals map every token to the same successor.
        if len(set(mdp.transition[s])) > 1:
            probs[s] = (advance, hazard, hazard)
    return TeacherPolicy(probs, floor=floor)


# ---------------------------------------------------------------------------
# Task file format (documented in README): YAML mapping with keys
#   num_states, vocab_size, initial_state, horizon_cap,
#   transitions: {"state token": next_state, ...},
#   terminal_rewards: {state: reward}

_TASK_KEYS = {"num_states", "vocab_size", "initial_state", "horizon_cap",
              "transitions", "terminal_rewards"}


class SafeLoader(yaml.SafeLoader):
    """PyYAML's safe loader with YAML 1.2 floats: an exponent needs no dot
    and no sign, so `3e-2` and `1.0e5` load as floats, not strings."""


SafeLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_task(path) -> TokenMdp:
    with open(path) as fh:
        raw = yaml.load(fh, Loader=SafeLoader)
    if not isinstance(raw, dict):
        raise ValueError("task file must be a mapping")
    unknown = set(raw) - _TASK_KEYS
    if unknown:
        raise ValueError(f"unknown task keys: {sorted(unknown)}")
    missing = _TASK_KEYS - set(raw)
    if missing:
        raise ValueError(f"missing task keys: {sorted(missing)}")
    for name in ("transitions", "terminal_rewards"):
        if not isinstance(raw[name], dict):
            raise ValueError(f"{name} must be a mapping")
    n, v = int(raw["num_states"]), int(raw["vocab_size"])
    trans = {}
    for key, nxt in raw["transitions"].items():
        m = re.fullmatch(r"\s*(\d+)\s+(\d+)\s*", str(key))
        if not m or int(m[1]) >= n or int(m[2]) >= v:
            raise ValueError(f"transition key {key!r} is not 's a' with "
                             f"0 <= s < {n} and 0 <= a < {v}")
        trans[int(m[1]), int(m[2])] = int(nxt)
    # counted before a states x tokens table is built
    if len(trans) < n * v:
        raise ValueError("transition map must be total over states x tokens")
    rewards = {int(s): float(r) for s, r in raw["terminal_rewards"].items()}
    table = [[trans[s, a] for a in range(v)] for s in range(n)]
    return TokenMdp(n, v, table, int(raw["initial_state"]),
                    frozenset(rewards), int(raw["horizon_cap"]), rewards)


def save_task(mdp: TokenMdp, path) -> None:
    doc = {
        "num_states": int(mdp.num_states),
        "vocab_size": int(mdp.vocab_size),
        "initial_state": int(mdp.initial_state),
        "horizon_cap": int(mdp.horizon_cap),
        "transitions": {f"{s} {a}": int(mdp.transition[s, a])
                        for s in range(mdp.num_states)
                        for a in range(mdp.vocab_size)},
        "terminal_rewards": {int(s): float(mdp.task_reward.get(s, 0.0))
                             for s in sorted(mdp.terminal_states)},
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
