# Finite token MDPs: deterministic transitions over a small vocabulary,
# binary terminal reward, episodic rollout and exhaustive enumeration.
from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import yaml

from . import divergence as dv
from .policies import ALL_STATES, TeacherPolicy

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
        t = np.asarray(self.transition, dtype=np.int64)
        if t.shape != (self.num_states, self.vocab_size):
            raise ValueError("transition table must be (num_states, vocab_size)")
        if (t < 0).any() or (t >= self.num_states).any():
            raise ValueError("transition targets out of range")
        object.__setattr__(self, "transition", t)
        for s in self.terminal_states:
            if not 0 <= s < self.num_states:
                raise ValueError(f"terminal state {s} out of range")
            r = self.task_reward.get(s, 0.0)
            if r not in (0.0, 1.0):
                raise ValueError("task rewards must be binary")
        if self.initial_state in self.terminal_states:
            raise ValueError("initial state may not be terminal")

    def is_terminal(self, state: int) -> bool:
        return state in self.terminal_states

    def reward_at(self, state: int) -> float:
        return self.task_reward.get(state, 0.0) if self.is_terminal(state) else 0.0


@dataclass
class Trajectory:
    """One episode: the acting states, chosen tokens, and per-step quantities.

    `costs[t]` is the budget divergence at the state acted from at step t;
    `penalty_divergences[t]` is the divergence used inside the infeasibility
    penalty at the same state. Both are evaluated against the teacher under
    the student policy that generated the episode.
    """

    states: list[int]
    tokens: list[int]
    task_rewards: list[float]
    costs: list[float]
    penalty_divergences: list[float]
    terminated: bool

    @property
    def truncated(self) -> bool:
        """Cut at horizon_cap before reaching a terminal state."""
        return not self.terminated

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def total_task_reward(self) -> float:
        return sum(self.task_rewards)

    @property
    def total_cost(self) -> float:
        return sum(self.costs)


@dataclass(eq=False)
class TrajectoryBatch:
    """B trajectories as padded (B, T) arrays, the form the estimator uses.

    Row k holds trajectory k's first `lengths[k]` steps: acting states,
    tokens, task rewards, costs and penalty divergences (see `Trajectory`).
    Past a row's length every entry is 0. Indexing (and so iteration) gives
    `Trajectory` objects. `ledgers` keeps the budget ledgers that `shaping`
    builds for the batch, one per budget, as `live` is kept.
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

    def __getitem__(self, k: int) -> Trajectory:
        n = int(self.lengths[k])
        steps = (self.states, self.tokens, self.rewards, self.costs,
                 self.penalties)
        return Trajectory(*(a[k, :n].tolist() for a in steps),
                          bool(self.terminated[k]))

    @classmethod
    def stack(cls, trajectories) -> "TrajectoryBatch":
        """A batch of the given `Trajectory` objects, in order; a batch is
        returned as it is."""
        if isinstance(trajectories, cls):
            return trajectories
        trajs = list(trajectories)
        lengths = np.array([len(t) for t in trajs], dtype=np.int64)
        live = np.arange(lengths.max(initial=0)) < lengths[:, None]

        def pad(names, dtype):
            out = np.zeros((len(names),) + live.shape, dtype)
            out[:, live] = [[x for t in trajs for x in getattr(t, name)]
                            for name in names]
            return out

        states, tokens = pad(("states", "tokens"), np.int64)
        rewards, costs, pens = pad(
            ("task_rewards", "costs", "penalty_divergences"), np.float64)
        return cls(states, tokens, lengths, rewards, costs, pens,
                   np.array([t.terminated for t in trajs], dtype=bool))


def step(mdp: TokenMdp, state: int, token: int) -> tuple[int, float, bool]:
    """Apply one token: returns (next_state, task_reward, is_terminal)."""
    if not 0 <= state < mdp.num_states:
        raise ValueError(f"state {state} out of range")
    if not 0 <= token < mdp.vocab_size:
        raise ValueError(f"token {token} out of range")
    nxt = int(mdp.transition[state, token])
    done = mdp.is_terminal(nxt)
    reward = mdp.reward_at(nxt) if done else 0.0
    return nxt, reward, done


def rollout(mdp, student, teacher, spec, rng: np.random.Generator) -> Trajectory:
    """Sample one episode under the student, recording teacher divergences.

    Reads the per-state tables of `state_tables` once per call and steps in
    plain Python with `rollout_batch`'s token rule: the number of cumulative
    probabilities <= u, clipped to vocab_size - 1. Draws exactly one
    `rng.random()` per step, so it samples the episode that `rollout_batch`
    samples from a row of the same draws, and leaves the stream just past
    the episode's last step.
    """
    probs, cost, pen = state_tables(mdp, student, teacher, spec)
    cum = probs.cumsum(axis=1).tolist()
    cost, pen = cost.tolist(), pen.tolist()
    successor = mdp.transition.tolist()
    last = mdp.vocab_size - 1
    states, tokens, rewards = [], [], []
    s = mdp.initial_state
    terminated = False
    for _ in range(mdp.horizon_cap):
        # cum[s] never decreases, so bisect_right counts its entries <= u
        a = min(bisect.bisect_right(cum[s], rng.random()), last)
        states.append(s)
        tokens.append(a)
        s = successor[s][a]
        rewards.append(mdp.reward_at(s))
        if mdp.is_terminal(s):
            terminated = True
            break
    return Trajectory(states, tokens, rewards, [cost[s] for s in states],
                      [pen[s] for s in states], terminated)


def state_tables(mdp, student, teacher, spec):
    """Per-state arrays of a fixed student: action probabilities
    (num_states, vocab_size), and the cost and penalty divergences against
    the teacher (num_states,), each computed over the whole table at once
    with the per-state formulas. The penalty table is the cost table itself
    when `spec.penalty_kind == spec.cost_kind`.
    """
    probs = student.action_probs(ALL_STATES)
    mu = teacher.action_probs(ALL_STATES)
    cost = dv.divergence(probs, mu, spec.cost_kind)
    pen = cost if spec.penalty_kind == spec.cost_kind else \
        dv.divergence(probs, mu, spec.penalty_kind)
    return probs, cost, pen


def _lookup_batch(mdp, states, tokens, lengths, terminated, cost, pen):
    """The batch of the given steps (0 past each row's length), with task
    rewards from the states entered and costs and penalties from the
    per-state tables of `state_tables`."""
    live = np.arange(states.shape[1]) < lengths[:, None]
    reward_of = np.array([mdp.reward_at(s) for s in range(mdp.num_states)],
                         dtype=float)
    rewards = np.where(live, reward_of[mdp.transition[states, tokens]], 0.0)
    costs = np.where(live, cost[states], 0.0)
    pens = costs if pen is cost else np.where(live, pen[states], 0.0)
    return TrajectoryBatch(states, tokens, lengths, rewards, costs, pens,
                           terminated)


def rollout_batch(mdp, student, teacher, spec,
                  uniforms: np.ndarray) -> TrajectoryBatch:
    """Sample one episode per row of `uniforms`, shape (B, horizon_cap).

    Row k acts at step t on `uniforms[k, t]` with the token rule of
    `rollout`: the number of cumulative probabilities <= u, clipped to
    vocab_size - 1. A row filled with the first horizon_cap draws of a stream
    therefore gives the episode `rollout` samples from that stream. The
    student is fixed for the call, so its cumulative-probability, cost and
    penalty tables are built once and all rows step together.
    """
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != mdp.horizon_cap:
        raise ValueError("uniforms must have shape (batch, horizon_cap)")
    probs, cost, pen = state_tables(mdp, student, teacher, spec)
    cum = np.cumsum(probs, axis=1)
    terminal = np.array([mdp.is_terminal(s) for s in range(mdp.num_states)])

    count = u.shape[0]
    states = np.zeros((count, mdp.horizon_cap), dtype=np.int64)
    tokens = np.zeros((count, mdp.horizon_cap), dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    state = np.full(count, mdp.initial_state, dtype=np.int64)
    for t in range(mdp.horizon_cap):
        rows = np.flatnonzero(~terminal[state])
        if rows.size == 0:
            break
        s = state[rows]
        a = np.minimum((cum[s] <= u[rows, t, None]).sum(axis=1),
                       mdp.vocab_size - 1)
        states[rows, t] = s
        tokens[rows, t] = a
        lengths[rows] = t + 1
        state[rows] = mdp.transition[s, a]
    return _lookup_batch(mdp, states, tokens, lengths, terminal[state], cost,
                         pen)


def enumerate_batch(mdp, student, teacher, spec,
                    leaf_cap: int = ENUMERATION_LEAF_CAP):
    """Every trajectory of the student, as a batch in lexicographic token
    order, and its exact probability, shape (B,).

    The tree grows one depth at a time: each running row becomes one row per
    token, in token order, and each finished row is carried as itself, so
    the rows keep the order of a depth-first walk. A leaf's probability is
    the product of its action probabilities taken left to right, and the
    probabilities sum to one. The batch is as wide as its longest row.

    Raises EnumerationCapExceeded exactly when the tree has more than
    `leaf_cap` leaves. Each depth's row count is checked before that depth
    is built; no depth has more rows than the tree has leaves, and the last
    has one row per leaf.
    """
    probs, cost, pen = state_tables(mdp, student, teacher, spec)
    terminal = np.array([mdp.is_terminal(s) for s in range(mdp.num_states)])
    v, width = mdp.vocab_size, mdp.horizon_cap
    states = np.zeros((1, width), dtype=np.int64)
    tokens = np.zeros((1, width), dtype=np.int64)
    lengths = np.zeros(1, dtype=np.int64)
    state = np.array([mdp.initial_state], dtype=np.int64)
    prob = np.ones(1)
    for t in range(width):
        done = terminal[state]
        if done.all():
            break
        count = np.where(done, 1, v)
        if count.sum() > leaf_cap:
            raise EnumerationCapExceeded(
                f"enumeration exceeds cap of {leaf_cap} leaves")
        states, tokens, lengths, state, prob = (
            np.repeat(x, count, axis=0)
            for x in (states, tokens, lengths, state, prob))
        rows = np.flatnonzero(~terminal[state])
        s = state[rows]
        a = np.tile(np.arange(v), len(rows) // v)
        states[rows, t] = s
        tokens[rows, t] = a
        lengths[rows] = t + 1
        prob[rows] = prob[rows] * probs[s, a]
        state[rows] = mdp.transition[s, a]
    cut = lengths.max()
    return _lookup_batch(mdp, states[:, :cut], tokens[:, :cut], lengths,
                         terminal[state], cost, pen), prob


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


def enumerate_trajectories(mdp, student, teacher, spec,
                           leaf_cap: int = ENUMERATION_LEAF_CAP):
    """`enumerate_batch` as a list of (`Trajectory`, probability) pairs."""
    batch, probs = enumerate_batch(mdp, student, teacher, spec, leaf_cap)
    return list(zip(batch, probs.tolist()))


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
    n, v = int(raw["num_states"]), int(raw["vocab_size"])
    trans = np.full((n, v), -1, dtype=np.int64)
    for key, nxt in raw["transitions"].items():
        s_str, a_str = str(key).split()
        trans[int(s_str), int(a_str)] = int(nxt)
    if (trans < 0).any():
        raise ValueError("transition map must be total over states x tokens")
    rewards = {int(s): float(r) for s, r in raw["terminal_rewards"].items()}
    return TokenMdp(n, v, trans, int(raw["initial_state"]),
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
