# Policy-gradient estimators: the likelihood-ratio term on shaped rewards,
# the explicit divergence-dependence term, and exact enumeration oracles.
from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import divergence as dv
from . import shaping
from .env import (TrajectoryBatch, discounted_sum, enumerate_batch,
                  weighted_sum)
from .policies import ALL_STATES
from .shaping import ConstrainedRewardSpec

BASELINE_NONE = "none"
BASELINE_GROUP = "group"

CREDIT_TO_GO = "to-go"
CREDIT_STEP = "step"


@dataclass
class GradientEstimate:
    """Split estimate: table == term_i + term_ii elementwise."""

    table: np.ndarray
    term_i: np.ndarray
    term_ii: np.ndarray
    num_trajectories: int


def _returns_to_go(rewards, discount: float) -> np.ndarray:
    """Discounted reward-to-go of each row of a (B, T) reward array, built
    backwards one column at a time from the last column with a nonzero
    entry. Entries past a row's length must be 0, so the row's last step
    sees a continuation of 0; the skipped trailing columns are +0.0, which
    the loop would give them whatever the sign of their zeros."""
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.zeros_like(rewards)
    g = np.zeros(len(rewards))
    used = np.flatnonzero(rewards.any(axis=0))
    for t in range(used[-1] if used.size else -1, -1, -1):
        g = rewards[:, t] + discount * g
        out[:, t] = g
    return out


def _credits(shaped, discount: float, credit: str) -> np.ndarray:
    if credit == CREDIT_TO_GO:
        return _returns_to_go(shaped, discount)
    if credit == CREDIT_STEP:
        return np.asarray(shaped, dtype=np.float64)
    raise ValueError(f"unknown credit mode {credit!r}")


def _group_baselines(credits: np.ndarray, groups,
                     lengths: np.ndarray) -> np.ndarray:
    """Per step index, the mean credit over group members still running.

    Members are added in their listed order, one column per step, as a
    running scalar sum adds them; past a member's length its credit is 0,
    which leaves the sum's bits unchanged. Groups are disjoint: lists of
    members, or the rows of a (G, size) array of equally large groups.
    """
    if isinstance(groups, np.ndarray):
        index, short = groups, groups.shape[1] < 2
    else:
        short = any(len(members) < 2 for members in groups)
        size = max((len(members) for members in groups), default=0)
        # (G, size) member rows; -1 pads a short group with an appended
        # zero row
        index = np.array([list(m) + [-1] * (size - len(m)) for m in groups],
                         dtype=np.int64).reshape(len(groups), size)
    if short:
        raise ValueError("group baseline requires groups of at least 2")
    width, size = credits.shape[1], index.shape[1]
    members = np.vstack([credits, np.zeros(width)])[index]
    total = np.zeros((len(index), width))
    for j in range(size):
        total = total + members[:, j]
    running = np.append(lengths, 0)[index][..., None] > np.arange(width)
    base = np.zeros((len(credits) + 1, width))
    base[index] = (total / np.maximum(running.sum(axis=1), 1))[:, None]
    return base[:-1]


def _weights(batch, weights: Sequence[float] | None,
             size: int | None = None) -> np.ndarray:
    """Per-trajectory weights: 1/size each (the mean over each block of
    `size` rows, by default the whole batch) unless given."""
    if weights is None:
        return np.full(len(batch), 1.0 / max(size or len(batch), 1))
    return np.asarray(weights, dtype=np.float64)


def _spec_blocks(batch: TrajectoryBatch, spec):
    """(spec, block of rows) per run of equal specs, and the rows per cell.

    `spec` is one spec for the whole batch, or one per cell of a student
    that stacks C cells' tables: the batch's rows are then C equal blocks in
    cell order (as `env.rollout_batch` lays them out), and neighbouring
    cells with equal specs form one block.
    """
    specs = [spec] if isinstance(spec, ConstrainedRewardSpec) else list(spec)
    if len(specs) == 1:
        return [(specs[0], batch)], len(batch)
    size = len(batch) // max(len(specs), 1)
    if size * len(specs) != len(batch):
        raise ValueError(f"a batch of {len(batch)} rows does not split into"
                         f" {len(specs)} cells")
    blocks, start = [], 0
    for cell_spec, run in itertools.groupby(specs):
        stop = start + size * len(list(run))
        blocks.append((cell_spec, batch.block(start, stop)))
        start = stop
    return blocks, size


def _join(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _accumulate(shape, states: np.ndarray, minus: np.ndarray,
                plus: np.ndarray | None = None,
                tokens: np.ndarray | None = None) -> np.ndarray:
    """A zero (num_states, vocab_size) table after, for each step k in turn,
    `table[states[k]] -= minus[k]` and then, when given,
    `table[states[k], tokens[k]] += plus[k]`.

    The updates are laid out in that order and applied by one np.add.at,
    which adds repeated indices in index order; x - y and x + (-y) are the
    same IEEE operation, so every entry gets the loop's bits.
    """
    vocab = shape[1]
    width = vocab if plus is None else vocab + 1
    index = np.empty((len(states), width), dtype=np.int64)
    values = np.empty((len(states), width))
    index[:, :vocab] = (states * vocab)[:, None] + np.arange(vocab)
    values[:, :vocab] = -minus
    if plus is not None:
        index[:, vocab] = states * vocab + tokens
        values[:, vocab] = plus
    table = np.zeros(shape[0] * vocab)
    np.add.at(table, index.ravel(), values.ravel())
    return table.reshape(shape)


def likelihood_ratio_term(student, batch: TrajectoryBatch, shaped,
                          baseline: str = BASELINE_NONE,
                          groups=None,
                          credit: str = CREDIT_TO_GO,
                          discount: float = 1.0,
                          weights: Sequence[float] | None = None) -> np.ndarray:
    """Weighted sum over trajectories of sum_t grad log pi(a_t|s_t) * advantage_t.

    `shaped` holds the batch's (B, T) shaped rewards, 0 past each row's
    length. The default weights 1/B give the sampled mean; leaf
    probabilities give the exact expectation.
    """
    credits = _credits(shaped, discount, credit)
    if baseline == BASELINE_GROUP:
        if groups is None:
            raise ValueError("group baseline requires group assignments")
        base = _group_baselines(credits, groups, batch.lengths)
    elif baseline == BASELINE_NONE:
        base = 0.0
    else:
        raise ValueError(f"unknown baseline mode {baseline!r}")

    adv = ((credits - base) * _weights(batch, weights)[:, None])[batch.live]
    states = batch.states[batch.live]
    probs = student.action_probs(ALL_STATES)
    return _accumulate(student.logits.shape, states,
                       adv[:, None] * probs[states], adv,
                       batch.tokens[batch.live])


def explicit_dependence_term(student, teacher, batch: TrajectoryBatch,
                             spec: ConstrainedRewardSpec,
                             weights: Sequence[float] | None = None) -> np.ndarray:
    """Minus the weighted, discounted divergence gradient on the steps whose
    shaped reward contains the divergence itself, as `shaping.term_ii_rule`
    names them for the spec's mode. `spec` may be one spec per cell of a
    stacked student, as in `total_gradient`."""
    blocks, size = _spec_blocks(batch, spec)
    weights = _weights(batch, weights, size)
    states, values = [], []
    start = 0
    for cell_spec, block in blocks:
        rows = slice(start, start + len(block))
        start = rows.stop
        kind, coefficient, mask = shaping.term_ii_rule(cell_spec)
        if coefficient == 0.0:
            continue
        flags = mask(block, cell_spec) if mask else block.live
        # weight * coefficient, times the discount once per step, left to
        # right
        factors = np.full((len(block), block.states.shape[1] + 1),
                          cell_spec.discount)
        factors[:, 0] = weights[rows] * coefficient
        scale = np.multiply.accumulate(factors, axis=1)[:, :-1]
        steps = block.states[flags]
        grads = dv.divergence_gradient(student, teacher, ALL_STATES, kind)
        states.append(steps)
        values.append(scale[flags][:, None] * grads[steps])
    if not states:
        return np.zeros_like(student.logits)
    return _accumulate(student.logits.shape, _join(states), _join(values))


def _credit_mode(spec: ConstrainedRewardSpec) -> str:
    return CREDIT_STEP if spec.mode == shaping.KL_ONLY else CREDIT_TO_GO


def total_gradient(student, teacher, trajectories,
                   spec: ConstrainedRewardSpec,
                   baseline: str = BASELINE_NONE,
                   groups=None,
                   weights: Sequence[float] | None = None) -> GradientEstimate:
    """Full ascent direction for the spec's mode: the mean over a sampled
    batch, or the expectation when `weights` are the trajectories'
    probabilities. `trajectories` is a `TrajectoryBatch`, or a list of
    equally wide ones (such as `env.rollout` results), stacked into one.

    `spec` may also be a sequence of C specs, one per cell of a student that
    stacks C cells' tables (see `env.rollout_batch`): the batch's rows are
    then C equal blocks, block c sampled by cell c and shaped, credited and
    given term ii by its spec, and the default weights are 1/B for blocks of
    B rows. Each term makes one np.add.at in each cell's loop order, so cell
    c's rows of the result have the bits of a one-cell call on its block.
    """
    batch = TrajectoryBatch.stack(trajectories)
    blocks, size = _spec_blocks(batch, spec)
    weights = _weights(batch, weights, size)
    # each block's credits, passed on as step rewards so they stay as built
    credits = _join([_credits(shaping.shape_rewards(block, cell_spec),
                              cell_spec.discount, _credit_mode(cell_spec))
                     for cell_spec, block in blocks])
    term_i = likelihood_ratio_term(student, batch, credits,
                                   baseline=baseline, groups=groups,
                                   credit=CREDIT_STEP, weights=weights)
    term_ii = explicit_dependence_term(student, teacher, batch, spec,
                                       weights=weights)
    return GradientEstimate(term_i + term_ii, term_i, term_ii, len(batch))


def exact_gradient(mdp, student, teacher,
                   spec: ConstrainedRewardSpec) -> GradientEstimate:
    """Enumeration oracle: total_gradient over every trajectory, weighted by
    its probability.

    The feasibility indicator set is held fixed, matching the piecewise
    treatment used by the sampled estimator.
    """
    batch, probs = enumerate_batch(mdp, student, teacher, spec)
    return total_gradient(student, teacher, batch, spec, weights=probs)


# ---------------------------------------------------------------------------
# Finite-difference oracles

FD_STEP = 1e-5


def shaped_return(batch: TrajectoryBatch,
                  spec: ConstrainedRewardSpec) -> np.ndarray:
    """Discounted sum of each row's shaped rewards, shape (B,)."""
    return discounted_sum(shaping.shape_rewards(batch, spec), spec.discount)


def objective_value(mdp, student, teacher, spec: ConstrainedRewardSpec) -> float:
    """Expected discounted shaped return: shaped_return weighted by leaf
    probabilities, summed in leaf order."""
    batch, probs = enumerate_batch(mdp, student, teacher, spec)
    return weighted_sum(probs, shaped_return(batch, spec))


def finite_difference_gradient(fn, policy, step: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function of the policy logits, each
    perturbed table assigned to a copy of the policy."""
    probe = policy.copy()
    logits = policy.logits
    grad = np.zeros_like(logits)
    for idx in np.ndindex(*logits.shape):
        values = []
        for shifted in (logits[idx] + step, logits[idx] - step):
            table = logits.copy()
            table[idx] = shifted
            probe.logits = table
            values.append(fn(probe))
        hi, lo = values
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def boundary_margin(mdp, student, teacher, spec: ConstrainedRewardSpec) -> float:
    """Smallest |remaining budget| over every enumerated step.

    Large margins mean the feasibility indicator set is stable under small
    parameter perturbations.
    """
    batch, _ = enumerate_batch(mdp, student, teacher, spec)
    remaining = shaping.remaining_budget(batch.costs, spec.budget)[batch.live]
    return float(np.minimum(np.abs(remaining - spec.boundary_tol),
                            np.abs(remaining)).min(initial=np.inf))
