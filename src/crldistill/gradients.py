# Policy-gradient estimators: the likelihood-ratio term on shaped rewards,
# the explicit divergence-dependence term, and exact enumeration oracles.
from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import divergence as dv
from . import shaping
from .env import TrajectoryBatch, discounted_sum, enumerate_batch
from .policies import ALL_STATES, SoftmaxPolicy
from .shaping import ConstrainedRewardSpec

BASELINE_NONE = "none"
BASELINE_GROUP = "group"


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


def _group_baselines(credits: np.ndarray, groups,
                     lengths: np.ndarray) -> np.ndarray:
    """Per step index, the mean credit over group members still running.

    Groups are disjoint and equally large: the rows of a (G, size) index
    array. Each group's members are added in row order, as a running scalar
    sum adds them; past a member's length its credit is 0, which leaves the
    sum's bits unchanged.
    """
    index = np.asarray(groups)
    if index.ndim != 2 or index.shape[1] < 2:
        raise ValueError("group baseline requires equal groups of at least 2")
    total = np.zeros((len(index), credits.shape[1]))
    for member in index.T:  # each group's j-th member, for j in turn
        total = total + credits[member]
    running = lengths[index][..., None] > np.arange(credits.shape[1])
    base = np.zeros_like(credits)
    base[index] = (total / np.maximum(running.sum(axis=1), 1))[:, None]
    return base


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


def likelihood_ratio_term(student, batch: TrajectoryBatch,
                          credits: np.ndarray, groups=None,
                          weights: Sequence[float] | None = None) -> np.ndarray:
    """Weighted sum over trajectories of sum_t grad log pi(a_t|s_t) * advantage_t.

    `credits` holds the batch's (B, T) per-step credits, 0 past each row's
    length; the advantage is the credit less, when `groups` is given, its
    group's baseline. The default weights 1/B give the sampled mean; leaf
    probabilities give the exact expectation.
    """
    base = 0.0 if groups is None else \
        _group_baselines(credits, groups, batch.lengths)
    adv = ((credits - base) * _weights(batch, weights)[:, None])[batch.live]
    states = batch.states[batch.live]
    probs = student.action_probs(ALL_STATES)
    return _accumulate(student.logits.shape, states,
                       adv[:, None] * probs[states], adv,
                       batch.tokens[batch.live])


def explicit_dependence_term(student, teacher, blocks: list,
                             weights: np.ndarray) -> np.ndarray:
    """Minus the weighted, discounted divergence gradient on the steps whose
    shaped reward contains the divergence itself, as `shaping.term_ii_rule`
    names them for each block's spec. `blocks` is `total_gradient`'s list
    of (spec, block of rows), which together hold the batch's rows in
    order, and `weights` has one entry per row."""
    states, values = [], []
    start = 0
    for spec, block in blocks:
        rows = slice(start, start + len(block))
        start = rows.stop
        kind, coefficient, mask = shaping.term_ii_rule(spec)
        if coefficient == 0.0:
            continue
        flags = mask(block, spec) if mask else block.live
        # weight * coefficient, times the discount once per step, left to
        # right
        factors = np.full((len(block), block.states.shape[1] + 1),
                          spec.discount)
        factors[:, 0] = weights[rows] * coefficient
        scale = np.multiply.accumulate(factors, axis=1)[:, :-1]
        steps = block.states[flags]
        grads = dv.divergence_gradient(student, teacher, ALL_STATES, kind)
        states.append(steps)
        values.append(scale[flags][:, None] * grads[steps])
    if not states:
        return np.zeros_like(student.logits)
    return _accumulate(student.logits.shape, np.concatenate(states),
                       np.concatenate(values))


def total_gradient(student, teacher, trajectories,
                   spec: ConstrainedRewardSpec,
                   baseline: str = BASELINE_NONE,
                   groups=None,
                   weights: Sequence[float] | None = None) -> GradientEstimate:
    """Full ascent direction for the spec's mode: the mean over a sampled
    batch, or the expectation when `weights` are the trajectories'
    probabilities. `trajectories` is a `TrajectoryBatch`, or a list of
    equally wide ones (such as `env.rollout` results), stacked into one.

    The batch is split by spec once, and each block is credited by its
    spec: a kl-only block by its shaped rewards, any other by their
    discounted returns-to-go. Term ii gets the same blocks, so shaping and
    its boundary flags share each block's ledger. BASELINE_GROUP subtracts
    group means over the rows of `groups`, a (G, size) index array.

    `spec` may also be a sequence of C specs, one per cell of a student that
    stacks C cells' tables (see `env.rollout_batch`): the batch's rows are
    then C equal blocks, block c sampled by cell c and shaped, credited and
    given term ii by its spec, and the default weights are 1/B for blocks of
    B rows. Each term makes one np.add.at in each cell's loop order, so cell
    c's rows of the result have the bits of a one-cell call on its block.
    """
    if baseline not in (BASELINE_NONE, BASELINE_GROUP):
        raise ValueError(f"unknown baseline mode {baseline!r}")
    if baseline == BASELINE_GROUP and groups is None:
        raise ValueError("group baseline requires group assignments")
    batch = TrajectoryBatch.stack(trajectories)
    blocks, size = _spec_blocks(batch, spec)
    weights = _weights(batch, weights, size)
    credits = []
    for cell_spec, block in blocks:
        shaped = shaping.shape_rewards(block, cell_spec)
        credits.append(shaped if cell_spec.mode == shaping.KL_ONLY
                       else _returns_to_go(shaped, cell_spec.discount))
    term_i = likelihood_ratio_term(
        student, batch, np.concatenate(credits),
        groups if baseline == BASELINE_GROUP else None, weights)
    term_ii = explicit_dependence_term(student, teacher, blocks, weights)
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


def objective_value(mdp, student, teacher, spec: ConstrainedRewardSpec):
    """Expected discounted shaped return of each cell of the student, shape
    (C,): shaped_return times leaf probability, added in leaf order from 0.0
    along each cell's rows (as `weighted_sum` adds them)."""
    batch, probs = enumerate_batch(mdp, student, teacher, spec)
    cells = student.num_states // mdp.num_states
    terms = np.zeros((cells, len(probs) // cells + 1))
    terms[:, 1:] = (probs * shaped_return(batch, spec)).reshape(cells, -1)
    return np.add.accumulate(terms, axis=1)[:, -1]


def finite_difference_gradient(fn, policy, step: float = FD_STEP) -> np.ndarray:
    """Central differences of a function of the policy logits, from one call
    of `fn` on a policy that stacks 2 * logits.size cells' tables: for each
    logit in row-major order, the table with it + step, then with it - step.
    `fn` maps such a stacked policy to one value per cell."""
    flat = policy.logits.ravel()
    n = flat.size
    k = np.arange(n)
    tables = np.tile(flat, (n, 2, 1))
    tables[k, 0, k] = flat + step
    tables[k, 1, k] = flat - step
    probe = SoftmaxPolicy(tables.reshape(-1, policy.vocab_size), policy.floor)
    hi, lo = np.reshape(fn(probe), (n, 2)).T
    return ((hi - lo) / (2.0 * step)).reshape(policy.logits.shape)


def boundary_margin(mdp, student, teacher, spec: ConstrainedRewardSpec) -> float:
    """Smallest |remaining budget| over every enumerated step.

    Large margins mean the feasibility indicator set is stable under small
    parameter perturbations.
    """
    batch, _ = enumerate_batch(mdp, student, teacher, spec)
    remaining = shaping.remaining_budget(batch.costs, spec.budget)[batch.live]
    return float(np.minimum(np.abs(remaining - spec.boundary_tol),
                            np.abs(remaining)).min(initial=np.inf))
