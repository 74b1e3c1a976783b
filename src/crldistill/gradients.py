# Policy-gradient estimators: the likelihood-ratio term on shaped rewards,
# the explicit divergence-dependence term, and exact enumeration oracles.
from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import divergence as dv
from . import shaping
from .env import TrajectoryBatch, discounted_sum, enumerate_batch
from .policies import ALL_STATES, SoftmaxPolicy, read_only
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
    backwards in place on a copy from the last column with a nonzero entry.
    Entries past a row's length must be 0, so a row's last step sees a
    continuation of 0; skipped trailing columns are +0.0, as in the loop."""
    out = np.array(rewards, dtype=np.float64)
    used = out.any(axis=0).nonzero()[0]
    last = used[-1] if used.size else -1
    out[:, last + 1:] = 0.0
    later = 0.0  # the last column's continuation
    for t in range(last, -1, -1):
        out[:, t] += discount * later
        later = out[:, t]
    return out


def _group_baselines(credits: np.ndarray, groups,
                     live: np.ndarray) -> np.ndarray:
    """Per step index, the mean credit over group members still running.

    Groups are disjoint and equally large: the rows of a (G, size) index
    array. Each group's members are added in row order from 0.0 (one
    gather, then np.add.accumulate), as a running scalar sum adds them; past
    a member's length (`live` masks the batch's steps) its credit is 0,
    which leaves the sum's bits unchanged.
    """
    index = np.asarray(groups)
    if index.ndim != 2 or index.shape[1] < 2:
        raise ValueError("group baseline requires equal groups of at least 2")
    members = np.zeros((index.shape[1] + 1, len(index), credits.shape[1]))
    members[1:] = credits.take(index.T, axis=0)
    running = live.take(index.T, axis=0).sum(axis=0)
    base = np.zeros(credits.shape)
    base[index] = (np.add.accumulate(members)[-1]
                   / np.maximum(running, 1))[:, None]
    return base


def _weights(batch, weights: Sequence[float] | None,
             size: int | None = None) -> np.ndarray:
    """Per-trajectory weights: 1/size each (the mean over each block of
    `size` rows, by default the whole batch) unless given."""
    if weights is None:
        return np.full(len(batch), 1.0 / max(size or len(batch), 1))
    return np.asarray(weights, dtype=np.float64)


def _spec_blocks(batch: TrajectoryBatch, spec):
    """(spec, block, row slice) per run of equal specs, and the rows per cell.

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
        rows = slice(start, start + size * len(list(run)))
        blocks.append((cell_spec, batch.block(rows.start, rows.stop), rows))
        start = rows.stop
    return blocks, size


@functools.lru_cache(maxsize=64)
def _entry_index(num_states: int, vocab: int):
    """`_accumulate`'s flat indices per shape: term i's for a step s, a (by
    s * V + a) are s's row then s * V + a; term ii's, s's row of table 2."""
    flat = np.arange(num_states * vocab)
    term_i = (flat - flat % vocab)[:, None] + np.arange(vocab + 1)
    term_i[:, vocab] = flat
    return read_only(term_i), read_only(flat.reshape(-1, vocab) + flat.size)


def _accumulate(shape, entries) -> np.ndarray:
    """Term i's and term ii's tables, shape (2, *shape): zero tables after
    adding the (index, values) `entries` in order, by one np.bincount, which
    adds repeated indices in input order as a loop would. x - y and x + (-y)
    are the same IEEE operation, so the loop's subtractions are additions of
    negated values here."""
    index = np.concatenate([i.ravel() for i, _ in entries])
    values = np.concatenate([v.ravel() for _, v in entries])
    return np.bincount(index, values, 2 * shape[0] * shape[1]).reshape(
        2, *shape)


def likelihood_ratio_term(student, batch: TrajectoryBatch,
                          credits: np.ndarray, groups=None,
                          weights: Sequence[float] | None = None):
    """Weighted sum over trajectories of sum_t grad log pi(a_t|s_t) * advantage_t,
    as `_accumulate`'s (index, values) entries: for each live step in turn,
    minus its advantage times its state's action probabilities, then plus
    its advantage at its token.

    `credits` holds the batch's (B, T) per-step credits, 0 past each row's
    length; the advantage is the credit less, when `groups` is given, its
    group's baseline. The default weights 1/B give the sampled mean; leaf
    probabilities give the exact expectation.
    """
    if groups is not None:
        credits = credits - _group_baselines(credits, groups, batch.live)
    steps = batch.live.ravel().nonzero()[0]  # row k's lengths[k] in turn
    adv = credits.ravel().take(steps) * _weights(batch, weights).repeat(
        batch.lengths)
    states = batch.states.ravel().take(steps)
    probs = student.action_probs(ALL_STATES)
    vocab = probs.shape[1]
    values = np.ones((len(probs), vocab + 1))  # the token entry's factor
    values[:, :vocab] = probs
    values = values.take(states, axis=0)
    values *= adv.repeat(vocab + 1).reshape(values.shape)
    np.negative(values, out=values)
    values[:, vocab] = adv
    acting = states * vocab + batch.tokens.ravel().take(steps)
    return _entry_index(*probs.shape)[0].take(acting, axis=0), values


def explicit_dependence_term(student, teacher, blocks: list,
                             weights: np.ndarray) -> list:
    """Minus the weighted, discounted divergence gradient on the steps whose
    shaped reward contains the divergence itself, as `shaping.term_ii_rule`
    names them for each block's spec: per block, `_accumulate`'s (index,
    values) entries, each such step's gradient row in turn. `blocks` are
    `total_gradient`'s (spec, rows, row slice), and `weights` per row."""
    entries = []
    for spec, block, rows in blocks:
        kind, coefficient, mask = shaping.term_ii_rule(spec)
        if coefficient == 0.0:
            continue
        flags = mask(block, spec) if mask else block.live
        # weight * coefficient, then times the discount once per step
        factors = np.full(block.states.shape, spec.discount)
        factors[:, 0] = weights[rows] * coefficient
        steps = flags.ravel().nonzero()[0]
        states = block.states.ravel().take(steps)
        grads = dv.divergence_gradient(student, teacher, ALL_STATES, kind)
        values = grads.take(states, axis=0)
        values *= np.multiply.accumulate(factors, axis=1).ravel().take(
            steps)[:, None]
        entries.append((_entry_index(*grads.shape)[1].take(states, axis=0),
                        np.negative(values, out=values)))
    return entries


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
    B rows. One np.bincount adds both terms in each cell's loop order, so
    cell c's rows of the result have the bits of a one-cell call on it.
    """
    if baseline not in (BASELINE_NONE, BASELINE_GROUP):
        raise ValueError(f"unknown baseline mode {baseline!r}")
    if baseline == BASELINE_GROUP and groups is None:
        raise ValueError("group baseline requires group assignments")
    batch = TrajectoryBatch.stack(trajectories)
    blocks, size = _spec_blocks(batch, spec)
    weights = _weights(batch, weights, size)
    credits = np.empty(batch.rewards.shape)
    for cell_spec, block, rows in blocks:
        shaped = shaping.shape_rewards(block, cell_spec)
        credits[rows] = shaped if cell_spec.mode == shaping.KL_ONLY \
            else _returns_to_go(shaped, cell_spec.discount)
    term_i, term_ii = _accumulate(student.logits.shape, [
        likelihood_ratio_term(student, batch, credits,
                              groups if baseline == BASELINE_GROUP else None,
                              weights),
        *explicit_dependence_term(student, teacher, blocks, weights)])
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
