# Policy-gradient estimators: the likelihood-ratio term on shaped rewards,
# the explicit divergence-dependence term, and exact enumeration oracles.
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import divergence as dv
from . import shaping
from .env import Trajectory, enumerate_trajectories
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


class _PerState(dict):
    """Per-call memo of a function of the state: the student is fixed within
    one estimator call, so each distinct state is evaluated once."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, state):
        value = self[state] = self.fn(state)
        return value


def _returns_to_go(rewards: list[float], discount: float) -> list[float]:
    g = 0.0
    out = [0.0] * len(rewards)
    for t in range(len(rewards) - 1, -1, -1):
        g = rewards[t] + discount * g
        out[t] = g
    return out


def _credits(shaped: list[list[float]], discount: float,
             credit: str) -> list[list[float]]:
    if credit == CREDIT_TO_GO:
        return [_returns_to_go(r, discount) for r in shaped]
    if credit == CREDIT_STEP:
        return [list(r) for r in shaped]
    raise ValueError(f"unknown credit mode {credit!r}")


def _group_baselines(credits: list[list[float]],
                     groups: list[list[int]]) -> list[list[float]]:
    """Per step index, the mean credit over group members still running."""
    base = [[0.0] * len(c) for c in credits]
    for members in groups:
        if len(members) < 2:
            raise ValueError("group baseline requires groups of at least 2")
        depth = max(len(credits[i]) for i in members)
        for t in range(depth):
            alive = [i for i in members if len(credits[i]) > t]
            mean = sum(credits[i][t] for i in alive) / len(alive)
            for i in alive:
                base[i][t] = mean
    return base


def _weights(trajectories, weights: Sequence[float] | None) -> list[float]:
    """Per-trajectory weights: 1/B each (the batch mean) unless given."""
    if weights is None:
        return [1.0 / max(len(trajectories), 1)] * len(trajectories)
    return list(weights)


def likelihood_ratio_term(student, trajectories: list[Trajectory],
                          shaped: list[list[float]],
                          baseline: str = BASELINE_NONE,
                          groups: list[list[int]] | None = None,
                          credit: str = CREDIT_TO_GO,
                          discount: float = 1.0,
                          weights: Sequence[float] | None = None) -> np.ndarray:
    """Weighted sum over trajectories of sum_t grad log pi(a_t|s_t) * advantage_t.

    The default weights 1/B give the sampled mean; leaf probabilities give
    the exact expectation.
    """
    credits = _credits(shaped, discount, credit)
    if baseline == BASELINE_GROUP:
        if groups is None:
            raise ValueError("group baseline requires group assignments")
        base = _group_baselines(credits, groups)
    elif baseline == BASELINE_NONE:
        base = [[0.0] * len(c) for c in credits]
    else:
        raise ValueError(f"unknown baseline mode {baseline!r}")

    probs = _PerState(student.action_probs)
    table = np.zeros_like(student.logits)
    for traj, cred, bs, w in zip(trajectories, credits, base,
                                 _weights(trajectories, weights)):
        for s, a, c, b in zip(traj.states, traj.tokens, cred, bs):
            adv = (c - b) * w
            table[s] -= adv * probs[s]
            table[s, a] += adv
    return table


def explicit_dependence_term(student, teacher, trajectories: list[Trajectory],
                             spec: ConstrainedRewardSpec,
                             weights: Sequence[float] | None = None) -> np.ndarray:
    """Minus the weighted, discounted divergence gradient on the steps whose
    shaped reward contains the divergence itself, as `shaping.term_ii_rule`
    names them for the spec's mode."""
    table = np.zeros_like(student.logits)
    kind, coefficient, mask = shaping.term_ii_rule(spec)
    if coefficient == 0.0:
        return table
    grads = _PerState(lambda s: dv.divergence_gradient(
        student, teacher, s, kind))
    for traj, w in zip(trajectories, _weights(trajectories, weights)):
        flags = mask(traj, spec) if mask else [True] * len(traj)
        scale = w * coefficient
        for s, flagged in zip(traj.states, flags):
            if flagged:
                table -= scale * grads[s]
            scale *= spec.discount
    return table


def _credit_mode(spec: ConstrainedRewardSpec) -> str:
    return CREDIT_STEP if spec.mode == shaping.KL_ONLY else CREDIT_TO_GO


def total_gradient(student, teacher, trajectories: list[Trajectory],
                   spec: ConstrainedRewardSpec,
                   baseline: str = BASELINE_NONE,
                   groups: list[list[int]] | None = None,
                   weights: Sequence[float] | None = None) -> GradientEstimate:
    """Full ascent direction for the spec's mode: the mean over a sampled
    batch, or the expectation when `weights` are the trajectories'
    probabilities."""
    shaped = [shaping.shape_rewards(t, spec) for t in trajectories]
    term_i = likelihood_ratio_term(student, trajectories, shaped,
                                   baseline=baseline, groups=groups,
                                   credit=_credit_mode(spec),
                                   discount=spec.discount, weights=weights)
    term_ii = explicit_dependence_term(student, teacher, trajectories, spec,
                                       weights=weights)
    return GradientEstimate(term_i + term_ii, term_i, term_ii,
                            len(trajectories))


def exact_gradient(mdp, student, teacher,
                   spec: ConstrainedRewardSpec) -> GradientEstimate:
    """Enumeration oracle: total_gradient over every trajectory, weighted by
    its probability.

    The feasibility indicator set is held fixed, matching the piecewise
    treatment used by the sampled estimator.
    """
    trajs, p = zip(*enumerate_trajectories(mdp, student, teacher, spec))
    return total_gradient(student, teacher, list(trajs), spec, weights=p)


# ---------------------------------------------------------------------------
# Finite-difference oracles

FD_STEP = 1e-5


def shaped_return(traj: Trajectory, spec: ConstrainedRewardSpec) -> float:
    """Discounted sum of the trajectory's shaped rewards."""
    acc = 0.0
    scale = 1.0
    for r in shaping.shape_rewards(traj, spec):
        acc += scale * r
        scale *= spec.discount
    return acc


def objective_value(mdp, student, teacher, spec: ConstrainedRewardSpec) -> float:
    """Expected discounted shaped return: shaped_return weighted by leaf
    probabilities."""
    total = 0.0
    for traj, p in enumerate_trajectories(mdp, student, teacher, spec):
        total += p * shaped_return(traj, spec)
    return total


def finite_difference_gradient(fn, policy, step: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function of the policy logits."""
    base = policy.copy()
    grad = np.zeros_like(base.logits)
    for idx in np.ndindex(*base.logits.shape):
        saved = base.logits[idx]
        base.logits[idx] = saved + step
        hi = fn(base)
        base.logits[idx] = saved - step
        lo = fn(base)
        base.logits[idx] = saved
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def boundary_margin(mdp, student, teacher, spec: ConstrainedRewardSpec) -> float:
    """Smallest |remaining budget| over every enumerated step.

    Large margins mean the feasibility indicator set is stable under small
    parameter perturbations.
    """
    margin = np.inf
    for traj, _ in enumerate_trajectories(mdp, student, teacher, spec):
        for remaining in shaping.remaining_budget(traj.costs, spec.budget):
            margin = min(margin, abs(remaining - spec.boundary_tol),
                         abs(remaining))
    return float(margin)
