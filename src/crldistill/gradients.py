# Policy-gradient estimators: the likelihood-ratio term on shaped rewards,
# the explicit divergence-dependence term, and exact enumeration oracles.
from __future__ import annotations

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


def likelihood_ratio_term(student, trajectories: list[Trajectory],
                          shaped: list[list[float]],
                          baseline: str = BASELINE_NONE,
                          groups: list[list[int]] | None = None,
                          credit: str = CREDIT_TO_GO,
                          discount: float = 1.0,
                          normalize: bool = False) -> np.ndarray:
    """Mean over trajectories of sum_t grad log pi(a_t|s_t) * advantage_t."""
    credits = _credits(shaped, discount, credit)
    if baseline == BASELINE_GROUP:
        if groups is None:
            raise ValueError("group baseline requires group assignments")
        base = _group_baselines(credits, groups)
        if normalize:
            for members in groups:
                totals = [credits[i][0] if credits[i] else 0.0 for i in members]
                scale = float(np.std(totals)) + 1e-8
                for i in members:
                    credits[i] = [(c - b) / scale + b
                                  for c, b in zip(credits[i], base[i])]
    elif baseline == BASELINE_NONE:
        base = [[0.0] * len(c) for c in credits]
    else:
        raise ValueError(f"unknown baseline mode {baseline!r}")

    probs = _PerState(student.action_probs)
    table = np.zeros_like(student.logits)
    for traj, cred, bs in zip(trajectories, credits, base):
        for s, a, c, b in zip(traj.states, traj.tokens, cred, bs):
            adv = c - b
            table[s] -= adv * probs[s]
            table[s, a] += adv
    table /= max(len(trajectories), 1)
    return table


def explicit_dependence_term(student, teacher, trajectories: list[Trajectory],
                             spec: ConstrainedRewardSpec) -> np.ndarray:
    """Minus the divergence-penalty gradient on boundary or violated steps."""
    grads = _PerState(lambda s: dv.divergence_gradient(
        student, teacher, s, spec.penalty_kind))
    table = np.zeros_like(student.logits)
    for traj in trajectories:
        flags = shaping.boundary_flags(traj, spec)
        scale = 1.0
        for s, flagged in zip(traj.states, flags):
            if flagged:
                table -= scale * grads[s]
            scale *= spec.discount
    table /= max(len(trajectories), 1)
    return table


def divergence_pull_term(student, teacher, trajectories: list[Trajectory],
                         kind: str, weight: float,
                         discount: float = 1.0) -> np.ndarray:
    """Minus the weighted cost gradient at every visited state.

    Explicit reward-dependence term for the modes whose step reward contains
    the divergence itself (fixed-weight relaxation and distillation-only).
    """
    table = np.zeros_like(student.logits)
    if weight == 0.0:
        return table
    grads = _PerState(lambda s: dv.divergence_gradient(
        student, teacher, s, kind))
    for traj in trajectories:
        scale = 1.0
        for s in traj.states:
            table -= weight * scale * grads[s]
            scale *= discount
    table /= max(len(trajectories), 1)
    return table


def _credit_mode(spec: ConstrainedRewardSpec) -> str:
    return CREDIT_STEP if spec.mode == shaping.KL_ONLY else CREDIT_TO_GO


def _explicit_term(student, teacher, trajectories, spec) -> np.ndarray:
    if spec.mode == shaping.UNAUGMENTED:
        return explicit_dependence_term(student, teacher, trajectories, spec)
    if spec.mode == shaping.LAGRANGIAN:
        return divergence_pull_term(student, teacher, trajectories,
                                    spec.cost_kind, spec.lagrange_weight,
                                    spec.discount)
    if spec.mode in (shaping.KL_ONLY, shaping.KL_LONG_HORIZON):
        return divergence_pull_term(student, teacher, trajectories,
                                    spec.cost_kind, 1.0, spec.discount)
    return np.zeros_like(student.logits)


def total_gradient(student, teacher, trajectories: list[Trajectory],
                   spec: ConstrainedRewardSpec,
                   baseline: str = BASELINE_NONE,
                   groups: list[list[int]] | None = None,
                   normalize: bool = False) -> GradientEstimate:
    """Full ascent direction for the spec's mode on a sampled batch."""
    shaped = [shaping.shape_rewards(t, spec) for t in trajectories]
    term_i = likelihood_ratio_term(student, trajectories, shaped,
                                   baseline=baseline, groups=groups,
                                   credit=_credit_mode(spec),
                                   discount=spec.discount,
                                   normalize=normalize)
    term_ii = _explicit_term(student, teacher, trajectories, spec)
    return GradientEstimate(term_i + term_ii, term_i, term_ii,
                            len(trajectories))


def exact_gradient(mdp, student, teacher,
                   spec: ConstrainedRewardSpec) -> GradientEstimate:
    """Enumeration oracle: probability-weighted version of total_gradient.

    The feasibility indicator set is held fixed, matching the piecewise
    treatment used by the sampled estimator.
    """
    pairs = enumerate_trajectories(mdp, student, teacher, spec)
    term_i = np.zeros_like(student.logits)
    term_ii = np.zeros_like(student.logits)
    probs_cache = {s: student.action_probs(s) for s in range(mdp.num_states)}
    credit_mode = _credit_mode(spec)
    for traj, p in pairs:
        shaped = shaping.shape_rewards(traj, spec)
        if credit_mode == CREDIT_TO_GO:
            cred = _returns_to_go(shaped, spec.discount)
        else:
            cred = shaped
        for s, a, c in zip(traj.states, traj.tokens, cred):
            term_i[s] -= p * c * probs_cache[s]
            term_i[s, a] += p * c

        if spec.mode == shaping.UNAUGMENTED:
            flags = shaping.boundary_flags(traj, spec)
            scale = p
            for s, flagged in zip(traj.states, flags):
                if flagged:
                    term_ii -= scale * dv.divergence_gradient(
                        student, teacher, s, spec.penalty_kind)
                scale *= spec.discount
        elif spec.mode == shaping.LAGRANGIAN and spec.lagrange_weight != 0.0:
            scale = p * spec.lagrange_weight
            for s in traj.states:
                term_ii -= scale * dv.divergence_gradient(
                    student, teacher, s, spec.cost_kind)
                scale *= spec.discount
        elif spec.mode in (shaping.KL_ONLY, shaping.KL_LONG_HORIZON):
            scale = p
            for s in traj.states:
                term_ii -= scale * dv.divergence_gradient(
                    student, teacher, s, spec.cost_kind)
                scale *= spec.discount
    return GradientEstimate(term_i + term_ii, term_i, term_ii, len(pairs))


# ---------------------------------------------------------------------------
# Finite-difference oracles

FD_STEP = 1e-5


def objective_value(mdp, student, teacher, spec: ConstrainedRewardSpec) -> float:
    """Expected discounted shaped return, by exhaustive enumeration."""
    total = 0.0
    for traj, p in enumerate_trajectories(mdp, student, teacher, spec):
        shaped = shaping.shape_rewards(traj, spec)
        scale = 1.0
        acc = 0.0
        for r in shaped:
            acc += scale * r
            scale *= spec.discount
        total += p * acc
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
        ledger = shaping.BudgetLedger(spec.budget)
        for c in traj.costs:
            margin = min(margin, abs(ledger.remaining - spec.boundary_tol),
                         abs(ledger.remaining))
            ledger.charge(c)
    return float(margin)
