# Shaped step rewards for the method grid: budget-constrained reward
# reconstruction from history, the state-augmented reference, the fixed-weight
# relaxation, and the distillation-only variants.
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import divergence as dv
from .env import TrajectoryBatch

UNAUGMENTED = "unaugmented"
SAUTE = "saute"
LAGRANGIAN = "lagrangian"
REWARD_ONLY = "reward-only"
KL_ONLY = "kl-only"
KL_LONG_HORIZON = "kl-long-horizon"
MODES = (UNAUGMENTED, SAUTE, LAGRANGIAN, REWARD_ONLY, KL_ONLY, KL_LONG_HORIZON)


@dataclass(frozen=True)
class ConstrainedRewardSpec:
    """Knobs shared by every shaping mode.

    budget: cumulative divergence allowed per episode.
    penalty: magnitude of the infeasibility penalty.
    boundary_tol: tolerance band around the budget boundary inside which the
        explicit divergence gradient fires.
    lagrange_weight: fixed multiplier, used only in lagrangian mode.
    """

    budget: float = 0.35
    penalty: float = 20.0
    boundary_tol: float = 1e-3
    cost_kind: str = dv.REVERSE_KL
    penalty_kind: str = dv.REVERSE_KL
    mode: str = UNAUGMENTED
    discount: float = 1.0
    lagrange_weight: float = 0.0

    def __post_init__(self):
        if not self.budget > 0:
            raise ValueError("budget must be positive")
        if not self.penalty > 0:
            raise ValueError("penalty must be positive")
        if self.boundary_tol < 0:
            raise ValueError("boundary_tol must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == LAGRANGIAN and self.lagrange_weight < 0:
            raise ValueError("lagrange_weight must be nonnegative")
        for kind in (self.cost_kind, self.penalty_kind):
            if kind not in dv.KINDS:
                raise ValueError(f"unknown divergence kind {kind!r}")

    def with_mode(self, mode: str, **kw) -> "ConstrainedRewardSpec":
        return replace(self, mode=mode, **kw)


def remaining_budget(costs: np.ndarray, budget: float) -> np.ndarray:
    """Budget left before each step: `budget` minus the costs of the earlier
    steps, subtracted one at a time. A step is feasible while its entry is
    >= 0; this is the Saute state rebuilt from history.

    `costs` is a (B, T) array; the result has the same shape.
    """
    c = np.asarray(costs, dtype=np.float64)
    if np.fmin.reduce(c, axis=None, initial=0.0) < 0:  # NaN entries skipped
        raise ValueError("costs must be nonnegative")
    # accumulate runs left to right, in place: budget, budget - c0, ...
    steps = np.empty((len(c), c.shape[1] + 1))
    steps[:, 0], steps[:, 1:] = budget, c
    return np.subtract.accumulate(steps, axis=1, out=steps)[:, :-1]


def _ledger(batch: TrajectoryBatch, budget: float) -> np.ndarray:
    """`remaining_budget` of the batch's costs, built once per batch and
    budget and kept in `batch.ledgers`, so that the shaped rewards and term
    ii's flags of one batch share it. Read-only, since callers share it."""
    ledger = batch.ledgers.get(budget)
    if ledger is None:
        ledger = remaining_budget(batch.costs, budget)
        ledger.flags.writeable = False
        batch.ledgers[budget] = ledger
    return ledger


def unaug_reward(batch: TrajectoryBatch, spec: ConstrainedRewardSpec,
                 include_divergence_penalty: bool = True):
    """Constrained reward reconstructed from history, no augmented state.

    Step T pays the task reward while the cost of steps 0..T-1 fits the
    budget, and -(penalty + divergence at the current state) afterwards.
    `include_divergence_penalty=False` drops the divergence term, for parity
    checks against the state-augmented reference.
    """
    keep = (_ledger(batch, spec.budget) >= 0.0) | ~batch.live
    if include_divergence_penalty:
        return np.where(keep, batch.rewards, -(spec.penalty + batch.penalties))
    return np.where(keep, batch.rewards, -spec.penalty)


def saute_reward(batch: TrajectoryBatch, spec: ConstrainedRewardSpec):
    """State-augmented reference: carry the remaining budget explicitly."""
    out = batch.rewards.copy()
    z = np.full(len(batch), spec.budget)
    for t in range(out.shape[1]):
        out[~(z >= 0.0) & batch.live[:, t], t] = -spec.penalty
        z = z - batch.costs[:, t]
    return out


def lagrangian_step_reward(batch: TrajectoryBatch,
                           spec: ConstrainedRewardSpec):
    """Fixed-weight relaxation: task reward minus weighted per-state cost."""
    return batch.rewards - spec.lagrange_weight * batch.costs


def shape_rewards(batch: TrajectoryBatch, spec: ConstrainedRewardSpec):
    """Per-step shaped rewards for the spec's mode, 0 past each row's
    length."""
    if spec.mode == UNAUGMENTED:
        return unaug_reward(batch, spec)
    if spec.mode == SAUTE:
        return saute_reward(batch, spec)
    if spec.mode == LAGRANGIAN:
        return lagrangian_step_reward(batch, spec)
    if spec.mode == REWARD_ONLY:
        return batch.rewards
    if spec.mode in (KL_ONLY, KL_LONG_HORIZON):
        return -batch.costs
    raise ValueError(f"unknown mode {spec.mode!r}")


def boundary_flags(batch: TrajectoryBatch, spec: ConstrainedRewardSpec):
    """Steps whose remaining budget (before the step's own cost) is within
    the boundary tolerance or already exhausted."""
    return (_ledger(batch, spec.budget) <= spec.boundary_tol) \
        & batch.live


def term_ii_rule(spec: ConstrainedRewardSpec):
    """The divergence that the mode's shaped reward contains, as
    (kind, coefficient, flags): term ii of the gradient is minus coefficient
    times the discounted gradient of the `kind` divergence on the steps where
    `flags(batch, spec)` holds, or on every step when flags is None.

    un-augmented: the penalty divergence on boundary or violated steps (the
    band [0, boundary_tol] included, although its reward carries no
    divergence); lagrangian: lagrange_weight times the cost; kl-only and
    kl-long-horizon: the cost; saute and reward-only: coefficient 0, no term.
    """
    if spec.mode == UNAUGMENTED:
        return spec.penalty_kind, 1.0, boundary_flags
    if spec.mode == LAGRANGIAN:
        return spec.cost_kind, spec.lagrange_weight, None
    if spec.mode in (KL_ONLY, KL_LONG_HORIZON):
        return spec.cost_kind, 1.0, None
    return spec.cost_kind, 0.0, None
