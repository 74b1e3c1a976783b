# Shaped step rewards for the method grid: budget-constrained reward
# reconstruction from history, the state-augmented reference, the fixed-weight
# relaxation, and the distillation-only variants.
from __future__ import annotations

from dataclasses import dataclass, replace

from . import divergence as dv
from .env import Trajectory

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


def remaining_budget(costs, budget: float) -> list[float]:
    """Budget left before each step: `budget` minus the costs of the earlier
    steps, subtracted one at a time. A step is feasible while its entry is
    >= 0; this is the Saute state rebuilt from history."""
    out = []
    remaining = budget
    for c in costs:
        if c < 0:
            raise ValueError("costs must be nonnegative")
        out.append(remaining)
        remaining -= c
    return out


def unaug_reward(traj: Trajectory, spec: ConstrainedRewardSpec,
                 include_divergence_penalty: bool = True) -> list[float]:
    """Constrained reward reconstructed from history, no augmented state.

    Step T pays the task reward while the cost of steps 0..T-1 fits the
    budget, and -(penalty + divergence at the current state) afterwards.
    `include_divergence_penalty=False` drops the divergence term, for parity
    checks against the state-augmented reference.
    """
    out = []
    for r, p, remaining in zip(traj.task_rewards, traj.penalty_divergences,
                               remaining_budget(traj.costs, spec.budget)):
        if remaining >= 0.0:
            out.append(r)
        elif include_divergence_penalty:
            out.append(-(spec.penalty + p))
        else:
            out.append(-spec.penalty)
    return out


def saute_reward(traj: Trajectory, spec: ConstrainedRewardSpec) -> list[float]:
    """State-augmented reference: carry the remaining budget explicitly."""
    z = spec.budget
    out = []
    for r, c in zip(traj.task_rewards, traj.costs):
        out.append(r if z >= 0.0 else -spec.penalty)
        z -= c
    return out


def lagrangian_step_reward(traj: Trajectory,
                           spec: ConstrainedRewardSpec) -> list[float]:
    """Fixed-weight relaxation: task reward minus weighted per-state cost."""
    w = spec.lagrange_weight
    return [r - w * c for r, c in zip(traj.task_rewards, traj.costs)]


def shape_rewards(traj: Trajectory, spec: ConstrainedRewardSpec) -> list[float]:
    """Per-step shaped rewards for the spec's mode."""
    if spec.mode == UNAUGMENTED:
        return unaug_reward(traj, spec)
    if spec.mode == SAUTE:
        return saute_reward(traj, spec)
    if spec.mode == LAGRANGIAN:
        return lagrangian_step_reward(traj, spec)
    if spec.mode == REWARD_ONLY:
        return list(traj.task_rewards)
    if spec.mode in (KL_ONLY, KL_LONG_HORIZON):
        return [-c for c in traj.costs]
    raise ValueError(f"unknown mode {spec.mode!r}")


def boundary_flags(traj: Trajectory, spec: ConstrainedRewardSpec) -> list[bool]:
    """Steps whose remaining budget (before the step's own cost) is within
    the boundary tolerance or already exhausted."""
    return [remaining <= spec.boundary_tol
            for remaining in remaining_budget(traj.costs, spec.budget)]


def term_ii_rule(spec: ConstrainedRewardSpec):
    """The divergence that the mode's shaped reward contains, as
    (kind, coefficient, flags): term ii of the gradient is minus coefficient
    times the discounted gradient of the `kind` divergence on the steps where
    `flags(traj, spec)` holds, or on every step when flags is None.

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
