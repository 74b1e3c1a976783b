# Exact (enumeration) or sampled evaluation of a student policy.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import env as env_mod
from .env import EnumerationCapExceeded, TokenMdp
from .shaping import ConstrainedRewardSpec

EVAL_SAMPLE_COUNT = 10**4


@dataclass(frozen=True)
class EvalResult:
    task_success_rate: float
    mean_kl: float
    constraint_satisfaction: float
    violation_probability: float
    exact: bool


def evaluate_policy(mdp: TokenMdp, student, teacher,
                    spec: ConstrainedRewardSpec,
                    eval_seed: int | None = None,
                    samples: int = EVAL_SAMPLE_COUNT) -> EvalResult:
    """Success, mean divergence and constraint satisfaction of a policy.

    Uses exhaustive enumeration whenever tractable; otherwise falls back to
    sampling with a dedicated evaluation stream.
    """
    try:
        pairs = env_mod.enumerate_trajectories(mdp, student, teacher, spec)
    except EnumerationCapExceeded:
        if eval_seed is None:
            raise
        rng = np.random.default_rng([eval_seed, 982_451_653])
        trajs = env_mod.rollout_batch(mdp, student, teacher, spec,
                                      rng.random((samples, mdp.horizon_cap)))
        pairs = [(t, 1.0 / samples) for t in trajs]
        exact = False
    else:
        exact = True

    success = 0.0
    mean_kl = 0.0
    violation = 0.0
    for traj, p in pairs:
        success += p * traj.total_task_reward
        cost = traj.total_cost
        mean_kl += p * cost
        if cost > spec.budget:
            violation += p
    return EvalResult(_probability(success), float(mean_kl),
                      _probability(1.0 - violation), _probability(violation),
                      exact)


def _probability(mass) -> float:
    """A summed probability mass clamped into [0, 1], where rounding can
    carry it by an ulp; values inside keep their bits."""
    return min(max(float(mass), 0.0), 1.0)

