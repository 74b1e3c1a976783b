# Training loops for the full method grid, with deterministic seed streams
# and resumable checkpoints.
from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import env as env_mod
from . import gradients, shaping, streams
from .evaluation import evaluate_policy
from .policies import SoftmaxPolicy
from .shaping import ConstrainedRewardSpec

TOY_LEARNING_RATE = 5e-2


class TrainingDiverged(RuntimeError):
    """Parameters left the finite range; carries the last finite checkpoints."""

    def __init__(self, message, checkpoints):
        super().__init__(message)
        self.checkpoints = checkpoints


@dataclass(frozen=True)
class TrainConfig:
    spec: ConstrainedRewardSpec
    seed: int = 0
    groups_per_batch: int = 8
    rollouts_per_group: int = 8
    batches_per_epoch: int = 10
    epochs: int = 20
    learning_rate: float = TOY_LEARNING_RATE

    def __post_init__(self):
        for name, low in (("seed", 0), ("groups_per_batch", 1),
                          ("rollouts_per_group", 1),
                          ("batches_per_epoch", 1), ("epochs", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low},"
                                 f" got {value!r}")
        if (isinstance(self.learning_rate, bool)
                or not isinstance(self.learning_rate, numbers.Real)
                or not 0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be a positive number,"
                             f" got {self.learning_rate!r}")

    @property
    def batch_size(self) -> int:
        return self.groups_per_batch * self.rollouts_per_group


@dataclass
class Checkpoint:
    epoch: int
    logits: np.ndarray
    floor: float
    optimizer_state: dict
    metrics: dict


def method_label(spec: ConstrainedRewardSpec) -> str:
    """Canonical method name; zero-weight relaxation is the plain reward baseline."""
    if spec.mode == shaping.LAGRANGIAN:
        if spec.lagrange_weight == 0.0:
            return shaping.REWARD_ONLY
        return f"lagrangian-{spec.lagrange_weight:g}"
    return spec.mode


class AdamAscent:
    """Adaptive-moment gradient ascent (bias-corrected).

    `state` is what `state()` returned, before or after the first update.
    """

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8, state=None):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        if state is None or state["step_count"] == 0:
            self.m = None
            self.v = None
            self.step_count = 0
        else:
            self.m = np.array(state["m"])
            self.v = np.array(state["v"])
            self.step_count = int(state["step_count"])

    def update(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One ascent step: the new parameters (`params` is not written)."""
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.step_count += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1 ** self.step_count)
        vhat = self.v / (1.0 - self.beta2 ** self.step_count)
        return params + self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state(self) -> dict:
        if self.m is None:
            return {"m": 0, "v": 0, "step_count": 0}
        return {"m": self.m.copy(), "v": self.v.copy(),
                "step_count": self.step_count}


def _epoch_uniforms(config: TrainConfig, horizon: int, epoch: int,
                    phase: int) -> np.ndarray:
    """All rollout uniforms of one epoch, shape (batches, batch_size, horizon).

    Row g * rollouts_per_group + i of batch b is the first `horizon` draws of
    the stream keyed (seed, phase, epoch, b, g, i).
    """
    keys = np.indices((config.batches_per_epoch, config.groups_per_batch,
                       config.rollouts_per_group)).reshape(3, -1).T
    block = streams.uniform_block((config.seed, phase, epoch), keys, horizon)
    return block.reshape(config.batches_per_epoch, config.batch_size, horizon)


def _sample_batch(mdp, student, teacher, config: TrainConfig,
                  uniforms: np.ndarray):
    """One training batch from its (batch_size, horizon_cap) uniforms, one
    group per run of rollouts_per_group rows."""
    size = config.rollouts_per_group
    trajectories = env_mod.rollout_batch(mdp, student, teacher, config.spec,
                                         uniforms)
    groups = [list(range(g * size, (g + 1) * size))
              for g in range(config.groups_per_batch)]
    return trajectories, groups


def _log_line(epoch: int, label: str, metrics: dict) -> str:
    return (f"epoch={epoch} method={label}"
            f" mean_return={metrics['task_success_rate']!r}"
            f" mean_kl={metrics['mean_kl']!r}"
            f" cs={metrics['constraint_satisfaction']!r}"
            f" violation={metrics['violation_probability']!r}\n")


def train(mdp, teacher, config: TrainConfig,
          initial_policy: SoftmaxPolicy | None = None,
          start_epoch: int = 0,
          optimizer_state: dict | None = None,
          log_file=None,
          phase: int = 1):
    """Run the configured method; returns (final policy, per-epoch checkpoints).

    The RNG stream of every rollout is derived from
    (seed, phase, epoch, batch, group, rollout), so a run resumed from a
    checkpoint reproduces the original bit-for-bit.
    """
    if initial_policy is None:
        student = SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size)
    else:
        student = initial_policy.copy()
    optimizer = AdamAscent(config.learning_rate, state=optimizer_state)
    label = method_label(config.spec)
    checkpoints: list[Checkpoint] = []

    for epoch in range(start_epoch, config.epochs):
        uniforms = _epoch_uniforms(config, mdp.horizon_cap, epoch, phase)
        for batch in range(config.batches_per_epoch):
            trajs, groups = _sample_batch(mdp, student, teacher, config,
                                          uniforms[batch])
            estimate = gradients.total_gradient(
                student, teacher, trajs, config.spec,
                baseline=gradients.BASELINE_GROUP, groups=groups)
            student.logits = optimizer.update(student.logits,
                                              estimate.table)
            if not np.isfinite(student.logits).all():
                raise TrainingDiverged(
                    f"non-finite parameters at epoch {epoch} batch {batch}"
                    f" (method {label})", checkpoints)
        result = evaluate_policy(mdp, student, teacher, config.spec,
                                 eval_seed=config.seed)
        metrics = {
            "task_success_rate": result.task_success_rate,
            "mean_kl": result.mean_kl,
            "constraint_satisfaction": result.constraint_satisfaction,
            "violation_probability": result.violation_probability,
        }
        checkpoints.append(Checkpoint(epoch, student.logits,
                                      student.floor, optimizer.state(),
                                      dict(metrics)))
        if log_file is not None:
            log_file.write(_log_line(epoch, label, metrics))
    return student, checkpoints


def resume(mdp, teacher, config: TrainConfig, checkpoint: Checkpoint,
           log_file=None, phase: int = 1):
    """Continue a run from a checkpoint; bit-identical to the original run."""
    policy = SoftmaxPolicy(checkpoint.logits, checkpoint.floor)
    return train(mdp, teacher, config, initial_policy=policy,
                 start_epoch=checkpoint.epoch + 1,
                 optimizer_state=copy.deepcopy(checkpoint.optimizer_state),
                 log_file=log_file, phase=phase)


def warm_start(mdp, teacher, config: TrainConfig, epochs_kl: int = 3,
               initial_policy: SoftmaxPolicy | None = None) -> SoftmaxPolicy:
    """Distillation-only bootstrap: run the pure divergence objective first."""
    if epochs_kl < 0:
        raise ValueError("epochs_kl must be nonnegative")
    if epochs_kl == 0:
        if initial_policy is None:
            return SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size)
        return initial_policy.copy()
    warm_config = replace(config, spec=config.spec.with_mode(shaping.KL_ONLY),
                          epochs=epochs_kl)
    policy, _ = train(mdp, teacher, warm_config,
                      initial_policy=initial_policy, phase=0)
    return policy
