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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, guard

# Rollout streams per `streams.uniform_block` call: training draws each
# seed's uniforms a block of whole epochs at a time (14 epochs of 640
# streams in the shipped config), since each call has a fixed cost of a
# few hundred small array operations. The call's working set peaks near
# 150 B per stream at horizon 8, about 1.4 MB here.
STREAMS_PER_DRAW = 9000


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
    """Adaptive-moment gradient ascent (bias-corrected), elementwise, so a
    stack of cells' tables steps each entry as its own table would.

    `state` is what `state()` returned, before or after the first update.
    """

    def __init__(self, lr, state=None):
        self.lr = lr
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
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        mhat = self.m / (1.0 - ADAM_BETA1 ** self.step_count)
        vhat = self.v / (1.0 - ADAM_BETA2 ** self.step_count)
        return params + self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def state(self, rows=slice(None)) -> dict:
        """The state to restore, of the given rows of the parameters."""
        if self.m is None:
            return {"m": 0, "v": 0, "step_count": 0}
        return {"m": self.m[rows].copy(), "v": self.v[rows].copy(),
                "step_count": self.step_count}


def _epoch_uniforms(config: TrainConfig, horizon: int, epochs: range,
                    phase: int) -> np.ndarray:
    """All rollout uniforms of a run of epochs, shape (epochs, batches,
    batch_size, horizon), in one `uniform_block` call.

    Row g * rollouts_per_group + i of batch b of epoch e is the first
    `horizon` draws of the stream keyed (seed, phase, e, b, g, i).
    """
    keys = np.indices((len(epochs), config.batches_per_epoch,
                       config.groups_per_batch,
                       config.rollouts_per_group)).reshape(4, -1).T
    keys[:, 0] += epochs.start
    block = streams.uniform_block((config.seed, phase), keys, horizon)
    return block.reshape(len(epochs), config.batches_per_epoch,
                         config.batch_size, horizon)


def _stacked_uniforms(configs: list, horizon: int, epoch: int, phase: int,
                      blocks: dict) -> np.ndarray:
    """Epoch `epoch`'s `_epoch_uniforms` of each cell, shape (batches,
    cells, batch_size, horizon).

    Cells at one seed share their streams. `blocks` maps a seed to the
    epochs drawn last for it and their uniforms; a seed whose block does
    not hold `epoch` draws the next `STREAMS_PER_DRAW // streams per epoch`
    epochs (at least one) from `epoch` on, so a resumed run starts a block
    at its first epoch.
    """
    for config in configs:
        if config.seed in blocks and epoch in blocks[config.seed][0]:
            continue
        blocks.pop(config.seed, None)  # the spent block, freed before a draw
        per_epoch = config.batches_per_epoch * config.batch_size
        epochs = range(epoch, min(
            epoch + max(1, STREAMS_PER_DRAW // per_epoch), config.epochs))
        blocks[config.seed] = (epochs, _epoch_uniforms(config, horizon,
                                                       epochs, phase))
    return np.stack([blocks[c.seed][1][epoch - blocks[c.seed][0].start]
                     for c in configs], axis=1)


def _sample_batch(mdp, student, teacher, config: TrainConfig,
                  uniforms: np.ndarray):
    """One training batch from its (batch_size, horizon_cap) uniforms, or
    (cells, batch_size, horizon_cap) for a stacked student, and its groups
    as a (groups, rollouts_per_group) array: one group per run of
    rollouts_per_group rows."""
    trajectories = env_mod.rollout_batch(mdp, student, teacher, config.spec,
                                         uniforms)
    groups = np.arange(len(trajectories)).reshape(
        -1, config.rollouts_per_group)
    return trajectories, groups


def _log_line(epoch: int, label: str, metrics: dict) -> str:
    return (f"epoch={epoch} method={label}"
            f" mean_return={metrics['task_success_rate']!r}"
            f" mean_kl={metrics['mean_kl']!r}"
            f" cs={metrics['constraint_satisfaction']!r}"
            f" violation={metrics['violation_probability']!r}\n")


def _check_stack(configs: list, starts: list) -> None:
    """Stacked cells share every train setting but the spec and the seed,
    the sampler's divergence kinds and the student floor."""
    first = configs[0]
    kinds = (first.spec.cost_kind, first.spec.penalty_kind)
    for config in configs:
        if (replace(config, spec=first.spec, seed=first.seed) != first
                or (config.spec.cost_kind, config.spec.penalty_kind)
                != kinds):
            raise ValueError("stacked cells must share their train settings"
                             " and divergence kinds")
    if len({p.floor for p in starts}) != 1:
        raise ValueError("stacked cells must share the student floor")


def train_cells(mdp, teacher, configs: list,
                initial_policies: list | None = None,
                start_epoch: int = 0,
                optimizer_state: dict | None = None,
                log_files: list | None = None,
                phase: int = 1) -> list:
    """Train C cells as one stacked problem; per cell, what `train` returns
    for it alone, bit for bit, or the TrainingDiverged it raises alone.

    The cells share the MDP, the teacher, every train setting but the spec
    and the seed, the specs' divergence kinds and the student floor. The
    student stacks their logit tables (cell c's state s in row
    c * num_states + s), so a batch of every cell is one `rollout_batch`,
    one `total_gradient` with per-cell specs and one Adam step. Stream keys,
    evaluation, checkpoints and log lines (`log_files[c]`, written after the
    epoch's evaluation) stay per cell. Each seed's uniforms are drawn a
    block of epochs at a time (`_stacked_uniforms`), and each epoch's stack
    is taken from the blocks of the cells still training, so a diverged
    cell leaves the stack at once.
    `optimizer_state` is the stacked optimizer's (a one-cell checkpoint's).
    """
    if not configs:
        return []
    count = len(configs)
    starts = [SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size)
              if p is None else p
              for p in (initial_policies or [None] * count)]
    _check_stack(configs, starts)
    first, floor, size = configs[0], starts[0].floor, mdp.num_states
    student = SoftmaxPolicy(np.concatenate([p.logits for p in starts]),
                            floor)
    optimizer = AdamAscent(first.learning_rate, state=optimizer_state)
    labels = [method_label(c.spec) for c in configs]
    logs = log_files or [None] * count
    policies = [p.copy() for p in starts]
    checkpoints: list[list[Checkpoint]] = [[] for _ in configs]
    failures: dict[int, TrainingDiverged] = {}
    cells = list(range(count))  # the cells still training, in stack order
    blocks = {}  # seed -> (epochs, uniforms): its current block of draws

    for epoch in range(start_epoch, first.epochs):
        uniforms = _stacked_uniforms([configs[c] for c in cells],
                                     mdp.horizon_cap, epoch, phase, blocks)
        for batch in range(first.batches_per_epoch):
            trajs, groups = _sample_batch(mdp, student, teacher, first,
                                          uniforms[batch])
            estimate = gradients.total_gradient(
                student, teacher, trajs, [configs[c].spec for c in cells],
                baseline=gradients.BASELINE_GROUP, groups=groups)
            student.logits = optimizer.update(student.logits,
                                              estimate.table)
            if not np.isfinite(student.logits).all():
                finite = np.isfinite(student.logits).reshape(
                    len(cells), -1).all(axis=1)
                for c in np.asarray(cells)[~finite].tolist():
                    failures[c] = TrainingDiverged(
                        f"non-finite parameters at epoch {epoch} batch"
                        f" {batch} (method {labels[c]})", checkpoints[c])
                rows = np.repeat(finite, size)
                student.logits = student.logits[rows]
                optimizer.m, optimizer.v = optimizer.m[rows], optimizer.v[rows]
                uniforms = uniforms[:, finite]
                cells = [c for c, ok in zip(cells, finite) if ok]
                if not cells:
                    return [failures[c] for c in range(count)]
        for k, c in enumerate(cells):
            rows = slice(k * size, (k + 1) * size)
            policy = SoftmaxPolicy(student.logits[rows], floor)
            result = evaluate_policy(mdp, policy, teacher, configs[c].spec,
                                     eval_seed=configs[c].seed)
            metrics = {
                "task_success_rate": result.task_success_rate,
                "mean_kl": result.mean_kl,
                "constraint_satisfaction": result.constraint_satisfaction,
                "violation_probability": result.violation_probability,
            }
            checkpoints[c].append(Checkpoint(epoch, policy.logits, floor,
                                             optimizer.state(rows),
                                             dict(metrics)))
            if logs[c] is not None:
                logs[c].write(_log_line(epoch, labels[c], metrics))
            policies[c] = policy
    return [failures.get(c) or (policies[c], checkpoints[c])
            for c in range(count)]


def train(mdp, teacher, config: TrainConfig,
          initial_policy: SoftmaxPolicy | None = None,
          start_epoch: int = 0,
          optimizer_state: dict | None = None,
          log_file=None,
          phase: int = 1):
    """Run the configured method; returns (final policy, per-epoch checkpoints).

    The RNG stream of every rollout is derived from
    (seed, phase, epoch, batch, group, rollout), so a run resumed from a
    checkpoint reproduces the original bit-for-bit. This is `train_cells`
    with one cell.
    """
    (result,) = train_cells(mdp, teacher, [config], [initial_policy],
                            start_epoch, optimizer_state, [log_file], phase)
    if isinstance(result, TrainingDiverged):
        raise result
    return result


def resume(mdp, teacher, config: TrainConfig, checkpoint: Checkpoint,
           log_file=None, phase: int = 1):
    """Continue a run from a checkpoint; bit-identical to the original run."""
    policy = SoftmaxPolicy(checkpoint.logits, checkpoint.floor)
    return train(mdp, teacher, config, initial_policy=policy,
                 start_epoch=checkpoint.epoch + 1,
                 optimizer_state=copy.deepcopy(checkpoint.optimizer_state),
                 log_file=log_file, phase=phase)


def _warm_config(config: TrainConfig, epochs_kl: int) -> TrainConfig:
    """The warm start's run: kl-only, which reads no budget, penalty,
    boundary_tol, lagrange_weight or penalty kind, so they are dropped and
    cells that differ only there (or in mode) have equal warm configs."""
    spec = ConstrainedRewardSpec(cost_kind=config.spec.cost_kind,
                                 penalty_kind=config.spec.cost_kind,
                                 mode=shaping.KL_ONLY,
                                 discount=config.spec.discount)
    return replace(config, spec=spec, epochs=epochs_kl)


def warm_start(mdp, teacher, config: TrainConfig, epochs_kl: int = 3,
               initial_policy: SoftmaxPolicy | None = None) -> SoftmaxPolicy:
    """Distillation-only bootstrap: run the pure divergence objective first."""
    if epochs_kl < 0:
        raise ValueError("epochs_kl must be nonnegative")
    policy, _ = train(mdp, teacher, _warm_config(config, epochs_kl),
                      initial_policy=initial_policy, phase=0)
    return policy


def train_grid(mdp, teacher, configs: list, epochs_kl: int = 3,
               log_files: list | None = None) -> list:
    """`warm_start` then `train` for every config, as `train_cells` returns
    them: the distinct warm starts (one per seed) train as one stack, then
    the cells as another. A cell whose warm start diverged gets that
    TrainingDiverged."""
    warm = [_warm_config(c, epochs_kl) for c in configs]
    distinct = list(dict.fromkeys(warm))
    by_warm = dict(zip(distinct, train_cells(mdp, teacher, distinct,
                                             phase=0)))
    outcomes = [by_warm[w] for w in warm]
    ready = [k for k, o in enumerate(outcomes)
             if not isinstance(o, TrainingDiverged)]
    logs = log_files or [None] * len(configs)
    trained = train_cells(mdp, teacher, [configs[k] for k in ready],
                          [outcomes[k][0] for k in ready],
                          log_files=[logs[k] for k in ready])
    for k, outcome in zip(ready, trained):
        outcomes[k] = outcome
    return outcomes
