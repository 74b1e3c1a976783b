"""The crldistill layers the traced run times, and the per-layer metrics.

Each target names the module attribute through which callers reach a layer.
Several targets may feed one layer name (both term-ii helpers, both
optimizers). Layers marked hot are called once or more per rollout step; they
are counted and timed but keep no span.
"""
from __future__ import annotations

import types

import numpy as np

from tracer import Tracer

# (module, attribute, layer, hot, work counter)
TARGETS = (
    ("env", "rollout", "env.rollout", False, len),
    ("env", "enumerate_trajectories", "env.enumerate_trajectories", False,
     len),
    ("policies", "SoftmaxPolicy.action_probs", "policies.action_probs", True,
     None),
    ("divergence", "per_state_cost", "divergence.per_state_cost", True, None),
    ("divergence", "phi", "divergence.phi", True, None),
    ("divergence", "divergence_gradient", "divergence.divergence_gradient",
     True, None),
    ("shaping", "shape_rewards", "shaping.shape_rewards", True, None),
    ("shaping", "boundary_flags", "shaping.boundary_flags", True, None),
    ("gradients", "likelihood_ratio_term", "gradients.likelihood_ratio_term",
     False, None),
    ("gradients", "explicit_dependence_term", "gradients.explicit_term",
     False, None),
    ("gradients", "divergence_pull_term", "gradients.explicit_term", False,
     None),
    ("gradients", "total_gradient", "gradients.total_gradient", False,
     lambda est: est.num_trajectories),
    ("gradients", "exact_gradient", "gradients.exact_gradient", False, None),
    ("gradients", "objective_value", "gradients.objective_value", False,
     None),
    ("gradients", "finite_difference_gradient",
     "gradients.finite_difference_gradient", False, None),
    ("training", "AdamAscent.update", "training.optimizer_step", True, None),
    ("training", "SgaAscent.update", "training.optimizer_step", True, None),
    ("training", "warm_start", "training.warm_start", False, None),
    ("training", "train", "training.train", False, None),
    ("evaluation", "evaluate_policy", "evaluation.evaluate_policy", False,
     lambda result: float(result.exact)),
    ("verification", "equivalence_battery",
     "verification.equivalence_battery", False, None),
    ("verification", "monotonicity_battery",
     "verification.monotonicity_battery", False, None),
    ("verification", "assumptions_battery",
     "verification.assumptions_battery", False, None),
    ("verification", "bellman_battery", "verification.bellman_battery", False,
     None),
    ("harness", "run_experiment", "harness.run_experiment", False, None),
    ("harness", "save_policy", "harness.save_policy", False, None),
    ("harness", "emit_reports", "harness.emit_reports", False, None),
)

# np.random.default_rng builds one seed stream per training rollout.
SEED_STREAMS = "training.seed_streams"

# (metric, unit): "<layer>.<stat>" with stat calls, self_s or a work count.
PER_LAYER = (
    ("env.rollout.calls", "count"),
    ("env.rollout.self_s", "s"),
    ("env.rollout.steps", "count"),
    ("policies.action_probs.calls", "count"),
    ("policies.action_probs.self_s", "s"),
    ("policies.action_probs.calls_per_step", "calls/step"),
    ("divergence.per_state_cost.calls", "count"),
    ("divergence.per_state_cost.self_s", "s"),
    ("divergence.phi.calls", "count"),
    ("divergence.cost_calls_per_step", "calls/step"),
    ("training.seed_streams.calls", "count"),
    ("training.seed_streams.self_s", "s"),
    ("gradients.likelihood_ratio_term.self_s", "s"),
    ("gradients.explicit_term.self_s", "s"),
    ("divergence.divergence_gradient.calls", "count"),
    ("divergence.divergence_gradient.self_s", "s"),
    ("shaping.shape_rewards.calls", "count"),
    ("shaping.shape_rewards.self_s", "s"),
    ("shaping.boundary_flags.calls", "count"),
    ("shaping.boundary_flags.self_s", "s"),
    ("gradients.total_gradient.calls", "count"),
    ("gradients.total_gradient.self_s", "s"),
    ("gradients.total_gradient.trajectories", "count"),
    ("training.optimizer_step.calls", "count"),
    ("training.optimizer_step.self_s", "s"),
    ("training.warm_start.self_s", "s"),
    ("training.train.self_s", "s"),
    ("evaluation.evaluate_policy.calls", "count"),
    ("evaluation.evaluate_policy.self_s", "s"),
    ("evaluation.evaluate_policy.exact_frac", "fraction"),
    ("env.enumerate_trajectories.calls", "count"),
    ("env.enumerate_trajectories.self_s", "s"),
    ("env.enumerate_trajectories.leaves", "count"),
    ("gradients.exact_gradient.calls", "count"),
    ("gradients.exact_gradient.self_s", "s"),
    ("gradients.objective_value.calls", "count"),
    ("gradients.objective_value.self_s", "s"),
    ("gradients.finite_difference_gradient.self_s", "s"),
    ("verification.equivalence_battery.self_s", "s"),
    ("verification.monotonicity_battery.self_s", "s"),
    ("verification.assumptions_battery.self_s", "s"),
    ("verification.bellman_battery.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.save_policy.self_s", "s"),
    ("harness.emit_reports.self_s", "s"),
    ("harness.bytes_written", "B"),
    ("env.rollout.share", "fraction"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def install(tracer: Tracer, lib) -> None:
    """Wrap every target in `lib` (a namespace of crldistill modules)."""
    modules = list(lib.modules.values())
    for module_name, attr, layer, hot, work in TARGETS:
        # a module that no longer exists reports its targets as absent
        module = lib.modules.get(module_name) \
            or types.ModuleType(f"crldistill.{module_name}")
        tracer.wrap(module, attr, layer, keep_spans=not hot, work=work,
                    rebind_in=modules)
    tracer.wrap(np.random, "default_rng", SEED_STREAMS, keep_spans=False)


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every PER_LAYER metric from the tracer's totals plus `extra` values.

    `extra` supplies the numbers the tracer cannot see: bytes written,
    traced and untraced wall time of the same work.
    """
    stats = tracer.stats
    steps = stats["env.rollout"].work
    values = dict(extra)
    for layer, st in stats.items():
        values[f"{layer}.calls"] = st.calls
        values[f"{layer}.self_s"] = st.self_s
    values["env.rollout.steps"] = steps
    values["env.enumerate_trajectories.leaves"] = \
        stats["env.enumerate_trajectories"].work
    values["gradients.total_gradient.trajectories"] = \
        stats["gradients.total_gradient"].work
    evals = stats["evaluation.evaluate_policy"]
    values["evaluation.evaluate_policy.exact_frac"] = \
        evals.work / evals.calls if evals.calls else 0.0
    per_step = (lambda calls: calls / steps) if steps else (lambda calls: 0.0)
    values["policies.action_probs.calls_per_step"] = \
        per_step(stats["policies.action_probs"].calls)
    values["divergence.cost_calls_per_step"] = \
        per_step(stats["divergence.per_state_cost"].calls)
    traced = extra["trace.traced_wall_s"]
    values["env.rollout.share"] = stats["env.rollout"].total_s / traced
    values["trace.overhead_s"] = traced - extra["trace.untraced_wall_s"]
    return {name: (values[name], unit) for name, unit in PER_LAYER}
