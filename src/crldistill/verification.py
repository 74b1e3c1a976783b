# Executable checks of the equivalence, monotonicity and constraint
# guarantees, run over randomized small instances with exact enumeration.
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import divergence as dv
from . import env as env_mod
from . import shaping
from .env import TokenMdp, weighted_sum
from .evaluation import evaluate_policy
from .gradients import shaped_return
from .policies import (ALL_STATES, SoftmaxPolicy, TeacherPolicy,
                       floor_distribution, teacher_copy)
from .shaping import ConstrainedRewardSpec

EQUIVALENCE_TOL = 1e-12
MONOTONE_SLACK = 1e-12
STABILIZE_TOL = 1e-9
BELLMAN_TOL = 1e-10
DEFAULT_N_GRID = (1.0, 5.0, 20.0, 100.0, 1000.0)


@dataclass
class TheoremReport:
    theorem: str
    instances: int
    max_deviation: float
    passed: bool
    seed: int
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Random small instances


def random_instance(rng: np.random.Generator,
                    max_states: int = 6, max_vocab: int = 4,
                    max_horizon: int = 5):
    """Random MDP plus random student/teacher, small enough to enumerate."""
    n = int(rng.integers(3, max_states + 1))
    v = int(rng.integers(2, max_vocab + 1))
    h = int(rng.integers(2, max_horizon + 1))
    terminals = set()
    k = int(rng.integers(1, max(2, n // 2) + 1))
    candidates = list(range(1, n))
    rng.shuffle(candidates)
    terminals.update(candidates[:k])
    trans = rng.integers(0, n, size=(n, v))
    rewards = {t: float(rng.integers(0, 2)) for t in terminals}
    mdp = TokenMdp(n, v, trans, 0, frozenset(terminals), h, rewards)
    student = SoftmaxPolicy(rng.normal(scale=1.5, size=(n, v)))
    teacher = TeacherPolicy(rng.dirichlet(np.ones(v), size=n))
    return mdp, student, teacher


# ---------------------------------------------------------------------------
# Theorem checks


def check_return_equivalence(instances: int = 100, seed: int = 0,
                             tol: float = EQUIVALENCE_TOL) -> TheoremReport:
    """Trajectory-wise shaped returns of the augmented and un-augmented
    formulations agree (divergence penalty zeroed for parity)."""
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for _ in range(instances):
        mdp, student, teacher = random_instance(rng)
        budget = float(rng.uniform(0.05, 1.5))
        spec = ConstrainedRewardSpec(budget=budget, mode=shaping.UNAUGMENTED)
        batch, _ = env_mod.enumerate_batch(mdp, student, teacher, spec)
        a = shaping.unaug_reward(batch, spec, include_divergence_penalty=False)
        b = shaping.saute_reward(batch, spec)
        worst = max(worst, float(np.abs(a - b).max(initial=0.0)))
    return TheoremReport("return_equivalence", instances, worst,
                         worst <= tol, seed)


def check_monotone_in_n(mdp, teacher, policies: list[SoftmaxPolicy],
                        n_grid=DEFAULT_N_GRID,
                        spec: ConstrainedRewardSpec | None = None,
                        seed: int = 0) -> TheoremReport:
    """Exact values are non-increasing in the penalty scale and stabilize on
    policies with zero penalized mass.

    The trajectory tree and its costs do not depend on the penalty scale, so
    each policy is enumerated once; `details["penalized_mass"]` holds, per
    policy, the mass of trajectories that act after exhausting the budget.
    """
    base = (spec or ConstrainedRewardSpec()).with_mode(shaping.UNAUGMENTED)
    grid = sorted(n_grid)
    scaled = [base.with_mode(shaping.UNAUGMENTED, penalty=n) for n in grid]
    worst_increase = 0.0
    worst_tail = 0.0
    masses = []
    for policy in policies:
        batch, probs = env_mod.enumerate_batch(mdp, policy, teacher, base)
        values = [weighted_sum(probs, shaped_return(batch, spec_n))
                  for spec_n in scaled]
        # penalized: some step acts with the budget already exhausted
        feasible = shaping.remaining_budget(batch.costs, base.budget) >= 0.0
        mass = weighted_sum(probs, (batch.live & ~feasible).any(axis=1))
        masses.append(mass)
        for lo, hi in zip(values, values[1:]):
            worst_increase = max(worst_increase, hi - lo)
        if mass == 0.0 and len(values) >= 2:
            worst_tail = max(worst_tail, abs(values[-1] - values[-2]))
    passed = worst_increase <= MONOTONE_SLACK and worst_tail <= STABILIZE_TOL
    return TheoremReport("monotone_in_penalty", len(policies),
                         max(worst_increase, worst_tail), passed, seed,
                         {"worst_increase": worst_increase,
                          "worst_tail_gap": worst_tail, "n_grid": list(grid),
                          "penalized_mass": masses})


def check_constraint_satisfaction(mdp, student, teacher,
                                  spec: ConstrainedRewardSpec,
                                  threshold: float = 0.05,
                                  seed: int = 0):
    """Exact violating mass of a trained policy; passes when under `threshold`."""
    mass = evaluate_policy(mdp, student, teacher, spec).violation_probability
    report = TheoremReport("constraint_satisfaction", 1, mass,
                           mass <= threshold, seed,
                           {"threshold": threshold, "budget": spec.budget})
    return mass, report


def _feasible_deterministic_path(mdp, teacher, spec, floor) -> bool:
    """Whether some deterministic policy's single trajectory fits the budget.

    A per-depth pass keeps, for each running state, the least spend of any
    token path that reaches it; costs are nonnegative and rounding is
    monotone, so that path's spend, summed left to right, is the least of
    all, and the least spend at any leaf decides.
    """
    v = mdp.vocab_size
    # det_cost[s, a]: the cost at s of the floored one-hot row of token a
    det_cost = dv.divergence(floor_distribution(np.eye(v), floor),
                             teacher.action_probs(ALL_STATES)[:, None],
                             spec.cost_kind)
    spent = np.full(mdp.num_states, np.inf)
    spent[mdp.initial_state] = 0.0
    for _ in range(mdp.horizon_cap):
        entered = np.full(mdp.num_states, np.inf)
        np.minimum.at(entered, mdp.transition, spent[:, None] + det_cost)
        if (entered[mdp.terminal] <= spec.budget).any():
            return True
        spent = np.where(mdp.terminal, np.inf, entered)
    # rows still running at horizon_cap are cut there
    return bool((spent <= spec.budget).any())


def check_assumptions(mdp, teacher, spec: ConstrainedRewardSpec,
                      samples: int = 20, seed: int = 0,
                      floor: float = 1e-8) -> TheoremReport:
    """Finiteness of the divergence penalty and its gradient at random
    parameters, plus a feasible-policy existence certificate."""
    rng = np.random.default_rng([seed, 13])
    bound = dv.max_cost_bound(teacher)
    mu = teacher.action_probs(ALL_STATES)
    finite = True
    worst = 0.0
    for _ in range(samples):
        student = SoftmaxPolicy(
            rng.normal(scale=3.0, size=(mdp.num_states, mdp.vocab_size)),
            floor=floor)
        grads = dv.divergence_gradient(student, teacher, ALL_STATES,
                                       spec.penalty_kind)
        vals = dv.state_divergences(student, teacher, spec.penalty_kind)[0]
        ok = np.isfinite(vals) & np.isfinite(grads).all(axis=1)
        if not ok.all():
            finite = False
        # the running max of the per-state loop: the first of equal values
        worst = max([worst, *vals[ok].tolist()])
        if spec.penalty_kind == dv.REVERSE_KL \
                and (vals[ok] > bound + 1e-9).any():
            finite = False

    copy_costs = dv.divergence(teacher_copy(teacher).action_probs(ALL_STATES),
                               mu, spec.cost_kind)
    copy_feasible = bool((copy_costs * mdp.horizon_cap <= spec.budget).all())
    det_feasible = _feasible_deterministic_path(mdp, teacher, spec, floor)
    return TheoremReport("assumptions", samples, worst, finite, seed,
                         {"phi_bound": bound,
                          "teacher_copy_feasible": copy_feasible,
                          "deterministic_certificate": det_feasible})


def check_bellman_residual(mdp, student, teacher,
                           spec: ConstrainedRewardSpec,
                           tol: float = BELLMAN_TOL,
                           seed: int = 0) -> TheoremReport:
    """Bellman optimality on the un-augmented model with costs frozen at the
    given policy: the backward-induction fixed point has zero residual."""
    _, costs, pens = env_mod.state_tables(mdp, student, teacher, spec)
    costs, pens = costs.tolist(), pens.tolist()

    cache: dict = {}

    def value(state, depth, remaining):
        if mdp.terminal[state] or depth == mdp.horizon_cap:
            return 0.0
        key = (state, depth, remaining)
        if key in cache:
            return cache[key]
        best = -np.inf
        for a in range(mdp.vocab_size):
            nxt, r, done = env_mod.step(mdp, state, a)
            shaped = r if remaining >= 0 else -(spec.penalty + pens[state])
            cont = 0.0 if done else value(nxt, depth + 1,
                                          remaining - costs[state])
            best = max(best, shaped + spec.discount * cont)
        cache[key] = best
        return best

    value(mdp.initial_state, 0, spec.budget)
    residual = 0.0
    for (state, depth, remaining), v in list(cache.items()):
        best = -np.inf
        for a in range(mdp.vocab_size):
            nxt, r, done = env_mod.step(mdp, state, a)
            shaped = r if remaining >= 0 else -(spec.penalty + pens[state])
            cont = 0.0 if done else value(nxt, depth + 1,
                                          remaining - costs[state])
            best = max(best, shaped + spec.discount * cont)
        residual = max(residual, abs(best - v))
    return TheoremReport("bellman_residual", len(cache), residual,
                         residual <= tol, seed)


# Settings for the tension-task regression suite: the task/teacher pair on
# which the trained-policy criteria are anchored, plus the training knobs
# that give stable convergence at this scale.
TENSION_SPEC_KW = {"boundary_tol": 0.02}
TENSION_TRAIN_KW = {"epochs": 40, "learning_rate": 3e-2}


def tension_suite():
    """Canonical (mdp, teacher) pair used by the trained-policy checks."""
    mdp = env_mod.chain_with_distractors()
    return mdp, env_mod.tension_teacher(mdp)


def check_violation_trend(mdp=None, teacher=None,
                          n_grid=(1.0, 5.0, 20.0), seed: int = 0,
                          threshold: float = 0.05,
                          slack: float = 0.0,
                          train_kw: dict | None = None) -> TheoremReport:
    """Train at increasing penalty scales; the exact violation probability of
    the resulting policies must be non-increasing and end under `threshold`."""
    from . import training

    if mdp is None or teacher is None:
        mdp, teacher = tension_suite()
    grid = sorted(n_grid)
    configs = [training.TrainConfig(
        spec=ConstrainedRewardSpec(penalty=float(n), **TENSION_SPEC_KW),
        seed=seed, **(train_kw or TENSION_TRAIN_KW)) for n in grid]
    violations = []
    # one shared warm start, then the penalties train as one stack
    for config, outcome in zip(configs, training.train_grid(mdp, teacher,
                                                            configs)):
        if isinstance(outcome, training.TrainingDiverged):
            raise outcome
        result = evaluate_policy(mdp, outcome[0], teacher, config.spec,
                                 eval_seed=seed)
        violations.append(result.violation_probability)
    worst_increase = max((hi - lo for lo, hi in
                          zip(violations, violations[1:])), default=0.0)
    passed = worst_increase <= slack and violations[-1] <= threshold
    return TheoremReport("violation_trend", len(grid),
                         max(worst_increase, 0.0), passed, seed,
                         {"n_grid": [float(n) for n in grid],
                          "violations": violations,
                          "threshold": threshold})


# ---------------------------------------------------------------------------
# Batteries over random instances


def equivalence_battery(instances: int, seed: int) -> TheoremReport:
    return check_return_equivalence(instances=instances, seed=seed)


def monotonicity_battery(instances: int, seed: int,
                         policies_per_instance: int = 5) -> TheoremReport:
    rng = np.random.default_rng([seed, 17])
    reports = []
    for _ in range(instances):
        mdp, _, teacher = random_instance(rng)
        policies = [SoftmaxPolicy(rng.normal(scale=2.0,
                                             size=(mdp.num_states,
                                                   mdp.vocab_size)))
                    for _ in range(policies_per_instance - 1)]
        policies.append(teacher_copy(teacher))
        reports.append(check_monotone_in_n(mdp, teacher, policies, seed=seed))
    worst = max(r.max_deviation for r in reports)
    return TheoremReport("monotone_in_penalty", instances, worst,
                         all(r.passed for r in reports), seed)


def assumptions_battery(instances: int, seed: int) -> TheoremReport:
    rng = np.random.default_rng([seed, 19])
    worst = 0.0
    ok = True
    for _ in range(instances):
        mdp, _, teacher = random_instance(rng)
        report = check_assumptions(mdp, teacher, ConstrainedRewardSpec(),
                                   samples=5, seed=seed)
        worst = max(worst, report.max_deviation)
        ok = ok and report.passed
    return TheoremReport("assumptions", instances, worst, ok, seed)


def bellman_battery(instances: int, seed: int) -> TheoremReport:
    rng = np.random.default_rng([seed, 23])
    worst = 0.0
    ok = True
    for _ in range(instances):
        mdp, student, teacher = random_instance(rng)
        report = check_bellman_residual(mdp, student, teacher,
                                        ConstrainedRewardSpec(), seed=seed)
        worst = max(worst, report.max_deviation)
        ok = ok and report.passed
    return TheoremReport("bellman_residual", instances, worst, ok, seed)
