import functools
import operator

import numpy as np
import pytest

from crldistill import divergence as dv
from crldistill import env, verification
from crldistill.env import TokenMdp
from crldistill.policies import (ALL_STATES, SoftmaxPolicy, TeacherPolicy,
                                 floor_distribution, teacher_copy)
from crldistill.shaping import ConstrainedRewardSpec
from crldistill.verification import (TheoremReport, assumptions_battery,
                                     bellman_battery, check_assumptions,
                                     check_bellman_residual,
                                     check_constraint_satisfaction,
                                     check_monotone_in_n,
                                     check_return_equivalence,
                                     equivalence_battery,
                                     monotonicity_battery, random_instance,
                                     tension_suite)


def test_random_instance_is_enumerable():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mdp, student, teacher = random_instance(rng)
        assert mdp.num_states <= 6 and mdp.vocab_size <= 4
        assert mdp.horizon_cap <= 5
        _, probs = env.enumerate_batch(mdp, student, teacher,
                                       ConstrainedRewardSpec())
        assert abs(sum(probs.tolist()) - 1.0) < 1e-12


def test_policy_value_penalized_mass_bounds():
    # penalized: some step acts after the earlier steps' costs exhausted
    # the budget, i.e. the budget minus all but the last cost is negative
    rng = np.random.default_rng(1)
    mdp, student, teacher = random_instance(rng)
    spec = ConstrainedRewardSpec(budget=0.05)
    report = check_monotone_in_n(mdp, teacher,
                                 [student, teacher_copy(teacher)], spec=spec)
    batch, probs = env.enumerate_batch(mdp, student, teacher, spec)
    expected = sum(p for costs, n, p in zip(batch.costs.tolist(),
                                            batch.lengths.tolist(),
                                            probs.tolist())
                   if functools.reduce(operator.sub, costs[:n - 1],
                                       spec.budget) < 0)
    mass, copy_mass = report.details["penalized_mass"]
    assert 0.0 < mass <= 1.0
    assert mass == pytest.approx(expected, abs=1e-12)
    assert copy_mass == 0.0
    assert np.isfinite(report.max_deviation)


def test_return_equivalence_small_battery():
    report = check_return_equivalence(instances=10, seed=3)
    assert report.passed
    assert report.max_deviation <= verification.EQUIVALENCE_TOL


def test_monotone_check_on_random_policies():
    rng = np.random.default_rng(2)
    mdp, _, teacher = random_instance(rng)
    policies = [SoftmaxPolicy(rng.normal(scale=2.0,
                                         size=(mdp.num_states,
                                               mdp.vocab_size)))
                for _ in range(4)] + [teacher_copy(teacher)]
    report = check_monotone_in_n(mdp, teacher, policies)
    assert report.passed
    assert report.details["worst_increase"] <= verification.MONOTONE_SLACK


def test_constraint_satisfaction_check():
    mdp, teacher = tension_suite()
    spec = ConstrainedRewardSpec()
    mass, report = check_constraint_satisfaction(mdp, teacher_copy(teacher),
                                                 teacher, spec)
    assert report.passed  # a teacher copy has essentially zero divergence
    assert mass <= 1e-6
    hostile = SoftmaxPolicy(np.random.default_rng(0).normal(
        scale=4.0, size=(mdp.num_states, mdp.vocab_size)))
    mass, report = check_constraint_satisfaction(mdp, hostile, teacher, spec)
    assert mass > 0.05 and not report.passed


def test_assumptions_on_tension_suite():
    mdp, teacher = tension_suite()
    report = check_assumptions(mdp, teacher, ConstrainedRewardSpec(),
                               samples=10)
    assert report.passed
    assert report.details["teacher_copy_feasible"]
    # the tension task is built so that no deterministic policy fits the
    # budget (full hazard suppression is too expensive); the feasibility
    # certificate comes from the stochastic teacher copy instead
    assert not report.details["deterministic_certificate"]
    assert report.max_deviation <= report.details["phi_bound"] + 1e-9


def deterministic_certificate(mdp, teacher, budget):
    spec = ConstrainedRewardSpec(budget=budget)
    return check_assumptions(mdp, teacher, spec, samples=1).details[
        "deterministic_certificate"]


def test_deterministic_certificate_takes_the_cheaper_visit():
    # both tokens of state 0 enter state 1 at depth 1: token 0 for about
    # 0.92 (-ln 0.4), token 1 for about 0.51 (-ln 0.6); state 1 then pays
    # about 0.69 (-ln 0.5) into the goal. Only token 1's path fits 1.3, and
    # a search that remembers state 1 from token 0's visit misses it.
    mdp = TokenMdp(3, 2, np.array([[1, 1], [2, 2], [2, 2]]), 0,
                   frozenset({2}), 2, {2: 1.0})
    teacher = TeacherPolicy(np.array([[0.4, 0.6], [0.5, 0.5], [0.5, 0.5]]))
    assert deterministic_certificate(mdp, teacher, 1.3)
    assert not deterministic_certificate(mdp, teacher, 1.1)
    assert not deterministic_certificate(mdp, teacher, 0.6)


def test_deterministic_certificate_matches_exhaustive_search():
    # every leaf of the trajectory tree is one deterministic policy's path;
    # its spend is the floored one-hot costs summed left to right
    found = set()
    for seed in range(120):
        rng = np.random.default_rng(seed)
        mdp, student, teacher = random_instance(rng)
        budget = float(rng.uniform(0.05, 3.0))
        det_cost = dv.divergence(
            floor_distribution(np.eye(mdp.vocab_size), 1e-8),
            teacher.action_probs(ALL_STATES)[:, None], dv.REVERSE_KL)
        batch, _ = env.enumerate_batch(mdp, student, teacher,
                                       ConstrainedRewardSpec())
        spent = env.discounted_sum(
            np.where(batch.live, det_cost[batch.states, batch.tokens], 0.0),
            1.0)
        want = bool((spent <= budget).any())
        assert deterministic_certificate(mdp, teacher, budget) is want
        found.add(want)
    assert found == {True, False}


def test_bellman_residual_zero_at_fixed_point():
    rng = np.random.default_rng(4)
    mdp, student, teacher = random_instance(rng)
    report = check_bellman_residual(mdp, student, teacher,
                                    ConstrainedRewardSpec())
    assert report.passed
    assert report.max_deviation <= verification.BELLMAN_TOL


def test_batteries_pass_on_small_budgets():
    assert equivalence_battery(5, seed=1).passed
    assert monotonicity_battery(2, seed=1).passed
    assert assumptions_battery(2, seed=1).passed
    assert bellman_battery(2, seed=1).passed


def test_theorem_report_shape():
    report = TheoremReport("demo", 1, 0.0, True, 0)
    assert report.details == {}
    report = check_return_equivalence(instances=2, seed=0)
    assert isinstance(report.theorem, str)
    assert isinstance(report.passed, bool)
