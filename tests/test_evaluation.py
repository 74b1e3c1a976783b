import numpy as np
import pytest

from crldistill import env
from crldistill.evaluation import evaluate_policy
from crldistill.policies import SoftmaxPolicy, TeacherPolicy
from crldistill.shaping import ConstrainedRewardSpec


def test_exact_evaluation_hand_check():
    # deterministic-ish student on a length-2 chain: success probability is
    # the product of the advance probabilities at states 0 and 1
    mdp = env.chain(2, horizon_cap=4)
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.5, 0.5], [0.5, 0.5]])
    student = SoftmaxPolicy.from_probs(probs, floor=0.0)
    teacher = TeacherPolicy(probs, floor=0.0)
    spec = ConstrainedRewardSpec(budget=0.35)
    result = evaluate_policy(mdp, student, teacher, spec)
    assert result.exact
    assert result.task_success_rate == pytest.approx(0.72, abs=1e-12)
    # student equals teacher, so no divergence anywhere
    assert result.mean_kl == pytest.approx(0.0, abs=1e-12)
    assert result.constraint_satisfaction == 1.0
    assert result.violation_probability == 0.0


def test_result_fields_are_plain_floats():
    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp)
    student = SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size)
    result = evaluate_policy(mdp, student, teacher, ConstrainedRewardSpec())
    for value in (result.task_success_rate, result.mean_kl,
                  result.constraint_satisfaction,
                  result.violation_probability):
        assert type(value) is float
        assert "np." not in repr(value)


def test_violation_probability_matches_evaluation():
    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp)
    student = SoftmaxPolicy(np.random.default_rng(0).normal(
        scale=1.0, size=(mdp.num_states, mdp.vocab_size)))
    # every trajectory of this student violates a budget of 0.1, about a
    # tenth of its mass violates 2.0
    for budget in (0.1, 2.0):
        spec = ConstrainedRewardSpec(budget=budget)
        result = evaluate_policy(mdp, student, teacher, spec)
        direct = sum(p for traj, p in env.enumerate_trajectories(
            mdp, student, teacher, spec) if traj.total_cost > budget)
        assert result.violation_probability == pytest.approx(direct,
                                                             abs=1e-12)
        assert result.constraint_satisfaction == \
            pytest.approx(1.0 - direct, abs=1e-12)
    assert 0.0 < direct < 1.0


def test_probabilities_are_clamped_to_the_unit_interval():
    # every trajectory violates a budget of 0.1; the leaf probabilities of
    # this student sum to one ulp above 1
    mdp = env.chain_with_distractors()
    teacher = env.tension_teacher(mdp)
    student = SoftmaxPolicy(np.random.default_rng(0).normal(
        scale=1.0, size=(mdp.num_states, mdp.vocab_size)))
    spec = ConstrainedRewardSpec(budget=0.1)
    assert sum(p for _, p in env.enumerate_trajectories(
        mdp, student, teacher, spec)) > 1.0
    result = evaluate_policy(mdp, student, teacher, spec)
    assert result.violation_probability == 1.0
    assert result.constraint_satisfaction == 0.0
    assert 0.0 <= result.task_success_rate <= 1.0


def test_sampled_fallback_when_enumeration_exceeds_cap(monkeypatch):
    mdp = env.chain(2, horizon_cap=4)
    student = SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size)
    teacher = TeacherPolicy(np.full((mdp.num_states, 2), 0.5))
    spec = ConstrainedRewardSpec()

    def too_big(*args, **kwargs):
        raise env.EnumerationCapExceeded("forced")

    monkeypatch.setattr(env, "enumerate_batch", too_big)
    with pytest.raises(env.EnumerationCapExceeded):
        evaluate_policy(mdp, student, teacher, spec)
    result = evaluate_policy(mdp, student, teacher, spec, eval_seed=0,
                             samples=4000)
    assert not result.exact
    # uniform student on a length-2 chain succeeds with probability 1/4
    assert result.task_success_rate == pytest.approx(0.25, abs=0.03)
