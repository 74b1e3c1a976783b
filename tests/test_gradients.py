import itertools

import numpy as np
import pytest

from crldistill import divergence as dv
from crldistill import env, gradients, shaping
from crldistill.env import TrajectoryBatch
from crldistill.gradients import (BASELINE_GROUP, BASELINE_NONE, FD_STEP,
                                  boundary_margin, exact_gradient,
                                  finite_difference_gradient,
                                  likelihood_ratio_term, total_gradient)
from crldistill.policies import SoftmaxPolicy, TeacherPolicy
from crldistill.shaping import ConstrainedRewardSpec


def small_instance(seed=0):
    rng = np.random.default_rng(seed)
    mdp = env.chain_with_distractors(decision_states=2, horizon_cap=6)
    student = SoftmaxPolicy(rng.normal(scale=0.7,
                                       size=(mdp.num_states, mdp.vocab_size)))
    teacher = env.tension_teacher(mdp)
    return mdp, student, teacher


def test_returns_to_go():
    assert gradients._returns_to_go([[1.0, 2.0, 3.0]], 1.0).tolist() == \
        [[6.0, 5.0, 3.0]]
    assert gradients._returns_to_go([[1.0, 2.0]], 0.5).tolist() == \
        [[2.0, 2.0]]


def test_split_is_consistent():
    mdp, student, teacher = small_instance()
    spec = ConstrainedRewardSpec(budget=0.2)
    rng = np.random.default_rng(1)
    trajs = [env.rollout(mdp, student, teacher, spec, rng) for _ in range(16)]
    groups = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
    est = total_gradient(student, teacher, trajs, spec,
                         baseline=BASELINE_GROUP, groups=groups)
    np.testing.assert_allclose(est.table, est.term_i + est.term_ii,
                               atol=1e-15)
    assert est.num_trajectories == 16


def test_group_baseline_zeroes_identical_returns():
    # all group members share one return, so every advantage is zero
    mdp, student, teacher = small_instance()
    spec = ConstrainedRewardSpec(mode=shaping.REWARD_ONLY)
    traj = TrajectoryBatch(np.array([[0, 2]]), np.array([[0, 0]]),
                           np.array([2]), np.array([[0.0, 1.0]]),
                           np.zeros((1, 2)), np.zeros((1, 2)),
                           np.array([True]))
    batch = TrajectoryBatch.stack([traj, traj, traj])
    credits = gradients._returns_to_go(shaping.shape_rewards(batch, spec),
                                       spec.discount)
    term = likelihood_ratio_term(student, batch, credits, groups=[[0, 1, 2]])
    np.testing.assert_allclose(term, 0.0, atol=1e-15)


def test_group_baseline_requires_groups():
    mdp, student, teacher = small_instance()
    spec = ConstrainedRewardSpec()
    batch = env.rollout(mdp, student, teacher, spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        total_gradient(student, teacher, batch, spec,
                       baseline=BASELINE_GROUP, groups=None)
    with pytest.raises(ValueError):
        total_gradient(student, teacher, batch, spec,
                       baseline=BASELINE_GROUP, groups=[[0]])
    with pytest.raises(ValueError):
        total_gradient(student, teacher, batch, spec, baseline="median")


def test_ragged_groups_raise():
    # groups are the rows of a (G, size) array; a ragged list has no such
    # form
    mdp, student, teacher = small_instance()
    spec = ConstrainedRewardSpec()
    batch = env.rollout_batch(mdp, student, teacher, spec,
                              np.random.default_rng(0).random(
                                  (5, mdp.horizon_cap)))
    with pytest.raises(ValueError):
        total_gradient(student, teacher, batch, spec,
                       baseline=BASELINE_GROUP, groups=[[0, 1], [2, 3, 4]])


def test_one_budget_ledger_per_unaugmented_batch(monkeypatch):
    # the shaped rewards and term ii's boundary flags share one ledger
    mdp, student, teacher = small_instance()
    spec = ConstrainedRewardSpec(budget=0.2)
    batch = env.rollout_batch(mdp, student, teacher, spec,
                              np.random.default_rng(1).random(
                                  (16, mdp.horizon_cap)))
    calls = []
    ledger = shaping.remaining_budget

    def counted(costs, budget):
        calls.append((costs.ctypes.data, budget))
        return ledger(costs, budget)

    monkeypatch.setattr(shaping, "remaining_budget", counted)
    est = total_gradient(student, teacher, batch, spec)
    assert [b for _, b in calls] == [spec.budget] and est.term_ii.any()
    # a spec with another budget gets its own ledger
    total_gradient(student, teacher, batch, ConstrainedRewardSpec(budget=0.3))
    assert [b for _, b in calls] == [0.2, 0.3]
    # per-cell specs split a stacked batch into blocks of equal specs, and
    # each block's shaping and term ii share one ledger
    specs = [ConstrainedRewardSpec(budget=b) for b in (0.2, 0.3, 0.2)]
    stacked = SoftmaxPolicy(np.concatenate([student.logits] * 3))
    batch = env.rollout_batch(mdp, stacked, teacher, spec,
                              np.random.default_rng(1).random(
                                  (3, 16, mdp.horizon_cap)))
    for cell_specs in (specs, specs[:1] * 2 + specs[1:2]):
        calls.clear()
        est = total_gradient(stacked, teacher, batch, cell_specs)
        blocks = [s.budget for s, _ in itertools.groupby(cell_specs)]
        assert len(set(calls)) == len(calls) == len(blocks)
        assert [b for _, b in calls] == blocks and est.term_ii.any()


def test_sampled_estimate_approaches_exact():
    mdp, student, teacher = small_instance()
    spec = ConstrainedRewardSpec(budget=0.2)
    exact = exact_gradient(mdp, student, teacher, spec)
    rng = np.random.default_rng(2)
    count = 20000
    mean = np.zeros_like(student.logits)
    m2 = np.zeros_like(student.logits)
    for i in range(count):
        traj = env.rollout(mdp, student, teacher, spec, rng)
        sample = total_gradient(student, teacher, [traj], spec,
                                baseline=BASELINE_NONE).table
        delta = sample - mean
        mean += delta / (i + 1)
        m2 += delta * (sample - mean)
    se = np.sqrt(m2 / (count - 1) / count)
    diff = np.abs(mean - exact.table)
    assert np.all(diff <= 4.0 * se + 1e-9)


@pytest.mark.parametrize("mode,kw", [
    (shaping.UNAUGMENTED, {}),
    (shaping.SAUTE, {}),
    (shaping.REWARD_ONLY, {}),
    (shaping.LAGRANGIAN, {"lagrange_weight": 0.5}),
    (shaping.KL_LONG_HORIZON, {}),
])
def test_exact_gradient_matches_finite_differences(mode, kw):
    mdp, student, teacher = small_instance(seed=4)
    spec = ConstrainedRewardSpec(budget=0.2, mode=mode, **kw)
    if mode == shaping.UNAUGMENTED:
        assert boundary_margin(mdp, student, teacher, spec) > 10 * FD_STEP
    analytic = exact_gradient(mdp, student, teacher, spec).table

    def shaped_value(policy):
        total = 0.0
        batch, probs = env.enumerate_batch(mdp, policy, teacher, spec)
        shaped = shaping.shape_rewards(batch, spec).tolist()
        for row, n, p in zip(shaped, batch.lengths.tolist(), probs.tolist()):
            total += p * sum(row[:n])
        return total

    fd = finite_difference_gradient(shaped_value, student)
    denom = max(float(np.linalg.norm(fd)), 1e-6)
    assert float(np.linalg.norm(analytic - fd)) / denom <= 1e-4


@pytest.mark.parametrize("kw,kind,coefficient", [
    ({"mode": shaping.UNAUGMENTED, "penalty_kind": dv.JENSEN_SHANNON},
     dv.JENSEN_SHANNON, 1.0),
    ({"mode": shaping.LAGRANGIAN, "lagrange_weight": 0.5}, dv.REVERSE_KL, 0.5),
    ({"mode": shaping.KL_LONG_HORIZON, "discount": 0.9}, dv.REVERSE_KL, 1.0),
    ({"mode": shaping.KL_ONLY}, dv.REVERSE_KL, 1.0),
], ids=["unaugmented-js", "lagrangian", "kl-long-horizon", "kl-only"])
def test_term_ii_matches_hand_sum(kw, kind, coefficient):
    # term ii: minus the probability-weighted, discounted divergence gradient
    # on boundary or violated steps (un-augmented) or on every step
    mdp, student, teacher = small_instance(seed=6)
    spec = ConstrainedRewardSpec(budget=0.2, **kw)
    est = exact_gradient(mdp, student, teacher, spec)
    if spec.mode == shaping.KL_ONLY:
        # per-step credit gives a likelihood-ratio term whose expectation is
        # an exact zero (the credit at a step does not depend on the token
        # taken), so the whole signal is the analytic divergence pull
        np.testing.assert_allclose(est.term_i, 0.0, atol=1e-12)

    expected = np.zeros_like(student.logits)
    batch, probs = env.enumerate_batch(mdp, student, teacher, spec)
    for states, costs, n, p in zip(batch.states.tolist(),
                                   batch.costs.tolist(),
                                   batch.lengths.tolist(), probs.tolist()):
        remaining = spec.budget
        for t, (s, c) in enumerate(zip(states[:n], costs[:n])):
            if spec.mode != shaping.UNAUGMENTED \
                    or remaining <= spec.boundary_tol:
                expected -= p * coefficient * spec.discount ** t * \
                    dv.divergence_gradient(student, teacher, s, kind)
            remaining -= c
    assert np.abs(expected).max() > 1e-3
    np.testing.assert_allclose(est.term_ii, expected, atol=1e-12)


@pytest.mark.parametrize("kw", [
    {"mode": shaping.SAUTE}, {"mode": shaping.REWARD_ONLY},
    {"mode": shaping.LAGRANGIAN, "lagrange_weight": 0.0},
], ids=["saute", "reward-only", "lagrangian-0"])
def test_term_ii_is_zero_without_divergence_in_reward(kw):
    # these rewards contain no divergence, even on violated steps
    mdp, student, teacher = small_instance(seed=6)
    spec = ConstrainedRewardSpec(budget=0.2, **kw)
    est = exact_gradient(mdp, student, teacher, spec)
    np.testing.assert_array_equal(est.term_ii, np.zeros_like(student.logits))
    assert np.abs(est.term_i).max() > 1e-3


def test_default_weights_are_the_batch_mean():
    mdp, student, teacher = small_instance(seed=7)
    rng = np.random.default_rng(3)
    for mode in shaping.MODES:
        spec = ConstrainedRewardSpec(budget=0.2, mode=mode,
                                     lagrange_weight=0.5)
        trajs = [env.rollout(mdp, student, teacher, spec, rng)
                 for _ in range(8)]
        default = total_gradient(student, teacher, trajs, spec)
        weighted = total_gradient(student, teacher, trajs, spec,
                                  weights=[1 / 8] * 8)
        np.testing.assert_array_equal(weighted.term_i, default.term_i)
        np.testing.assert_array_equal(weighted.term_ii, default.term_ii)
        singles = [total_gradient(student, teacher, [t], spec).table
                   for t in trajs]
        np.testing.assert_allclose(default.table, sum(singles) / 8,
                                   rtol=0, atol=1e-14)


def test_empty_batch_gives_zero_table():
    mdp, student, teacher = small_instance()
    spec = ConstrainedRewardSpec(mode=shaping.KL_ONLY)
    empty = env.rollout_batch(mdp, student, teacher, spec,
                              np.zeros((0, mdp.horizon_cap)))
    est = total_gradient(student, teacher, empty, spec)
    np.testing.assert_array_equal(est.table, np.zeros_like(student.logits))
    assert est.num_trajectories == 0


def test_boundary_margin_positive_off_boundary():
    mdp, student, teacher = small_instance(seed=8)
    spec = ConstrainedRewardSpec(budget=0.2)
    assert boundary_margin(mdp, student, teacher, spec) > 0.0
