import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crldistill import shaping
from crldistill.env import Trajectory, TrajectoryBatch
from crldistill.shaping import (ConstrainedRewardSpec, boundary_flags,
                                lagrangian_step_reward, remaining_budget,
                                saute_reward, shape_rewards, unaug_reward)


def make_traj(rewards, costs, pens=None):
    """One trajectory, as a one-row batch."""
    n = len(rewards)
    return TrajectoryBatch.stack([Trajectory(
        states=list(range(n)), tokens=[0] * n, task_rewards=list(rewards),
        costs=list(costs), penalty_divergences=list(pens or [0.0] * n),
        terminated=True)])


def test_unaug_reward_hand_example():
    # budget 0.35: steps 0-1 spend 0.2 each, so step 2 is already infeasible
    traj = make_traj([0.0, 0.0, 1.0], [0.2, 0.2, 0.0], [0.1, 0.4, 0.3])
    spec = ConstrainedRewardSpec(budget=0.35, penalty=20.0)
    assert unaug_reward(traj, spec)[0].tolist() == [0.0, 0.0, -20.3]
    assert unaug_reward(traj, spec, include_divergence_penalty=False)[
        0].tolist() == [0.0, 0.0, -20.0]


def test_feasible_trajectory_keeps_task_rewards():
    traj = make_traj([0.0, 1.0], [0.1, 0.1])
    spec = ConstrainedRewardSpec(budget=0.35)
    assert unaug_reward(traj, spec)[0].tolist() == [0.0, 1.0]


def test_saute_matches_explicit_recursion():
    traj = make_traj([0.0, 0.0, 1.0], [0.3, 0.1, 0.0])
    spec = ConstrainedRewardSpec(budget=0.35, penalty=5.0)
    # z: 0.35 -> 0.05 -> -0.05; rewards gate on z before the step's cost
    assert saute_reward(traj, spec)[0].tolist() == [0.0, 0.0, -5.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0]),
                          st.floats(min_value=0.0, max_value=0.5),
                          st.floats(min_value=0.0, max_value=0.5)),
                min_size=1, max_size=8),
       st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=0.5, max_value=50.0))
def test_unaug_equals_saute_in_parity_mode(steps, budget, penalty):
    rewards = [s[0] for s in steps]
    costs = [s[1] for s in steps]
    pens = [s[2] for s in steps]
    traj = make_traj(rewards, costs, pens)
    spec = ConstrainedRewardSpec(budget=budget, penalty=penalty)
    assert unaug_reward(traj, spec, include_divergence_penalty=False)[
        0].tolist() == saute_reward(traj, spec)[0].tolist()


def test_penalty_ordering():
    # larger penalty scale never increases a shaped step reward
    traj = make_traj([0.0, 1.0], [0.5, 0.0], [0.2, 0.2])
    lo = ConstrainedRewardSpec(budget=0.35, penalty=1.0)
    hi = ConstrainedRewardSpec(budget=0.35, penalty=100.0)
    for a, b in zip(unaug_reward(traj, hi)[0].tolist(),
                    unaug_reward(traj, lo)[0].tolist()):
        assert a <= b


def test_lagrangian_step_reward():
    traj = make_traj([0.0, 1.0], [0.3, 0.1])
    spec = ConstrainedRewardSpec(mode=shaping.LAGRANGIAN, lagrange_weight=2.0)
    assert lagrangian_step_reward(traj, spec)[0].tolist() == [-0.6, 1.0 - 0.2]


def test_shape_rewards_dispatch():
    traj = make_traj([0.0, 1.0], [0.3, 0.1])
    base = ConstrainedRewardSpec(budget=0.35)
    assert shape_rewards(traj, base.with_mode(shaping.REWARD_ONLY))[
        0].tolist() == [0.0, 1.0]
    assert shape_rewards(traj, base.with_mode(shaping.KL_ONLY))[
        0].tolist() == [-0.3, -0.1]
    assert shape_rewards(traj, base.with_mode(shaping.KL_LONG_HORIZON))[
        0].tolist() == [-0.3, -0.1]
    assert shape_rewards(traj, base)[0].tolist() == \
        unaug_reward(traj, base)[0].tolist()
    assert shape_rewards(traj, base.with_mode(shaping.SAUTE))[
        0].tolist() == saute_reward(traj, base)[0].tolist()


def test_boundary_flags_tolerance_band():
    traj = make_traj([0.0, 0.0, 1.0], [0.2, 0.2, 0.0])
    spec = ConstrainedRewardSpec(budget=0.35, boundary_tol=0.2)
    # remaining before each step: 0.35, 0.15, -0.05
    assert boundary_flags(traj, spec)[0].tolist() == [False, True, True]
    tight = ConstrainedRewardSpec(budget=0.35, boundary_tol=1e-3)
    assert boundary_flags(traj, tight)[0].tolist() == [False, False, True]


def test_remaining_budget():
    # the budget left before each step, one cost subtracted at a time
    remaining = remaining_budget([[0.5, 0.01, 0.0]], 0.5)[0].tolist()
    assert remaining == [0.5, 0.0, -0.01]
    assert remaining[1] >= 0.0  # exactly 0 left is still feasible
    assert not remaining[2] >= 0.0  # overspent by 0.01
    assert remaining_budget([[]], 0.5)[0].tolist() == []
    traj = make_traj([0.0, 0.0, 1.0], [0.5, 0.01, 0.0])
    assert unaug_reward(traj, ConstrainedRewardSpec(budget=0.5))[
        0].tolist() == [0.0, 0.0, -20.0]
    with pytest.raises(ValueError):
        remaining_budget([[0.1, -0.1]], 0.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        ConstrainedRewardSpec(budget=0.0)
    with pytest.raises(ValueError):
        ConstrainedRewardSpec(penalty=-1.0)
    with pytest.raises(ValueError):
        ConstrainedRewardSpec(boundary_tol=-1e-3)
    with pytest.raises(ValueError):
        ConstrainedRewardSpec(mode="bogus")
    with pytest.raises(ValueError):
        ConstrainedRewardSpec(mode=shaping.LAGRANGIAN, lagrange_weight=-1.0)
    with pytest.raises(ValueError):
        ConstrainedRewardSpec(cost_kind="tv")
    spec = ConstrainedRewardSpec().with_mode(shaping.SAUTE)
    assert spec.mode == shaping.SAUTE
