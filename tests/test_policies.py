import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crldistill import divergence as dv
from crldistill.policies import (SoftmaxPolicy, TeacherPolicy,
                                 floor_distribution, load_policy,
                                 save_policy, teacher_copy)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=8),
       st.floats(min_value=0.0, max_value=0.1))
def test_floor_distribution_stays_on_simplex(weights, floor):
    total = sum(weights)
    if total == 0.0:
        weights = [1.0] * len(weights)
        total = float(len(weights))
    p = np.array(weights) / total
    q = floor_distribution(p, floor)
    assert abs(q.sum() - 1.0) < 1e-12
    assert (q >= floor / (1.0 + len(weights) * floor) - 1e-15).all()


def test_softmax_rows_normalized():
    policy = SoftmaxPolicy(np.random.default_rng(0).normal(size=(4, 3)))
    for s in range(4):
        row = policy.action_probs(s)
        assert abs(row.sum() - 1.0) < 1e-12
        assert (row > 0).all()


def test_from_probs_roundtrip():
    target = np.array([[0.2, 0.3, 0.5], [0.9, 0.05, 0.05]])
    policy = SoftmaxPolicy.from_probs(target, floor=0.0)
    for s in range(2):
        np.testing.assert_allclose(policy.action_probs(s), target[s],
                                   atol=1e-12)


def test_teacher_validation():
    with pytest.raises(ValueError):
        TeacherPolicy(np.array([[0.5, 0.6], [0.5, 0.5]]))  # rows must sum to 1
    with pytest.raises(ValueError):
        TeacherPolicy(np.array([[-0.1, 1.1], [0.5, 0.5]]))


def test_teacher_copy_is_divergence_free():
    teacher = TeacherPolicy(np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
    student = teacher_copy(teacher)
    for s in range(2):
        assert dv.per_state_cost(student, teacher, s) < 1e-12


def test_checkpoint_roundtrip(tmp_path):
    policy = SoftmaxPolicy(np.random.default_rng(2).normal(size=(5, 3)),
                           floor=1e-6)
    path = tmp_path / "policy.npz"
    save_policy(policy, path)
    loaded = load_policy(path)
    np.testing.assert_array_equal(loaded.logits, policy.logits)
    assert loaded.floor == policy.floor


def test_validation_errors():
    with pytest.raises(ValueError):
        SoftmaxPolicy(np.zeros(3))  # not 2-d
    with pytest.raises(ValueError):
        SoftmaxPolicy(np.zeros((2, 2)), floor=-1e-3)
