import gc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crldistill import divergence as dv
from crldistill import env, gradients
from crldistill.policies import (ALL_STATES, SoftmaxPolicy, TeacherPolicy,
                                 floor_distribution, load_policy,
                                 save_policy, teacher_copy)
from crldistill.shaping import ConstrainedRewardSpec


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


# ---------------------------------------------------------------------------
# Tables cached per logits value

# the cost and penalty kinds differ, so the penalty table is its own array
CACHE_SPEC = ConstrainedRewardSpec(budget=0.2,
                                   penalty_kind=dv.JENSEN_SHANNON)


def cache_case(seed=0):
    mdp = env.chain_with_distractors(decision_states=2, horizon_cap=6)
    rng = np.random.default_rng(seed)
    student = SoftmaxPolicy(rng.normal(size=(mdp.num_states,
                                             mdp.vocab_size)))
    return mdp, student, env.tension_teacher(mdp), rng


def derived_tables(mdp, student, teacher):
    """Every table derived from the student's logits (the cached ones
    included), the samplers' output on fixed draws and the exact gradient,
    as bytes."""
    tables = [student.action_probs(ALL_STATES), student.raw_probs(ALL_STATES),
              *env.state_tables(mdp, student, teacher, CACHE_SPEC)]
    tables += [dv.divergence_gradient(student, teacher, ALL_STATES, kind)
               for kind in dv.KINDS]
    stream = np.random.default_rng(5)
    batches = [env.rollout(mdp, student, teacher, CACHE_SPEC, stream)
               for _ in range(20)]
    batches.append(env.rollout_batch(mdp, student, teacher, CACHE_SPEC,
                                     stream.random((20, mdp.horizon_cap))))
    for batch in batches:
        tables += [batch.states, batch.tokens, batch.costs, batch.penalties]
    exact = gradients.exact_gradient(mdp, student, teacher, CACHE_SPEC)
    tables += [exact.term_i, exact.term_ii]
    return [t.tobytes() for t in tables]


def test_in_place_writes_raise():
    mdp, student, teacher, _ = cache_case()
    returned = [student.logits, teacher.probs, teacher.action_probs(0),
                student.action_probs(ALL_STATES), student.action_probs(1),
                student.raw_probs(ALL_STATES), student.raw_probs(1),
                *env.state_tables(mdp, student, teacher, CACHE_SPEC)]
    for kind in dv.KINDS:
        returned += [dv.divergence_gradient(student, teacher, ALL_STATES, kind),
                     dv.divergence_gradient(student, teacher, 1, kind)]
    for table in returned:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5
    with pytest.raises(FrozenInstanceError):
        teacher.probs = teacher.probs.copy()
    with pytest.raises(AttributeError):
        student.floor = 0.5
    # the caller's array stays its own: the policy stores a copy
    mine = np.zeros((mdp.num_states, mdp.vocab_size))
    student.logits = mine
    mine[0, 0] = 9.0
    assert not student.logits.any()


def test_assignment_drops_cached_tables():
    mdp, student, teacher, rng = cache_case()
    for _ in range(3):
        before = derived_tables(mdp, student, teacher)
        assert derived_tables(mdp, student, teacher) == before
        new = rng.normal(size=student.logits.shape)
        student.logits = new
        got = derived_tables(mdp, student, teacher)
        assert got == derived_tables(mdp, SoftmaxPolicy(new), teacher)
        assert all(a != b for a, b in zip(got[:4], before[:4]))


def test_each_teacher_keeps_its_own_tables():
    # a cache keyed by id(teacher) would hand a new teacher the tables of a
    # collected one whose id it reuses
    mdp, student, _, rng = cache_case()
    rows, vocab = student.logits.shape
    tables = [rng.dirichlet(np.ones(vocab), size=rows) for _ in range(20)]
    teacher = TeacherPolicy(tables[0])
    for probs in tables[1:]:
        got = derived_tables(mdp, student, teacher)
        fresh = SoftmaxPolicy(student.logits)
        assert got == derived_tables(mdp, fresh, teacher)
        del teacher, fresh
        gc.collect()
        teacher = TeacherPolicy(probs)
