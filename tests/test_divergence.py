import math

import numpy as np
import pytest

from crldistill import divergence as dv
from crldistill.policies import ALL_STATES, SoftmaxPolicy, TeacherPolicy

# KL((1/2,1/2) || (3/4,1/4)) = 0.5*ln(2/3) + 0.5*ln(2), worked by hand.
HAND_KL = 0.14384103622589045


def pair(student_probs, teacher_probs, floor=0.0):
    student = SoftmaxPolicy.from_probs(np.array([student_probs]), floor=floor)
    teacher = TeacherPolicy(np.array([teacher_probs]), floor=floor)
    return student, teacher


def test_reverse_kl_hand_value():
    student, teacher = pair([0.5, 0.5], [0.75, 0.25])
    got = dv.per_state_cost(student, teacher, 0, dv.REVERSE_KL)
    assert got == pytest.approx(HAND_KL, abs=1e-12)
    assert got == pytest.approx(0.5 * math.log(2 / 3) + 0.5 * math.log(2),
                                abs=1e-15)


def test_divergences_vanish_at_equality():
    student, teacher = pair([0.3, 0.7], [0.3, 0.7])
    for kind in dv.KINDS:
        assert dv.per_state_cost(student, teacher, 0, kind) < 1e-12


def test_divergences_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = int(rng.integers(2, 6))
        student = SoftmaxPolicy(rng.normal(scale=2.0, size=(1, v)))
        teacher = TeacherPolicy(rng.dirichlet(np.ones(v), size=1))
        for kind in dv.KINDS:
            assert dv.per_state_cost(student, teacher, 0, kind) >= 0.0


def test_js_symmetric_and_bounded():
    student, teacher = pair([0.9, 0.1], [0.2, 0.8])
    ab = dv.per_state_cost(student, teacher, 0, dv.JENSEN_SHANNON)
    swapped_student, swapped_teacher = pair([0.2, 0.8], [0.9, 0.1])
    ba = dv.per_state_cost(swapped_student, swapped_teacher, 0,
                           dv.JENSEN_SHANNON)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0.0 < ab <= math.log(2)


def test_js_extreme_value_is_ln2():
    # disjoint supports: JS is exactly ln 2
    student, teacher = pair([1.0, 0.0], [0.0, 1.0])
    got = dv.per_state_cost(student, teacher, 0, dv.JENSEN_SHANNON)
    assert got == pytest.approx(math.log(2), abs=1e-12)


def test_unknown_kind_rejected():
    student, teacher = pair([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="unknown divergence kind"):
        dv.per_state_cost(student, teacher, 0, "forward_kl")


def bumped(logits, idx, value):
    table = logits.copy()
    table[idx] = value
    return table


@pytest.mark.parametrize("kind", dv.KINDS)
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = int(rng.integers(2, 5))
        student = SoftmaxPolicy(rng.normal(scale=1.5, size=(2, v)))
        teacher = TeacherPolicy(rng.dirichlet(np.ones(v), size=2))
        state = int(rng.integers(0, 2))
        analytic = dv.divergence_gradient(student, teacher, state, kind)
        step = 1e-6
        logits = student.logits
        fd = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            saved = logits[idx]
            student.logits = bumped(logits, idx, saved + step)
            hi = dv.per_state_cost(student, teacher, state, kind)
            student.logits = bumped(logits, idx, saved - step)
            lo = dv.per_state_cost(student, teacher, state, kind)
            student.logits = logits
            fd[idx] = (hi - lo) / (2 * step)
        np.testing.assert_allclose(analytic, fd, atol=5e-8)
        # gradient lives only in the acted-from row
        other = 1 - state
        assert np.all(analytic[other] == 0.0)


def test_gradient_finite_at_floor():
    # one token pushed to the probability floor keeps a finite gradient
    student = SoftmaxPolicy(np.array([[40.0, -40.0]]))
    teacher = TeacherPolicy(np.array([[0.5, 0.5]]))
    g = dv.divergence_gradient(student, teacher, 0, dv.REVERSE_KL)
    assert np.isfinite(g).all()


def test_max_cost_bound_dominates():
    rng = np.random.default_rng(13)
    teacher = TeacherPolicy(rng.dirichlet(np.ones(4), size=3))
    bound = dv.max_cost_bound(teacher)
    for _ in range(30):
        student = SoftmaxPolicy(rng.normal(scale=5.0, size=(3, 4)))
        for s in range(3):
            assert dv.per_state_cost(student, teacher, s) <= bound + 1e-9


def test_error_state_is_set_only_for_zero_entries():
    rng = np.random.default_rng(5)
    p, q = rng.dirichlet(np.ones(3), size=(2, 5))
    zero_p, zero_q = p.copy(), q.copy()
    zero_p[1] = (0.0, 0.25, 0.75)
    zero_q[3] = (0.5, 0.0, 0.5)
    zero_p[3] = (0.5, 0.0, 0.5)
    for kind in dv.KINDS:
        # strictly positive tables: no log can warn, so no error state
        with np.errstate(all="raise"):
            positive = dv.divergence(p, q, kind)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert positive.tobytes() == dv._divergence(p, q, kind).tobytes()
        # a zero entry takes a log of 0, which must stay quiet
        with np.errstate(all="raise"):
            zeros = dv.divergence(zero_p, zero_q, kind)
        assert np.isfinite(zeros).all()
        assert zeros[[0, 2, 4]].tobytes() == positive[[0, 2, 4]].tobytes()
    # the gradient table takes logs of the student's and teacher's rows;
    # with floor 0, a very negative logit gives the student a zero entry
    logits = rng.normal(size=(5, 3))
    zero_logits = logits.copy()
    zero_logits[1, 0] = -1e4
    teacher = TeacherPolicy(q, floor=0.0)
    zero_teacher = TeacherPolicy(zero_q, floor=0.0)
    for kind in dv.KINDS:
        student = SoftmaxPolicy(logits, floor=0.0)
        with np.errstate(all="raise"):
            positive = dv.divergence_gradient(student, teacher, ALL_STATES,
                                              kind)
        with np.errstate(divide="ignore", invalid="ignore"):
            reference = dv._gradient_table(
                student.action_probs(ALL_STATES), teacher.probs,
                student.raw_probs(ALL_STATES), 1.0, kind)
        assert positive.tobytes() == reference.tobytes()
        zero_student = SoftmaxPolicy(zero_logits, floor=0.0)
        with np.errstate(under="ignore"):  # the softmax's own underflow
            assert zero_student.action_probs(1)[0] == 0.0
        with np.errstate(all="raise"):
            zeros = dv.divergence_gradient(zero_student, zero_teacher,
                                           ALL_STATES, kind)
        assert zeros[[0, 2, 4]].tobytes() == positive[[0, 2, 4]].tobytes()
