import io

import numpy as np
import pytest

from crldistill import env, shaping, training
from crldistill.divergence import per_state_cost
from crldistill.policies import SoftmaxPolicy
from crldistill.shaping import ConstrainedRewardSpec
from crldistill.training import (TrainConfig, method_label, resume, train,
                                 warm_start)


def suite():
    mdp = env.chain_with_distractors()
    return mdp, env.tension_teacher(mdp)


def quick_config(mode=shaping.UNAUGMENTED, epochs=3, **spec_kw):
    spec = ConstrainedRewardSpec(mode=mode, **spec_kw)
    return TrainConfig(spec=spec, epochs=epochs, batches_per_epoch=4,
                       groups_per_batch=2, rollouts_per_group=4,
                       learning_rate=3e-2)


def test_method_label():
    base = ConstrainedRewardSpec()
    assert method_label(base) == "unaugmented"
    assert method_label(base.with_mode(shaping.LAGRANGIAN,
                                       lagrange_weight=0.0)) == "reward-only"
    assert method_label(base.with_mode(shaping.LAGRANGIAN,
                                       lagrange_weight=0.5)) == \
        "lagrangian-0.5"
    assert method_label(base.with_mode(shaping.KL_ONLY)) == "kl-only"


def test_training_is_deterministic():
    mdp, teacher = suite()
    config = quick_config()
    p1, c1 = train(mdp, teacher, config)
    p2, c2 = train(mdp, teacher, config)
    np.testing.assert_array_equal(p1.logits, p2.logits)
    assert [c.metrics for c in c1] == [c.metrics for c in c2]


def test_seed_changes_the_run():
    mdp, teacher = suite()
    config = quick_config()
    p1, _ = train(mdp, teacher, config)
    p2, _ = train(mdp, teacher,
                  TrainConfig(spec=config.spec, seed=1, epochs=3,
                              batches_per_epoch=4, groups_per_batch=2,
                              rollouts_per_group=4, learning_rate=3e-2))
    assert not np.array_equal(p1.logits, p2.logits)


def test_resume_is_bit_identical():
    mdp, teacher = suite()
    config = quick_config(epochs=4)
    full_policy, full_ckpts = train(mdp, teacher, config)
    resumed_policy, resumed_ckpts = resume(mdp, teacher, config,
                                           full_ckpts[1])
    np.testing.assert_array_equal(full_policy.logits, resumed_policy.logits)
    for a, b in zip(full_ckpts[2:], resumed_ckpts):
        assert a.epoch == b.epoch
        np.testing.assert_array_equal(a.logits, b.logits)
        assert a.metrics == b.metrics


def test_resume_keeps_the_student_floor():
    mdp, teacher = suite()
    config = quick_config(epochs=4)
    start = SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size,
                                  floor=1e-3)
    full_policy, full_ckpts = train(mdp, teacher, config,
                                    initial_policy=start)
    assert full_ckpts[1].floor == 1e-3
    resumed_policy, resumed_ckpts = resume(mdp, teacher, config,
                                           full_ckpts[1])
    assert resumed_policy.floor == 1e-3
    np.testing.assert_array_equal(full_policy.logits, resumed_policy.logits)
    for a, b in zip(full_ckpts[2:], resumed_ckpts):
        np.testing.assert_array_equal(a.logits, b.logits)
        assert a.metrics == b.metrics


def test_sample_batch_groups_and_stream_keys():
    mdp, teacher = suite()
    config = TrainConfig(spec=ConstrainedRewardSpec(), seed=3,
                         groups_per_batch=3, rollouts_per_group=4)
    student = SoftmaxPolicy(np.random.default_rng(0).normal(
        size=(mdp.num_states, mdp.vocab_size)))
    uniforms = training._epoch_uniforms(config, mdp.horizon_cap, epoch=2,
                                        phase=1)
    assert uniforms.shape == (10, 12, mdp.horizon_cap)
    trajs, groups = training._sample_batch(mdp, student, teacher, config,
                                           uniforms[5])
    assert groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    for g, members in enumerate(groups):
        for i, k in enumerate(members):
            ref = env.rollout(mdp, student, teacher, config.spec,
                              np.random.default_rng([3, 1, 2, 5, g, i]))
            for name in ("states", "tokens", "lengths", "costs"):
                assert getattr(trajs, name)[k].tolist() == \
                    getattr(ref, name)[0].tolist()


def test_config_rejects_bad_fields():
    spec = ConstrainedRewardSpec()
    for bad in ({"seed": -1}, {"seed": True}, {"epochs": "3"},
                {"batches_per_epoch": 0}, {"learning_rate": 0.0},
                {"learning_rate": "3e-2"}):
        with pytest.raises(ValueError):
            TrainConfig(spec=spec, **bad)


def test_warm_start_reduces_divergence():
    mdp, teacher = suite()
    config = quick_config()
    before = SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size)
    after = warm_start(mdp, teacher, config, epochs_kl=3)
    total_before = sum(per_state_cost(before, teacher, s)
                       for s in range(mdp.num_states))
    total_after = sum(per_state_cost(after, teacher, s)
                      for s in range(mdp.num_states))
    assert total_after < total_before


def test_warm_start_zero_epochs_is_identity():
    mdp, teacher = suite()
    config = quick_config()
    start = SoftmaxPolicy(np.random.default_rng(0).normal(
        size=(mdp.num_states, mdp.vocab_size)))
    out = warm_start(mdp, teacher, config, epochs_kl=0, initial_policy=start)
    np.testing.assert_array_equal(out.logits, start.logits)
    assert out is not start
    with pytest.raises(ValueError):
        warm_start(mdp, teacher, config, epochs_kl=-1)


def test_log_lines_use_full_precision_floats():
    mdp, teacher = suite()
    config = quick_config(epochs=2)
    log = io.StringIO()
    train(mdp, teacher, config, log_file=log)
    lines = log.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("epoch=0 method=unaugmented")
    assert "np.float64" not in log.getvalue()


def test_adam_state_roundtrip():
    opt = training.AdamAscent(0.1)
    params = opt.update(np.zeros((2, 2)), np.ones((2, 2)))
    assert (params != 0.0).all()
    revived = training.AdamAscent(0.1, state=opt.state())
    p1 = opt.update(params, np.full((2, 2), 0.5))
    p2 = revived.update(params, np.full((2, 2), 0.5))
    assert (p1 != params).all()
    np.testing.assert_array_equal(p1, p2)
    # the state of an optimizer that has not stepped restores a fresh one
    unstepped = training.AdamAscent(0.1, state=training.AdamAscent(0.1).state())
    p3 = unstepped.update(np.zeros((2, 2)), np.ones((2, 2)))
    np.testing.assert_array_equal(p3, params)


def test_config_validation():
    spec = ConstrainedRewardSpec()
    with pytest.raises(ValueError):
        TrainConfig(spec=spec, groups_per_batch=0)
    assert TrainConfig(spec=spec).batch_size == 64
