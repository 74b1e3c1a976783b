import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crldistill import divergence as dv
from crldistill import env, harness, shaping, training
from crldistill.divergence import per_state_cost
from crldistill.policies import SoftmaxPolicy
from crldistill.shaping import ConstrainedRewardSpec
from crldistill.training import (TrainConfig, TrainingDiverged, method_label,
                                 resume, train, train_cells, train_grid,
                                 warm_start)

from conftest import TENSION_CONFIG


def suite():
    mdp = env.chain_with_distractors()
    return mdp, env.tension_teacher(mdp)


def quick_config(mode=shaping.UNAUGMENTED, epochs=3, **spec_kw):
    spec = ConstrainedRewardSpec(mode=mode, **spec_kw)
    return TrainConfig(spec=spec, epochs=epochs, batches_per_epoch=4,
                       groups_per_batch=2, rollouts_per_group=4,
                       learning_rate=3e-2)


def at_each_block_length(monkeypatch, config, run):
    """Call `run()`, which returns a list of `train_cells` outcomes, with
    each seed's streams drawn 1 and 3 epochs at a time (of `config`'s
    epochs) and at the shipped STREAMS_PER_DRAW; every call's outcomes
    must have the bytes of the 1-epoch call's."""
    per_epoch = config.batches_per_epoch * config.batch_size
    results = []
    for epochs in (1, 3, None):
        with monkeypatch.context() as patch:
            if epochs is not None:
                patch.setattr(training, "STREAMS_PER_DRAW",
                              epochs * per_epoch)
            results.append(run())
    for result in results[1:]:
        assert len(result) == len(results[0])
        for outcome, reference in zip(result, results[0]):
            assert_same_outcome(outcome, reference)


def test_method_label():
    base = ConstrainedRewardSpec()
    assert method_label(base) == "unaugmented"
    assert method_label(base.with_mode(shaping.LAGRANGIAN,
                                       lagrange_weight=0.0)) == "reward-only"
    assert method_label(base.with_mode(shaping.LAGRANGIAN,
                                       lagrange_weight=0.5)) == \
        "lagrangian-0.5"
    assert method_label(base.with_mode(shaping.KL_ONLY)) == "kl-only"


def test_training_is_deterministic(monkeypatch):
    mdp, teacher = suite()
    config = quick_config()

    def run():
        p1, c1 = train(mdp, teacher, config)
        p2, c2 = train(mdp, teacher, config)
        np.testing.assert_array_equal(p1.logits, p2.logits)
        assert [c.metrics for c in c1] == [c.metrics for c in c2]
        return [(p1, c1)]

    at_each_block_length(monkeypatch, config, run)


def test_seed_changes_the_run():
    mdp, teacher = suite()
    config = quick_config()
    p1, _ = train(mdp, teacher, config)
    p2, _ = train(mdp, teacher,
                  TrainConfig(spec=config.spec, seed=1, epochs=3,
                              batches_per_epoch=4, groups_per_batch=2,
                              rollouts_per_group=4, learning_rate=3e-2))
    assert not np.array_equal(p1.logits, p2.logits)


def test_resume_is_bit_identical(monkeypatch):
    mdp, teacher = suite()
    config = quick_config(epochs=4)

    def run():
        full_policy, full_ckpts = train(mdp, teacher, config)
        resumed_policy, resumed_ckpts = resume(mdp, teacher, config,
                                               full_ckpts[1])
        np.testing.assert_array_equal(full_policy.logits,
                                      resumed_policy.logits)
        for a, b in zip(full_ckpts[2:], resumed_ckpts):
            assert a.epoch == b.epoch
            np.testing.assert_array_equal(a.logits, b.logits)
            assert a.metrics == b.metrics
        return [(full_policy, full_ckpts), (resumed_policy, resumed_ckpts)]

    at_each_block_length(monkeypatch, config, run)


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
    (uniforms,) = training._epoch_uniforms(config, mdp.horizon_cap,
                                           range(2, 3), phase=1)
    assert uniforms.shape == (10, 12, mdp.horizon_cap)
    trajs, groups = training._sample_batch(mdp, student, teacher, config,
                                           uniforms[5])
    assert groups.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    for g, members in enumerate(groups.tolist()):
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


# ---------------------------------------------------------------------------
# Warm starts shared per seed and cells trained as one stack


def assert_same_run(stacked, serial, stacked_log="", serial_log=""):
    """A stacked cell's (policy, checkpoints) and log have the bytes of the
    one-cell run."""
    (policy, ckpts), (ref_policy, ref_ckpts) = stacked, serial
    assert policy.logits.tobytes() == ref_policy.logits.tobytes()
    assert policy.floor == ref_policy.floor
    assert_same_checkpoints(ckpts, ref_ckpts)
    assert stacked_log == serial_log


def assert_same_outcome(outcome, reference):
    """Two `train_cells` outcomes have the same bytes: a run's policy and
    checkpoints, or a failure's message and checkpoints."""
    if isinstance(reference, TrainingDiverged):
        assert isinstance(outcome, TrainingDiverged)
        assert str(outcome) == str(reference)
        assert_same_checkpoints(outcome.checkpoints, reference.checkpoints)
    else:
        assert_same_run(outcome, reference)


def assert_same_checkpoints(ckpts, ref_ckpts):
    assert len(ckpts) == len(ref_ckpts)
    for a, b in zip(ckpts, ref_ckpts):
        assert (a.epoch, a.floor, a.metrics) == (b.epoch, b.floor, b.metrics)
        assert a.logits.tobytes() == b.logits.tobytes()
        assert a.optimizer_state["step_count"] == \
            b.optimizer_state["step_count"]
        for key in ("m", "v"):
            assert np.asarray(a.optimizer_state[key]).tobytes() == \
                np.asarray(b.optimizer_state[key]).tobytes()


def test_warm_start_ignores_everything_but_seed_kind_and_settings():
    # the claim that lets a grid share one warm start per seed: a kl-only
    # run reads neither the mode nor budget, penalty, boundary_tol or
    # lagrange_weight, so each cell's own kl-only run has the same bytes
    config = harness.ExperimentConfig.from_file(TENSION_CONFIG)
    specs = list(config.method_specs) + [
        config.method_specs[0].with_mode(shaping.UNAUGMENTED, **kw)
        for kw in ({"budget": 0.05}, {"penalty": 3.0},
                   {"boundary_tol": 0.0},
                   {"budget": 2.0, "penalty": 1e3, "boundary_tol": 0.5})]
    train_kw = {**config.train_kw, "epochs": 1}
    for seed in (0, 3):
        starts = []
        for spec in specs:
            cell = TrainConfig(spec=spec, seed=seed, **train_kw)
            own, _ = train(config.mdp, config.teacher,
                           replace(cell, spec=spec.with_mode(shaping.KL_ONLY),
                                   epochs=config.warm_start_epochs), phase=0)
            shared = warm_start(config.mdp, config.teacher, cell,
                                config.warm_start_epochs)
            assert shared.logits.tobytes() == own.logits.tobytes()
            starts.append(shared.logits.tobytes())
        assert len(set(starts)) == 1


CELL_SPECS = st.builds(
    dict,
    mode=st.sampled_from(shaping.MODES),
    budget=st.sampled_from([0.05, 0.2, 0.35, 1.0]),
    penalty=st.sampled_from([1.0, 20.0, 500.0]),
    boundary_tol=st.sampled_from([0.0, 0.02, 0.3]),
    lagrange_weight=st.sampled_from([0.0, 0.01, 1.0, 10.0]),
    discount=st.sampled_from([1.0, 0.9]))


@settings(max_examples=25, deadline=None)
@given(cells=st.lists(st.tuples(CELL_SPECS, st.integers(0, 3)),
                      min_size=1, max_size=5),
       kinds=st.sampled_from([(dv.REVERSE_KL, dv.REVERSE_KL),
                              (dv.REVERSE_KL, dv.JENSEN_SHANNON),
                              (dv.JENSEN_SHANNON, dv.JENSEN_SHANNON)]),
       start_seed=st.integers(0, 2**16))
def test_stacked_cells_equal_one_cell_runs(cells, kinds, start_seed):
    mdp = env.chain_with_distractors(decision_states=2, horizon_cap=6)
    teacher = env.tension_teacher(mdp)
    rng = np.random.default_rng(start_seed)
    configs = [TrainConfig(
        spec=ConstrainedRewardSpec(cost_kind=kinds[0], penalty_kind=kinds[1],
                                   **spec_kw),
        seed=seed, epochs=2, batches_per_epoch=2, groups_per_batch=2,
        rollouts_per_group=3, learning_rate=0.05) for spec_kw, seed in cells]
    starts = [SoftmaxPolicy(rng.normal(size=(mdp.num_states, 3)))
              for _ in configs]
    logs = [io.StringIO() for _ in configs]
    stacked = train_cells(mdp, teacher, configs, starts, log_files=logs)
    for config, start, log, outcome in zip(configs, starts, logs, stacked):
        serial_log = io.StringIO()
        serial = train(mdp, teacher, config, initial_policy=start,
                       log_file=serial_log)
        assert_same_run(outcome, serial, log.getvalue(),
                        serial_log.getvalue())


def test_stacked_resume_equals_one_cell_resume(monkeypatch):
    mdp, teacher = suite()
    configs = [quick_config(epochs=4, budget=b) for b in (0.1, 0.35)]
    configs.append(replace(quick_config(shaping.SAUTE, epochs=4), seed=2))
    # a seed of 2**32 or more spans several words of its streams' keys
    configs.append(replace(quick_config(epochs=4, budget=0.2),
                           seed=2**32 + 5))

    def run():
        full = train_cells(mdp, teacher, configs)
        mid = [ckpts[1] for _, ckpts in full]
        # the stack's optimizer state holds the cells' rows in stack order
        state = {key: np.concatenate([c.optimizer_state[key] for c in mid])
                 for key in ("m", "v")}
        resumed = train_cells(
            mdp, teacher, configs,
            [SoftmaxPolicy(c.logits, c.floor) for c in mid], start_epoch=2,
            optimizer_state={**state, "step_count": 8})
        for config, checkpoint, outcome in zip(configs, mid, resumed):
            assert_same_run(outcome, resume(mdp, teacher, config,
                                            checkpoint))
        return full + resumed

    at_each_block_length(monkeypatch, configs[0], run)


def test_stack_rejects_cells_that_do_not_share_settings():
    mdp, teacher = suite()
    base = quick_config()
    for other in (replace(base, learning_rate=0.1),
                  replace(base, epochs=4),
                  replace(base, spec=replace(base.spec,
                                             cost_kind=dv.JENSEN_SHANNON))):
        with pytest.raises(ValueError, match="share"):
            train_cells(mdp, teacher, [base, other])
    floors = [SoftmaxPolicy.uniform(mdp.num_states, mdp.vocab_size, floor=f)
              for f in (1e-8, 1e-3)]
    with pytest.raises(ValueError, match="floor"):
        train_cells(mdp, teacher, [base, base], floors)
    assert train_cells(mdp, teacher, []) == []


def test_a_diverging_cell_fails_alone(monkeypatch):
    mdp, teacher = suite()
    configs = [quick_config(),
               quick_config(shaping.LAGRANGIAN, lagrange_weight=1e308),
               replace(quick_config(shaping.KL_ONLY), seed=1)]

    def run():
        with np.errstate(all="ignore"):
            outcomes = train_cells(mdp, teacher, configs)
            with pytest.raises(TrainingDiverged) as serial:
                train(mdp, teacher, configs[1])
        failed = outcomes[1]
        assert isinstance(failed, TrainingDiverged)
        assert str(failed) == str(serial.value) == (
            "non-finite parameters at epoch 0 batch 0"
            " (method lagrangian-1e+308)")
        assert failed.checkpoints == serial.value.checkpoints == []
        for k in (0, 2):
            assert_same_run(outcomes[k], train(mdp, teacher, configs[k]))
        return outcomes

    at_each_block_length(monkeypatch, configs[0], run)


def test_train_grid_shares_one_warm_start_per_seed(monkeypatch):
    mdp, teacher = suite()
    configs = [replace(quick_config(mode, budget=b), seed=seed)
               for mode, b in ((shaping.UNAUGMENTED, 0.35),
                               (shaping.LAGRANGIAN, 0.2))
               for seed in (0, 1)]
    calls = []
    real = training.train_cells

    def counting(mdp, teacher, configs, *args, **kwargs):
        calls.append(len(configs))
        return real(mdp, teacher, configs, *args, **kwargs)

    monkeypatch.setattr(training, "train_cells", counting)
    outcomes = train_grid(mdp, teacher, configs, epochs_kl=2)
    assert calls == [2, 4]  # two seeds' warm starts, then four cells
    for config, outcome in zip(configs, outcomes):
        start = warm_start(mdp, teacher, config, epochs_kl=2)
        assert_same_run(outcome, train(mdp, teacher, config,
                                       initial_policy=start))
