import numpy as np
import pytest

from crldistill import training
from crldistill.harness import ExperimentConfig
from crldistill.streams import uniform_block

from conftest import TENSION_CONFIG


def reference(prefix, keys, horizon):
    return np.stack([np.random.default_rng([*prefix, *key]).random(horizon)
                     for key in np.asarray(keys).tolist()])


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


KEYS = np.indices((2, 3, 4)).reshape(3, -1).T


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40, 2**64 + 5])
@pytest.mark.parametrize("horizon", [1, 8])
def test_rows_match_default_rng(seed, horizon):
    for prefix in ((seed,), (seed, 1, 7), (seed, 0, 2**32 + 3)):
        assert_bits_equal(uniform_block(prefix, KEYS, horizon),
                          reference(prefix, KEYS, horizon))


def test_short_and_empty_keys_match_default_rng():
    # fewer words than SeedSequence's pool of four
    column = np.arange(6)[:, None]
    for prefix in ((), (9,), (9, 2**33)):
        assert_bits_equal(uniform_block(prefix, column, 5),
                          reference(prefix, column, 5))
    none = np.zeros((2, 0), dtype=np.int64)
    assert_bits_equal(uniform_block((), none, 3), reference((), none, 3))
    assert uniform_block((1,), KEYS, 0).shape == (len(KEYS), 0)


def test_shipped_config_epoch_block_matches_default_rng():
    config = ExperimentConfig.from_file(TENSION_CONFIG)
    train_config = training.TrainConfig(spec=config.method_specs[0],
                                        seed=config.seeds[-1],
                                        **config.train_kw)
    horizon = config.mdp.horizon_cap
    (block,) = training._epoch_uniforms(train_config, horizon,
                                        range(39, 40), phase=1)
    assert block.shape == (10, 64, horizon)
    keys = np.indices((10, 8, 8)).reshape(3, -1).T
    assert_bits_equal(block.reshape(-1, horizon),
                      reference((config.seeds[-1], 1, 39), keys, horizon))


def test_negative_entries_raise_value_error():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        uniform_block((-1, 0), KEYS, 4)
    with pytest.raises(ValueError):
        uniform_block((0,), -KEYS - 1, 4)


def test_rejects_keys_it_cannot_reproduce():
    with pytest.raises(ValueError):
        uniform_block((0,), np.array([[2**32]]), 4)
    with pytest.raises(TypeError):
        uniform_block((0,), np.array([[0.5]]), 4)
    with pytest.raises(ValueError):
        uniform_block((0,), np.arange(3), 4)
