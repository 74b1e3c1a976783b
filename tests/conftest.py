# Shared fixtures. The expensive full-grid experiment is session-scoped so
# the acceptance tests that read its metrics all reuse one run.
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from crldistill import env, harness

REPO_ROOT = Path(__file__).resolve().parents[1]
TENSION_CONFIG = REPO_ROOT / "configs" / "tension.yaml"


@pytest.fixture(scope="session")
def tension_records(tmp_path_factory):
    """Full method-grid run of the shipped tension config (10 methods x 5 seeds)."""
    out = tmp_path_factory.mktemp("tension-grid")
    config = harness.ExperimentConfig.from_file(TENSION_CONFIG)
    records = harness.run_experiment(config, output_dir=str(out))
    return records, out


@pytest.fixture(scope="session")
def tension_rows(tension_records):
    _, out = tension_records
    return harness.load_metric_rows(str(out))


def method_means(rows):
    """Per-method mean (success, constraint satisfaction) over seeds."""
    by_method: dict[str, list[dict]] = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row)
    means = []
    for method, group in by_method.items():
        means.append({
            "method": method,
            "seed": -1,
            "task_success_rate": sum(r["task_success_rate"] for r in group)
            / len(group),
            "mean_kl": sum(r["mean_kl"] for r in group) / len(group),
            "constraint_satisfaction":
                sum(r["constraint_satisfaction"] for r in group) / len(group),
            "violation_probability":
                sum(r["violation_probability"] for r in group) / len(group),
        })
    return means


BATCH_FIELDS = ("states", "tokens", "lengths", "rewards", "costs",
                "penalties", "terminated")


def replay_rollouts(mdp, student, teacher, spec, rng, episodes,
                    chunk=2**15):
    """The batch of `episodes` successive `env.rollout` calls on `rng`,
    stacked, sampled by `env.rollout_batch` instead.

    `env.rollout` draws one `rng.random()` per step, so episode k starts
    where episode k-1's draws end. The stream is drawn flat, `chunk` values
    at a time (`rng.random(n)` gives the values of n scalar draws);
    `rollout_batch` samples the episode that starts at every offset of a
    chunk from the horizon_cap draws there, and the offsets of the replayed
    episodes are chased through those episodes' lengths. Leaves `rng` past
    the chunks it drew.
    """
    parts, carry = [], np.empty(0)
    while episodes:
        draws = np.concatenate((carry, rng.random(chunk)))
        batch = env.rollout_batch(
            mdp, student, teacher, spec,
            sliding_window_view(draws, mdp.horizon_cap))
        lengths = batch.lengths.tolist()
        starts, offset = [], 0
        while episodes and offset < len(lengths):
            starts.append(offset)
            offset += lengths[offset]
            episodes -= 1
        parts.append(env.TrajectoryBatch(*(getattr(batch, name)[starts]
                                           for name in BATCH_FIELDS)))
        carry = draws[offset:]
    return env.TrajectoryBatch.stack(parts)
