import io
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import yaml

from crldistill import harness, training
from crldistill.evaluation import evaluate_policy
from crldistill.harness import (ConfigError, ExperimentConfig, MetricsRecord,
                                MissingRunsError, emit_reports,
                                load_metric_rows, pareto_front,
                                run_experiment, write_theorem_reports)
from crldistill.policies import save_policy
from crldistill.verification import TheoremReport

SMALL_CONFIG = {
    "schema_version": 1,
    "task": {"family": "chain", "params": {"length": 2, "horizon_cap": 4}},
    "teacher": {"table": [[0.9, 0.1], [0.9, 0.1], [0.5, 0.5], [0.5, 0.5]]},
    "methods": [{"mode": "unaugmented"}, {"mode": "reward-only"}],
    "seeds": [0, 1],
    "output_dir": "unused",
    "train": {"epochs": 2, "batches_per_epoch": 2, "groups_per_batch": 2,
              "rollouts_per_group": 4, "warm_start_epochs": 1},
    "spec": {"budget": 0.35, "penalty": 20.0},
}


def small_config(**overrides):
    raw = json.loads(json.dumps(SMALL_CONFIG))
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# Config parsing


def test_config_roundtrip_via_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG))
    config = ExperimentConfig.from_file(path)
    assert len(config.method_specs) == 2
    assert config.seeds == [0, 1]
    assert config.warm_start_epochs == 1
    assert config.mdp.num_states == 4


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(small_config(bogus=1))
    raw = small_config()
    del raw["seeds"]
    with pytest.raises(ConfigError, match="missing keys"):
        ExperimentConfig.from_dict(raw)
    raw = small_config()
    raw["train"] = {"tempo": 3}
    with pytest.raises(ConfigError, match="train: unknown keys"):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="schema_version"):
        ExperimentConfig.from_dict(small_config(schema_version=99))
    with pytest.raises(ConfigError, match="task family"):
        ExperimentConfig.from_dict(
            small_config(task={"family": "gridworld"}))
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict(small_config(seeds=["a"]))
    with pytest.raises(ConfigError, match="methods"):
        ExperimentConfig.from_dict(small_config(methods=[]))
    with pytest.raises(ConfigError, match=r"methods\[0\]"):
        ExperimentConfig.from_dict(
            small_config(methods=[{"mode": "bogus"}]))
    with pytest.raises(ConfigError, match="teacher"):
        ExperimentConfig.from_dict(small_config(teacher={}))
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_file("/nonexistent/exp.yaml")


def test_config_exponent_floats_load_as_floats(tmp_path):
    # YAML 1.1 reads an exponent without a dot as a string
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG)
                    .replace("budget: 0.35", "budget: 35e-2")
                    .replace("train:\n", "train:\n  learning_rate: 3e-2\n"))
    config = ExperimentConfig.from_file(path)
    assert config.train_kw["learning_rate"] == 0.03
    assert [s.budget for s in config.method_specs] == [0.35, 0.35]


def test_config_task_from_file(tmp_path):
    from crldistill import env
    task_path = tmp_path / "task.yaml"
    env.save_task(env.chain(2, horizon_cap=4), task_path)
    raw = small_config(task={"file": str(task_path)})
    config = ExperimentConfig.from_dict(raw)
    assert config.mdp.num_states == 4


def test_config_tension_teacher():
    raw = small_config(
        task={"family": "chain_with_distractors"},
        teacher={"kind": "tension", "params": {"advance": 0.8}})
    config = ExperimentConfig.from_dict(raw)
    assert config.teacher.action_probs(0)[0] == pytest.approx(0.8, abs=1e-6)


# ---------------------------------------------------------------------------
# Pareto front


def test_pareto_front_basic():
    rows = [{"x": 1.0, "y": 0.0}, {"x": 0.0, "y": 1.0},
            {"x": 0.5, "y": 0.5}, {"x": 0.4, "y": 0.4}]
    front = pareto_front(rows, "x", "y")
    assert front == rows[:3]  # (0.4, 0.4) is dominated by (0.5, 0.5)


def test_pareto_front_duplicates_survive():
    rows = [{"x": 1.0, "y": 1.0}, {"x": 1.0, "y": 1.0},
            {"x": 0.0, "y": 0.0}]
    front = pareto_front(rows, "x", "y")
    assert front == rows[:2]


def test_pareto_front_orientation():
    rows = [{"x": 1.0, "y": 5.0}, {"x": 2.0, "y": 1.0}, {"x": 3.0, "y": 4.0}]
    # larger x, smaller y: (3, 4) dominates nothing, (1, 5) is dominated
    # by neither on x... check minimizing y
    front = pareto_front(rows, "x", "y", larger_is_better=(True, False))
    assert rows[1] in front and rows[2] in front
    assert rows[0] not in front  # (3.0, 4.0) beats it on both


def test_pareto_front_empty_raises():
    with pytest.raises(ValueError):
        pareto_front([], "x", "y")


# ---------------------------------------------------------------------------
# Running and reports


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small-run")
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    records = run_experiment(config, output_dir=str(out))
    return records, out


def test_run_writes_expected_cells(small_run):
    records, out = small_run
    assert len(records) == 4  # 2 methods x 2 seeds
    cells = json.load(open(out / "manifest.json"))["cells"]
    assert cells == ["unaugmented__seed0", "unaugmented__seed1",
                     "reward-only__seed0", "reward-only__seed1"]
    for cell in cells:
        for ext in (".log", ".npz", ".json"):
            assert (out / "runs" / (cell + ext)).exists()
    for name in ("metrics.csv", "pareto.csv", "scatter.svg", "theorems.csv"):
        assert (out / name).exists()


def test_metrics_csv_schema(small_run):
    _, out = small_run
    text = (out / "metrics.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(harness.METRIC_COLUMNS)
    assert len(lines) == 5
    rows = load_metric_rows(str(out))
    assert len(rows) == 4
    assert {r["method"] for r in rows} == {"unaugmented", "reward-only"}
    for row in rows:
        assert 0.0 <= row["task_success_rate"] <= 1.0
        assert row["constraint_satisfaction"] == \
            pytest.approx(1.0 - row["violation_probability"], abs=1e-12)


def test_rerun_refused_without_force(small_run):
    _, out = small_run
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    with pytest.raises(FileExistsError):
        run_experiment(config, output_dir=str(out))
    # force re-runs and leaves a complete result behind
    records = run_experiment(config, force=True, output_dir=str(out))
    assert len(records) == 4


def test_svg_is_wellformed_with_one_marker_per_row(small_run):
    _, out = small_run
    root = ET.parse(out / "scatter.svg").getroot()
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 4
    fills = {c.get("fill") for c in circles}
    assert "red" in fills  # the Pareto front is highlighted
    for circle in circles:
        title = circle.find("{http://www.w3.org/2000/svg}title")
        assert title is not None and "seed=" in title.text


def test_pareto_csv_subset_of_metrics(small_run):
    _, out = small_run
    rows = load_metric_rows(str(out))
    front_text = (out / "pareto.csv").read_text().strip().split("\n")[1:]
    metric_text = (out / "metrics.csv").read_text()
    assert 1 <= len(front_text) <= len(rows)
    for line in front_text:
        assert line in metric_text


def test_missing_run_detected(small_run, tmp_path):
    _, out = small_run
    victim = out / "runs" / "unaugmented__seed1.json"
    moved = tmp_path / "stash.json"
    os.replace(victim, moved)
    try:
        with pytest.raises(MissingRunsError) as exc:
            emit_reports(str(out))
        assert exc.value.gaps == ["unaugmented__seed1"]
    finally:
        os.replace(moved, victim)


def test_interrupted_policy_save_leaves_no_file(tmp_path, monkeypatch):
    real_savez = np.savez

    def savez_fails_halfway(file, **arrays):
        buf = io.BytesIO()
        real_savez(buf, **arrays)
        half = buf.getvalue()[:len(buf.getvalue()) // 2]
        if hasattr(file, "write"):
            file.write(half)
        else:
            with open(file, "wb") as fh:
                fh.write(half)
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_fails_halfway)
    config = ExperimentConfig.from_dict(small_config(
        methods=[{"mode": "reward-only"}], seeds=[0]))
    with pytest.raises(OSError, match="disk full"):
        run_experiment(config, output_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path / "runs")) == ["reward-only__seed0.log"]


@pytest.mark.parametrize("umask,expected", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifact_modes_follow_the_umask(tmp_path, umask, expected):
    config = ExperimentConfig.from_dict(small_config(
        methods=[{"mode": "reward-only"}], seeds=[0]))
    old = os.umask(umask)
    try:
        run_experiment(config, output_dir=str(tmp_path))
        emit_reports(str(tmp_path))
    finally:
        os.umask(old)
    paths = [tmp_path / "metrics.csv", tmp_path / "manifest.json",
             *sorted((tmp_path / "runs").iterdir())]
    assert len(paths) == 5
    assert {p.name: p.stat().st_mode & 0o777 for p in paths} == \
        {p.name: expected for p in paths}


def test_theorem_reports_roundtrip(tmp_path):
    reports = [TheoremReport("demo", 3, 1e-13, True, 0,
                             {"note": [1, 2]})]
    write_theorem_reports(str(tmp_path), reports)
    lines = (tmp_path / "theorems.jsonl").read_text().strip().split("\n")
    rec = json.loads(lines[0])
    assert rec["theorem"] == "demo" and rec["passed"] is True
    # emit_reports folds them into theorems.csv next to the metrics
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    out = tmp_path / "exp"
    run_experiment(config, output_dir=str(out))
    write_theorem_reports(str(out), reports)
    emit_reports(str(out))
    text = (out / "theorems.csv").read_text().strip().split("\n")
    assert text[0] == ",".join(harness.THEOREM_COLUMNS)
    assert len(text) == 2


def test_metrics_record_row():
    record = MetricsRecord("unaugmented", 0, 0.9, 0.3, 0.99, 0.01)
    row = record.row()
    assert tuple(row) == harness.METRIC_COLUMNS
    assert row["seed"] == 0 and row["method"] == "unaugmented"


# ---------------------------------------------------------------------------
# The cell axis against one cell at a time


def serial_run(config, out):
    """The cells in manifest order, each warm-started, trained and evaluated
    alone and written as `run_experiment` writes it; a diverged cell stops
    the run, as it did before cells trained together."""
    runs = out / "runs"
    runs.mkdir(parents=True)
    cells = [(spec, seed) for spec in config.method_specs
             for seed in config.seeds]
    names = [harness._cell_name(training.method_label(spec), seed)
             for spec, seed in cells]
    (out / "manifest.json").write_text(
        json.dumps({"cells": names}, indent=2) + "\n")
    for (spec, seed), name in zip(cells, names):
        train_config = training.TrainConfig(spec=spec, seed=seed,
                                            **config.train_kw)
        start = training.warm_start(config.mdp, config.teacher, train_config,
                                    config.warm_start_epochs)
        log = io.StringIO()
        policy, checkpoints = training.train(
            config.mdp, config.teacher, train_config, initial_policy=start,
            log_file=log)
        (runs / (name + ".log")).write_text(log.getvalue())
        save_policy(policy, str(runs / (name + ".npz")))
        result = evaluate_policy(config.mdp, policy, config.teacher, spec,
                                 eval_seed=seed)
        record = MetricsRecord(training.method_label(spec), seed,
                               result.task_success_rate, result.mean_kl,
                               result.constraint_satisfaction,
                               result.violation_probability)
        (runs / (name + ".json")).write_text(json.dumps(
            {**record.row(), "curve": [c.metrics for c in checkpoints]},
            indent=2) + "\n")
    emit_reports(str(out))


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("overrides", [
    {},
    {"seeds": [0, 3, 1], "methods": [
        {"mode": "kl-only"}, {"mode": "unaugmented", "budget": 0.1},
        {"mode": "lagrangian", "lagrange_weight": 0.5},
        {"mode": "saute", "penalty": 5.0}]},
    {"train": {**SMALL_CONFIG["train"], "epochs": 0}},
    {"train": {**SMALL_CONFIG["train"], "warm_start_epochs": 0}},
], ids=["small", "mixed", "no-epochs", "no-warm-start"])
def test_run_equals_one_cell_at_a_time(tmp_path, overrides):
    config = ExperimentConfig.from_dict(small_config(**overrides))
    run_experiment(config, output_dir=str(tmp_path / "stacked"))
    serial_run(config, tmp_path / "serial")
    stacked = tree_bytes(tmp_path / "stacked")
    assert stacked == tree_bytes(tmp_path / "serial")
    assert len(stacked) == 5 + 3 * len(config.method_specs) * len(
        config.seeds)


def test_diverging_cell_fails_alone(tmp_path):
    # lagrange_weight 1e308 overflows term ii: the cell's first Adam step
    # leaves non-finite parameters, as it does when it trains alone
    methods = [{"mode": "unaugmented"},
               {"mode": "lagrangian", "lagrange_weight": 1e308},
               {"mode": "reward-only"}]
    config = ExperimentConfig.from_dict(small_config(methods=methods))
    with np.errstate(all="ignore"):
        with pytest.raises(training.TrainingDiverged) as stacked:
            run_experiment(config, output_dir=str(tmp_path / "stacked"))
        with pytest.raises(training.TrainingDiverged) as serial:
            serial_run(config, tmp_path / "serial")
    assert str(stacked.value) == str(serial.value) == (
        "non-finite parameters at epoch 0 batch 0"
        " (method lagrangian-1e+308)")
    stacked_runs = tree_bytes(tmp_path / "stacked" / "runs")
    serial_runs = tree_bytes(tmp_path / "serial" / "runs")
    # every cell before the failed one, as the one-at-a-time run wrote it
    assert serial_runs and all(stacked_runs[name] == data
                               for name, data in serial_runs.items())
    assert sorted(serial_runs) == [f"unaugmented__seed{s}{ext}"
                                   for s in (0, 1)
                                   for ext in (".json", ".log", ".npz")]
    # the cells after it are complete and are the ones a run without the
    # failed cell writes
    later = {name: data for name, data in stacked_runs.items()
             if name not in serial_runs}
    assert sorted(later) == [f"reward-only__seed{s}{ext}" for s in (0, 1)
                             for ext in (".json", ".log", ".npz")]
    rest = ExperimentConfig.from_dict(small_config(methods=methods[2:]))
    serial_run(rest, tmp_path / "rest")
    assert later == tree_bytes(tmp_path / "rest" / "runs")
    assert not (tmp_path / "stacked" / "metrics.csv").exists()
