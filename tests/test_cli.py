import numpy as np
import pytest
import yaml

from crldistill import cli, env, harness, verification
from crldistill.cli import (EXIT_OK, EXIT_RUN_FAILURE, EXIT_USAGE,
                            EXIT_VERIFICATION_FAILURE, main)
from crldistill.training import TrainingDiverged

from test_harness import SMALL_CONFIG


def write_config(tmp_path, **overrides):
    raw = {**SMALL_CONFIG, **overrides}
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_run_and_report_and_pareto(tmp_path, capsys):
    out = tmp_path / "results"
    config = write_config(tmp_path, output_dir=str(out))
    assert main(["run", str(config)]) == EXIT_OK
    assert "wrote 4 runs" in capsys.readouterr().out

    # a second run without --force is refused
    assert main(["run", str(config)]) == EXIT_RUN_FAILURE
    assert "--force" in capsys.readouterr().err

    assert main(["report", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["pareto", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[0].startswith("method,seed,")
    assert len(printed) >= 2


def test_run_single_seed_override(tmp_path):
    out = tmp_path / "results"
    config = write_config(tmp_path, output_dir=str(out))
    assert main(["run", str(config), "--seed", "1"]) == EXIT_OK
    cells = (out / "manifest.json").read_text()
    assert "seed1" in cells and "seed0" not in cells


def test_bad_config_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, schema_version=42)
    assert main(["run", str(config)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert main(["run", "/nonexistent.yaml"]) == EXIT_USAGE
    capsys.readouterr()


ONE_CELL = {"methods": [{"mode": "unaugmented"}], "seeds": [0],
            "train": {**SMALL_CONFIG["train"], "epochs": 1}}
BAD_CONFIGS = {
    "negative seed": {"seeds": [-1]},
    "bool seed": {"seeds": [True]},
    "unknown optimizer": {"train": {"epochs": 1, "optimizer": "nope"}},
    "teacher shape": {"teacher": {"table": [[0.5, 0.5]] * 3}},
    "negative budget": {"spec": {"budget": -0.1}},
    "unknown family param": {"task": {"family": "chain",
                                      "params": {"legnth": 2}}},
    "missing task file": {"task": {"file": "/nonexistent/task.yaml"}},
    "negative warm start": {"train": {"epochs": 1, "warm_start_epochs": -1}},
}


def assert_usage_error_before_writing(argv, out, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_field_fails_before_writing(tmp_path, capsys, case):
    out = tmp_path / "results"
    config = write_config(tmp_path, output_dir=str(out),
                          **{**ONE_CELL, **BAD_CONFIGS[case]})
    assert_usage_error_before_writing(["run", str(config)], out, capsys)


BAD_TASKS = {
    "negative state": lambda doc: doc["transitions"].update({"-1 0": 1}),
    "state out of range": lambda doc: doc["transitions"].update({"5 0": 1}),
    "token out of range": lambda doc: doc["transitions"].update({"0 7": 1}),
    "transitions not a mapping": lambda doc: doc.update(transitions=[1, 2]),
    "terminal rewards not a mapping":
        lambda doc: doc.update(terminal_rewards=[1, 2]),
    "fractional num_states":
        lambda doc: doc.update(num_states=doc["num_states"] + 0.9),
    "fractional horizon_cap": lambda doc: doc.update(horizon_cap=2.5),
    "bool horizon_cap": lambda doc: doc.update(horizon_cap=True),
    "fractional terminal state":
        lambda doc: doc["terminal_rewards"].update({3.5: doc[
            "terminal_rewards"].pop(3)}),
    "bool terminal state":
        lambda doc: doc["terminal_rewards"].update({True: 0.0}),
    "bool terminal reward":
        lambda doc: doc["terminal_rewards"].update({2: True}),
    "string terminal reward":
        lambda doc: doc["terminal_rewards"].update({2: "1"}),
}


@pytest.mark.parametrize("case", sorted(BAD_TASKS))
def test_bad_task_file_fails_before_writing(tmp_path, capsys, case):
    task = tmp_path / "task.yaml"
    env.save_task(env.chain(2, horizon_cap=4), task)
    doc = yaml.safe_load(task.read_text())
    BAD_TASKS[case](doc)
    task.write_text(yaml.safe_dump(doc))
    out = tmp_path / "results"
    config = write_config(tmp_path, output_dir=str(out),
                          **{**ONE_CELL, "task": {"file": str(task)}})
    assert_usage_error_before_writing(["run", str(config)], out, capsys)


def test_negative_seed_override_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "results"
    config = write_config(tmp_path, output_dir=str(out), **ONE_CELL)
    assert_usage_error_before_writing(["run", str(config), "--seed", "-1"],
                                      out, capsys)


def test_diverged_training_leaves_no_temp_log(tmp_path, capsys,
                                             monkeypatch):
    def diverges(mdp, teacher, configs, **kwargs):
        return [TrainingDiverged("non-finite parameters", [])
                for _ in configs]

    monkeypatch.setattr(harness, "train_grid", diverges)
    out = tmp_path / "results"
    config = write_config(tmp_path, output_dir=str(out))
    assert main(["run", str(config)]) == EXIT_RUN_FAILURE
    assert "training diverged" in capsys.readouterr().err
    assert list((out / "runs").iterdir()) == []


def test_diverging_cell_exits_with_run_failure(tmp_path, capsys):
    out = tmp_path / "results"
    config = write_config(tmp_path, output_dir=str(out), methods=[
        {"mode": "unaugmented"},
        {"mode": "lagrangian", "lagrange_weight": 1e308}])
    with np.errstate(all="ignore"):
        assert main(["run", str(config)]) == EXIT_RUN_FAILURE
    assert "non-finite parameters at epoch 0 batch 0" in \
        capsys.readouterr().err
    assert not (out / "metrics.csv").exists()
    assert sorted(p.name for p in (out / "runs").iterdir()) == [
        f"unaugmented__seed{s}{ext}" for s in (0, 1)
        for ext in (".json", ".log", ".npz")]


def test_report_without_runs_fails(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == EXIT_RUN_FAILURE
    assert main(["pareto", str(tmp_path)]) == EXIT_RUN_FAILURE
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_quick_batteries(tmp_path, capsys):
    code = main(["verify", "--instances", "5", "--skip-training",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 4
    assert (tmp_path / "theorems.jsonl").exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_non_positive_instances(tmp_path, capsys, count):
    out = tmp_path / "theorems"
    assert_usage_error_before_writing(
        ["verify", "--instances", count, "--skip-training", "--out",
         str(out)], out, capsys)


@pytest.mark.parametrize("extra", [[], ["--skip-training"]])
def test_verify_rejects_negative_seed(tmp_path, capsys, monkeypatch, extra):
    def battery(*args, **kwargs):
        raise AssertionError("a battery ran")

    for name in ("equivalence_battery", "monotonicity_battery",
                 "assumptions_battery", "bellman_battery",
                 "check_violation_trend"):
        monkeypatch.setattr(verification, name, battery)
    out = tmp_path / "theorems"
    assert_usage_error_before_writing(
        ["verify", "--instances", "1", "--seed", "-1", "--out", str(out)]
        + extra, out, capsys)


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_USAGE, EXIT_RUN_FAILURE,
                EXIT_VERIFICATION_FAILURE}) == 4
    assert cli.EXIT_VERIFICATION_FAILURE == 3
