# Experiment frontend: config files, run orchestration, metrics CSVs,
# Pareto extraction and SVG report emission.
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import env as env_mod
from .evaluation import evaluate_policy
from .policies import TeacherPolicy, save_policy
from .shaping import ConstrainedRewardSpec
from .training import (TrainConfig, TrainingDiverged, method_label,
                       train_grid)

SCHEMA_VERSION = 1
METRIC_COLUMNS = ("method", "seed", "task_success_rate", "mean_kl",
                  "constraint_satisfaction", "violation_probability")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


class MissingRunsError(RuntimeError):
    def __init__(self, gaps):
        super().__init__(f"missing runs: {gaps}")
        self.gaps = gaps


@dataclass
class MetricsRecord:
    method: str
    seed: int
    task_success_rate: float
    mean_kl: float
    constraint_satisfaction: float
    violation_probability: float
    curve: list = field(default_factory=list)

    def row(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "task_success_rate": self.task_success_rate,
            "mean_kl": self.mean_kl,
            "constraint_satisfaction": self.constraint_satisfaction,
            "violation_probability": self.violation_probability,
        }


# ---------------------------------------------------------------------------
# Experiment config


def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


_TOP_KEYS = {"schema_version", "task", "teacher", "methods", "seeds",
             "output_dir", "train", "spec"}
_TASK_KEYS = {"family", "params", "file"}
_TEACHER_KEYS = {"kind", "params", "table"}
# the TrainConfig fields a config sets (spec and seed come per cell)
_TRAIN_KEYS = ({f.name for f in dataclasses.fields(TrainConfig)}
               - {"spec", "seed"}) | {"warm_start_epochs"}
_SPEC_KEYS = {"budget", "penalty", "boundary_tol", "cost_kind",
              "penalty_kind", "discount"}
_METHOD_KEYS = {"mode", "lagrange_weight", "penalty", "budget",
                "boundary_tol"}

_TASK_FAMILIES = {
    "chain": env_mod.chain,
    "chain_with_distractors": env_mod.chain_with_distractors,
}


@dataclass
class ExperimentConfig:
    mdp: env_mod.TokenMdp
    teacher: TeacherPolicy
    method_specs: list[ConstrainedRewardSpec]
    seeds: list[int]
    output_dir: str
    train_kw: dict
    warm_start_epochs: int

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = yaml.load(fh, Loader=env_mod.SafeLoader)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        _require_keys(raw, _TOP_KEYS,
                      {"schema_version", "task", "teacher", "methods",
                       "seeds", "output_dir"}, "config")
        if raw["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {raw['schema_version']!r}")

        task = raw["task"]
        _require_keys(task, _TASK_KEYS, set(), "task")
        try:
            if "file" in task:
                mdp = env_mod.load_task(task["file"])
            else:
                family = task.get("family")
                if family not in _TASK_FAMILIES:
                    raise ConfigError(f"unknown task family {family!r}")
                mdp = _TASK_FAMILIES[family](**task.get("params", {}))
        except (ValueError, TypeError, OSError, yaml.YAMLError) as exc:
            raise _config_error("task", exc) from exc

        teacher_sec = raw["teacher"]
        _require_keys(teacher_sec, _TEACHER_KEYS, set(), "teacher")
        try:
            if "table" in teacher_sec:
                teacher = TeacherPolicy(np.asarray(teacher_sec["table"],
                                                   dtype=np.float64))
            elif teacher_sec.get("kind") == "tension":
                teacher = env_mod.tension_teacher(
                    mdp, **teacher_sec.get("params", {}))
            else:
                raise ConfigError("need a `table` or kind: tension")
        except (ValueError, TypeError) as exc:
            raise _config_error("teacher", exc) from exc
        shape = (mdp.num_states, mdp.vocab_size)
        if teacher.probs.shape != shape:
            raise ConfigError(f"teacher: table has shape"
                              f" {teacher.probs.shape}, the task needs {shape}")

        spec_sec = dict(raw.get("spec", {}))
        _require_keys(spec_sec, _SPEC_KEYS, set(), "spec")
        try:
            base_spec = ConstrainedRewardSpec(**spec_sec)
        except (ValueError, TypeError) as exc:
            raise _config_error("spec", exc) from exc

        methods_sec = raw["methods"]
        if not isinstance(methods_sec, list) or not methods_sec:
            raise ConfigError("methods: expected a non-empty list")
        method_specs = []
        for i, entry in enumerate(methods_sec):
            _require_keys(entry, _METHOD_KEYS, {"mode"}, f"methods[{i}]")
            kw = {k: v for k, v in entry.items() if k != "mode"}
            try:
                method_specs.append(base_spec.with_mode(entry["mode"], **kw))
            except (ValueError, TypeError) as exc:
                raise _config_error(f"methods[{i}]", exc) from exc

        seeds = check_seeds(raw["seeds"])

        train_sec = dict(raw.get("train", {}))
        _require_keys(train_sec, _TRAIN_KEYS, set(), "train")
        warm = train_sec.pop("warm_start_epochs", 3)
        if not env_mod.is_count(warm):
            raise ConfigError("train: warm_start_epochs must be an integer"
                              f" >= 0, got {warm!r}")
        try:
            TrainConfig(spec=base_spec, **train_sec)
        except (ValueError, TypeError) as exc:
            raise _config_error("train", exc) from exc
        return cls(mdp, teacher, method_specs, seeds,
                   str(raw["output_dir"]), train_sec, warm)


def _config_error(where: str, exc: Exception) -> ConfigError:
    """A one-line ConfigError naming the config section that failed."""
    return ConfigError(f"{where}: " + " ".join(str(exc).split()))


def check_seeds(seeds) -> list[int]:
    """The training seeds as a list; each must be an int >= 0 (not a bool),
    since a seed is the first word of every rollout's stream key."""
    if (not isinstance(seeds, list) or not seeds
            or not all(env_mod.is_count(s) for s in seeds)):
        raise ConfigError("seeds: expected a non-empty list of integers"
                          f" >= 0, got {seeds!r}")
    return list(seeds)


# ---------------------------------------------------------------------------
# Running


@contextlib.contextmanager
def _atomic_file(path: str, mode: str = "w"):
    """A temp file in `path`'s directory, renamed over `path` on success and
    removed on failure, so `path` never holds a partial write. Its mode is
    open()'s 0666 less the umask (mkstemp would leave 0600)."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _cell_name(label: str, seed: int) -> str:
    return f"{label}__seed{seed}"


def run_experiment(config: ExperimentConfig, force: bool = False,
                   output_dir: str | None = None) -> list[MetricsRecord]:
    """Train and evaluate every (method, seed) cell; write artifacts on disk.

    The cells train together (`training.train_grid`: one warm start per
    seed, then every cell as one stack), and each cell's artifacts are
    those of training it alone. A diverged cell fails alone: the others'
    artifacts are written in manifest order, then its TrainingDiverged is
    raised, before the reports."""
    out = output_dir or config.output_dir
    runs_dir = os.path.join(out, "runs")
    if os.path.exists(os.path.join(out, "metrics.csv")) and not force:
        raise FileExistsError(
            f"{out} already holds results; pass force=True / --force")
    os.makedirs(runs_dir, exist_ok=True)

    cells = [(spec, seed) for spec in config.method_specs
             for seed in config.seeds]
    manifest = [_cell_name(method_label(spec), seed) for spec, seed in cells]
    _atomic_write(os.path.join(out, "manifest.json"),
                  json.dumps({"cells": manifest}, indent=2) + "\n")

    logs = [io.StringIO() for _ in cells]
    outcomes = train_grid(
        config.mdp, config.teacher,
        [TrainConfig(spec=spec, seed=seed, **config.train_kw)
         for spec, seed in cells],
        epochs_kl=config.warm_start_epochs, log_files=logs)
    records, failure = [], None
    for (spec, seed), cell, log, outcome in zip(cells, manifest, logs,
                                                outcomes):
        if isinstance(outcome, TrainingDiverged):
            failure = failure or outcome
            continue
        policy, checkpoints = outcome
        _atomic_write(os.path.join(runs_dir, cell + ".log"), log.getvalue())
        with _atomic_file(os.path.join(runs_dir, cell + ".npz"), "wb") as fh:
            save_policy(policy, fh)
        # the last epoch evaluated this policy with this spec and seed
        if checkpoints:
            metrics = checkpoints[-1].metrics
        else:
            metrics = dataclasses.asdict(evaluate_policy(
                config.mdp, policy, config.teacher, spec, eval_seed=seed))
        record = MetricsRecord(method_label(spec), seed,
                               *(metrics[k] for k in METRIC_COLUMNS[2:]),
                               curve=[c.metrics for c in checkpoints])
        _atomic_write(os.path.join(runs_dir, cell + ".json"),
                      json.dumps({**record.row(), "curve": record.curve},
                                 indent=2) + "\n")
        records.append(record)
    if failure is not None:
        raise failure
    emit_reports(out)
    return records


# ---------------------------------------------------------------------------
# Pareto front


def pareto_front(rows: list[dict], x: str, y: str,
                 larger_is_better: tuple[bool, bool] = (True, True)) -> list[dict]:
    """Rows not dominated on (x, y): >= on both metrics and > on one.

    Input order is preserved; duplicated front points all survive.
    """
    if not rows:
        raise ValueError("pareto_front needs at least one row")

    def oriented(row):
        vx = row[x] if larger_is_better[0] else -row[x]
        vy = row[y] if larger_is_better[1] else -row[y]
        return vx, vy

    front = []
    for row in rows:
        rx, ry = oriented(row)
        dominated = False
        for other in rows:
            ox, oy = oriented(other)
            if ox >= rx and oy >= ry and (ox > rx or oy > ry):
                dominated = True
                break
        if not dominated:
            front.append(row)
    return front


# ---------------------------------------------------------------------------
# Reports


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def load_metric_rows(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "metrics.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            row = dict(zip(header, parts))
            for k in header:
                if k == "method":
                    continue
                row[k] = int(row[k]) if k == "seed" else float(row[k])
            rows.append(row)
    return rows


def _svg_scatter(rows, front, x, y) -> str:
    width, height, pad = 480, 360, 48
    front_ids = {id(r) for r in front}

    def sx(v):
        return pad + v * (width - 2 * pad)

    def sy(v):
        return height - pad - v * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}"'
        f' y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}"'
        f' stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle"'
        f' font-size="12">{x}</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="12"'
        f' transform="rotate(-90 14 {height // 2})">{y}</text>',
    ]
    for row in rows:
        color = "red" if id(row) in front_ids else "steelblue"
        parts.append(
            f'<circle cx="{sx(row[x]):.2f}" cy="{sy(row[y]):.2f}" r="4"'
            f' fill="{color}"><title>{row["method"]} seed={row["seed"]}'
            f'</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


THEOREM_COLUMNS = ("theorem", "instances", "max_deviation", "passed", "seed")


def write_theorem_reports(out_dir: str, reports) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = [json.dumps({
        "theorem": r.theorem, "instances": r.instances,
        "max_deviation": r.max_deviation, "passed": r.passed,
        "seed": r.seed, "details": _jsonable(r.details)}) for r in reports]
    _atomic_write(os.path.join(out_dir, "theorems.jsonl"),
                  "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit_reports(out_dir: str, x: str = "task_success_rate",
                 y: str = "constraint_satisfaction") -> None:
    """Compile per-run artifacts into metrics.csv, pareto.csv, theorems.csv
    and an SVG scatter with the Pareto front highlighted."""
    runs_dir = os.path.join(out_dir, "runs")
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path) as fh:
        cells = json.load(fh)["cells"]
    gaps = [c for c in cells
            if not os.path.exists(os.path.join(runs_dir, c + ".json"))]
    if gaps:
        raise MissingRunsError(gaps)

    rows = []
    for cell in cells:
        with open(os.path.join(runs_dir, cell + ".json")) as fh:
            data = json.load(fh)
        rows.append({k: data[k] for k in METRIC_COLUMNS})
    _atomic_write(os.path.join(out_dir, "metrics.csv"),
                  _csv_text(METRIC_COLUMNS, rows))

    front = pareto_front(rows, x, y)
    _atomic_write(os.path.join(out_dir, "pareto.csv"),
                  _csv_text(METRIC_COLUMNS, front))
    _atomic_write(os.path.join(out_dir, "scatter.svg"),
                  _svg_scatter(rows, front, x, y))

    theorems_src = os.path.join(out_dir, "theorems.jsonl")
    theorem_rows = []
    if os.path.exists(theorems_src):
        with open(theorems_src) as fh:
            for line in fh:
                rec = json.loads(line)
                theorem_rows.append({k: rec[k] for k in THEOREM_COLUMNS})
    _atomic_write(os.path.join(out_dir, "theorems.csv"),
                  _csv_text(THEOREM_COLUMNS, theorem_rows))
