"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed in `setup`. A `unit`
then runs one fixed amount of work on those inputs and returns when each
operation in it began and ended, the work items it completed, and how many
output checks it made and how many failed. Units of `cell`, `grid` and
`small_batches` repeat identical work; `oracles` units draw new instances.
The library sees only the generated inputs, never the workload seed.

Why these four:

cell           One shipped-config cell (`unaugmented`, configs/tension.yaml):
               warm start plus 40 epochs x 10 batches x 64 rollouts with the
               per-epoch exact evaluation. Large batches put most of the time
               in rollout sampling and the gradient; a batched sampler or a
               vectorised estimator shows here, a cell-level pool cannot.
grid           All 10 methods of the shipped config at one seed and a short
               epoch count, through `run_experiment` (reports included) into
               a scratch directory. Covers every shaping mode and term-ii
               branch, warm starts and the harness file I/O; the only
               workload on which a process pool over cells can act.
small_batches  Many batches of B=4 scalar rollouts from one stream, each
               followed by `total_gradient` without baseline, plus one
               `exact_gradient` oracle (acceptance point 4). Cost is per
               call, so a sampler that builds tables per batch pays its
               set-up on every tiny batch here.
oracles        The four `verification` batteries on random instances and
               the exact-versus-finite-difference gradient oracle, no
               training. Measures enumeration, shaping on enumerated trees
               and verification, which training barely touches.
"""
from __future__ import annotations

import csv
import importlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

PACKAGE = "crldistill"
SUBMODULES = ("env", "policies", "divergence", "shaping", "gradients",
              "training", "evaluation", "verification", "harness")
CONFIG = Path("configs") / "tension.yaml"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Training seeds with stored reference metrics; cell and grid train on
# workload seed modulo their number.
REFERENCE_SEEDS = 16
# Reference values are matched to this relative tolerance, which admits the
# last-bit summation changes of a reordered gradient but not a changed method.
REL_TOL = 1e-6
ABS_TOL = 1e-9
VIOLATION_LIMIT = 0.05
GRID_EPOCHS = 1
# A sampled mean further than this many standard errors from the oracle
# fails; at 5 SE a chance failure over ~20 live coordinates has probability
# about 1e-5.
SE_LIMIT = 5.0
FD_REL_TOL = 1e-4
METRIC_KEYS = ("task_success_rate", "mean_kl", "constraint_satisfaction",
               "violation_probability")


def import_library():
    """Import crldistill afresh and return its modules as a namespace.

    Earlier imports are dropped first, so each call re-executes the package's
    module code; set-up time includes it.
    """
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    modules = {}
    for name in SUBMODULES:
        try:
            modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ModuleNotFoundError:
            pass
    return SimpleNamespace(modules=modules, **modules)


@dataclass
class Unit:
    """Work items done; clock readings at the unit's start and end and at
    the begin and end of each operation in it; output checks made and
    failed."""

    items: int
    start: float
    end: float
    begins: list
    ends: list
    attempted: int
    failed: int


def reference_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def load_references(kind: str, seed: int):
    with open(REFERENCES) as fh:
        return json.load(fh)[kind][str(seed)]


def metrics_match(row: dict, ref: dict) -> bool:
    return all(math.isfinite(row[k])
               and math.isclose(row[k], ref[k], rel_tol=REL_TOL,
                                abs_tol=ABS_TOL)
               for k in METRIC_KEYS)


def _finite(row: dict) -> bool:
    return all(math.isfinite(row[k]) for k in METRIC_KEYS)


def read_metrics(out: str) -> list[dict]:
    """Rows of `out`/metrics.csv with the metric columns as floats."""
    with open(os.path.join(out, "metrics.csv"), newline="") as fh:
        return [{k: v if k == "method" else int(v) if k == "seed"
                 else float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


class _Stamps:
    """File-like log sink for `train`: one clock reading per line written."""

    def __init__(self):
        self.times = [time.perf_counter()]

    def write(self, _line: str = "") -> None:
        self.times.append(time.perf_counter())


class Workload:
    name = ""
    extra: dict = {}

    def setup(self, lib, seed: int, root: Path) -> None:
        raise NotImplementedError

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """Checks on the last unit as a whole: (attempted, failed)."""
        return 0, 0


class Cell(Workload):
    """Ops: the 40 training epochs, timed by the per-epoch log line `train`
    writes; the unit also includes the warm start before them."""

    name = "cell"

    def setup(self, lib, seed, root):
        self.lib = lib
        self.config = lib.harness.ExperimentConfig.from_file(root / CONFIG)
        spec = next(s for s in self.config.method_specs
                    if s.mode == lib.shaping.UNAUGMENTED)
        self.train_seed = reference_seed(seed)
        self.train_config = lib.training.TrainConfig(
            spec=spec, seed=self.train_seed, **self.config.train_kw)

    def run_cell(self):
        cfg, tc, training = self.config, self.train_config, self.lib.training
        stamps = _Stamps()
        start = training.warm_start(cfg.mdp, cfg.teacher, tc,
                                    epochs_kl=cfg.warm_start_epochs)
        stamps.write()
        _, checkpoints = training.train(cfg.mdp, cfg.teacher, tc,
                                        initial_policy=start,
                                        log_file=stamps)
        return [c.metrics for c in checkpoints], stamps.times

    def unit(self, index):
        rows, stamps = self.run_cell()
        failed = sum(not _finite(row) for row in rows)
        failed += not metrics_match(rows[-1],
                                    load_references("cell", self.train_seed))
        failed += not rows[-1]["violation_probability"] <= VIOLATION_LIMIT
        tc = self.train_config
        items = ((self.config.warm_start_epochs + tc.epochs)
                 * tc.batches_per_epoch * tc.batch_size)
        return Unit(items, stamps[0], stamps[-1], stamps[1:-1], stamps[2:],
                    len(rows) + 2, failed)


class Grid(Workload):
    """Ops: each grid cell, from the gaps between the write times of the
    cells' runs/<cell>.json; the unit also includes manifest and reports."""

    name = "grid"

    def setup(self, lib, seed, root):
        self.lib = lib
        with open(root / CONFIG) as fh:
            raw = yaml.safe_load(fh)
        self.train_seed = reference_seed(seed)
        raw["seeds"] = [self.train_seed]
        raw["train"]["epochs"] = GRID_EPOCHS
        self.config = lib.harness.ExperimentConfig.from_dict(raw)
        tc = lib.training.TrainConfig(spec=self.config.method_specs[0],
                                      **self.config.train_kw)
        self.rollouts_per_cell = ((self.config.warm_start_epochs + tc.epochs)
                                  * tc.batches_per_epoch * tc.batch_size)
        self.scratch = root / "perfbench" / "out"
        self.extra = {}

    def run_grid(self, out: str) -> None:
        self.lib.harness.run_experiment(self.config, output_dir=out)

    def unit(self, index):
        self.scratch.mkdir(parents=True, exist_ok=True)
        out = tempfile.mkdtemp(prefix="grid-", dir=self.scratch)
        try:
            # file times are wall-clock; map them onto perf_counter
            offset = time.time() - time.perf_counter()
            start = time.perf_counter()
            self.run_grid(out)
            end = time.perf_counter()
            return self._check(out, start, end, offset)
        finally:
            shutil.rmtree(out)

    def _check(self, out, start, end, offset) -> Unit:
        with open(os.path.join(out, "manifest.json")) as fh:
            cells = json.load(fh)["cells"]
        runs = os.path.join(out, "runs")
        cell_ends = [os.stat(os.path.join(runs, c + ".json")).st_mtime_ns
                     / 1e9 - offset for c in cells]
        bounds = [start] + cell_ends
        rows = read_metrics(out)
        reference = load_references("grid", self.train_seed)
        failed = int(len(rows) != len(reference))
        for row, ref in zip(rows, reference):
            artifacts = all(
                os.path.exists(os.path.join(
                    runs, f"{row['method']}__seed{self.train_seed}{ext}"))
                for ext in (".json", ".log", ".npz"))
            failed += not (row["method"] == ref["method"] and artifacts
                           and metrics_match(row, ref))
        reports = all(os.path.exists(os.path.join(out, name))
                      for name in ("pareto.csv", "scatter.svg",
                                   "theorems.csv"))
        failed += not reports
        self.extra = {"harness.bytes_written": sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(out) for f in files)}
        return Unit(len(cells) * self.rollouts_per_cell, start, end,
                    bounds[:-1], bounds[1:], len(reference) + 1, failed)


class SmallBatches(Workload):
    """Ops: each batch of BATCH rollouts plus its gradient. Every unit
    restarts the same stream, so repeats sample identical batches."""

    name = "small_batches"
    BATCH = 4
    BLOCK = 1000

    def setup(self, lib, seed, root):
        self.lib = lib
        self.seed = seed
        self.mdp = lib.env.chain_with_distractors(decision_states=2,
                                                  horizon_cap=6)
        self.teacher = lib.env.tension_teacher(self.mdp)
        shape = (self.mdp.num_states, self.mdp.vocab_size)
        # the acceptance test's student; the seed drives the stream only,
        # so every seed asks for the same work on average
        self.student = lib.policies.SoftmaxPolicy(
            np.random.default_rng(123).normal(scale=0.7, size=shape))
        self.spec = lib.shaping.ConstrainedRewardSpec(budget=0.2)

    def unit(self, index):
        env, gradients = self.lib.env, self.lib.gradients
        mdp, student, teacher, spec = (self.mdp, self.student, self.teacher,
                                       self.spec)
        rng = np.random.default_rng([self.seed, 7])
        self.mean = np.zeros_like(student.logits)
        self.m2 = np.zeros_like(student.logits)
        clock = time.perf_counter
        begins, ends = [], []
        failed = 0
        start = clock()
        for count in range(1, self.BLOCK + 1):
            begins.append(clock())
            trajs = [env.rollout(mdp, student, teacher, spec, rng)
                     for _ in range(self.BATCH)]
            sample = gradients.total_gradient(
                student, teacher, trajs, spec,
                baseline=gradients.BASELINE_NONE).table
            ends.append(clock())
            failed += not np.isfinite(sample).all()
            # Welford update, as in the acceptance test
            delta = sample - self.mean
            self.mean += delta / count
            self.m2 += delta * (sample - self.mean)
        return Unit(self.BLOCK * self.BATCH, start, clock(), begins, ends,
                    self.BLOCK, failed)

    def finish(self):
        exact = self.lib.gradients.exact_gradient(
            self.mdp, self.student, self.teacher, self.spec).table
        n = self.BLOCK
        se = np.sqrt(self.m2 / (n - 1) / n)
        diff = np.abs(self.mean - exact)
        live = se > 0
        failed = int((diff[~live] > 1e-12).sum()
                     + (diff[live] > SE_LIMIT * se[live]).sum())
        return exact.size, failed


class Oracles(Workload):
    """Ops: each instance. Unit i is rounds i*ROUNDS..(i+1)*ROUNDS-1; a round
    sends one random instance through each battery, then FD_INSTANCES
    exact-versus-finite-difference checks.

    The monotonicity battery checks one random policy plus the teacher copy
    per instance, and the FD oracle draws instances of at most 5 states, 3
    tokens and horizon 4. Enumeration cost grows as vocab ** horizon, so at
    the batteries' full settings a few large instances decide a unit's time
    and its figures spread with the seed.
    """

    name = "oracles"
    ROUNDS = 100
    POLICIES_PER_INSTANCE = 2
    FD_INSTANCES = 1
    FD_SHAPE = {"max_states": 5, "max_vocab": 3, "max_horizon": 4}
    FD_ATTEMPTS = 50

    def setup(self, lib, seed, root):
        self.lib = lib
        self.seed = seed

    def unit(self, index):
        clock = time.perf_counter
        v = self.lib.verification
        batteries = ((v.equivalence_battery, {}),
                     (v.monotonicity_battery,
                      {"policies_per_instance": self.POLICIES_PER_INSTANCE}),
                     (v.assumptions_battery, {}),
                     (v.bellman_battery, {}))
        begins, ends = [], []
        failed = 0
        start = clock()
        for r in range(index * self.ROUNDS, (index + 1) * self.ROUNDS):
            key = self.seed * 1_000_000 + r
            for battery, kw in batteries:
                begins.append(clock())
                report = battery(1, key, **kw)
                ends.append(clock())
                failed += not report.passed
            rng = np.random.default_rng([self.seed, r, 3])
            for _ in range(self.FD_INSTANCES):
                begins.append(clock())
                failed += not self._fd_instance(rng)
                ends.append(clock())
        return Unit(len(ends), start, clock(), begins, ends, len(ends),
                    failed)

    def _fd_instance(self, rng) -> bool:
        """Exact gradient against central differences of the exact
        objective, in `unaugmented` mode away from the budget boundary and
        its band (acceptance point 3)."""
        gradients = self.lib.gradients
        for _ in range(self.FD_ATTEMPTS):
            mdp, student, teacher = self.lib.verification.random_instance(
                rng, **self.FD_SHAPE)
            spec = self.lib.shaping.ConstrainedRewardSpec(
                budget=float(rng.uniform(0.1, 1.0)))
            if gradients.boundary_margin(mdp, student, teacher, spec) \
                    < 10 * gradients.FD_STEP \
                    or self._inside_band(mdp, student, teacher, spec):
                continue
            analytic = gradients.exact_gradient(mdp, student, teacher,
                                                spec).table
            fd = gradients.finite_difference_gradient(
                lambda policy: gradients.objective_value(mdp, policy, teacher,
                                                         spec),
                student)
            denom = max(float(np.linalg.norm(fd)), 1e-6)
            return float(np.linalg.norm(analytic - fd)) / denom <= FD_REL_TOL
        return False

    def _inside_band(self, mdp, student, teacher, spec) -> bool:
        """Whether some step acts with its remaining budget inside the
        boundary band [0, boundary_tol].

        Term ii fires there, but the objective has no divergence term, so
        the exact gradient is not the objective's derivative by design.
        Acceptance point 3's margin filter alone admits such instances.
        """
        for traj, _ in self.lib.env.enumerate_trajectories(mdp, student,
                                                           teacher, spec):
            remaining = spec.budget
            for cost in traj.costs:
                if 0.0 <= remaining <= spec.boundary_tol:
                    return True
                remaining -= cost
        return False


WORKLOADS = {w.name: w for w in (Cell, Grid, SmallBatches, Oracles)}
