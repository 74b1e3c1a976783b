"""Regenerate perfbench/references.json from the library as it stands.

    python3 perfbench/make_references.py

Trains the `cell` and `grid` workloads on every reference seed and stores
their metrics rows. Only rerun this when a change is meant to alter the
trained results; the benchmark's output checks compare against this file.
"""
import json
import sys
import tempfile

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = workloads.import_library()
    refs = {"cell": {}, "grid": {}}
    cell, grid = workloads.Cell(), workloads.Grid()
    run.OUT_DIR.mkdir(exist_ok=True)
    for seed in range(workloads.REFERENCE_SEEDS):
        cell.setup(lib, seed, run.ROOT)
        rows, _ = cell.run_cell()
        refs["cell"][str(seed)] = rows[-1]
        grid.setup(lib, seed, run.ROOT)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as out:
            grid.run_grid(out)
            refs["grid"][str(seed)] = workloads.read_metrics(out)
        print(f"seed {seed}: cell {rows[-1]}", flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
