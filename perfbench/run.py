"""crldistill benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload cell --seed 0 --seconds 25 --trace 0

Run from the root of a crldistill checkout. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the first
line gives the provenance of the result and the one before the last the run
details. A copy, and with `--trace 1` the recorded spans, goes to
perfbench/out/.

--trace 0  Repeats units of the workload, at least twice and then while
           another fits in --seconds, and reports the end-to-end metrics
           with nothing wrapped. Times are corrected by the host probe
           (hostprobe.py).
--trace 1  Runs one unit twice, first plain and then with every layer
           wrapped by the tracer, and reports the per-layer metrics plus
           the tracing overhead (traced minus plain wall time of the same
           work). The work is fixed, so counts repeat exactly for a seed;
           --seconds is not used.

Seeds 0-14 are for tuning; confirm a claimed gain on held-out seed 15.
"""
import os

# One thread per BLAS/OpenMP pool: the numbers measure the program, not the
# scheduler. Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
HELD_OUT_SEED = 15
SETUP_REPEATS = 7
MIN_REPEATS = 2
REQUIRED = (Path("src") / "crldistill" / "__init__.py",
            Path("configs") / "tension.yaml")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cell", "grid", "small_batches", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": git_commit(ROOT)}


def measure_setup(workload, seed):
    """Fresh import of the package plus config and instance construction,
    SETUP_REPEATS times. Returns (begin and end clock readings, library)."""
    import workloads

    begins, ends = [], []
    for _ in range(SETUP_REPEATS):
        begins.append(time.perf_counter())
        lib = workloads.import_library()
        workload.setup(lib, seed, ROOT)
        ends.append(time.perf_counter())
    return begins, ends, lib


def end_to_end(workload, args, setup, probe):
    """Repeat units (at least MIN_REPEATS, then while another fits in
    --seconds); every time is corrected by the host-speed probe."""
    import numpy as np

    units = []
    start = time.perf_counter()
    while len(units) < MIN_REPEATS or \
            (time.perf_counter() - start) * (len(units) + 1) / len(units) \
            <= args.seconds:
        units.append(workload.unit(len(units)))
    attempted, failed = workload.finish()
    probe.stop()
    attempted += sum(u.attempted for u in units)
    failed += sum(u.failed for u in units)
    walls = probe.correct([u.start for u in units], [u.end for u in units])
    all_ops = np.concatenate([probe.correct(u.begins, u.ends)
                              for u in units])
    metrics = {
        "setup_s": (float(np.median(probe.correct(*setup))), "s"),
        "wall_s": (float(np.median(walls)), "s"),
        "items_per_s": (sum(u.items for u in units) / float(walls.sum()),
                        "1/s"),
        "op_p50_ms": (float(np.percentile(all_ops, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(all_ops, 90)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"units": len(units), "ops": int(all_ops.size),
            "unit_wall_s": walls.tolist(),
            "raw_unit_wall_s": [u.end - u.start for u in units],
            "host_probe": probe.summary()}
    return attempted, failed, metrics, info


def traced(workload, args, lib):
    """One plain unit, then the same unit with every layer wrapped. The
    host probe runs in both; in the traced one it is a layer of its own, so
    its time is no other layer's self time. Self times are scaled by the
    traced unit's host-speed correction."""
    import hostprobe
    import layers
    from tracer import Tracer

    probe = hostprobe.HostProbe()
    probe.start()
    try:
        plain = workload.unit(0)
        attempted, failed = workload.finish()
        tracer = Tracer()
        layers.install(tracer, lib)
        tracer.wrap(hostprobe, "_probe_work", "bench.host_probe",
                    keep_spans=False)
        try:
            traced_unit = workload.unit(0)
        finally:
            tracer.uninstall()
    finally:
        probe.stop()
    a, f = workload.finish()
    attempted += a + plain.attempted + traced_unit.attempted
    failed += f + plain.failed + traced_unit.failed
    untraced_s, traced_s = probe.correct(
        [plain.start, traced_unit.start], [plain.end, traced_unit.end])
    scale = traced_s / (traced_unit.end - traced_unit.start
                        - tracer.stats["bench.host_probe"].total_s)
    for stats in tracer.stats.values():
        stats.self_s *= scale
        stats.total_s *= scale
    extra = {"harness.bytes_written": workload.extra.get(
                 "harness.bytes_written", 0),
             "trace.untraced_wall_s": float(untraced_s),
             "trace.traced_wall_s": float(traced_s)}
    metrics = layers.per_layer_metrics(tracer, extra)
    name = f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.save_spans(OUT_DIR / name)
    info = {"absent": tracer.absent, "spans": len(tracer.spans),
            "spans_file": str(Path("perfbench") / "out" / name),
            "host_probe": probe.summary()}
    return attempted, failed, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a crldistill checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    prov = provenance(args)
    print(json.dumps({"provenance": prov}), flush=True)
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        _, _, lib = measure_setup(workload, args.seed)
        attempted, failed, metrics, info = traced(workload, args, lib)
    else:
        from hostprobe import HostProbe

        probe = HostProbe()
        probe.start()
        try:
            *setup, lib = measure_setup(workload, args.seed)
            attempted, failed, metrics, info = end_to_end(
                workload, args, setup, probe)
        finally:
            probe.stop()
    result = {"correct": failed == 0, "attempted": int(attempted),
              "failed": int(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump({"provenance": prov, "info": info, "result": result}, fh,
                  indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
