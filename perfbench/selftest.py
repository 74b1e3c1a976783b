"""Self-test of the tracer's attribution.

    python3 perfbench/selftest.py

1. A copy of the tracer that spins for a fixed delay inside one layer
   (`shaping.boundary_flags`, called from the term-ii helper) must show that
   delay in that layer's self time only, not in its parents' or anyone
   else's.
2. On one traced `cell`, rollout sampling (the `env.rollout` subtree) must
   take the largest share of the wall time among the layers training calls.
3. A target attribute that does not exist is reported as absent, and
   uninstalling puts every original attribute back.

Exits 0 when every check passes.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402

import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DELAY_S = 1e-3
DELAYED = "shaping.boundary_flags"
BATCHES = 300
# Changes to other layers' self time must stay below this share of the
# injected total; it allows for run-to-run noise.
LEAK_SHARE = 0.05


class DelayTracer(Tracer):
    def call(self, original, layer, args, kwargs):
        if layer == DELAYED:
            end = time.perf_counter() + DELAY_S
            while time.perf_counter() < end:
                pass
        return original(*args, **kwargs)


def traced_small_batches(lib, tracer_cls):
    workload = workloads.SmallBatches()
    workload.BLOCK = BATCHES
    workload.setup(lib, 0, run.ROOT)
    tracer = tracer_cls()
    layers.install(tracer, lib)
    try:
        workload.unit(0)
    finally:
        tracer.uninstall()
    return tracer


def check_delay(lib) -> bool:
    plain = traced_small_batches(lib, Tracer)
    delayed = traced_small_batches(lib, DelayTracer)
    injected = delayed.stats[DELAYED].calls * DELAY_S
    ok = injected > 0
    for layer, st in delayed.stats.items():
        growth = st.self_s - plain.stats[layer].self_s
        if layer == DELAYED:
            good = abs(growth - injected) <= LEAK_SHARE * injected
        else:
            good = abs(growth) <= LEAK_SHARE * injected
        if not good or layer == DELAYED:
            print(f"  {layer}: self_s grew {growth:.4f} s "
                  f"(injected {injected:.4f} s) {'ok' if good else 'FAIL'}")
        ok = ok and good
    return ok


def check_rollout_share(lib) -> bool:
    workload = workloads.Cell()
    workload.setup(lib, 0, run.ROOT)
    tracer = Tracer()
    layers.install(tracer, lib)
    try:
        unit = workload.unit(0)
    finally:
        tracer.uninstall()
    wall = unit.end - unit.start
    shares = {layer: tracer.stats[layer].total_s / wall
              for layer in ("env.rollout", "gradients.total_gradient",
                            "evaluation.evaluate_policy",
                            "training.optimizer_step",
                            "training.seed_streams")}
    for layer, share in shares.items():
        print(f"  {layer}: {share:.1%} of cell wall time")
    return max(shares, key=shares.get) == "env.rollout" and unit.failed == 0


def check_absent_and_uninstall(lib) -> bool:
    original = lib.env.rollout
    tracer = Tracer()
    present = tracer.wrap(lib.env, "no_such_layer", "env.no_such_layer")
    layers.install(tracer, lib)
    wrapped = lib.env.rollout is not original
    tracer.uninstall()
    return (not present and tracer.absent == ["crldistill.env.no_such_layer"]
            and wrapped and lib.env.rollout is original)


def main() -> int:
    lib = workloads.import_library()
    results = {}
    for name, check in (("delay attribution", check_delay),
                        ("absent layer and uninstall",
                         check_absent_and_uninstall),
                        ("rollout share on cell", check_rollout_share)):
        print(name)
        results[name] = check(lib)
        print(f"  -> {'PASS' if results[name] else 'FAIL'}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
