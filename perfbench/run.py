"""ghlab benchmark: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): verify-grid100,
curvature-grid12, sweep-boundary, beta-zeros.  Each is a closed loop in
this one process and thread: a pass starts when the previous one ends,
until ``--seconds`` have passed.  Every pass builds fresh data, so the
xi cache starts cold as in every CLI invocation, and every output is
checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall_s (median seconds per pass), setup_s (median over fresh
interpreters of importing ghlab.cli, loading the config and building
the data) and peak_rss_mib (this process).  The fail rate is
failed / attempted in the same line.

Both times are host-speed adjusted (hostspeed.py): the machine is
shared and the speed of one core changes by up to 1.6x from one second
to the next, so each pass and each set-up probe is scaled to a fixed
reference speed, measured by a kernel sampled while it runs.  Raw
medians are printed to stderr beside the adjusted ones.

With ``--trace 1`` half the time runs untraced and half traced; the
line reports the per-layer metrics (layers.py), including the import
time of each module and the tracing overhead (difference of the two
adjusted medians).  Per-layer times are raw, per traced pass, and
include the tracer's own cost.  Count metrics are
printed to stderr beside baseline_counts.json, and increases are
flagged.  ``--record-baseline`` stores this run's counts there.
Spans and a summary go to .perfbench-out/.

The package is imported from src/ of the checkout; without it the run
exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import HostClock
from layers import LAYERS, MODULES, count_metrics, layer_values, per_layer_spec
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BASELINE = HERE / "baseline_counts.json"
# Tiny numpy.linalg calls must not start BLAS threads on a small
# machine; set before numpy loads, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = re.search(r"^model name\s*:\s*(.*)$", fh.read(), re.M).group(1)
    except (OSError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---- measurements in fresh interpreters ----------------------------------


def measure_setup(workload: str, seed: int) -> HostClock:
    clock = HostClock()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        clock.raw.append(probe["raw_s"])
        clock.adjusted.append(probe["adjusted_s"])
    return clock


def measure_imports() -> dict:
    """Median cumulative import time of each ghlab module, from
    ``python -X importtime``; None for a module that was not imported."""
    runs = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ghlab.cli"],
            env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("ghlab."):
                mod = parts[2].strip()[len("ghlab."):]
                if mod in runs:
                    runs[mod].append(int(parts[1]) * 1e-6)
    return {m: statistics.median(v) if v else None for m, v in runs.items()}


# ---- the closed loop -----------------------------------------------------


def closed_loop(workload, seed: int, seconds: float, tracer=None) -> tuple:
    """Run passes until ``seconds`` have passed; (HostClock, failures)."""
    clock, failed = HostClock(), 0
    start = time.perf_counter()
    while True:
        out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
        if tracer is not None:
            tracer.begin_pass()
        with clock.interval():
            try:
                result = workload.run(seed, out_dir)
                problems = None
            except Exception:
                problems = [traceback.format_exc()]
        if tracer is not None:
            tracer.end_pass()
        if problems is None:
            try:
                problems = workload.check(result, out_dir)
            except Exception:
                problems = [traceback.format_exc()]
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            failed += 1
            log(f"pass {len(clock.raw)} failed: " + "; ".join(problems))
        if time.perf_counter() - start >= seconds:
            return clock, failed


def summarize(label: str, clock: HostClock) -> None:
    for kind, samples in (("adjusted", clock.adjusted), ("raw", clock.raw)):
        qs = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        log(f"{label} {kind}: n={len(samples)} median={statistics.median(samples):.4f} "
            f"q1={qs[0]:.4f} q3={qs[2]:.4f} min={min(samples):.4f} max={max(samples):.4f}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(workload, seed: int, seconds: float) -> tuple:
    setup = measure_setup(workload.name, seed)
    summarize("setup_s", setup)
    passes, failed = closed_loop(workload, seed, seconds)
    summarize("wall_s", passes)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": metric(statistics.median(passes.adjusted), "s"),
        "setup_s": metric(statistics.median(setup.adjusted), "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    return len(passes.raw), failed, metrics


def run_traced(workload, seed: int, seconds: float, record: bool) -> tuple:
    imports = measure_imports()
    plain, plain_failed = closed_loop(workload, seed, seconds / 2.0)
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        traced, traced_failed = closed_loop(workload, seed, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    summarize("wall_s untraced", plain)
    summarize("wall_s traced", traced)

    values, reasons = layer_values(tracer)
    for mod, secs in imports.items():
        values[f"{mod}.import_s"] = secs
        if secs is None:
            reasons[f"{mod}.import_s"] = f"ghlab.{mod} was not imported by ghlab.cli"
    values["trace.overhead_s"] = (statistics.median(traced.adjusted)
                                  - statistics.median(plain.adjusted))
    for name, why in reasons.items():
        log(f"null {name}: {why}")
    for name, st in tracer.stats.items():
        if st.raised:
            log(f"raised {name}: {st.raised} over {tracer.passes} passes")
    report_counts(workload, seed, values, record)

    stem = OUT / f"trace-{workload.name}-seed{seed}"
    import numpy

    numpy.savez(f"{stem}.npz", **{k: numpy.asarray(v) for k, v in tracer.spans().items()})
    Path(f"{stem}.json").write_text(json.dumps(
        {"environment": environment(), "traced_passes": tracer.passes,
         "values": values, "null_reasons": reasons,
         "wait_s": "not applicable: the layers have no queues and no threads"},
        indent=1) + "\n")

    metrics = {name: metric(values[name], unit) for name, unit, _ in per_layer_spec()}
    return len(plain.raw) + len(traced.raw), plain_failed + traced_failed, metrics


# ---- deterministic counts ------------------------------------------------


def report_counts(workload, seed: int, values: dict, record: bool) -> None:
    """Print each count metric beside its baseline at the same inputs;
    flag increases of a count, and any change of a ratio or of the
    exceptions raised.  Counts depend on the inputs, so a seed with no
    recorded baseline is reported without comparison."""
    baselines = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    recorded = baselines.get(workload.name, {})
    key = str(seed) if workload.uses_seed else "any"
    base = recorded.get(key)
    if base is None:
        log(f"counts per pass ({workload.name}, seed {seed}): no baseline recorded "
            f"for these inputs (recorded: {sorted(recorded) or 'none'})")
        base = {}
    else:
        log(f"counts per pass ({workload.name}, seed {seed}) beside the baseline:")
    for name in count_metrics():
        now, then = values[name], base.get(name)
        flag = ""
        if now is not None and then is not None:
            if name.endswith(("distinct_ratio", ".raised")):
                flag = "  CHANGED" if now != then else ""
            elif now > then:
                flag = "  INCREASE"
        log(f"  {name:36s} {now!s:>20} baseline {then!s:>20}{flag}")
    if record:
        recorded[key] = {name: values[name] for name in count_metrics()}
        baselines[workload.name] = recorded
        BASELINE.write_text(json.dumps(baselines, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-baseline", action="store_true",
                        help="store this traced run's counts as the baseline")
    args = parser.parse_args()

    if not (SRC / "ghlab" / "__init__.py").is_file():
        log(f"error: no ghlab package under {SRC}")
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import ghlab

    if Path(ghlab.__file__).resolve().parent != (SRC / "ghlab").resolve():
        log(f"error: imported ghlab from {ghlab.__file__}, not from {SRC}")
        return 2
    import ghlab.cli  # noqa: F401  (also loads every module the tracer wraps)

    OUT.mkdir(exist_ok=True)
    log("environment: " + json.dumps(environment()))
    workload = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics = run_traced(workload, args.seed, args.seconds,
                                                args.record_baseline)
    else:
        attempted, failed, metrics = run_plain(workload, args.seed, args.seconds)
    log(f"fail_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
