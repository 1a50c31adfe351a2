"""unihydro benchmark: one workload per invocation, one process.

    python3 bench/run.py --workload matrix_small --seed 1 --seconds 40 --trace 0

Run from the repository root; the solver is imported from ``src/``. The
workload's passes repeat back to back until ``--seconds`` have elapsed (at
least one pass). With ``--trace 0`` every pass is untraced and the
end-to-end metrics are the medians over passes. Their timings are given at
the reference host speed of ``hostspeed.py``: a reference loop is timed
before each pass, before each run inside it and after it, and each raw time
is scaled by the reference over the mean of those samples (the raw medians
are in the info record). With ``--trace 1`` untraced
and traced passes alternate; the per-layer metrics are medians over the
traced passes, and the tracing overhead is the difference of the two
medians. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's info record (environment, behaviour fingerprint). The exit
code is 0 only when every run and every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "unihydro"
SETUP_REPEATS = 9

sys.path[:0] = [HERE, SRC]
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "us_per_step": "us",
    "ns_per_cell_step": "ns",
    "steps_total": "count",
    "l1_rho": "1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def fresh_import():
    """Import unihydro from src/, dropping any copy imported before, so that
    every setup repeat pays the import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    uh = importlib.import_module(PACKAGE)
    if not os.path.abspath(uh.__file__).startswith(os.path.join(SRC, PACKAGE)):
        raise ImportError(f"{PACKAGE} imported from {uh.__file__}, not from {SRC}")
    return uh


def timed_setup(workload, seed, workdir, speed):
    """Import and build the workload's inputs SETUP_REPEATS times, each
    between two host-speed samples; the last import and inputs are the ones
    the passes use. Returns the raw times and the speed factors."""
    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        speed.sample()
        started = time.perf_counter()
        uh = fresh_import()
        inputs = workload.setup(uh, seed, workdir)
        times.append(time.perf_counter() - started)
        speed.sample()
        factors.append(speed.factor_since(mark))
    return uh, inputs, times, factors


def _read_field(path: str, prefix: str = "") -> str | None:
    """Value of the first line of ``path`` that starts with ``prefix``
    (the part after a ``:`` if there is one); None if unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return None


def environment(uh) -> dict:
    import numpy as np

    src_dir = os.path.join(SRC, PACKAGE)
    src_lines = 0
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "unihydro": uh.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _read_field("/proc/cpuinfo", "model name"),
        "l3_cache": _read_field("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "src_lines": src_lines,
    }


def end_to_end(passes, setup_times, setup_factors) -> dict[str, float]:
    """Timings at the reference host speed (raw time x the pass's factor)."""
    med = statistics.median
    return {
        "wall_s": med(p.wall_s * p.speed for p in passes),
        "us_per_step": med(1e6 * p.tally.loop_s * p.speed / p.tally.steps for p in passes),
        "ns_per_cell_step": med(1e9 * p.tally.loop_s * p.speed / p.tally.cell_steps
                                for p in passes),
        "steps_total": med(p.tally.steps for p in passes),
        "l1_rho": med(p.l1_rho for p in passes),
        "setup_s": med(t * f for t, f in zip(setup_times, setup_factors)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def speed_pass(speed, run_pass, between, *args):
    """One pass between two host-speed samples. ``between`` is called before
    each run inside the pass; the time it spends sampling is taken off the
    pass's wall time. Sets the pass's ``speed`` factor from every sample."""
    mark = speed.mark()
    speed.sample()
    inner = speed.mark()
    p = run_pass(*args, between)
    p.wall_s -= speed.spent_since(inner)
    speed.sample()
    p.speed = speed.factor_since(mark)
    return p


def measure(workload, uh, inputs, workdir, seconds: float, trace: bool, speed):
    """Rounds of one untraced pass (plus one traced pass with ``trace``), for
    as long as another round of median length still ends within ``seconds``;
    at least one round. Traced passes take no samples inside, so that the
    trace holds only the workload. Returns (untraced passes, [(traced pass,
    tracer)])."""
    plain, traced, rounds = [], [], []
    started = time.perf_counter()
    while not rounds or (time.perf_counter() - started
                         + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        plain.append(speed_pass(speed, workload.run_pass, speed.sample,
                                uh, inputs, workdir))
        if trace:
            tracer = Tracer()
            traced.append((speed_pass(speed, tracer.traced_pass, lambda: None,
                                      uh, workload.run_pass, uh, inputs, workdir),
                           tracer))
        rounds.append(time.perf_counter() - round_start)
    return plain, traced


def check_passes(passes, traced) -> list[str]:
    """Output checks across the passes of this run."""
    faults = []
    every = passes + [p for p, _ in traced]
    for i, p in enumerate(every):
        faults += [f"pass {i}: {msg}" for msg in p.tally.failures + p.faults]
        if p.tally.steps == 0:
            faults.append(f"pass {i}: no run finished")
    if len({p.fingerprint for p in every}) > 1:
        faults.append("output files differ between passes: " + ", ".join(
            sorted({p.fingerprint for p in every})))
    if len({p.tally.steps for p in every}) > 1 or len({p.l1_rho for p in every}) > 1:
        faults.append("step counts or errors differ between identical passes")
    for i, (_, tracer) in enumerate(traced):
        total, wall = tracer.self_time_total(), tracer.root_seconds()
        if abs(total - wall) > 1e-6 + 1e-6 * wall:
            faults.append(f"traced pass {i}: self times sum to {total:.6f}s, "
                          f"traced pass took {wall:.6f}s")
    return faults


def per_layer(plain, traced) -> dict[str, float]:
    med = statistics.median
    layers = [tracer.metrics() for _, tracer in traced]
    out = {name: med(m[name] for m in layers) for name in layers[0]}
    untraced_wall = med(p.wall_s * p.speed for p in plain)
    traced_wall = med(p.wall_s * p.speed for p, _ in traced)
    out["bench.traced_wall_s"] = traced_wall
    out["bench.tracing_overhead_s"] = traced_wall - untraced_wall
    out["bench.tracing_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as workdir:
        speed = HostSpeed()
        uh, inputs, setup_times, setup_factors = timed_setup(workload, args.seed,
                                                             workdir, speed)
        plain, traced = measure(workload, uh, inputs, workdir, args.seconds,
                                bool(args.trace), speed)
        faults = check_passes(plain, traced)

    every = plain + [p for p, _ in traced]
    if args.trace:
        metrics = per_layer(plain, traced)
        units = metric_units()
        reported = {k: {"value": metrics[k], "unit": units[k][0]} for k in units}
    else:
        metrics = end_to_end(plain, setup_times, setup_factors)
        reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "passes_untraced": len(plain), "passes_traced": len(traced),
            "runs_per_pass": plain[0].tally.attempted,
            "fingerprint_sha256": plain[0].fingerprint,
            "setup_s_raw_samples": setup_times,
            "wall_s_raw_samples": [p.wall_s for p in plain],
            "speed_factors": [p.speed for p in plain],
            "wall_s_raw_median": statistics.median(p.wall_s for p in plain),
            "hostspeed_samples": len(speed.samples),
            "hostspeed_median_s": statistics.median(speed.samples),
            **environment(uh)}
    print(f"# {workload.name}, seed {args.seed}")
    for name, m in reported.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    attempted = sum(p.tally.attempted for p in every)
    failed = sum(p.tally.failed for p in every)
    print(f"runs_failed/runs_attempted {failed}/{attempted}")
    for msg in faults:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if not faults else 1


if __name__ == "__main__":
    sys.exit(main())
