"""Outside-in tracer: wraps unihydro's layer functions by patching the module
and class attributes they are reached through, for one traced pass only.

Each wrapped call is a span. Spans nest on a stack; when a span ends its
duration is added to its parent's child time, and the span's self time is
its duration minus that child time. Spans are aggregated in memory per name
(calls, total seconds, self seconds) and reported when the pass ends. The
benchmark opens a root span around the whole pass, so the self times of all
spans sum to the traced pass's wall time.

Counters are kept at the same boundaries: nodal solves attempted and
accepted per ``closure._quadratic_kernel`` call, the bytes that kernel
touches (computed from array sizes), whether ``cli.compute_dt`` returned the
CFL candidate, and the bytes ``cli._write_outputs`` wrote.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) of every traced layer function; the metric prefix is
# "<module>.<attribute>"
TARGETS = (
    ("closure", "_quadratic_kernel"),
    ("closure", "_acoustic_kernel"),
    ("closure", "sgh_star_pressure"),
    ("cch", "step"),
    ("cch", "solve_all_nodes"),
    ("cch", "_boundary_node"),
    ("sgh", "step"),
    ("mesh", "update_geometry"),
    ("eos", "IdealGas.pressure"),
    ("eos", "IdealGas.sound_speed"),
    ("diagnostics", "audit_step"),
    ("diagnostics", "EntropyMonitor.update"),
    ("diagnostics", "l1_error"),
    ("cli", "run"),
    ("cli", "compute_dt"),
    ("cli", "_write_outputs"),
    ("cli", "_write_summary"),
    ("problems", "build_initial"),
    ("problems", "sample_reference"),
    ("problems", "_self_reference_run"),
    ("riemann", "solve"),
)
ROOT = "bench.pass"

# float64 arrays read (rl, cl, pl, ul, rr, cr, pr, ur, u_ac, p_ac) and written
# (u_star, ps_left, ps_right) per node by _quadratic_kernel, plus the bool mask
QUADRATIC_BYTES_PER_NODE = 13 * 8 + 1


def _owners(package: str, module: str, attr: str):
    """Every (namespace, name) through which callers reach the function."""
    mod = sys.modules[f"{package}.{module}"]
    if "." in attr:
        cls, name = attr.split(".")
        return [(getattr(mod, cls), name)]
    fn = getattr(mod, attr)
    return [(m, attr) for key, m in list(sys.modules.items())
            if (key == package or key.startswith(package + "."))
            and vars(m).get(attr) is fn]


class Tracer:
    """Per-name span totals and layer counters for one traced pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}      # name -> [calls, seconds, self seconds]
        self.counters = {"nodes_attempted": 0, "nodes_accepted": 0,
                         "kernel_calls": 0, "dt_calls": 0, "dt_cfl_limited": 0,
                         "write_bytes": 0}
        self._stack = [[0.0]]
        self._cfl_candidate = None

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)`` runs
        once the span has closed."""
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _after_quadratic(self, args, kwargs, result):
        c = self.counters
        c["kernel_calls"] += 1
        c["nodes_attempted"] += int(np.size(args[0]))
        c["nodes_accepted"] += int(np.count_nonzero(result[3]))

    def _after_compute_dt(self, args, kwargs, result):
        self.counters["dt_calls"] += 1
        self.counters["dt_cfl_limited"] += int(result == self._cfl_candidate)

    def _record_candidate(self, fn):
        def recording(*args, **kwargs):
            self._cfl_candidate = fn(*args, **kwargs)
            return self._cfl_candidate
        return recording

    def _after_write(self, cli):
        def after(args, kwargs, result):
            config, problem = args[0], args[1]
            tag = args[4] if len(args) > 4 else kwargs.get("tag", "")
            stem = os.path.join(config.out, cli._run_stem(config, problem) + tag)
            for path in (stem + ".csv", stem + ".nodes"):
                if os.path.exists(path):
                    self.counters["write_bytes"] += os.path.getsize(path)
        return after

    # -- patching -------------------------------------------------------------

    @contextmanager
    def installed(self, uh):
        """Patch every target for the duration of the block, then restore the
        original attributes and check that they are back."""
        package = uh.__name__
        cli = sys.modules[f"{package}.cli"]
        afters = {"closure._quadratic_kernel": self._after_quadratic,
                  "cli.compute_dt": self._after_compute_dt,
                  "cli._write_outputs": self._after_write(cli)}
        saved = []
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            for owner, key in _owners(package, module, attr):
                original = vars(owner)[key]
                saved.append((owner, key, original))
                setattr(owner, key, self.wrap(name, original, afters.get(name)))
        saved.append((cli, "_cfl_candidate", cli._cfl_candidate))
        cli._cfl_candidate = self._record_candidate(cli._cfl_candidate)
        try:
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)
            for owner, key, original in saved:
                if vars(owner)[key] is not original:
                    raise RuntimeError(f"tracer failed to restore {key}")

    def traced_pass(self, uh, run_pass, *args):
        """Run one pass under the root span with every target patched."""
        with self.installed(uh):
            result = self.wrap(ROOT, run_pass)(*args)
        return result

    # -- report -----------------------------------------------------------------

    def self_time_total(self) -> float:
        return sum(t[2] for t in self.spans.values())

    def root_seconds(self) -> float:
        """Wall time of the traced pass, as its root span measured it."""
        return self.spans[ROOT][1]

    def metrics(self) -> dict[str, float]:
        out = {}
        for module, attr in TARGETS:
            calls, total, own = self.spans.get(f"{module}.{attr}", (0, 0.0, 0.0))
            out[f"{module}.{attr}.calls"] = calls
            out[f"{module}.{attr}.s"] = total
            out[f"{module}.{attr}.self_s"] = own
        c = self.counters
        kernel_s = out["closure._quadratic_kernel.s"]
        attempted = c["nodes_attempted"]
        out["closure._quadratic_kernel.nodes_attempted"] = attempted
        out["closure._quadratic_kernel.nodes_accepted"] = c["nodes_accepted"]
        out["closure._quadratic_kernel.ns_per_node"] = (
            1e9 * kernel_s / attempted if attempted else 0.0)
        out["closure._quadratic_kernel.bytes_computed"] = (
            QUADRATIC_BYTES_PER_NODE * attempted / c["kernel_calls"]
            if c["kernel_calls"] else 0.0)
        out["closure.quadratic_accept_frac"] = (
            c["nodes_accepted"] / attempted if attempted else 0.0)
        out["cli.dt_cfl_limited_frac"] = (
            c["dt_cfl_limited"] / c["dt_calls"] if c["dt_calls"] else 0.0)
        out["cli._write_outputs.bytes"] = c["write_bytes"]
        out[f"{ROOT}.self_s"] = self.spans[ROOT][2]
        return out


# unit and better-direction of each per-layer metric, in report order
def metric_units() -> dict[str, tuple[str, str]]:
    units = {}
    for module, attr in TARGETS:
        units[f"{module}.{attr}.calls"] = ("count", "lower")
        units[f"{module}.{attr}.s"] = ("s", "lower")
        units[f"{module}.{attr}.self_s"] = ("s", "lower")
    units.update({
        "closure._quadratic_kernel.nodes_attempted": ("count", "lower"),
        "closure._quadratic_kernel.nodes_accepted": ("count", "higher"),
        "closure._quadratic_kernel.ns_per_node": ("ns", "lower"),
        "closure._quadratic_kernel.bytes_computed": ("B", "lower"),
        "closure.quadratic_accept_frac": ("1", "higher"),
        "cli.dt_cfl_limited_frac": ("1", "higher"),
        "cli._write_outputs.bytes": ("B", "lower"),
        f"{ROOT}.self_s": ("s", "lower"),
        "bench.traced_wall_s": ("s", "lower"),
        "bench.tracing_overhead_s": ("s", "lower"),
        "bench.tracing_overhead_frac": ("1", "lower"),
    })
    return units
