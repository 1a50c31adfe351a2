"""Per-run output checks and the tally of runs a benchmark pass makes.

A run fails when it raises ``SolverFailure`` or when its result breaks one of
the invariants every unihydro run must keep: exact mass, momentum and energy
residuals within ``RESIDUAL_TOL`` relative, no entropy violation, and finite
fields.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_TOL = 1e-9


def run_problems(result) -> list[str]:
    """Invariants the finished run breaks; empty when it is correct."""
    led = result.ledger
    found = []
    if led.mass_drift != 0.0:
        found.append(f"mass drift {led.mass_drift:.3e}")
    if not led.momentum_residual_rel <= RESIDUAL_TOL:
        found.append(f"momentum residual {led.momentum_residual_rel:.3e}")
    if not led.energy_residual_rel <= RESIDUAL_TOL:
        found.append(f"energy residual {led.energy_residual_rel:.3e}")
    if result.monitor.violations:
        found.append(f"{result.monitor.violations} entropy violations")
    arrays = [result.mesh.node_x, *vars(result.state).values()]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        found.append("non-finite field")
    return found


class Tally:
    """Runs attempted and failed in one pass, with the time-loop totals of
    the runs that finished (``RunResult.wall_time``, steps, N x steps)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.loop_s = 0.0
        self.steps = 0
        self.cell_steps = 0

    def fail(self, label: str, why: str):
        self.failed += 1
        self.failures.append(f"{label}: {why}")

    def add(self, label: str, result):
        self.loop_s += result.wall_time
        self.steps += result.steps
        self.cell_steps += result.config.n_cells * result.steps
        found = run_problems(result)
        if found:
            self.fail(label, "; ".join(found))

    def attempt(self, label: str, call):
        """Run ``call`` as one counted run; None when it raised.

        Any exception counts as a failed run (``SolverFailure`` is the
        expected one), so that one bad run does not hide the rest.
        """
        self.attempted += 1
        try:
            result = call()
        except Exception as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        self.add(label, result)
        return result
