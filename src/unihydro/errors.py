"""Exception types shared across the solver."""

from __future__ import annotations


class SolverFailure(RuntimeError):
    """A run or solve could not continue: negative energy, tangled mesh, blow-up.

    Carries optional context (step index, simulation time, cell index) that
    the run loop fills in when the failure surfaces mid-run.
    """

    def __init__(self, message: str, step: int | None = None,
                 time: float | None = None, cell: int | None = None):
        self.reason = message
        self.step = step
        self.time = time
        self.cell = cell
        super().__init__(self._format())

    def _format(self) -> str:
        parts = [self.reason]
        if self.cell is not None:
            parts.append(f"cell {self.cell}")
        if self.step is not None:
            parts.append(f"step {self.step}")
        if self.time is not None:
            parts.append(f"t={self.time:.9g}")
        return " | ".join(parts)

    def with_context(self, step: int, time: float) -> "SolverFailure":
        return type(self)(self.reason, step=step, time=time, cell=self.cell)


class MeshTangled(SolverFailure):
    """Node ordering violated (zero or negative cell volume)."""


class ConfigError(ValueError):
    """Bad input: a run configuration, a problem spec or its initial state (CLI exit code 3)."""
