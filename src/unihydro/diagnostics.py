"""Runtime audits: conservation ledger, entropy monitoring, error norms.

The steppers report their boundary fluxes each step; the ledger checks that
total momentum and energy drift only by the accumulated boundary impulse and
work, and that total mass never changes at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh1D, _least

__all__ = [
    "BoundaryFlux", "ConservationLedger", "EntropyMonitor",
    "totals", "audit_step",
    "entropy_production_sgh", "entropy_production_cch",
    "l1_error", "convergence_order",
]

ENTROPY_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryFlux:
    """Signed per-step contributions of the two boundaries to the totals."""

    impulse_left: float = 0.0
    impulse_right: float = 0.0
    work_left: float = 0.0
    work_right: float = 0.0


def totals(mesh: Mesh1D, state) -> tuple[float, float, float]:
    """(mass, momentum, total energy) of a state on its mesh."""
    return float(mesh.cell_mass.sum()), state.total_momentum(mesh), state.total_energy(mesh)


@dataclass
class ConservationLedger:
    mass0: float
    momentum0: float
    energy0: float
    mass: float = 0.0
    momentum: float = 0.0
    energy: float = 0.0
    impulse_left: float = 0.0
    impulse_right: float = 0.0
    work_left: float = 0.0
    work_right: float = 0.0
    momentum_scale: float = 0.0
    energy_scale: float = 0.0
    steps: int = 0
    violations: list = field(default_factory=list)
    tolerance: float = 1e-9

    @classmethod
    def open(cls, mesh: Mesh1D, state) -> "ConservationLedger":
        m, p, e = totals(mesh, state)
        ledger = cls(mass0=m, momentum0=p, energy0=e, mass=m, momentum=p, energy=e)
        ledger._update_scales(state)
        return ledger

    def _update_scales(self, state):
        mom = self.mass * state.max_speed
        self.momentum_scale = max(self.momentum_scale, mom,
                                  abs(self.impulse_left) + abs(self.impulse_right))
        self.energy_scale = max(self.energy_scale, abs(self.energy),
                                abs(self.work_left) + abs(self.work_right))

    # -- residuals ----------------------------------------------------------

    @property
    def mass_drift(self) -> float:
        return self.mass - self.mass0

    @property
    def boundary_impulse(self) -> float:
        return self.impulse_left + self.impulse_right

    @property
    def boundary_work(self) -> float:
        return self.work_left + self.work_right

    @property
    def momentum_residual(self) -> float:
        return (self.momentum - self.momentum0) - self.boundary_impulse

    @property
    def energy_residual(self) -> float:
        return (self.energy - self.energy0) - self.boundary_work

    @property
    def momentum_residual_rel(self) -> float:
        return abs(self.momentum_residual) / max(self.momentum_scale, 1e-300)

    @property
    def energy_residual_rel(self) -> float:
        return abs(self.energy_residual) / max(self.energy_scale, 1e-300)


def audit_step(ledger: ConservationLedger, mesh: Mesh1D, state,
               boundary: BoundaryFlux) -> ConservationLedger:
    """Fold one step's end state into the ledger and record any tolerance
    violation."""
    if len(state.rho) != mesh.n_cells:
        raise ValueError(f"state/mesh shape mismatch: {len(state.rho)} vs {mesh.n_cells}")
    ledger.impulse_left += boundary.impulse_left
    ledger.impulse_right += boundary.impulse_right
    ledger.work_left += boundary.work_left
    ledger.work_right += boundary.work_right
    ledger.mass, ledger.momentum, ledger.energy = totals(mesh, state)
    ledger.steps += 1
    ledger._update_scales(state)
    if (ledger.mass_drift != 0.0
            or ledger.momentum_residual_rel > ledger.tolerance
            or ledger.energy_residual_rel > ledger.tolerance):
        ledger.violations.append({
            "step": ledger.steps,
            "mass_drift": ledger.mass_drift,
            "momentum_residual_rel": ledger.momentum_residual_rel,
            "energy_residual_rel": ledger.energy_residual_rel,
        })
    return ledger


# -- entropy ------------------------------------------------------------------

def entropy_production_sgh(p, p_star, du):
    """Per-cell dissipation rate (P - P*)(u_right - u_left).

    Exactly zero wherever the velocity divergence is nonnegative, because the
    star pressure equals the cell pressure there.
    """
    return (np.asarray(p, float) - np.asarray(p_star, float)) * np.asarray(du, float)


def entropy_production_cch(p, d_left, d_right, p_star_right_side, p_star_left_side):
    """Per-cell dissipation rate from the two nodal star states and the jumps
    d_left = u - u* at the left node, d_right = u* - u at the right node.

    ``p_star_right_side[j]`` is the star pressure at node j as computed from
    the cell on its right; ``p_star_left_side[j]`` from the cell on its left,
    so each cell pairs with expressions in its own state, whose sign the
    nodal admissibility test guarantees."""
    p = np.asarray(p, float)
    return ((p - p_star_right_side[:-1]) * d_left
            + (p - p_star_left_side[1:]) * d_right)


class EntropyMonitor:
    """Tracks per-step entropy production against its scale."""

    def __init__(self):
        self.worst_normalized = 0.0
        self.violations = 0
        self.expansion_abs_max = 0.0

    def update(self, production: np.ndarray, scale: np.ndarray,
               expansion_mask: np.ndarray | None = None):
        """Fold in one step's production against its nonnegative scale."""
        if expansion_mask is not None:
            self.expansion_abs_max = max(self.expansion_abs_max, float(
                np.abs(production).max(where=expansion_mask, initial=0.0)))
        if _least(production) >= 0.0:  # no violation and no new worst; NaN falls through
            return
        scale = np.asarray(scale, float)
        self.violations += int(np.count_nonzero(production < -ENTROPY_TOL * scale))
        negative = (production < 0.0) & (scale > 0.0)
        worst = float(np.min(production[negative] / scale[negative], initial=0.0))
        self.worst_normalized = min(self.worst_normalized, worst)


# -- error norms and profile features ------------------------------------------

def l1_error(numerical, reference, cell_volumes) -> float:
    """Volume-weighted L1 difference, normalized by total volume."""
    q = np.asarray(numerical, float)
    r = np.asarray(reference, float)
    v = np.asarray(cell_volumes, float)
    return float(np.sum(v * np.abs(q - r)) / np.sum(v))


def convergence_order(n_values, errors) -> float:
    """Least-squares order: minus the slope of log(error) against log(N)."""
    n = np.asarray(n_values, float)
    e = np.asarray(errors, float)
    if len(set(n.tolist())) < 2:
        raise ValueError("a convergence order needs at least two distinct resolutions")
    if np.any(e <= 0.0):
        raise ValueError("errors must be positive for a log-log fit")
    slope = np.polyfit(np.log(n), np.log(e), 1)[0]
    return float(-slope)
