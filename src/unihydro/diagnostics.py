"""Runtime audits: conservation ledger, entropy monitoring, error norms.

The steppers report their boundary fluxes each step; the ledger checks that
total momentum and energy drift only by the accumulated boundary impulse and
work, and that total mass never changes at all. Mass is checked by structure:
a step whose mesh carries the opening mesh's read-only ``cell_mass`` array has
the opening mass, which is summed once per run; any other mesh is summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh1D, _least, _sum

__all__ = [
    "BoundaryFlux", "ConservationLedger", "EntropyMonitor",
    "audit_step",
    "entropy_production_sgh", "entropy_production_cch",
    "l1_error", "convergence_order",
]

ENTROPY_TOL = 1e-12
CONSERVATION_TOL = 1e-9   # relative momentum/energy residual the audit allows


@dataclass   # built once a step and never written after: a frozen __init__ costs 3x
class BoundaryFlux:
    """Signed per-step contributions of the two boundaries to the totals."""

    impulse_left: float = 0.0
    impulse_right: float = 0.0
    work_left: float = 0.0
    work_right: float = 0.0


@dataclass
class ConservationLedger:
    mass0: float
    momentum0: float
    energy0: float
    work: tuple = field(repr=False, compare=False)   # the buffers of the totals' products
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
    # the relative momentum and energy residuals, set by each fold
    momentum_residual_rel: float = field(default=0.0, init=False)
    energy_residual_rel: float = field(default=0.0, init=False)
    cell_mass: np.ndarray = field(default=None, repr=False, compare=False)  # mass0's array

    @classmethod
    def open(cls, mesh: Mesh1D, state) -> "ConservationLedger":
        work = (np.empty((2, mesh.n_cells)), np.empty(mesh.n_cells + 1))
        m = float(_sum(mesh.cell_mass))
        p, e = state.totals(mesh, work)
        ledger = cls(mass0=m, momentum0=p, energy0=e, mass=m, momentum=p, energy=e,
                     work=work, cell_mass=mesh.cell_mass)
        ledger._fold(state.max_speed)
        return ledger

    def _fold(self, max_speed: float):
        """Raise the scales to the current totals and fluxes, and set the
        relative momentum and energy residuals against them: the drift of a
        total less what the two boundaries put in, over the scale."""
        il, ir, wl, wr = self.impulse_left, self.impulse_right, self.work_left, self.work_right
        momentum_scale = self.momentum_scale = max(
            self.momentum_scale, self.mass * max_speed, abs(il) + abs(ir))
        energy_scale = self.energy_scale = max(
            self.energy_scale, abs(self.energy), abs(wl) + abs(wr))
        self.momentum_residual_rel = (abs((self.momentum - self.momentum0) - (il + ir))
                                      / max(momentum_scale, 1e-300))
        self.energy_residual_rel = (abs((self.energy - self.energy0) - (wl + wr))
                                    / max(energy_scale, 1e-300))

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
    masses = mesh.cell_mass
    if masses is ledger.cell_mass and not masses.flags.writeable:
        mass = ledger.mass0   # the opening masses, unchanged: the same sum
    else:
        mass = float(_sum(masses))
    ledger.mass = mass
    ledger.momentum, ledger.energy = state.totals(mesh, ledger.work)
    ledger.steps += 1
    ledger._fold(state.max_speed)
    mass_drift = mass - ledger.mass0
    if (mass_drift != 0.0 or not ledger.momentum_residual_rel <= CONSERVATION_TOL
            or not ledger.energy_residual_rel <= CONSERVATION_TOL):   # NaN is a violation
        ledger.violations.append({
            "step": ledger.steps,
            "mass_drift": mass_drift,
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
    production = np.subtract(p, p_star, dtype=float)
    production *= du
    return production


def entropy_production_cch(p, d_left, d_right, p_star_right_side, p_star_left_side, t):
    """Per-cell dissipation rate from the two nodal star states and the jumps
    d_left = u - u* at the left node, d_right = u* - u at the right node.

    ``p_star_right_side[j]`` is the star pressure at node j as computed from
    the cell on its right; ``p_star_left_side[j]`` from the cell on its left,
    so each cell pairs with expressions in its own state, whose sign the
    nodal admissibility test guarantees. ``t`` is a buffer for the right term."""
    production = np.subtract(p, p_star_right_side[:-1], dtype=float)
    production *= d_left
    production += np.multiply(np.subtract(p, p_star_left_side[1:], t), d_right, t)
    return production


class EntropyMonitor:
    """Tracks per-step entropy production against its scale."""

    def __init__(self):
        self.worst_normalized = 0.0
        self.violations = 0

    def update(self, report):
        """Fold in a step report's ``entropy_production`` against its nonnegative
        ``entropy_scale``, which is read only when some production is negative."""
        production = report.entropy_production
        if _least(production) >= 0.0:  # no violation and no new worst; NaN falls through
            return
        scale = np.asarray(report.entropy_scale, float)
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
