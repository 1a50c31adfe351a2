"""Staggered-grid Lagrangian stepper.

Per step: star pressures per cell from the velocity jump, nodal accelerations
from Newton's second law on the dual cells, time-centered node velocities, and
a predictor (optionally followed by a corrector that averages the two star
pressures in the internal-energy update).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closure
from . import mesh as mesh_mod
from .diagnostics import BoundaryFlux, entropy_production_sgh
from .eos import IdealGas
from .mesh import Mesh1D, SghState
from .problems import BoundaryCondition

__all__ = ["SghStepReport", "nodal_acceleration", "half_step_velocity",
           "predictor_step", "corrector_step", "step"]

MODES = ("predictor_only", "predictor_corrector")


@dataclass(frozen=True)
class SghStepReport:
    du: np.ndarray                  # velocity jumps the star pressures saw
    p_star: np.ndarray              # per-cell star pressure (last pass)
    u_star: np.ndarray              # per-node time-centered velocity (last pass)
    entropy_production: np.ndarray  # summed over passes
    entropy_scale: np.ndarray       # P^n |du|
    expansion: np.ndarray | None    # du >= 0 after the predictor, None after the corrector
    boundary: BoundaryFlux


def nodal_acceleration(p_star, node_mass, p_bnd_left: float, p_bnd_right: float):
    """Newton's law on each dual cell: alpha_j = (P*_left - P*_right) / m_j.

    The boundary nodes see the supplied ghost pressures on their open side.
    """
    p_star = np.asarray(p_star, float)
    force = np.empty(len(p_star) + 1)
    force[0], force[-1] = p_bnd_left - p_star[0], p_star[-1] - p_bnd_right
    np.subtract(p_star[:-1], p_star[1:], out=force[1:-1])
    return force / np.asarray(node_mass, float)


def half_step_velocity(u_n, accel, dt: float):
    """Time-centered node velocity u* = u^n + (dt/2) alpha."""
    return np.asarray(u_n, float) + 0.5 * dt * np.asarray(accel, float)


def _ghost_pressure(bc: BoundaryCondition, p_star_edge: float) -> float:
    """Pressure applied at an open boundary node.

    Transmissive copies the adjacent cell's star pressure (a ghost cell in the
    same state of compression), so the boundary node feels no net force and
    coasts; copying the raw cell pressure instead would let compressive
    transients decelerate the node without any way to push it back, slowly
    bleeding momentum out of inflow regions. Velocity boundaries get a
    placeholder that the prescription overrides.
    """
    if bc.kind == "prescribed_pressure":
        return float(bc.value)
    return float(p_star_edge)


def _side_flux(bc: BoundaryCondition, sign: float, dt: float, p_bnd: float,
               p_star_edge: float, u_star_edge: float, m_edge: float,
               u_old_edge: float, u_new_edge: float) -> tuple[float, float]:
    """Momentum and energy entering the system through one boundary.

    Pressure boundaries push with the ghost pressure. A velocity prescription
    acts as a constraint: it absorbs the adjacent star pressure and whatever
    momentum/energy the prescribed motion itself carries.
    """
    if bc.velocity is not None:
        impulse = sign * dt * p_star_edge + m_edge * (u_new_edge - u_old_edge)
        work = (sign * dt * p_star_edge * u_star_edge
                + 0.5 * m_edge * (u_new_edge ** 2 - u_old_edge ** 2))
    else:
        impulse = sign * dt * p_bnd
        work = sign * dt * p_bnd * u_star_edge
    return float(impulse), float(work)


def _advance(base_state: SghState, base_mesh: Mesh1D, work_state: SghState,
             gas: IdealGas, dt: float, bc_left: BoundaryCondition,
             bc_right: BoundaryCondition, floors, p_energy_extra=None):
    """One pass of the scheme.

    Star pressures and accelerations come from ``work_state``; velocities and
    positions advance from ``base_state``/``base_mesh``. When
    ``p_energy_extra`` (the previous pass's star pressures) is given, the
    internal-energy update uses the average of the two passes.
    """
    u_work = work_state.node_u
    du = u_work[1:] - u_work[:-1]
    p_star = closure.sgh_star_pressure(work_state.rho, work_state.c,
                                       work_state.p, du, gas.gamma)
    p_bnd_l = _ghost_pressure(bc_left, p_star[0])
    p_bnd_r = _ghost_pressure(bc_right, p_star[-1])
    alpha = nodal_acceleration(p_star, base_mesh.node_mass, p_bnd_l, p_bnd_r)

    u_n = base_state.node_u
    u_star = half_step_velocity(u_n, alpha, dt)
    u_new = 2.0 * u_star - u_n
    if bc_left.velocity is not None:
        u_star[0] = u_new[0] = bc_left.velocity
    if bc_right.velocity is not None:
        u_star[-1] = u_new[-1] = bc_right.velocity

    p_energy = p_star if p_energy_extra is None else 0.5 * (p_star + p_energy_extra)
    eps_new = base_state.eps - (dt / base_mesh.cell_mass) * p_energy * (u_star[1:] - u_star[:-1])
    new_mesh = mesh_mod.update_geometry(base_mesh, u_star, dt)
    rho_new = base_mesh.cell_mass / new_mesh.cell_volumes
    p_new, c_new = mesh_mod.cell_thermo(gas, rho_new, eps_new, floors)
    new_state = SghState(u_new, rho_new, eps_new, p_new, c_new)

    il, wl = _side_flux(bc_left, +1.0, dt, p_bnd_l, p_star[0], u_star[0],
                        base_mesh.node_mass[0], u_n[0], u_new[0])
    ir, wr = _side_flux(bc_right, -1.0, dt, p_bnd_r, p_star[-1], u_star[-1],
                        base_mesh.node_mass[-1], u_n[-1], u_new[-1])
    flux = BoundaryFlux(il, ir, wl, wr)
    production = entropy_production_sgh(work_state.p, p_star, du)
    return new_mesh, new_state, p_star, u_star, du, production, flux


def predictor_step(state: SghState, mesh: Mesh1D, gas: IdealGas, dt: float,
                   bc_left: BoundaryCondition, bc_right: BoundaryCondition, floors=(0.0, 0.0)):
    """First pass: everything evaluated at t^n, advanced a full dt with
    time-centered velocities."""
    new_mesh, new_state, p_star, u_star, du, production, flux = _advance(
        state, mesh, state, gas, dt, bc_left, bc_right, floors)
    report = SghStepReport(du, p_star, u_star, production, state.p * np.abs(du),
                           du >= 0.0, flux)
    return new_mesh, new_state, report


def corrector_step(state_n: SghState, mesh_n: Mesh1D, provisional: SghState,
                   gas: IdealGas, dt: float, bc_left: BoundaryCondition,
                   bc_right: BoundaryCondition, predictor_report: SghStepReport, floors=(0.0, 0.0)):
    """Second pass: star pressures re-evaluated on the provisional state; the
    energy update averages the two passes' star pressures."""
    new_mesh, new_state, p_star2, u_star2, du2, production2, flux = _advance(
        state_n, mesh_n, provisional, gas, dt, bc_left, bc_right, floors,
        p_energy_extra=predictor_report.p_star)
    production = predictor_report.entropy_production + production2
    report = SghStepReport(predictor_report.du, p_star2, u_star2, production,
                           predictor_report.entropy_scale, None, flux)
    return new_mesh, new_state, report


def step(state: SghState, mesh: Mesh1D, gas: IdealGas, dt: float,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         mode: str = "predictor_only", floors=(0.0, 0.0)):
    """Advance one time step in the requested mode. The end state must pass
    ``mesh.cell_thermo`` with ``floors``, the provisional state of a corrected step without."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "predictor_only":
        return predictor_step(state, mesh, gas, dt, bc_left, bc_right, floors)
    mesh1, provisional, report1 = predictor_step(state, mesh, gas, dt, bc_left, bc_right)
    return corrector_step(state, mesh, provisional, gas, dt, bc_left, bc_right, report1,
                          floors)
