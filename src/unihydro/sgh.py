"""Staggered-grid Lagrangian stepper.

Per step: star pressures per cell from the velocity jump, the dual-cell force
of Newton's second law, time-centered node velocities, and a predictor pass
(optionally followed by a corrector pass that re-evaluates the star pressures
on the provisional state and averages the two in the internal-energy update).
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

__all__ = ["SghStepReport", "step"]

MODES = ("predictor_only", "predictor_corrector")


@dataclass(frozen=True)
class SghStepReport:
    du: np.ndarray                  # velocity jumps the predictor's star pressures saw
    p_star: np.ndarray              # per-cell star pressure (last pass)
    u_star: np.ndarray              # per-node time-centered velocity (last pass)
    entropy_production: np.ndarray  # summed over passes
    entropy_scale: np.ndarray       # P^n |du|
    expansion: np.ndarray | None    # du >= 0 after the predictor, None after the corrector
    boundary: BoundaryFlux


def _ghost_pressure(bc: BoundaryCondition, p_star_edge: float) -> float:
    """Pressure applied at an open boundary node; one rule for either side.

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
    """Momentum and energy entering the system through one boundary; ``sign``
    is +1 on the left and -1 on the right, so one rule serves both sides.

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


def step(state: SghState, mesh: Mesh1D, gas: IdealGas, dt: float,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         mode: str = "predictor_only", floors=(0.0, 0.0)):
    """Advance one time step in the requested mode.

    Each pass takes its star pressures from the state it works on (the state
    at t^n, then the provisional one) and advances velocities, energy and
    positions a full dt from t^n. The end state must pass ``mesh.cell_thermo``
    with ``floors``, the provisional state of a corrected step without.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    u_n, m_node, m_cell = state.node_u, mesh.node_mass, mesh.cell_mass
    work, p_pred = state, None
    for pass_floors in (floors,) if mode == "predictor_only" else ((0.0, 0.0), floors):
        du = work.node_u[1:] - work.node_u[:-1]
        p_star = closure.sgh_star_pressure(work.rho, work.c, work.p, du, gas.gamma)
        p_bnd_l = _ghost_pressure(bc_left, p_star[0])
        p_bnd_r = _ghost_pressure(bc_right, p_star[-1])
        force = np.empty(len(u_n))   # on each dual cell; the ends see the ghost pressures
        force[0], force[-1] = p_bnd_l - p_star[0], p_star[-1] - p_bnd_r
        np.subtract(p_star[:-1], p_star[1:], out=force[1:-1])

        u_star = u_n + 0.5 * dt * (force / m_node)
        u_new = 2.0 * u_star - u_n
        if bc_left.velocity is not None:
            u_star[0] = u_new[0] = bc_left.velocity
        if bc_right.velocity is not None:
            u_star[-1] = u_new[-1] = bc_right.velocity

        p_energy = p_star if p_pred is None else 0.5 * (p_star + p_pred)
        eps_new = state.eps - (dt / m_cell) * p_energy * (u_star[1:] - u_star[:-1])
        new_mesh = mesh_mod.update_geometry(mesh, u_star, dt)
        rho_new = m_cell / new_mesh.cell_volumes
        p_new, c_new = mesh_mod.cell_thermo(gas, rho_new, eps_new, pass_floors)
        produced = entropy_production_sgh(work.p, p_star, du)
        if p_pred is None:
            du_pred, p_pred, production = du, p_star, produced
        else:
            production = production + produced
        work = SghState(u_new, rho_new, eps_new, p_new, c_new)

    il, wl = _side_flux(bc_left, +1.0, dt, p_bnd_l, p_star[0], u_star[0],
                        m_node[0], u_n[0], u_new[0])
    ir, wr = _side_flux(bc_right, -1.0, dt, p_bnd_r, p_star[-1], u_star[-1],
                        m_node[-1], u_n[-1], u_new[-1])
    expansion = du_pred >= 0.0 if mode == "predictor_only" else None
    report = SghStepReport(du_pred, p_star, u_star, production, state.p * np.abs(du_pred),
                           expansion, BoundaryFlux(il, ir, wl, wr))
    return new_mesh, work, report
