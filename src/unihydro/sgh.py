"""Staggered-grid Lagrangian stepper.

Per step: star pressures per cell from the velocity jump, the dual-cell force
of Newton's second law, time-centered node velocities, and a predictor pass
(optionally followed by a corrector pass that re-evaluates the star pressures
on the provisional state): their average sets the force, ghost pressures, energy
update and boundary flux, which conserves energy (Caramana et al., J. Comput.
Phys. 146, 1998), and is audited as (P - P*) Delta u*: unlike the predictor's
(P - P*) du^n, not nonnegative by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closure
from . import mesh as mesh_mod
from .diagnostics import BoundaryFlux, entropy_production_sgh
from .eos import HALF, IdealGas
from .mesh import Mesh1D, SghState
from .problems import BoundaryCondition

__all__ = ["SghStepReport", "step"]

MODES = ("predictor_only", "predictor_corrector")


@dataclass
class SghStepReport:
    du: np.ndarray                  # velocity jumps the predictor's star pressures saw
    p_star: np.ndarray              # per-cell star pressure the update used
    u_star: np.ndarray              # per-node time-centered velocity (last pass)
    entropy_production: np.ndarray  # (P - P*) du^n, or (P - P*) Delta u* if corrected
    p_start: np.ndarray             # P^n, the cell pressures at t^n
    boundary: BoundaryFlux

    @property
    def entropy_scale(self) -> np.ndarray:   # P^n |du^n|, formed when read
        return self.p_start * np.abs(self.du)


def _ghost_pressure(bc: BoundaryCondition, p_star_edge: float) -> float:
    """Pressure applied at an open boundary node; one rule for either side.

    Transmissive copies the adjacent cell's star pressure (a ghost cell in the
    same state of compression), so the boundary node feels no net force and
    coasts; copying the raw cell pressure instead would let compressive
    transients decelerate the node without any way to push it back, slowly
    bleeding momentum out of inflow regions. Velocity boundaries get the
    adjacent star pressure too: the prescription sets the node's velocity.
    """
    if bc.kind == "prescribed_pressure":
        return float(bc.value)
    return float(p_star_edge)


def _side_flux(bc: BoundaryCondition, sign: float, dt: float, p_bnd: float, u_star_edge: float,
               m_edge: float, u_old_edge: float, u_new_edge: float) -> tuple[float, float]:
    """Momentum and energy entering the system through one boundary; ``sign``
    is +1 on the left and -1 on the right, so one rule serves both sides.

    Every boundary pushes with its ghost pressure. A velocity prescription acts
    as a constraint: it also supplies whatever momentum/energy the prescribed
    motion of the boundary node itself carries.
    """
    impulse = sign * dt * p_bnd
    work = impulse * u_star_edge
    if bc.velocity is not None:
        impulse += m_edge * (u_new_edge - u_old_edge)
        work += 0.5 * m_edge * (u_new_edge ** 2 - u_old_edge ** 2)
    return float(impulse), float(work)


def step(state: SghState, mesh: Mesh1D, gas: IdealGas, dt: float,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         mode: str = "predictor_only", floors=(0.0, 0.0), workspace=None):
    """Advance one time step in the requested mode.

    Each pass takes its star pressures from the state it works on (the state at t^n,
    then the provisional one) and advances velocities, energy and positions a full dt
    from t^n. The end state must pass ``mesh.cell_thermo`` with ``floors``, the provisional
    state of a corrected step without. Temporaries go into ``workspace``, a ``mesh.Workspace``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    t0, t1, p_mean = (workspace or mesh_mod.Workspace(len(state.rho))).cells[:3]
    k = gas.factors[2]
    u_n, m_node, m_cell = state.node_u, mesh.node_mass, mesh.cell_mass
    work, p_pred = state, None
    for pass_floors in (floors,) if mode == "predictor_only" else ((0.0, 0.0), floors):
        du = work.node_u[1:] - work.node_u[:-1]
        p_star = closure.sgh_star_pressure(work.rho, work.c, work.p, du, k, (t0, t1))
        if p_pred is None:
            du_pred, p_pred, p_cell = du, p_star, state.p
        else:   # the corrector: the two passes' average pressure acts in every update
            p_star = np.multiply(HALF, np.add(p_star, p_pred, p_star), p_star)
            p_cell = np.multiply(HALF, np.add(work.p, state.p, p_mean), p_mean)
        p_bnd_l = _ghost_pressure(bc_left, p_star[0])
        p_bnd_r = _ghost_pressure(bc_right, p_star[-1])
        u_star = np.empty(len(u_n))   # first the force on each dual cell; the ends see the ghosts
        u_star[0], u_star[-1] = p_bnd_l - p_star[0], p_star[-1] - p_bnd_r
        np.subtract(p_star[:-1], p_star[1:], out=u_star[1:-1])
        np.add(u_n, np.multiply(0.5 * dt, np.divide(u_star, m_node, u_star), u_star), u_star)
        u_new = np.add(u_star, u_star)   # u* = u^n + 0.5 dt (force / m), u_new = 2 u* - u^n
        # (u* + u* is 2 u* exactly, with no constant operand)
        u_new -= u_n
        if bc_left.velocity is not None:
            u_star[0] = u_new[0] = bc_left.velocity
        if bc_right.velocity is not None:
            u_star[-1] = u_new[-1] = bc_right.velocity

        du_star = np.subtract(u_star[1:], u_star[:-1], t0)
        de = np.multiply(np.multiply(np.divide(dt, m_cell, t1), p_star, t1), du_star, t1)
        eps_new = state.eps - de   # eps^n - (dt/m) P* Delta u*
        new_mesh = mesh_mod.update_geometry(mesh, u_star, dt)
        rho_new = m_cell / new_mesh.cell_volumes
        p_new, c_new = mesh_mod.cell_thermo(gas, rho_new, eps_new, pass_floors)
        work = SghState(u_new, rho_new, eps_new, p_new, c_new)

    il, wl = _side_flux(bc_left, +1.0, dt, p_bnd_l, u_star[0], m_node[0], u_n[0], u_new[0])
    ir, wr = _side_flux(bc_right, -1.0, dt, p_bnd_r, u_star[-1], m_node[-1], u_n[-1],
                        u_new[-1])
    du_audit = du_pred if mode == "predictor_only" else du_star
    report = SghStepReport(du_pred, p_star, u_star,
                           entropy_production_sgh(p_cell, p_star, du_audit),
                           state.p, BoundaryFlux(il, ir, wl, wr))
    return new_mesh, work, report
