"""Cell-centered Lagrangian stepper.

Every node gets a single star velocity and star pressure from a force balance
of the two adjacent cells (acoustic or quadratic solver); a forward-Euler
update then advances momentum, total energy, and the node positions. Sharing
one star state per node is what makes the interior fluxes cancel exactly.

With the quadratic solver, a node whose quadratic root is rejected gets the
two-shock solve of ``closure._two_shock_kernel`` instead of the plain acoustic
values: a linear force balance that keeps the ``k rho d^2`` compression term
on a compressed side. Wall and prescribed-velocity boundary nodes follow the
same rule. Such nodes are tagged ACOUSTIC (quadratic root rejected).
The quadratic solve (``closure``) finds delta = u* - u_ac, the correction to the
acoustic guess, as -2 C' / (B' + sign(B') sqrt(D)): continuous through A = 0, so
no |A| ~ 0 band on its fast path. It writes straight into the N+1 nodal arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closure
from . import mesh as mesh_mod
from .closure import ACOUSTIC, QUADRATIC, SOLVERS
from .diagnostics import BoundaryFlux, entropy_production_cch
from .eos import IdealGas
from .mesh import CchState, Mesh1D
from .problems import BoundaryCondition

__all__ = ["NodalField", "CchStepReport", "solve_all_nodes", "step"]


@dataclass(eq=False)
class NodalField:
    """Star states for all N+1 nodes (struct of arrays)."""

    u_star: np.ndarray
    p_star_left: np.ndarray    # from the left cell's one-sided relation
    p_star_right: np.ndarray   # from the right cell's one-sided relation
    order: np.ndarray          # ACOUSTIC or QUADRATIC per node

    @property
    def p_star(self) -> np.ndarray:
        """Single nodal star pressure shared by both neighbors."""
        return 0.5 * (self.p_star_left + self.p_star_right)


@dataclass(frozen=True)
class CchStepReport:
    nodal: NodalField
    entropy_production: np.ndarray
    entropy_scale: np.ndarray       # P^n (|u - u*_L| + |u*_R - u|)
    boundary: BoundaryFlux
    expansion: np.ndarray | None = None  # None: expanding cells produce entropy too


def _boundary_node(bc: BoundaryCondition, rho, c, p, u, gamma: float,
                   solver: str, side: str):
    """(u_star, ps_left, ps_right, order) for one boundary node.

    ``side`` says which side of the cell the node sits on. With a prescribed
    velocity the quadratic one-sided relation is kept when its admissibility
    bound holds. Otherwise a compressed cell gets the two-shock relation, which
    is the same ``linear + k rho d^2`` with impedance z + k rho |d|, and an
    expanding one the linear relation; either way the boundary entropy
    contribution stays nonnegative.
    """
    if bc.kind == "transmissive":
        # identical ghost state: the star state is the cell state exactly
        return u, p, p, ACOUSTIC
    z = rho * c
    if bc.velocity is None:
        # prescribed pressure: invert the linear one-sided relation for u*
        sgn = 1.0 if side == "left" else -1.0
        ub = u + sgn * (float(bc.value) - p) / z
        return ub, float(bc.value), float(bc.value), ACOUSTIC
    d = u - bc.velocity if side == "left" else bc.velocity - u   # < 0 compresses the cell
    k = 0.5 * (gamma + 1.0)
    quadratic = solver != "acoustic"
    accepted = quadratic and closure._admissible(c, d, k)
    if accepted or (quadratic and d < 0.0):
        ps = closure.star_pressure(p, z, rho, d, k)
    else:
        ps = p - z * d
    return bc.velocity, ps, ps, QUADRATIC if accepted else ACOUSTIC


def solve_all_nodes(state: CchState, gas: IdealGas, bc_left: BoundaryCondition,
                    bc_right: BoundaryCondition, solver: str = "quadratic") -> NodalField:
    """Star states at every node: ``closure.solve_nodes`` inside, boundary
    rules at the two ends."""
    n_nodes = len(state.rho) + 1
    u_star, psl, psr = np.empty(n_nodes), np.empty(n_nodes), np.empty(n_nodes)
    order = np.empty(n_nodes, dtype=np.int8)
    closure.solve_nodes(state.rho[:-1], state.c[:-1], state.p[:-1], state.u[:-1],
                        state.rho[1:], state.c[1:], state.p[1:], state.u[1:], gas.gamma,
                        solver, out=(u_star[1:-1], psl[1:-1], psr[1:-1], order[1:-1]))
    u_star[0], psl[0], psr[0], order[0] = _boundary_node(
        bc_left, state.rho[0], state.c[0], state.p[0], state.u[0], gas.gamma, solver, "left")
    u_star[-1], psl[-1], psr[-1], order[-1] = _boundary_node(
        bc_right, state.rho[-1], state.c[-1], state.p[-1], state.u[-1], gas.gamma, solver, "right")
    return NodalField(u_star, psl, psr, order)


def step(state: CchState, mesh: Mesh1D, gas: IdealGas, dt: float,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         solver: str = "quadratic", floors=(0.0, 0.0)):
    """One forward-Euler step of the conservative update; ``floors`` as in ``sgh.step``."""
    nodal = solve_all_nodes(state, gas, bc_left, bc_right, solver)
    ps = nodal.p_star
    us = nodal.u_star
    m = mesh.cell_mass
    dt_m = dt / m

    work = ps * us
    u_new = state.u + dt_m * (ps[:-1] - ps[1:])
    E_new = state.E + dt_m * (work[:-1] - work[1:])
    new_mesh = mesh_mod.update_geometry(mesh, us, dt)
    rho_new = m / new_mesh.cell_volumes
    eps_new = E_new - 0.5 * u_new ** 2
    new_state = CchState(rho_new, u_new, E_new, eps_new,
                         *mesh_mod.cell_thermo(gas, rho_new, eps_new, floors))

    d_left, d_right = state.u - us[:-1], us[1:] - state.u
    production = entropy_production_cch(state.p, d_left, d_right,
                                        nodal.p_star_right, nodal.p_star_left)
    p0, pn, u0, un = float(ps[0]), float(ps[-1]), float(us[0]), float(us[-1])
    flux = BoundaryFlux(impulse_left=dt * p0, impulse_right=-dt * pn,
                        work_left=dt * p0 * u0, work_right=-dt * pn * un)
    scale = state.p * (np.abs(d_left) + np.abs(d_right))
    report = CchStepReport(nodal, production, scale, flux)
    return new_mesh, new_state, report
