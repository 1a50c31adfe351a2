"""Cell-centered Lagrangian stepper.

Every node gets a single star velocity and star pressure from a force balance
of the two adjacent cells (acoustic or quadratic solver); a forward-Euler
update then advances momentum, total energy, and the node positions. Sharing
one star state per node is what makes the interior fluxes cancel exactly.

With the quadratic solver, a node whose quadratic root is rejected is solved
once, by the two-shock solve of ``closure._two_shock_kernel`` instead of the
plain acoustic values: a linear force balance that keeps the ``k rho d^2``
compression term on a compressed side. Wall and prescribed-velocity boundary
nodes follow the same rule. Such nodes are tagged ACOUSTIC (quadratic root
rejected). The quadratic solve (``closure``) finds delta = u* - u_ac, the
correction to the acoustic guess, as -2 C' / (B' + sign(B') sqrt(D)): it is
continuous through A = 0, so it needs no |A| ~ 0 band, and exactly mirror
symmetric. It writes straight into the N+1 nodal arrays.

The impedance rho c and k rho are formed once per cell a step, and both sides of
every node, and the boundary nodes, read views of them. The velocity and total
energy are the two rows of one (2, N) array (``CchState.uE``): the update forms
dt/m (F_L - F_R), F = (p*, p* u*), row by row into a new one and adds the old
(u, E) in one 2-D pass, and the ledger takes one product and one row-sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closure
from . import mesh as mesh_mod
from .closure import ACOUSTIC, QUADRATIC, SOLVERS
from .diagnostics import BoundaryFlux, entropy_production_cch
from .eos import HALF, IdealGas
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


@dataclass
class CchStepReport:
    nodal: NodalField
    entropy_production: np.ndarray
    start: CchState                 # the state at t^n
    boundary: BoundaryFlux

    @property
    def entropy_scale(self) -> np.ndarray:   # P^n (|u - u*_L| + |u*_R - u|), formed when read
        u, us = self.start.u, self.nodal.u_star
        return self.start.p * (np.abs(u - us[:-1]) + np.abs(us[1:] - u))


def _boundary_node(bc: BoundaryCondition, end: int, z, krho, c, p, u, k, solver: str):
    """(u_star, ps_left, ps_right, order) for the boundary node of the cell ``end``
    (0 for the left end, -1 for the right) of the per-cell arrays z = rho c, k rho
    (read by the quadratic solver only), c, p and u.

    With a prescribed velocity the quadratic one-sided relation is kept when its
    admissibility bound holds. Otherwise a compressed cell gets the two-shock
    relation, which is the same ``linear + k rho d^2`` with impedance z + k rho |d|,
    and an expanding one the linear relation; either way the boundary entropy
    contribution stays nonnegative.
    """
    if bc.kind == "transmissive":
        # identical ghost state: the star state is the cell state exactly
        return u[end], p[end], p[end], ACOUSTIC
    ze, pe, ue = z[end], p[end], u[end]
    if bc.velocity is None:
        # prescribed pressure: invert the linear one-sided relation for u*
        sgn = 1.0 if end == 0 else -1.0
        ub = ue + sgn * (float(bc.value) - pe) / ze
        return ub, float(bc.value), float(bc.value), ACOUSTIC
    d = ue - bc.velocity if end == 0 else bc.velocity - ue   # < 0 compresses the cell
    quadratic = solver != "acoustic"
    accepted = quadratic and closure._admissible(c[end], d, k)
    if accepted or (quadratic and d < 0.0):
        ps = closure.star_pressure(pe, ze, krho[end], d)
    else:
        ps = pe - ze * d
    return bc.velocity, ps, ps, QUADRATIC if accepted else ACOUSTIC


def solve_all_nodes(state: CchState, gas: IdealGas, bc_left: BoundaryCondition,
                    bc_right: BoundaryCondition, solver: str = "quadratic", *,
                    workspace) -> NodalField:
    """Star states at every node: ``closure.solve_nodes`` inside, boundary rules at
    the two ends. z = rho c and k rho are formed once per cell, into the last two
    ``cells`` buffers of ``workspace``, and the nodal solve works in its ``faces``.
    The acoustic solver gives one pressure per node, so its field holds one array
    as both sides' pressures."""
    rho, c, p, u = state.rho, state.c, state.p, state.uE[0]
    n_nodes = len(rho) + 1
    u_star, psl, order = np.empty(n_nodes), np.empty(n_nodes), np.empty(n_nodes, dtype=np.int8)
    psr = psl if solver == "acoustic" else np.empty(n_nodes)
    k, (z, krho) = gas.factors[2], workspace.cells[4:]
    np.multiply(rho, c, z)
    if psr is not psl:   # only the quadratic solve reads k rho
        np.multiply(k, rho, krho)
    inner = psl[1:-1]
    closure.solve_nodes(z[:-1], krho[:-1], c[:-1], p[:-1], u[:-1],
                        z[1:], krho[1:], c[1:], p[1:], u[1:], k, solver,
                        out=(u_star[1:-1], inner, inner if psr is psl else psr[1:-1], order[1:-1]),
                        workspace=workspace)
    u_star[0], psl[0], psr[0], order[0] = _boundary_node(bc_left, 0, z, krho, c, p, u, k, solver)
    u_star[-1], psl[-1], psr[-1], order[-1] = _boundary_node(bc_right, -1, z, krho, c, p, u, k,
                                                             solver)
    return NodalField(u_star, psl, psr, order)


def step(state: CchState, mesh: Mesh1D, gas: IdealGas, dt: float,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         solver: str = "quadratic", floors=(0.0, 0.0), workspace=None):
    """One forward-Euler step of the conservative update; ``floors`` and
    ``workspace`` as in ``sgh.step``."""
    ws = workspace or mesh_mod.Workspace(len(state.rho))
    nodal = solve_all_nodes(state, gas, bc_left, bc_right, solver, workspace=ws)
    us, m, (dt_m, t, d_left, d_right) = nodal.u_star, mesh.cell_mass, ws.cells[:4]
    psl, psr = nodal.p_star_left, nodal.p_star_right
    # one array is its own mean: 0.5 (x + x) is x
    ps = psl if psl is psr else np.multiply(HALF, np.add(psl, psr, ws.nodes[0]), ws.nodes[0])
    pu = np.multiply(ps, us, ws.nodes[1])
    np.divide(dt, m, dt_m)

    # (u, E) + dt/m (flux_L - flux_R), flux = (p*, p* u*), row by row: a strided 2-D
    # difference, or dt/m broadcast over two rows, takes numpy's slower iterator path
    uE = np.empty((2, len(m)))
    u_new, E_new = uE[0], uE[1]
    np.multiply(dt_m, np.subtract(ps[:-1], ps[1:], u_new), u_new)
    np.multiply(dt_m, np.subtract(pu[:-1], pu[1:], E_new), E_new)
    uE += state.uE
    new_mesh = mesh_mod.update_geometry(mesh, us, dt)
    rho_new = m / new_mesh.cell_volumes
    eps_new = E_new - np.multiply(HALF, np.square(u_new, t), t)
    new_state = CchState(rho_new, uE, eps_new,
                         *mesh_mod.cell_thermo(gas, rho_new, eps_new, floors))

    u = state.uE[0]
    production = entropy_production_cch(  # d_left = u - u*_L, d_right = u*_R - u
        state.p, np.subtract(u, us[:-1], d_left), np.subtract(us[1:], u, d_right), psr, psl, t)
    p0, pn, u0, un = float(ps[0]), float(ps[-1]), float(us[0]), float(us[-1])
    boundary = BoundaryFlux(impulse_left=dt * p0, impulse_right=-dt * pn,
                            work_left=dt * p0 * u0, work_right=-dt * pn * un)
    return new_mesh, new_state, CchStepReport(nodal, production, state, boundary)
