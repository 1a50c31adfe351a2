"""1D Lagrangian grid: node coordinates and the frozen cell/node/sub-cell masses.

Masses are fixed at build time and shared (read-only) across all steps; density
is always recovered as mass / current volume, which conserves mass exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eos import IdealGas, ideal_pressure, ideal_sound_speed
from .errors import MeshTangled, SolverFailure

__all__ = ["Mesh1D", "SghState", "CchState", "cell_thermo", "update_geometry"]


# The value of a per-step min/max test, found by argmin/argmax: about 1 us where
# the ufunc reduction costs 2.5 us at the sizes most runs use. The first extreme
# or the first NaN comes back, so the value equals min/max (a -0.0/+0.0 tie may
# give +0.0): use them only where the value is compared or is a minimum of
# nonnegative ratios.
def _least(a: np.ndarray):
    return a[a.argmin()]


def _greatest(a: np.ndarray):
    return a[a.argmax()]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class Mesh1D:
    """Node positions plus constant Lagrangian masses.

    node_mass[j] = subcell_mass_right[j-1] + subcell_mass_left[j] for interior
    nodes; the boundary nodes carry a single sub-cell mass.
    """

    node_x: np.ndarray            # N+1 node positions
    cell_mass: np.ndarray         # N cell masses
    node_mass: np.ndarray         # N+1 dual-cell masses
    subcell_mass_left: np.ndarray   # N left sub-cell masses
    subcell_mass_right: np.ndarray  # N right sub-cell masses

    @property
    def n_cells(self) -> int:
        return len(self.cell_mass)

    @cached_property  # read-only, once per mesh; update_geometry sets those it checked
    def cell_volumes(self) -> np.ndarray:
        return _frozen(self.node_x[1:] - self.node_x[:-1])

    @property
    def cell_centers(self) -> np.ndarray:
        return 0.5 * (self.node_x[:-1] + self.node_x[1:])

    def validate(self):
        if np.any(np.diff(self.node_x) <= 0.0):
            raise MeshTangled("tangled mesh: node ordering violated")
        for name in ("cell_mass", "node_mass", "subcell_mass_left", "subcell_mass_right"):
            if np.any(getattr(self, name) <= 0.0):
                raise ValueError(f"{name} must be strictly positive")

    def replace_nodes(self, node_x: np.ndarray) -> "Mesh1D":
        """New mesh on ``node_x``, which it makes read-only; masses are shared."""
        return Mesh1D(_frozen(node_x), self.cell_mass,
                      self.node_mass, self.subcell_mass_left, self.subcell_mass_right)

    @classmethod
    def from_nodes(cls, node_x, cell_rho=1.0) -> "Mesh1D":
        """Mesh with masses computed from a per-cell density (scalar or array)."""
        node_x = _frozen(np.array(node_x, dtype=float))
        centers = 0.5 * (node_x[:-1] + node_x[1:])
        rho = np.broadcast_to(np.asarray(cell_rho, dtype=float), centers.shape)
        m_left = rho * (centers - node_x[:-1])
        m_right = rho * (node_x[1:] - centers)
        cell_mass = m_left + m_right
        node_mass = np.empty(len(node_x))
        node_mass[0] = m_left[0]
        node_mass[-1] = m_right[-1]
        node_mass[1:-1] = m_right[:-1] + m_left[1:]
        return cls(node_x, _frozen(cell_mass), _frozen(node_mass),
                   _frozen(m_left), _frozen(m_right))


@dataclass(eq=False)
class SghState:
    """Staggered fields: velocity at nodes, thermodynamics in cells."""

    node_u: np.ndarray  # N+1
    rho: np.ndarray     # N
    eps: np.ndarray     # N specific internal energy
    p: np.ndarray       # N
    c: np.ndarray       # N

    @property
    def cell_u(self) -> np.ndarray:
        return 0.5 * (self.node_u[:-1] + self.node_u[1:])

    @property
    def max_speed(self) -> float:
        return float(_greatest(np.abs(self.node_u)))

    def velocity_jumps(self) -> np.ndarray:
        """Per-cell velocity variation used to harden the CFL bound."""
        return np.abs(self.node_u[1:] - self.node_u[:-1])

    def total_momentum(self, mesh: Mesh1D) -> float:
        return float((mesh.node_mass * self.node_u).sum())

    def total_energy(self, mesh: Mesh1D) -> float:
        internal = (mesh.cell_mass * self.eps).sum()
        kinetic = 0.5 * (mesh.node_mass * self.node_u ** 2).sum()
        return float(internal + kinetic)


@dataclass(eq=False)
class CchState:
    """Cell-centered conserved fields; eps = E - u^2/2 is kept consistent."""

    rho: np.ndarray
    u: np.ndarray
    E: np.ndarray       # specific total energy
    eps: np.ndarray
    p: np.ndarray
    c: np.ndarray

    @property
    def cell_u(self) -> np.ndarray:
        return self.u

    @property
    def max_speed(self) -> float:
        return float(_greatest(np.abs(self.u)))

    def velocity_jumps(self) -> np.ndarray:
        """Largest velocity jump to either neighbor, per cell."""
        d = np.abs(self.u[1:] - self.u[:-1])
        jumps = np.empty(len(self.u))
        jumps[0], jumps[-1] = d[0], d[-1]
        np.maximum(d[:-1], d[1:], out=jumps[1:-1])
        return jumps

    def total_momentum(self, mesh: Mesh1D) -> float:
        return float((mesh.cell_mass * self.u).sum())

    def total_energy(self, mesh: Mesh1D) -> float:
        return float((mesh.cell_mass * self.E).sum())


def cell_thermo(gas: IdealGas, rho, eps, floors=(0.0, 0.0)):
    """(p, c) of updated cells after one test of three extrema: eps and rho above
    their ``floors`` (eps, rho; below 0 acts as 0), p finite. With both minima
    positive (NaN fails them), an infinite eps or rho makes p infinite, so this
    is the test that eps and rho are also finite. Only when it fails do the
    exact checks run, to name the first failure's cell."""
    rho, eps = np.asarray(rho, dtype=float), np.asarray(eps, dtype=float)
    p = ideal_pressure(gas.gamma, rho, eps)
    if (_least(eps) > max(floors[0], 0.0) and _least(rho) > max(floors[1], 0.0)
            and _greatest(p) < np.inf):
        return p, ideal_sound_speed(gas.gamma, rho, p)
    for bad, reason, field in ((~np.isfinite(eps), "non-finite internal energy", None),
                               (eps <= 0.0, "nonpositive internal energy", eps),
                               (~np.isfinite(rho), "non-finite density", None),
                               (rho <= 0.0, "nonpositive density", rho),
                               (~np.isfinite(p), "non-finite pressure", None),
                               (eps <= floors[0], "positivity floor hit", eps),
                               (rho <= floors[1], "positivity floor hit", rho)):
        if bad.any():  # the cell: the first bad one, or the field's minimum
            cell = np.argmax(bad) if field is None else np.argmin(field)
            raise SolverFailure(reason, cell=int(cell))


def update_geometry(mesh: Mesh1D, u_star: np.ndarray, dt: float) -> Mesh1D:
    """Move every node by its own star velocity; reject crossings."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    new_x = mesh.node_x + np.asarray(u_star, dtype=float) * dt
    volumes = new_x[1:] - new_x[:-1]
    if not _least(volumes) > 0.0 and np.any(volumes <= 0.0):  # NaN passes both tests
        raise MeshTangled("mesh tangling", cell=int(np.argmax(volumes <= 0.0)))
    moved = mesh.replace_nodes(new_x)
    moved.cell_volumes = _frozen(volumes)
    return moved
