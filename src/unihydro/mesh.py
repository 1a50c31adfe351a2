"""1D Lagrangian grid: node coordinates and the frozen cell and node masses.

Masses are fixed at build time and shared (read-only) across all steps; density
is always recovered as mass / current volume, which conserves mass exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eos import IdealGas, ideal_pressure, ideal_sound_speed
from .errors import MeshTangled, SolverFailure

__all__ = ["Mesh1D", "SghState", "CchState", "Workspace", "cell_thermo", "update_geometry"]


# The value of a per-step min/max test, found by argmin/argmax: about 1 us where
# the ufunc reduction costs 2.5 us at the sizes most runs use. The first extreme
# or the first NaN comes back, so the value equals min/max (a -0.0/+0.0 tie may
# give +0.0): use them only where the value is compared or is a minimum of
# nonnegative ratios.
def _least(a: np.ndarray):
    return a[a.argmin()]


def _greatest(a: np.ndarray):
    return a[a.argmax()]


def _largest_magnitude(a: np.ndarray) -> float:
    """max |a| without forming |a|: the abs makes -0.0 and -NaN positive."""
    return abs(float(max(-_least(a), _greatest(a))))


# ndarray.sum without its Python wrapper: the same pairwise sum, 0.1 us sooner.
_sum = np.add.reduce


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class Mesh1D:
    """Node positions plus constant Lagrangian masses.

    node_mass[j] is the mass of the half cells either side of node j; the
    boundary nodes carry a single half cell.
    """

    node_x: np.ndarray     # N+1 node positions
    cell_mass: np.ndarray  # N cell masses
    node_mass: np.ndarray  # N+1 dual-cell masses

    @property
    def n_cells(self) -> int:
        return len(self.cell_mass)

    @cached_property  # read-only, once per mesh; update_geometry sets those it checked
    def cell_volumes(self) -> np.ndarray:
        return _frozen(self.node_x[1:] - self.node_x[:-1])

    @cached_property  # read-only, once per run: update_geometry passes it on
    def cell_mass_pair(self) -> np.ndarray:
        """(2, N): ``cell_mass`` in both rows, the masses of the rows of ``CchState.uE``:
        the ledger's product with a (N,) operand broadcast over two rows takes numpy's
        buffered iterator, twice as slow at N = 100, with a buffer of 2 N floats."""
        return _frozen(np.array((self.cell_mass, self.cell_mass)))

    @property
    def cell_centers(self) -> np.ndarray:
        return 0.5 * (self.node_x[:-1] + self.node_x[1:])

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
        return cls(node_x, _frozen(cell_mass), _frozen(node_mass))


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
        return _largest_magnitude(self.node_u)

    def velocity_jumps(self, workspace) -> np.ndarray:
        """Per-cell velocity variation used to harden the CFL bound, written
        into the first ``cells`` buffer of ``workspace``."""
        jumps = np.subtract(self.node_u[1:], self.node_u[:-1], workspace.cells[0])
        return np.abs(jumps, jumps)

    def totals(self, mesh: Mesh1D, work) -> tuple[float, float]:
        """(momentum, energy), the products formed in ``work``: a (2, N) and an N + 1 buffer."""
        cells, nodes = work
        momentum = float(_sum(np.multiply(mesh.node_mass, self.node_u, nodes)))
        internal = float(_sum(np.multiply(mesh.cell_mass, self.eps, cells[0])))
        kinetic = np.square(self.node_u, nodes)
        return momentum, internal + 0.5 * float(_sum(np.multiply(mesh.node_mass, kinetic, kinetic)))


@dataclass(eq=False)
class CchState:
    """Cell-centered conserved fields; eps = E - u^2/2 is kept consistent. The
    velocity u and the specific total energy E are the two rows of ``uE``, so the
    conservative update and the ledger take one 2-D pass for both."""

    rho: np.ndarray
    uE: np.ndarray      # (2, N): u and E
    eps: np.ndarray
    p: np.ndarray
    c: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.uE[0]

    @property
    def E(self) -> np.ndarray:
        return self.uE[1]

    @property
    def cell_u(self) -> np.ndarray:
        return self.uE[0]

    @property
    def max_speed(self) -> float:
        return _largest_magnitude(self.uE[0])

    def velocity_jumps(self, workspace) -> np.ndarray:
        """Largest velocity jump to either neighbor, per cell, written into the
        first ``cells`` buffer of ``workspace`` (the first ``faces`` buffer holds
        the jumps per face)."""
        u = self.uE[0]
        d, jumps = np.subtract(u[1:], u[:-1], workspace.faces[0]), workspace.cells[0]
        np.abs(d, d)
        jumps[0], jumps[-1] = d[0], d[-1]
        np.maximum(d[:-1], d[1:], out=jumps[1:-1])
        return jumps

    def totals(self, mesh: Mesh1D, work) -> tuple[float, float]:
        """(momentum, energy): one product into the (2, N) buffer ``work[0]`` and one
        row-sum, each row summed pairwise as a 1-D sum would be."""
        products = np.multiply(mesh.cell_mass_pair, self.uE, work[0])
        momentum, energy = _sum(products, axis=1).tolist()
        return momentum, energy


class Workspace:
    """The float buffers a run's steps reuse for every temporary: ``faces``, fourteen
    of N - 1 (the interior nodes: the nodal solve's), ``cells``, six of N (the last
    two hold rho c and k rho for the nodal solve), and ``nodes``, two of N + 1. The
    faces are the rows of one array, made here once (a row view costs 0.1 us,
    unpacking rows of a 2-D array 0.6 us each), and ``face_pairs`` holds its
    neighbouring rows (0 and 1, 2 and 3, ...) as (2, N - 1) arrays, for an
    operation on two rows at once. A run's one (``cli.run``'s, or a stepper's given
    none) is the only scratch of the steppers, the dt rule and all below them; no
    array a caller keeps lives here."""

    def __init__(self, n_cells: int):
        faces = np.empty((14, n_cells - 1))
        self.faces, self.face_pairs = list(faces), list(faces.reshape(7, 2, -1))
        self.cells = [np.empty(n_cells) for _ in range(6)]
        self.nodes = [np.empty(n_cells + 1) for _ in range(2)]


def cell_thermo(gas: IdealGas, rho, eps, floors=(0.0, 0.0)):
    """(p, c) of updated cells after one test of three extrema: eps and rho above
    their ``floors`` (eps, rho; below 0 acts as 0), p finite. With both minima
    positive (NaN fails them), an infinite eps or rho makes p infinite, so this
    is the test that eps and rho are also finite. Only when it fails do the
    exact checks run, to name the first failure's cell."""
    rho, eps = np.asarray(rho, dtype=float), np.asarray(eps, dtype=float)
    p = ideal_pressure(gas, rho, eps)
    if (_least(eps) > max(floors[0], 0.0) and _least(rho) > max(floors[1], 0.0)
            and _greatest(p) < np.inf):
        return p, ideal_sound_speed(gas, rho, p)
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
    new_x = np.multiply(u_star, dt)
    new_x += mesh.node_x
    volumes = new_x[1:] - new_x[:-1]
    if not _least(volumes) > 0.0 and np.any(volumes <= 0.0):  # NaN passes both tests
        raise MeshTangled("mesh tangling", cell=int(np.argmax(volumes <= 0.0)))
    new_x.setflags(write=False)
    volumes.setflags(write=False)
    moved = Mesh1D(new_x, mesh.cell_mass, mesh.node_mass)   # the masses are shared
    moved.cell_volumes, moved.cell_mass_pair = volumes, mesh.cell_mass_pair
    return moved
