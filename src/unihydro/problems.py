"""Benchmark problem definitions, boundary conditions, and reference solutions.

Six standard compressible-flow tests (Sod, Lax, double rarefaction, planar
blast wave, shock/density-wave interaction, LeBlanc) plus an exact Riemann
reference for the pure Riemann problems and a high-resolution self-reference
for the rest.
"""

from __future__ import annotations

import ast
import json
import operator
from dataclasses import dataclass

import numpy as np

from . import riemann
from .eos import IdealGas
from .mesh import CchState, Mesh1D, SghState

__all__ = [
    "BoundaryCondition", "Region", "ProblemSpec",
    "sod", "lax", "double_rarefaction", "sedov", "shu_osher", "leblanc",
    "by_name", "PROBLEM_NAMES", "build_initial",
    "exact_riemann_star", "sample_reference",
]

_BC_KINDS = ("transmissive", "wall", "prescribed_velocity", "prescribed_pressure")

# the whole grammar of density expressions in problem definitions and spec files
_EXPR_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "sqrt": np.sqrt}
_EXPR_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                   ast.Div: operator.truediv, ast.Pow: operator.pow, ast.UAdd: operator.pos,
                   ast.USub: operator.neg}


def _eval_density(text, x):
    """Value of a density expression at x, by a walk over its syntax tree that
    admits only numbers, x, pi, + - * / **, unary signs and one-argument calls
    of ``_EXPR_FUNCTIONS``; anything else is a ValueError."""
    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return np.float64(node.value)
        if isinstance(node, ast.Name) and node.id in ("x", "pi"):
            return x if node.id == "x" else np.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
            return _EXPR_OPERATORS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPERATORS:
            return _EXPR_OPERATORS[type(node.op)](value(node.operand))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPR_FUNCTIONS and len(node.args) == 1
                and not node.keywords):
            return _EXPR_FUNCTIONS[node.func.id](value(node.args[0]))
        raise ValueError(f"rho_expr may not contain {ast.unparse(node)!r}")

    try:  # the parser reports input nested too deeply as MemoryError
        return value(ast.parse(text, mode="eval").body)
    except (SyntaxError, TypeError, OverflowError, RecursionError, MemoryError) as exc:
        raise ValueError(f"rho_expr {text!r} is not a valid expression: {exc!r}") from None


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary treatment: transmissive, wall, or prescribed velocity/pressure."""

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in _BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind.startswith("prescribed"):
            if self.value is None or not np.isfinite(self.value):
                raise ValueError(f"{self.kind} needs a finite value")

    @property
    def velocity(self) -> float | None:
        """Prescribed boundary velocity: 0 for a wall, None if not prescribed."""
        if self.kind == "prescribed_velocity":
            return float(self.value)
        return 0.0 if self.kind == "wall" else None

    @classmethod
    def transmissive(cls):
        return cls("transmissive")

    @classmethod
    def wall(cls):
        return cls("wall")

    @classmethod
    def prescribed_velocity(cls, u: float):
        return cls("prescribed_velocity", float(u))

    @classmethod
    def prescribed_pressure(cls, p: float):
        return cls("prescribed_pressure", float(p))


@dataclass(frozen=True)
class Region:
    """Piecewise initial data on [x_lo, x_hi): constant, except that the
    density may be an expression of x (e.g. "1 + 0.2*sin(5*x)")."""

    x_lo: float
    x_hi: float
    rho: float
    u: float
    p: float | None = None
    e: float | None = None        # specific internal energy, alternative to p
    rho_expr: str | None = None

    def __post_init__(self):
        if (self.p is None) == (self.e is None):
            raise ValueError("region needs exactly one of p or e")
        energy = "p" if self.e is None else "e"
        for name, ok in (("rho", 0.0 < self.rho < np.inf), ("u", abs(self.u) < np.inf),
                         (energy, 0.0 <= getattr(self, energy) < np.inf)):
            if not ok:
                raise ValueError(f"region {name} out of range: {getattr(self, name)}")
        if self.rho_expr is not None:
            with np.errstate(all="ignore"):
                _eval_density(self.rho_expr, np.float64(0.0))

    def density(self, x: np.ndarray) -> np.ndarray:
        if self.rho_expr is None:
            return np.full_like(x, self.rho, dtype=float)
        rho = np.asarray(_eval_density(self.rho_expr, x), dtype=float)
        if not np.all((rho > 0.0) & (rho < np.inf)):
            raise ValueError(f"rho_expr {self.rho_expr!r} gives a density not finite and > 0")
        return rho

    def pressure(self, rho: np.ndarray, gamma: float) -> np.ndarray:
        if self.p is not None:
            return np.full_like(rho, self.p, dtype=float)
        return (gamma - 1.0) * rho * self.e


@dataclass(frozen=True)
class ProblemSpec:
    """A complete benchmark definition, serializable to/from plain JSON."""

    name: str
    domain: tuple[float, float]
    t_end: float
    gamma: float
    regions: tuple[Region, ...]
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    reference: str                       # "exact_riemann" or "self_converged"
    center_energy: float | None = None   # total energy deposited at the center

    def __post_init__(self):
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if not 1.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 1, got {self.gamma}")
        if self.reference not in ("exact_riemann", "self_converged"):
            raise ValueError(f"unknown reference kind {self.reference!r}")
        lo, hi = self.domain
        if not (self.regions and self.regions[0].x_lo == lo
                and self.regions[-1].x_hi == hi):
            raise ValueError("regions must tile the domain")
        for a, b in zip(self.regions[:-1], self.regions[1:]):
            if a.x_hi != b.x_lo:
                raise ValueError("regions must tile the domain without gaps")

    # -- initial data sampling ---------------------------------------------

    def _region_index(self, x: np.ndarray) -> np.ndarray:
        edges = np.array([r.x_lo for r in self.regions[1:]])
        return np.searchsorted(edges, x, side="right")

    def primitives_at(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pointwise (rho, u, p); membership is [x_lo, x_hi), last region closed."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = self._region_index(x)
        rho = np.empty_like(x)
        u = np.empty_like(x)
        p = np.empty_like(x)
        for i, region in enumerate(self.regions):
            m = idx == i
            if not np.any(m):
                continue
            rho[m] = region.density(x[m])
            u[m] = region.u
            p[m] = region.pressure(rho[m], self.gamma)
        return rho, u, p

    def velocity_at_nodes(self, xn: np.ndarray) -> np.ndarray:
        """Node velocities from the region velocities; a node sitting exactly on
        a region interface takes the average of the two adjacent ones."""
        u = np.array([r.u for r in self.regions], dtype=float)[self._region_index(xn)]
        width = self.domain[1] - self.domain[0]
        for left, right in zip(self.regions[:-1], self.regions[1:]):
            on_edge = np.abs(xn - left.x_hi) <= 1e-12 * width
            u[on_edge] = 0.5 * (left.u + right.u)
        return u

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "domain": list(self.domain),
            "t_end": self.t_end,
            "gamma": self.gamma,
            "regions": [{k: v for k, v in vars(r).items() if v is not None}
                        for r in self.regions],
            "bc_left": {"kind": self.bc_left.kind, "value": self.bc_left.value},
            "bc_right": {"kind": self.bc_right.kind, "value": self.bc_right.value},
            "reference": self.reference,
            "center_energy": self.center_energy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        return cls(
            name=d["name"],
            domain=tuple(d["domain"]),
            t_end=d["t_end"],
            gamma=d["gamma"],
            regions=tuple(Region(**r) for r in d["regions"]),
            bc_left=BoundaryCondition(**d["bc_left"]),
            bc_right=BoundaryCondition(**d["bc_right"]),
            reference=d["reference"],
            center_energy=d.get("center_energy"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        return cls.from_dict(json.loads(text))


# -- the six benchmarks -----------------------------------------------------

def sod() -> ProblemSpec:
    """Mild shock tube: right shock, contact, left rarefaction."""
    return ProblemSpec(
        name="sod", domain=(0.0, 1.0), t_end=0.2, gamma=1.4,
        regions=(Region(0.0, 0.5, rho=1.0, u=0.0, p=1.0),
                 Region(0.5, 1.0, rho=0.125, u=0.0, p=0.1)),
        bc_left=BoundaryCondition.transmissive(),
        bc_right=BoundaryCondition.transmissive(),
        reference="exact_riemann")


def lax() -> ProblemSpec:
    """Shock tube with a large contact jump."""
    return ProblemSpec(
        name="lax", domain=(0.0, 1.0), t_end=0.16, gamma=1.4,
        regions=(Region(0.0, 0.5, rho=0.445, u=0.698, p=3.528),
                 Region(0.5, 1.0, rho=0.5, u=0.0, p=0.571)),
        bc_left=BoundaryCondition.transmissive(),
        bc_right=BoundaryCondition.transmissive(),
        reference="exact_riemann")


def double_rarefaction() -> ProblemSpec:
    """Two outward rarefactions leaving a near-vacuum center."""
    return ProblemSpec(
        name="double_rarefaction", domain=(0.0, 1.0), t_end=0.15, gamma=1.4,
        regions=(Region(0.0, 0.5, rho=1.0, u=-2.0, p=0.4),
                 Region(0.5, 1.0, rho=1.0, u=2.0, p=0.4)),
        bc_left=BoundaryCondition.prescribed_velocity(-2.0),
        bc_right=BoundaryCondition.prescribed_velocity(2.0),
        reference="exact_riemann")


def sedov() -> ProblemSpec:
    """Planar blast wave: a huge energy deposit in the center cell(s)."""
    return ProblemSpec(
        name="sedov", domain=(-2.0, 2.0), t_end=0.001, gamma=1.4,
        regions=(Region(-2.0, 2.0, rho=1.0, u=0.0, e=1e-12),),
        bc_left=BoundaryCondition.transmissive(),
        bc_right=BoundaryCondition.transmissive(),
        reference="self_converged",
        center_energy=3.2e6)


def shu_osher() -> ProblemSpec:
    """A strong shock running into a sinusoidal density field."""
    return ProblemSpec(
        name="shu_osher", domain=(-5.0, 5.0), t_end=1.8, gamma=1.4,
        regions=(Region(-5.0, -4.0, rho=3.857143, u=2.629369, p=10.333333),
                 Region(-4.0, 5.0, rho=1.0, u=0.0, p=1.0,
                        rho_expr="1 + 0.2*sin(5*x)")),
        bc_left=BoundaryCondition.transmissive(),
        bc_right=BoundaryCondition.transmissive(),
        reference="self_converged")


def leblanc() -> ProblemSpec:
    """Extreme shock tube: strong left rarefaction, huge contact, right shock."""
    return ProblemSpec(
        name="leblanc", domain=(0.0, 9.0), t_end=6.0, gamma=5.0 / 3.0,
        regions=(Region(0.0, 3.0, rho=1.0, u=0.0, p=2.0 / 3.0 * 1e-1),
                 Region(3.0, 9.0, rho=1e-3, u=0.0, p=2.0 / 3.0 * 1e-10)),
        bc_left=BoundaryCondition.transmissive(),
        bc_right=BoundaryCondition.transmissive(),
        reference="exact_riemann")


_REGISTRY = {
    "sod": sod, "lax": lax, "double_rarefaction": double_rarefaction,
    "sedov": sedov, "shu_osher": shu_osher, "leblanc": leblanc,
}
PROBLEM_NAMES = tuple(_REGISTRY)


def by_name(name: str) -> ProblemSpec:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; known: {PROBLEM_NAMES}") from None


# -- initial state construction ----------------------------------------------

def _symmetric_linspace(a: float, b: float, n_points: int) -> np.ndarray:
    """Uniform nodes that are bitwise mirror-symmetric about the midpoint.

    Keeps mirror-symmetric problems exactly symmetric in floating point.
    """
    mid = 0.5 * (a + b)
    offsets = np.linspace(a, b, n_points) - mid
    return mid + 0.5 * (offsets - offsets[::-1])


def build_initial(problem: ProblemSpec, n_cells: int, method: str):
    """Uniform mesh and initial state: cell fields (and masses) sampled at the
    centres, staggered node velocities from the region velocities, and the
    center deposit set before the one evaluation of pressure and sound speed.

    For an even cell count the deposit is split over the two central cells so
    mirror-symmetric data stays exactly symmetric.
    """
    a, b = float(problem.domain[0]), float(problem.domain[1])
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"domain must be a nonempty interval, got ({a}, {b})")
    if n_cells < 2:
        raise ValueError(f"need at least 2 cells, got {n_cells}")
    if method not in ("sgh", "cch"):
        raise ValueError(f"unknown state kind {method!r}")

    node_x = _symmetric_linspace(a, b, n_cells + 1)
    rho, u, p = problem.primitives_at(0.5 * (node_x[:-1] + node_x[1:]))
    for name, q in (("rho", rho), ("u", u), ("p", p)):
        if not np.all(np.isfinite(q)):
            raise ValueError(f"non-finite initial {name}")
    if np.any(rho <= 0.0):
        raise ValueError("initial density must be positive")
    if np.any(p < 0.0):
        raise ValueError("initial pressure must be nonnegative")
    grid = Mesh1D.from_nodes(node_x, rho)
    grid.validate()

    gas = IdealGas(problem.gamma)
    eps = gas.internal_energy(rho, p)
    if problem.center_energy is not None:
        half = n_cells // 2
        targets = [half - 1, half] if n_cells % 2 == 0 else [half]
        eps[targets] = problem.center_energy / len(targets) / grid.cell_mass[targets]
        p = gas.pressure(rho, eps)
    c = gas.sound_speed(rho, p)
    if method == "cch":
        return grid, CchState(rho, u, eps + 0.5 * u ** 2, eps, p, c)
    node_u = problem.velocity_at_nodes(node_x)
    if not np.all(np.isfinite(node_u)):
        raise ValueError("non-finite initial node velocity")
    return grid, SghState(node_u, rho, eps, p, c)


# -- reference solutions ------------------------------------------------------

def exact_riemann_star(left, right, gamma: float) -> riemann.RiemannSolution:
    """Exact star state for primitive (rho, u, p) triples.

    The result unpacks as ``p_star, u_star = exact_riemann_star(...)`` and
    carries the vacuum flag and sampling methods.
    """
    lstate = left if isinstance(left, riemann.PrimitiveState) else riemann.PrimitiveState(*left)
    rstate = right if isinstance(right, riemann.PrimitiveState) else riemann.PrimitiveState(*right)
    return riemann.solve(lstate, rstate, gamma)


def _riemann_solution(problem: ProblemSpec) -> tuple[float, riemann.RiemannSolution]:
    if len(problem.regions) != 2:
        raise ValueError(f"{problem.name}: not a two-state Riemann problem")
    lreg, rreg = problem.regions
    x0 = lreg.x_hi
    left = riemann.PrimitiveState(lreg.rho, lreg.u, float(lreg.pressure(np.array([lreg.rho]), problem.gamma)[0]))
    right = riemann.PrimitiveState(rreg.rho, rreg.u, float(rreg.pressure(np.array([rreg.rho]), problem.gamma)[0]))
    return x0, riemann.solve(left, right, problem.gamma)


def _self_reference_run(problem: ProblemSpec, t: float, n_reference: int):
    """High-resolution cell-centered run used as a converged reference."""
    from . import cli  # deferred: cli imports this module

    config = cli.RunConfig(problem=problem, method="cch", cch_solver="quadratic",
                           n_cells=n_reference, t_end=t)
    result = cli.run(config)
    centers = result.mesh.cell_centers
    s = result.state
    return centers, {"rho": s.rho, "u": s.u, "p": s.p, "eps": s.eps}


def sample_reference(problem: ProblemSpec, x_points, t: float,
                     n_reference: int = 3200) -> dict[str, np.ndarray]:
    """Reference primitive profiles (rho, u, p, eps) at the given positions."""
    x = np.atleast_1d(np.asarray(x_points, dtype=float))
    if t > problem.t_end * (1.0 + 1e-12):
        raise ValueError(f"t={t} beyond problem t_end={problem.t_end}")
    gamma = problem.gamma
    if t <= 0.0:
        rho, u, p = problem.primitives_at(x)
    elif problem.reference == "exact_riemann":
        x0, solution = _riemann_solution(problem)
        rho, u, p = solution.sample((x - x0) / t)
    elif problem.reference == "self_converged":
        centers, fields = _self_reference_run(problem, t, n_reference)
        rho = np.interp(x, centers, fields["rho"])
        u = np.interp(x, centers, fields["u"])
        p = np.interp(x, centers, fields["p"])
    else:  # pragma: no cover - enum checked at construction
        raise ValueError(f"unsupported reference {problem.reference!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.where(rho > 0.0, p / ((gamma - 1.0) * np.where(rho > 0.0, rho, 1.0)), 0.0)
    return {"rho": rho, "u": u, "p": p, "eps": eps}
