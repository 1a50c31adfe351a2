"""Benchmark problem definitions, boundary conditions, and reference solutions.

Six standard compressible-flow tests (Sod, Lax, double rarefaction, planar
blast wave, shock/density-wave interaction, LeBlanc) plus an exact Riemann
reference for the pure Riemann problems and a high-resolution self-reference
for the rest.
"""

from __future__ import annotations

import ast
import json
import numbers
import operator
import reprlib
from dataclasses import asdict, dataclass

import numpy as np

from . import riemann
from .eos import IdealGas
from .errors import ConfigError
from .mesh import CchState, Mesh1D, SghState

__all__ = [
    "BoundaryCondition", "Region", "ProblemSpec",
    "sod", "lax", "double_rarefaction", "sedov", "shu_osher", "leblanc",
    "by_name", "PROBLEM_NAMES", "build_initial",
    "exact_riemann_star", "reference", "sample_reference",
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
    of ``_EXPR_FUNCTIONS``; anything else is a ConfigError."""
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
        raise ConfigError(f"rho_expr may not contain {ast.unparse(node)!r}")

    try:  # the parser reports input nested too deeply as MemoryError
        return value(ast.parse(text, mode="eval").body)
    except (SyntaxError, TypeError, OverflowError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"rho_expr {text!r} is not a valid expression: {exc!r}") from None


def _number(owner: str, name: str, value, lo=-np.inf, hi=np.inf):
    """``value`` if it is a real number, not a bool, with lo < value < hi (never
    NaN); else a ConfigError naming the field ``owner + name`` (and a reprlib cut of
    the value). JSON true/false is an int to Python, and a JSON integer past the
    float range overflows float()."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and lo < float(value) < hi):
            return value
    except OverflowError:
        pass
    raise ConfigError(f"{owner}{name} must be a number in ({lo:g}, {hi:g}), "
                      f"got {reprlib.repr(value)}")


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary treatment: transmissive, wall, or prescribed velocity/pressure."""

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in _BC_KINDS:
            raise ConfigError(f"unknown boundary kind {self.kind!r}")
        if self.kind.startswith("prescribed"):
            _number("boundary ", "value", self.value)
        elif self.value is not None:
            raise ConfigError(f"a {self.kind} boundary takes no value, got {self.value!r}")

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
        return cls("prescribed_velocity", u)

    @classmethod
    def prescribed_pressure(cls, p: float):
        return cls("prescribed_pressure", p)


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
        if not _number("region ", "x_lo", self.x_lo) < _number("region ", "x_hi", self.x_hi):
            raise ConfigError(f"region [{self.x_lo}, {self.x_hi}) is not a nonempty interval")
        _number("region ", "rho", self.rho, 0.0)
        # the kinetic energy u^2/2 a cell-centered state carries must be finite
        if not 0.5 * _number("region ", "u", self.u) * self.u < np.inf:
            raise ConfigError(f"region u out of range: {self.u}")
        if (self.p is None) == (self.e is None):
            raise ConfigError("region needs exactly one of p or e")
        if self.e is None:
            _number("region ", "p", self.p, 0.0)
        else:
            _number("region ", "e", self.e, 0.0)
        if self.rho_expr is not None:
            with np.errstate(all="ignore"):
                _eval_density(self.rho_expr, np.float64(0.0))

    def density(self, x: np.ndarray) -> np.ndarray:
        if self.rho_expr is None:
            return np.full_like(x, self.rho, dtype=float)
        rho = np.asarray(_eval_density(self.rho_expr, x), dtype=float)
        if not np.all((rho > 0.0) & (rho < np.inf)):
            raise ConfigError(f"rho_expr {self.rho_expr!r} gives a density not finite and > 0")
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
        # the name starts every output file name: one nonempty path component;
        # it is also a `.summary` value, so one line with no key separator
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or not self.name.isprintable() or any(ch in self.name for ch in "/\\=")):
            raise ConfigError(f"name must be a printable file name without '/', '\\' "
                              f"or '=', got {self.name!r}")
        if not (isinstance(self.domain, (tuple, list)) and len(self.domain) == 2):
            raise ConfigError(f"domain must be exactly two numbers, got {self.domain!r}")
        lo, hi = (_number("", "domain", end) for end in self.domain)
        _number("", "t_end", self.t_end, 0.0)
        _number("", "gamma", self.gamma, 1.0)
        if self.center_energy is not None:
            _number("", "center_energy", self.center_energy, 0.0)
        if self.reference not in ("exact_riemann", "self_converged"):
            raise ConfigError(f"unknown reference kind {self.reference!r}")
        ends = [lo, *(x for r in self.regions for x in (r.x_lo, r.x_hi)), hi]
        if not self.regions or ends[0::2] != ends[1::2]:   # (lo, x_lo), (x_hi, x_lo), ...
            raise ConfigError("regions must tile the domain without gaps")

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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        """The spec a ``to_dict`` mapping describes; a key that names no field, a
        missing field, or a part of the wrong form is a TypeError naming the field."""
        def fields(name, part, kind=dict, form="an object"):   # part, if of its field's form
            if not isinstance(part, kind):
                raise TypeError(f"{name} must be {form}, got {reprlib.repr(part)}")
            return part
        nested = {"domain": lambda v: tuple(v) if isinstance(v, list) else v,   # JSON: a list
                  "regions": lambda v: tuple(Region(**fields("each region", r))
                                         for r in fields("regions", v, (list, tuple), "a list")),
                  "bc_left": lambda v: BoundaryCondition(**fields("bc_left", v)),
                  "bc_right": lambda v: BoundaryCondition(**fields("bc_right", v))}
        return cls(**{k: nested.get(k, lambda v: v)(v) for k, v in fields("a spec", d).items()})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        """The spec a JSON document describes; a malformed one is a ConfigError."""
        try:   # a decode error is a ValueError, as is a ConfigError, which keeps its message
            return cls.from_dict(json.loads(text))
        except (ValueError, TypeError, RecursionError) as exc:
            raise ConfigError(str(exc)) from exc


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
    if name not in PROBLEM_NAMES:   # a tuple test: any value, hashable or not
        raise ConfigError(f"unknown problem {name!r}; known: {PROBLEM_NAMES}")
    return _REGISTRY[name]()


# -- initial state construction ----------------------------------------------

def _symmetric_linspace(a: float, b: float, n_points: int) -> np.ndarray:
    """Uniform nodes that are bitwise mirror-symmetric about the midpoint.

    Keeps mirror-symmetric problems exactly symmetric in floating point.
    """
    mid = 0.5 * (a + b)
    offsets = np.linspace(a, b, n_points) - mid
    return mid + 0.5 * (offsets - offsets[::-1])


def _formed(name: str, q: np.ndarray) -> np.ndarray:
    """q, if every entry is finite and > 0; else a ConfigError naming ``name``."""
    if not np.all((q > 0.0) & (q < np.inf)):
        raise ConfigError(f"initial {name} must be finite and > 0 (an overflow or underflow)")
    return q


def build_initial(problem: ProblemSpec, n_cells: int, method: str):
    """Uniform mesh and initial state: cell fields (and masses) sampled at the
    centres, staggered node velocities from the region velocities, and the
    center deposit set before the one evaluation of pressure and sound speed.

    For an even cell count the deposit is split over the two central cells so
    mirror-symmetric data stays exactly symmetric. A quantity formed here from the
    spec's data that overflows or underflows to 0 is a ConfigError naming it.
    """
    if n_cells < 2:
        raise ConfigError(f"need at least 2 cells, got {n_cells}")
    if method not in ("sgh", "cch"):
        raise ConfigError(f"unknown state kind {method!r}")

    gas = IdealGas(problem.gamma)
    with np.errstate(over="ignore", invalid="ignore"):   # each quantity is checked as formed
        node_x = _symmetric_linspace(*map(float, problem.domain), n_cells + 1)
        rho, u, p = problem.primitives_at(0.5 * (node_x[:-1] + node_x[1:]))
        grid = Mesh1D.from_nodes(node_x, rho)
        for name, q in (("node ordering: cell width", grid.cell_volumes),
                        ("cell_mass", grid.cell_mass), ("node_mass", grid.node_mass)):
            bad = q[~((q > 0.0) & (q < np.inf))]   # a narrow domain, a mass under/overflow
            if bad.size:
                raise ConfigError(f"{name} must be strictly positive and finite, got {bad[0]:g} "
                                  f"with {n_cells} cells on the domain {problem.domain}")
        eps = gas.internal_energy(rho, p)
        if problem.center_energy is not None:
            half = n_cells // 2
            targets = [half - 1, half] if n_cells % 2 == 0 else [half]
            eps[targets] = problem.center_energy / len(targets) / grid.cell_mass[targets]
        _formed("internal energy", eps)
        if problem.center_energy is not None:
            p = _formed("pressure", gas.pressure(rho, eps))
        c = _formed("sound speed", gas.sound_speed(rho, p))
        if method == "cch":   # SGH carries no total energy
            total = _formed("total energy", eps + 0.5 * u ** 2)
            return grid, CchState(rho, np.array((u, total)), eps, p, c)
    return grid, SghState(problem.velocity_at_nodes(node_x), rho, eps, p, c)


# -- reference solutions ------------------------------------------------------

def exact_riemann_star(left, right, gamma: float) -> riemann.RiemannSolution:
    """Exact star state for primitive (rho, u, p) triples.

    The result unpacks as ``p_star, u_star = exact_riemann_star(...)`` and
    carries the vacuum flag and sampling methods.
    """
    return riemann.solve(riemann.PrimitiveState(*left), riemann.PrimitiveState(*right), gamma)


def _self_reference_run(problem: ProblemSpec, t: float, n_reference: int):
    """Cell centres and fields, u the mean of each cell's two node velocities, of a
    fine SGH run: cheaper than CCH, and on sedov nearer the exact shock."""
    from . import cli  # deferred: cli imports this module

    result = cli.run(cli.RunConfig(problem=problem, method="sgh", sgh_mode="predictor_only",
                                   n_cells=n_reference, t_end=t))
    s = result.state
    return result.mesh.cell_centers, {"rho": s.rho, "u": s.cell_u, "p": s.p, "eps": s.eps}


_last_reference = {}   # {key: profiles} of the last reference built; one entry at most


def reference(problem: ProblemSpec, t: float, n_reference: int = 3200):
    """The reference at time t in [0, t_end] as a function of positions x that
    returns the profiles {"rho", "u", "p", "eps"}: the initial data at t = 0,
    else the exact fan between an ``exact_riemann`` problem's two regions, else
    each field of the fine run of ``_self_reference_run`` interpolated linearly.
    The star state or the fine run is made here, once; the last one is kept for
    a call with the same repr of spec, t and n_reference (``==`` would equate
    -0.0 and 0.0, and ``to_json`` refuses a numpy int)."""
    key = repr((problem, t, n_reference))
    if key not in _last_reference:
        profiles = _build_reference(problem, t, n_reference)
        _last_reference.clear()
        _last_reference[key] = profiles
    return _last_reference[key]


def _build_reference(problem: ProblemSpec, t: float, n_reference: int):
    if not 0.0 <= t <= problem.t_end * (1.0 + 1e-12):
        raise ConfigError(f"reference time t={t} outside [0, t_end={problem.t_end}]")
    if problem.center_energy is not None and (t == 0.0 or problem.reference == "exact_riemann"):
        raise ConfigError(f"{problem.name}: the center_energy deposit depends on N, so neither an "
                          f"exact_riemann reference nor the initial data at t = 0 carries it")
    if problem.reference == "exact_riemann" and (
            len(problem.regions) != 2 or any(r.rho_expr for r in problem.regions)):
        raise ConfigError(f"{problem.name}: an exact_riemann reference needs two regions "
                          f"of constant density")
    if problem.reference == "self_converged" and t > 0.0:
        centers, fields = _self_reference_run(problem, t, n_reference)
        return lambda x: {f: np.interp(x, centers, v) for f, v in fields.items()}
    def primitives(x):   # the initial data, of which only a pressure rho e can overflow
        with np.errstate(over="ignore", invalid="ignore"):   # checked as formed
            rho, u, p = problem.primitives_at(x)
        if not np.isfinite(p).all():
            raise ConfigError(f"{problem.name}: the initial pressure must be finite, got {p.max()}")
        return rho, u, p
    if t > 0.0:
        x0 = problem.regions[0].x_hi
        states = np.transpose(primitives([problem.domain[0], x0])).tolist()
        fan = exact_riemann_star(*states, problem.gamma)
        primitives = lambda x: fan.sample((x - x0) / t)

    def profiles(x):
        rho, u, p = primitives(x)
        eps = np.divide(p, (problem.gamma - 1.0) * rho, out=np.zeros_like(p), where=rho > 0.0)
        return {"rho": rho, "u": u, "p": p, "eps": eps}
    return profiles


def sample_reference(problem: ProblemSpec, x_points, t: float,
                     n_reference: int = 3200) -> dict[str, np.ndarray]:
    """``reference(problem, t, n_reference)`` sampled at the positions x_points."""
    return reference(problem, t, n_reference)(np.atleast_1d(np.asarray(x_points, dtype=float)))
