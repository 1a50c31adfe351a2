"""Reference curves and profile measures that only the tests read.

Test code, not public API: the exact shock adiabat and isentrope of an ideal
gas through a reference state, the quadratic Taylor expansion of pressure in
the specific-volume change that the closure is built on (it touches both
curves to second order), two measures of a computed profile (where it
crosses a level and how many prominent peaks it has), a separate sampler
of the exact Riemann fan for states that open a vacuum, the buffers and face-array
forms of the nodal solves, and a counter of the ufunc calls a run makes. The package needs
none of them to run.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from unihydro import cli, closure, problems
from unihydro.eos import IdealGas
from unihydro.mesh import Workspace


@dataclass(frozen=True)
class ThermoState:
    """Reference thermodynamic point (tau, P) with its sound speed."""

    tau: float
    p: float
    c: float

    def __post_init__(self):
        if not (self.tau > 0.0 and self.p >= 0.0 and self.c >= 0.0):
            raise ValueError(f"invalid thermodynamic state {self}")

    @property
    def rho(self) -> float:
        return 1.0 / self.tau

    @classmethod
    def from_rho_p(cls, rho: float, p: float, gas: IdealGas) -> "ThermoState":
        return cls(tau=1.0 / rho, p=p, c=float(gas.sound_speed(rho, p)))


def hugoniot_pressure(tau, ref: ThermoState, gamma: float):
    """Pressure on the shock adiabat through ``ref`` (ideal-gas closed form).

    Solves eps(tau, P) - eps(tau0, P0) + (tau - tau0)(P + P0)/2 = 0 for P:

        P = P0 [(g+1) tau0 - (g-1) tau] / [(g+1) tau - (g-1) tau0]

    Valid for tau above the infinite-strength compression limit
    tau0 (g-1)/(g+1).
    """
    tau = np.asarray(tau, dtype=float)
    gp, gm = gamma + 1.0, gamma - 1.0
    tau_limit = ref.tau * gm / gp
    if np.any(tau <= tau_limit):
        raise ValueError(
            f"specific volume at or below the compression limit {tau_limit:.6g}")
    return ref.p * (gp * ref.tau - gm * tau) / (gp * tau - gm * ref.tau)


def isentrope_pressure(tau, ref: ThermoState, gamma: float):
    """Pressure on the isentrope through ``ref``: P = P0 (tau0/tau)^gamma."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0):
        raise ValueError("specific volume must be positive")
    return ref.p * (ref.tau / tau) ** gamma


def taylor_pressure(delta_tau, ref: ThermoState, gamma: float):
    """Quadratic expansion of pressure in the specific-volume change.

    p = P0 - rho0^2 c0^2 dtau + ((gamma+1)/2) rho0^3 c0^2 dtau^2
    """
    dtau = np.asarray(delta_tau, dtype=float)
    rho0 = ref.rho
    lin = rho0 * rho0 * ref.c * ref.c
    quad = 0.5 * (gamma + 1.0) * rho0 * rho0 * rho0 * ref.c * ref.c
    return ref.p - lin * dtau + quad * dtau * dtau


def crossing_position(x, q, level, window=None, which="last") -> float:
    """x where the profile crosses ``level``, linearly interpolated.

    ``window`` restricts the search to (x_lo, x_hi); ``which`` selects the
    first or last crossing.
    """
    x = np.asarray(x, float)
    q = np.asarray(q, float)
    if window is not None:
        m = (x >= window[0]) & (x <= window[1])
        x, q = x[m], q[m]
    d = q - level
    sign_change = d[:-1] * d[1:] <= 0.0
    idx = np.flatnonzero(sign_change & (d[:-1] != d[1:]))
    if len(idx) == 0:
        raise ValueError(f"profile never crosses level {level}")
    i = idx[-1] if which == "last" else idx[0]
    t = d[i] / (d[i] - d[i + 1])
    return float(x[i] + t * (x[i + 1] - x[i]))


def count_extrema(q, min_prominence: float) -> int:
    """Number of local maxima with at least the given prominence.

    Prominence of a peak is its height above the higher of the two minima
    separating it from taller terrain (or the array ends).
    """
    q = np.asarray(q, float)
    n = len(q)
    count = 0
    for i in range(1, n - 1):
        if not (q[i] > q[i - 1] and q[i] >= q[i + 1]):
            continue
        left_min = q[i]
        j = i - 1
        while j >= 0 and q[j] <= q[i]:
            left_min = min(left_min, q[j])
            j -= 1
        right_min = q[i]
        j = i + 1
        while j < n and q[j] <= q[i]:
            right_min = min(right_min, q[j])
            j += 1
        if q[i] - max(left_min, right_min) >= min_prominence:
            count += 1
    return count


def sample_vacuum(solution, s: float):
    """(rho, u, p) at xi = s of a Riemann solution that opens a vacuum: the
    left fan, the vacuum between the two fronts, the right fan, written out
    side by side."""
    g = solution.gamma
    left, right = solution.left, solution.right
    cl, cr = left.sound_speed(g), right.sound_speed(g)
    s_head_l = left.u - cl
    s_tail_l = left.u + 2.0 * cl / (g - 1.0)   # vacuum front from the left
    s_head_r = right.u + cr
    s_tail_r = right.u - 2.0 * cr / (g - 1.0)  # vacuum front from the right
    if s <= s_head_l:
        return left.rho, left.u, left.p
    if s < s_tail_l:
        cf = (2.0 / (g + 1.0)) * (cl + 0.5 * (g - 1.0) * (left.u - s))
        uf = (2.0 / (g + 1.0)) * (cl + 0.5 * (g - 1.0) * left.u + s)
        return (left.rho * (cf / cl) ** (2.0 / (g - 1.0)), uf,
                left.p * (cf / cl) ** (2.0 * g / (g - 1.0)))
    if s <= s_tail_r:
        return 0.0, 0.5 * (s_tail_l + s_tail_r), 0.0
    if s < s_head_r:
        cf = (2.0 / (g + 1.0)) * (cr - 0.5 * (g - 1.0) * (right.u - s))
        uf = (2.0 / (g + 1.0)) * (-cr + 0.5 * (g - 1.0) * right.u + s)
        return (right.rho * (cf / cr) ** (2.0 / (g - 1.0)), uf,
                right.p * (cf / cr) ** (2.0 * g / (g - 1.0)))
    return right.rho, right.u, right.p


def solve_buffers(n_nodes: int) -> dict:
    """``out`` and ``workspace`` of ``closure.solve_nodes`` for ``n_nodes`` nodes,
    from two fresh ``mesh.Workspace``s: one solve's own buffers."""
    out = (*Workspace(n_nodes + 1).faces[:3], np.empty(n_nodes, np.int8))
    return {"out": out, "workspace": Workspace(n_nodes + 1)}


def _faces(*arrays):
    return tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in arrays)


def face_solve(rl, cl, pl, ul, rr, cr, pr, ur, gamma=1.4, solver="quadratic"):
    """``closure.solve_nodes`` on face arrays of rho, c, p and u, with z = rho c,
    k rho and k formed as ``cch.solve_all_nodes`` forms them, into fresh buffers."""
    rl, cl, pl, ul, rr, cr, pr, ur = _faces(rl, cl, pl, ul, rr, cr, pr, ur)
    k = IdealGas(gamma).factors[2]
    return closure.solve_nodes(rl * cl, k * rl, cl, pl, ul, rr * cr, k * rr, cr, pr, ur, k,
                               solver, **solve_buffers(len(rl)))


def _sums(pl, ul, pr, ur, zl, zr):
    return closure._node_sums(pl, ul, pr, ur, zl, zr, [np.empty(len(pl)) for _ in range(4)])


def acoustic_solve(rl, cl, pl, ul, rr, cr, pr, ur):
    """(u*, p*) of ``closure._acoustic_kernel`` on face arrays, in fresh arrays."""
    rl, cl, pl, ul, rr, cr, pr, ur = _faces(rl, cl, pl, ul, rr, cr, pr, ur)
    zl, zr = rl * cl, rr * cr
    return closure._acoustic_kernel(zl, pl, ul, zr, pr, ur, _sums(pl, ul, pr, ur, zl, zr),
                                    [np.empty(len(rl)) for _ in range(3)])


def two_shock_solve(rl, cl, pl, ul, rr, cr, pr, ur, gamma=1.4):
    """(u*, p*) of ``closure._two_shock_kernel`` on face arrays, from the acoustic
    guess and k rho d0 formed as ``closure.solve_nodes`` forms them."""
    rl, cl, pl, ul, rr, cr, pr, ur = _faces(rl, cl, pl, ul, rr, cr, pr, ur)
    k = 0.5 * (gamma + 1.0)
    u_ac, _ = acoustic_solve(rl, cl, pl, ul, rr, cr, pr, ur)
    zl, zr = rl * cl, rr * cr
    kd = np.array(((k * rl) * (u_ac - ul), (k * rr) * (ur - u_ac)))
    return closure._two_shock_kernel(zl, pl, ul, zr, pr, ur, kd,
                                     _sums(pl, ul, pr, ur, zl, zr)[:3],
                                     [np.empty(len(rl)) for _ in range(3)])


class _Counted(np.ndarray):
    """An ndarray whose ufunc calls are counted: a call with an operand, an
    ``out`` or a ``where`` of this class, operators and in-place operators
    included, adds one to ``calls`` under (ufunc name, method) and gives its
    new arrays this class too, so every array a run derives from its initial
    state and buffers is counted."""

    calls = None   # the Counter of the open ``ufunc_calls`` block

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.calls[ufunc.__name__, method] += 1
        plain = [_plain(x) for x in inputs]
        out = kwargs.get("out")
        kwargs = {key: (tuple(map(_plain, v)) if key == "out" else _plain(v))
                  for key, v in kwargs.items()}
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return tuple(map(_counted, result)) if isinstance(result, tuple) else _counted(result)


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, _Counted) else x


def _counted(x):
    return x.view(_Counted) if type(x) is np.ndarray else x


# numpy functions whose plain ndarray results the library goes on to compute with
_MAKERS = ("empty", "asarray", "where")


@contextmanager
def ufunc_calls():
    """A Counter of the ufunc calls, by (ufunc name, method), of every run
    ``cli.run`` makes inside the block. The initial mesh and state of each run,
    and the arrays ``numpy.empty``, ``numpy.asarray`` and ``numpy.where`` make,
    are counted arrays (``_Counted``); arrays that never meet one, and numpy
    scalars, are not counted. The count is deterministic."""
    calls, build = Counter(), problems.build_initial
    saved = {name: getattr(np, name) for name in _MAKERS}

    def counted_maker(make):
        return lambda *args, **kwargs: _counted(make(*args, **kwargs))

    def counted_build(*args, **kwargs):
        mesh, state = build(*args, **kwargs)
        mesh = type(mesh)(*(_counted(a) for a in (mesh.node_x, mesh.cell_mass, mesh.node_mass)))
        return mesh, type(state)(**{key: _counted(a) for key, a in vars(state).items()})

    _Counted.calls = calls
    problems.build_initial = counted_build
    for name, make in saved.items():
        setattr(np, name, counted_maker(make))
    try:
        yield calls
    finally:
        _Counted.calls = None
        problems.build_initial = build
        for name, make in saved.items():
            setattr(np, name, make)


def run_ufunc_calls(config) -> tuple[int, Counter]:
    """(steps, ufunc calls by (name, method)) of ``cli.run(config)``."""
    with ufunc_calls() as calls:
        result = cli.run(config)
    return result.steps, calls
