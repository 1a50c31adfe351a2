"""``sgh.step`` and ``cch.step`` against a reference copy of their arithmetic
before the per-step validity pass and the shared per-step arrays.

The reference validates each new state the earlier way (``IdealGas`` checks,
then ``cell_thermo``'s, then the driver's positivity floors), forms the cell
volumes, ``dt/m``, the nodal jumps and the acoustic star pressure afresh, and
keeps the earlier entropy monitor. Both sides run 50 steps from the same
state with the same dt; every field, the production, the scale, the
boundary flux, the CFL candidate and the monitor must agree bit for bit.
Helpers the change left alone (``closure._quadratic_kernel``, which has its
own reference test, the SGH star pressure, ghost pressure and boundary flux,
the CCH boundary nodes) are shared; the SGH reference forms the dual-cell
force and the time-centered velocity itself.
"""

import numpy as np
import pytest
from test_quadratic_kernel import _riemann_array_spec

import unihydro as uh
from unihydro import cch, cli, closure, sgh
from unihydro import diagnostics as diag
from unihydro.eos import IdealGas
from unihydro.errors import MeshTangled, SolverFailure
from unihydro.mesh import CchState, Mesh1D, SghState

N_STEPS = 50


# -- the reference ----------------------------------------------------------------

def ref_cell_thermo(gas, rho, eps):
    if not np.all(np.isfinite(eps)):
        raise SolverFailure("non-finite internal energy",
                            cell=int(np.argmin(np.isfinite(eps))))
    if np.any(eps <= 0.0):
        raise SolverFailure("nonpositive internal energy", cell=int(np.argmin(eps)))
    p = np.asarray(gas.pressure(rho, eps))
    return p, np.asarray(gas.sound_speed(rho, p))


def ref_update_geometry(mesh, u_star, dt):
    new_x = mesh.node_x + np.asarray(u_star, dtype=float) * dt
    if np.any(new_x[1:] - new_x[:-1] <= 0.0):
        raise MeshTangled("mesh tangling", cell=int(np.argmax(new_x[1:] - new_x[:-1] <= 0.0)))
    return Mesh1D(new_x, mesh.cell_mass, mesh.node_mass)


def ref_volumes(mesh):
    return mesh.node_x[1:] - mesh.node_x[:-1]


def ref_floor_check(state, eps_floor, rho_floor):
    if np.any(state.eps <= eps_floor) or np.any(state.rho <= rho_floor):
        raise SolverFailure("positivity floor hit", cell=int(np.argmin(state.eps)))


def ref_linear_balance(zl, pl, ul, zr, pr, ur):
    zsum = zl + zr
    u_star = 0.5 * (ul + ur) + (0.5 * (zr - zl) * (ur - ul) + (pl - pr)) / zsum
    dl = u_star - ul
    dr = u_star - ur
    p_star = 0.5 * ((pl - zl * dl) + (pr + zr * dr))
    return u_star, p_star


def ref_two_shock(rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac):
    k = 0.5 * (gamma + 1.0)
    wl = rl * cl + k * rl * np.maximum(ul - u_ac, 0.0)
    wr = rr * cr + k * rr * np.maximum(u_ac - ur, 0.0)
    return ref_linear_balance(wl, pl, ul, wr, pr, ur)


def ref_solve_nodes(rl, cl, pl, ul, rr, cr, pr, ur, gamma, solver):
    u_ac, p_ac = ref_linear_balance(rl * cl, pl, ul, rr * cr, pr, ur)
    if solver == "acoustic":
        return u_ac, p_ac, p_ac, np.full(np.shape(u_ac), closure.ACOUSTIC, dtype=np.int8)
    out = (np.empty(u_ac.shape), np.empty(u_ac.shape), np.empty(u_ac.shape),
           np.empty(u_ac.shape, dtype=bool))
    u_star, ps_l, ps_r, accepted = closure._quadratic_kernel(
        rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac, u_ac - ul, ur - u_ac, rl * cl, rr * cr, out)
    j = np.flatnonzero(~accepted)
    if j.size:
        u_star[j], p_2s = ref_two_shock(
            rl[j], cl[j], pl[j], ul[j], rr[j], cr[j], pr[j], ur[j], gamma, u_ac[j])
        ps_l[j] = ps_r[j] = p_2s
    return u_star, ps_l, ps_r, accepted.astype(np.int8)


def ref_cch_step(state, mesh, gas, dt, bc_left, bc_right, solver):
    n_nodes = len(state.rho) + 1
    us, psl, psr = np.empty(n_nodes), np.empty(n_nodes), np.empty(n_nodes)
    order = np.empty(n_nodes, dtype=np.int8)
    us[1:-1], psl[1:-1], psr[1:-1], order[1:-1] = ref_solve_nodes(
        state.rho[:-1], state.c[:-1], state.p[:-1], state.u[:-1],
        state.rho[1:], state.c[1:], state.p[1:], state.u[1:], gas.gamma, solver)
    us[0], psl[0], psr[0], order[0] = cch._boundary_node(
        bc_left, state.rho[0], state.c[0], state.p[0], state.u[0], gas.gamma, solver, "left")
    us[-1], psl[-1], psr[-1], order[-1] = cch._boundary_node(
        bc_right, state.rho[-1], state.c[-1], state.p[-1], state.u[-1], gas.gamma, solver,
        "right")
    ps = 0.5 * (psl + psr)
    m = mesh.cell_mass

    u_new = state.u + (dt / m) * (ps[:-1] - ps[1:])
    E_new = state.E + (dt / m) * (ps[:-1] * us[:-1] - ps[1:] * us[1:])
    new_mesh = ref_update_geometry(mesh, us, dt)
    rho_new = m / ref_volumes(new_mesh)
    eps_new = E_new - 0.5 * u_new ** 2
    new_state = CchState(rho_new, u_new, E_new, eps_new,
                         *ref_cell_thermo(gas, rho_new, eps_new))
    p, u = state.p, state.u
    production = ((p - psr[:-1]) * (u - us[:-1]) + (p - psl[1:]) * (us[1:] - u))
    flux = diag.BoundaryFlux(dt * ps[0], -dt * ps[-1], dt * ps[0] * us[0],
                             -dt * ps[-1] * us[-1])
    scale = state.p * (np.abs(state.u - us[:-1]) + np.abs(us[1:] - state.u))
    return new_mesh, new_state, (production, scale, flux, None, us, psl, psr, order)


def ref_sgh_advance(base_state, base_mesh, work_state, gas, dt, bc_left, bc_right,
                    p_pred=None):
    u_work = work_state.node_u
    du = u_work[1:] - u_work[:-1]
    p_star = closure.sgh_star_pressure(work_state.rho, work_state.c, work_state.p, du,
                                       gas.gamma)
    p_cell = work_state.p
    if p_pred is not None:   # the corrector pass: the two passes' average acts throughout
        p_star, p_cell = 0.5 * (p_star + p_pred), 0.5 * (work_state.p + base_state.p)
    p_bnd_l = sgh._ghost_pressure(bc_left, p_star[0])
    p_bnd_r = sgh._ghost_pressure(bc_right, p_star[-1])
    force = np.empty(len(p_star) + 1)
    force[0], force[-1] = p_bnd_l - p_star[0], p_star[-1] - p_bnd_r
    force[1:-1] = p_star[:-1] - p_star[1:]
    u_n = base_state.node_u
    u_star = u_n + 0.5 * dt * (force / base_mesh.node_mass)
    u_new = 2.0 * u_star - u_n
    if bc_left.velocity is not None:
        u_star[0] = u_new[0] = bc_left.velocity
    if bc_right.velocity is not None:
        u_star[-1] = u_new[-1] = bc_right.velocity
    du_star = u_star[1:] - u_star[:-1]
    eps_new = base_state.eps - (dt / base_mesh.cell_mass) * p_star * du_star
    new_mesh = ref_update_geometry(base_mesh, u_star, dt)
    rho_new = base_mesh.cell_mass / ref_volumes(new_mesh)
    new_state = SghState(u_new, rho_new, eps_new, *ref_cell_thermo(gas, rho_new, eps_new))
    il, wl = sgh._side_flux(bc_left, +1.0, dt, p_bnd_l, p_star[0], u_star[0],
                            base_mesh.node_mass[0], u_n[0], u_new[0])
    ir, wr = sgh._side_flux(bc_right, -1.0, dt, p_bnd_r, p_star[-1], u_star[-1],
                            base_mesh.node_mass[-1], u_n[-1], u_new[-1])
    # audited with the jump the star pressure saw, or the corrector's Delta u*
    du_audit = du if p_pred is None else du_star
    return (new_mesh, new_state, p_star, u_star, du, (p_cell - p_star) * du_audit,
            diag.BoundaryFlux(il, ir, wl, wr))


def ref_sgh_step(state, mesh, gas, dt, bc_left, bc_right, mode):
    mesh1, prov, p_star, u_star, du, production, flux = ref_sgh_advance(
        state, mesh, state, gas, dt, bc_left, bc_right)
    scale = state.p * np.abs(du)
    if mode == "predictor_only":
        return mesh1, prov, (production, scale, flux, du >= 0.0, du, p_star, u_star)
    mesh2, new_state, p_star2, u_star2, _, production2, flux = ref_sgh_advance(
        state, mesh, prov, gas, dt, bc_left, bc_right, p_pred=p_star)
    return mesh2, new_state, (production2, scale, flux, None, du, p_star2, u_star2)


def ref_velocity_jumps(state):
    if isinstance(state, CchState):
        d = np.abs(np.diff(state.u))
        jumps = np.zeros_like(state.u)
        jumps[:-1] = d
        jumps[1:] = np.maximum(jumps[1:], d)
        return jumps
    return np.abs(state.node_u[1:] - state.node_u[:-1])


def ref_cfl_candidate(state, mesh, cfl):
    return cfl * float(np.min(ref_volumes(mesh) / (state.c + ref_velocity_jumps(state))))


class RefMonitor:
    def __init__(self):
        self.worst_normalized = 0.0
        self.violations = 0
        self.expansion_abs_max = 0.0

    def update(self, production, scale, expansion_mask=None):
        scale = np.asarray(scale, float)
        bad = production < -diag.ENTROPY_TOL * scale
        self.violations += int(np.count_nonzero(bad))
        negative = (production < 0.0) & (scale > 0.0)
        worst = float(np.min(production[negative] / scale[negative], initial=0.0))
        self.worst_normalized = min(self.worst_normalized, worst)
        if expansion_mask is not None and np.any(expansion_mask):
            self.expansion_abs_max = max(
                self.expansion_abs_max,
                float(np.max(np.abs(production[expansion_mask]))))


# -- the comparison ------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_same_state(ref_state, state):
    assert type(ref_state) is type(state)
    for name, ref_value in vars(ref_state).items():
        assert _bits(getattr(state, name)) == _bits(ref_value), name


def _report_arrays(report):
    """The library report in the order the reference returns its values."""
    if isinstance(report, cch.CchStepReport):
        n = report.nodal
        return (report.entropy_production, report.entropy_scale, report.boundary,
                report.expansion, n.u_star, n.p_star_left, n.p_star_right, n.order)
    return (report.entropy_production, report.entropy_scale, report.boundary,
            report.expansion, report.du, report.p_star, report.u_star)


def march_both(problem, mesh, state, method, option, dt_of):
    """N_STEPS steps of the library step (driver floors bound in) and of the
    reference (floors checked after the step), with ``dt_of(step, candidate)``."""
    gas = IdealGas(problem.gamma)
    floors = cli._positivity_floors(state)
    if method == "sgh":
        lib_step, ref_step = sgh.step, ref_sgh_step
    else:
        lib_step, ref_step = cch.step, ref_cch_step
    ref_mesh, ref_state = mesh, state
    monitor, ref_monitor = diag.EntropyMonitor(), RefMonitor()
    for k in range(N_STEPS):
        assert _bits(state.velocity_jumps()) == _bits(ref_velocity_jumps(ref_state))
        candidate = ref_cfl_candidate(ref_state, ref_mesh, 0.3)
        assert cli._cfl_candidate(state, mesh, 0.3) == candidate
        dt = dt_of(k, candidate)
        ref_mesh, ref_state, ref_values = ref_step(ref_state, ref_mesh, gas, dt,
                                                   problem.bc_left, problem.bc_right, option)
        ref_floor_check(ref_state, *floors)
        mesh, state, report = lib_step(state, mesh, gas, dt, problem.bc_left,
                                       problem.bc_right, option, floors=floors)
        assert _bits(mesh.node_x) == _bits(ref_mesh.node_x)
        assert _bits(mesh.cell_volumes) == _bits(ref_volumes(ref_mesh))
        assert_same_state(ref_state, state)
        for ref_value, value in zip(ref_values, _report_arrays(report), strict=True):
            if isinstance(ref_value, diag.BoundaryFlux):
                assert all(np.float64(v).tobytes() == np.float64(vars(ref_value)[f]).tobytes()
                           for f, v in vars(value).items())
            elif ref_value is None:
                assert value is None
            else:
                assert value.dtype == ref_value.dtype
                assert value.tobytes() == ref_value.tobytes()
        monitor.update(report.entropy_production, report.entropy_scale, report.expansion)
        ref_monitor.update(*ref_values[:2], ref_values[3])
        assert vars(monitor) == vars(ref_monitor)
    return state


SCHEMES = [("sgh", "predictor_only"), ("sgh", "predictor_corrector"),
           ("cch", "quadratic"), ("cch", "acoustic")]
SCHEME_IDS = ["sgh-predictor", "sgh-predictor-corrector", "cch-quadratic", "cch-acoustic"]


@pytest.mark.parametrize("method, option", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("name", uh.PROBLEM_NAMES)
def test_builtin_problems_match_reference(name, method, option):
    problem = uh.by_name(name)
    mesh, state = uh.build_initial(problem, 40, method)
    # a short ramp to the CFL step, so that the shocks form within the 50 steps
    march_both(problem, mesh, state, method, option,
               lambda k, candidate: candidate * min(1.0, 0.05 * 1.25 ** k))


@pytest.mark.parametrize("method, option", SCHEMES, ids=SCHEME_IDS)
def test_array_large_state_matches_reference(method, option):
    problem, n, dt = _riemann_array_spec(1)   # the array_large problem, bench/ read-only
    mesh, state = uh.build_initial(problem, n, method)
    march_both(problem, mesh, state, method, option, lambda k, candidate: dt)
