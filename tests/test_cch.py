"""Cell-centered stepper tests: nodal solves, boundary rules, conservation
cancellation, symmetry preservation, and the energy-consistency identity."""

import numpy as np
import pytest

import unihydro as uh
from unihydro import cch, closure
from unihydro.diagnostics import ConservationLedger, audit_step
from unihydro.eos import IdealGas
from unihydro.errors import SolverFailure
from unihydro.mesh import CchState, Mesh1D
from unihydro.problems import BoundaryCondition

GAS = IdealGas(1.4)
TRANSMISSIVE = BoundaryCondition.transmissive()


def make_state(rho, u, p, gas=GAS):
    rho = np.asarray(rho, float)
    u = np.asarray(u, float)
    p = np.asarray(p, float)
    eps = np.asarray(gas.internal_energy(rho, p))
    return CchState(rho, u, eps + 0.5 * u ** 2, eps, p,
                    np.asarray(gas.sound_speed(rho, p)))


def uniform_mesh(n, span=(0.0, 1.0)):
    return Mesh1D.from_nodes(np.linspace(span[0], span[1], n + 1))


class TestSolveAllNodes:
    def test_uniform_state(self):
        n = 6
        state = make_state(np.ones(n), np.full(n, 0.3), np.ones(n))
        nodal = cch.solve_all_nodes(state, GAS, TRANSMISSIVE, TRANSMISSIVE)
        np.testing.assert_allclose(nodal.u_star, 0.3, rtol=1e-13)
        np.testing.assert_allclose(nodal.p_star, 1.0, rtol=1e-13)
        # transmissive boundaries are exact copies of the cell state
        assert nodal.u_star[0] == 0.3 and nodal.p_star[0] == 1.0

    def test_wall_compression(self):
        # uniform leftward flow against a left wall raises the wall pressure
        n = 4
        state = make_state(np.ones(n), np.full(n, -0.5), np.ones(n))
        nodal = cch.solve_all_nodes(state, GAS, BoundaryCondition.wall(), TRANSMISSIVE)
        assert nodal.u_star[0] == 0.0
        assert nodal.p_star[0] > state.p[0]

    def test_wall_strong_compression_two_shock(self):
        # cold gas hitting a wall: c < k|d| rejects the quadratic form, and
        # the two-shock relation p + z d + k rho d^2 takes its place
        n = 4
        state = make_state(np.ones(n), np.full(n, -2.0), np.full(n, 1e-4))
        nodal = cch.solve_all_nodes(state, GAS, BoundaryCondition.wall(), TRANSMISSIVE)
        z = state.rho[0] * state.c[0]
        assert nodal.order[0] == closure.ACOUSTIC
        assert nodal.p_star[0] == pytest.approx(1e-4 + z * 2.0 + 1.2 * 4.0, rel=1e-14)

    def test_wall_strong_expansion_stays_linear(self):
        n = 4
        state = make_state(np.ones(n), np.full(n, -2.0), np.full(n, 1e-4))
        nodal = cch.solve_all_nodes(state, GAS, TRANSMISSIVE, BoundaryCondition.wall())
        z = state.rho[-1] * state.c[-1]
        assert nodal.order[-1] == closure.ACOUSTIC
        assert nodal.p_star[-1] == 1e-4 - z * 2.0

    def test_rejected_nodes_take_two_shock_solve(self):
        # a strong pressure jump into cold gas: the quadratic root is rejected
        state = make_state([1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0],
                           [6.4e7, 6.4e7, 4e-13, 4e-13])
        nodal = cch.solve_all_nodes(state, GAS, TRANSMISSIVE, TRANSMISSIVE)
        rejected = np.flatnonzero(nodal.order[1:-1] == closure.ACOUSTIC) + 1
        assert 2 in rejected
        np.testing.assert_array_equal(nodal.p_star_left[rejected],
                                      nodal.p_star_right[rejected])
        args = (state.rho[1], state.c[1], state.p[1], state.u[1],
                state.rho[2], state.c[2], state.p[2], state.u[2])
        u_ac, p_ac = closure._acoustic_kernel(*args)
        u_2s, p_2s = closure._two_shock_kernel(*args, GAS.gamma, u_ac - args[3],
                                              args[7] - u_ac)
        assert nodal.u_star[2] == u_2s and nodal.p_star[2] == p_2s
        assert p_2s > p_ac

    def test_rejected_nodes_balance_on_blast_wave(self):
        problem = uh.by_name("sedov")
        mesh, state = uh.build_initial(problem, 100, "cch")
        n_rejected = 0
        for _ in range(200):
            mesh, new_state, report = cch.step(state, mesh, GAS, 2e-7,
                                               problem.bc_left, problem.bc_right)
            nodal = report.nodal
            rejected = np.flatnonzero(nodal.order[1:-1] == closure.ACOUSTIC) + 1
            np.testing.assert_array_equal(nodal.p_star_left[rejected],
                                          nodal.p_star_right[rejected])
            n_rejected += rejected.size
            state = new_state
        assert n_rejected > 0

    def test_prescribed_velocity_star(self):
        n = 4
        state = make_state(np.ones(n), np.full(n, -2.0), np.full(n, 0.4))
        bc = BoundaryCondition.prescribed_velocity(-2.0)
        nodal = cch.solve_all_nodes(state, GAS, bc, TRANSMISSIVE)
        # boundary moving with the fluid: no compression, star pressure = p
        assert nodal.u_star[0] == -2.0
        assert nodal.p_star[0] == pytest.approx(0.4, rel=1e-13)

    def test_prescribed_pressure_star(self):
        n = 4
        state = make_state(np.ones(n), np.zeros(n), np.ones(n))
        bc = BoundaryCondition.prescribed_pressure(2.0)
        nodal = cch.solve_all_nodes(state, GAS, bc, TRANSMISSIVE)
        assert nodal.p_star[0] == 2.0
        # higher outside pressure drives the boundary node inward
        assert nodal.u_star[0] > 0.0

    def test_sod_interface_matches_closure(self):
        state = make_state([1.0, 0.125], [0.0, 0.0], [1.0, 0.1])
        nodal = cch.solve_all_nodes(state, GAS, TRANSMISSIVE, TRANSMISSIVE,
                                    solver="acoustic")
        assert nodal.u_star[1] == pytest.approx(0.6841486813454064, rel=1e-12)
        assert nodal.p_star[1] == pytest.approx(0.19050436353163594, rel=1e-12)

    def test_solver_validation(self):
        state = make_state(np.ones(3), np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            cch.solve_all_nodes(state, GAS, TRANSMISSIVE, TRANSMISSIVE, solver="hll")


class TestStep:
    def test_uniform_flow_translates_only(self):
        n = 8
        state = make_state(np.ones(n), np.full(n, 0.4), np.ones(n))
        mesh = uniform_mesh(n)
        new_mesh, new_state, _ = cch.step(state, mesh, GAS, 1e-3,
                                          TRANSMISSIVE, TRANSMISSIVE)
        np.testing.assert_allclose(new_mesh.node_x, mesh.node_x + 0.4e-3, rtol=1e-14)
        # star pressures are identical at every node, so u and E are untouched
        np.testing.assert_array_equal(new_state.u, state.u)
        np.testing.assert_array_equal(new_state.E, state.E)
        np.testing.assert_allclose(new_state.rho, state.rho, rtol=1e-13)

    def test_energy_identity_exact(self):
        problem = uh.by_name("sod")
        mesh, state = uh.build_initial(problem, 50, "cch")
        for _ in range(20):
            mesh, state, _ = cch.step(state, mesh, GAS, 2e-4,
                                      problem.bc_left, problem.bc_right)
        np.testing.assert_array_equal(state.eps, state.E - 0.5 * state.u ** 2)

    def test_one_step_conservation_cancellation(self):
        problem = uh.by_name("sod")
        mesh, state = uh.build_initial(problem, 100, "cch")
        ledger = ConservationLedger.open(mesh, state)
        dt = 1e-4
        new_mesh, new_state, report = cch.step(state, mesh, GAS, dt,
                                               problem.bc_left, problem.bc_right)
        audit_step(ledger, new_mesh, new_state, report.boundary)
        assert ledger.mass_drift == 0.0
        assert ledger.momentum_residual_rel <= 1e-12
        assert ledger.energy_residual_rel <= 1e-12

    def test_mirror_symmetry_preserved(self):
        """Head-on collision data stays bitwise mirror-symmetric."""
        n = 64
        u0 = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        state = make_state(np.ones(n), u0, np.ones(n))
        mesh = uniform_mesh(n, span=(-1.0, 1.0))
        for _ in range(100):
            mesh, state, _ = cch.step(state, mesh, GAS, 1e-4,
                                      TRANSMISSIVE, TRANSMISSIVE)
        asym_rho = np.max(np.abs(state.rho - state.rho[::-1]))
        asym_u = np.max(np.abs(state.u + state.u[::-1]))
        assert asym_rho <= 1e-10
        assert asym_u <= 1e-10

    def test_entropy_production_nonnegative_on_sod(self):
        problem = uh.by_name("sod")
        mesh, state = uh.build_initial(problem, 80, "cch")
        dt = 1e-4
        for _ in range(40):
            new_mesh, new_state, report = cch.step(state, mesh, GAS, dt,
                                                   problem.bc_left, problem.bc_right)
            us = report.nodal.u_star
            scale = state.p * (np.abs(state.u - us[:-1]) + np.abs(us[1:] - state.u))
            assert np.all(report.entropy_production >= -1e-12 * scale)
            mesh, state = new_mesh, new_state

    def test_negative_energy_is_solver_failure(self):
        # mixed strong expansion/compression with near-vacuum pockets: the
        # large dt drives one cell's kinetic part past its total energy
        state = make_state([2.871, 0.3057, 0.7118, 2.2278],
                           [1.6453, 3.2626, 9.9275, 15.6837],
                           [0.2192, 4.0e-9, 0.0528, 4.7428])
        mesh = uniform_mesh(4)
        with pytest.raises(SolverFailure, match="internal energy"):
            cch.step(state, mesh, GAS, 0.1715, TRANSMISSIVE, TRANSMISSIVE)

    def test_acoustic_and_quadratic_agree_on_contact_flow(self):
        # uniform u and p with a density field: star states are the shared u, p
        rng = np.random.default_rng(3)
        n = 30
        rho = rng.uniform(0.2, 3.0, n)
        state = make_state(rho, np.full(n, 0.3), np.ones(n))
        for solver in ("acoustic", "quadratic"):
            nodal = cch.solve_all_nodes(state, GAS, TRANSMISSIVE, TRANSMISSIVE, solver)
            np.testing.assert_allclose(nodal.u_star, 0.3, rtol=1e-11)
            np.testing.assert_allclose(nodal.p_star, 1.0, rtol=1e-11)
