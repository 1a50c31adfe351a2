"""Staggered-grid stepper tests: accelerations, the predictor/corrector
passes, conservation telescopes, and the entropy branches."""

import numpy as np
import pytest

import unihydro as uh
from unihydro import sgh
from unihydro.diagnostics import ConservationLedger, audit_step
from unihydro.eos import IdealGas
from unihydro.errors import SolverFailure
from unihydro.mesh import Mesh1D, SghState
from unihydro.problems import BoundaryCondition

GAS = IdealGas(1.4)
TRANSMISSIVE = BoundaryCondition.transmissive()


def uniform_state(n, u=0.0, rho=1.0, p=1.0):
    ones = np.ones(n)
    eps = GAS.internal_energy(rho, p) * ones
    return SghState(np.full(n + 1, u), rho * ones, eps,
                    p * ones, np.asarray(GAS.sound_speed(rho, p)) * ones)


def uniform_mesh(n, span=(0.0, 1.0)):
    return Mesh1D.from_nodes(np.linspace(span[0], span[1], n + 1))


class TestNodalAcceleration:
    def test_uniform_pressure_gives_zero(self):
        alpha = sgh.nodal_acceleration(np.full(4, 0.7), np.full(5, 0.1), 0.7, 0.7)
        np.testing.assert_array_equal(alpha, 0.0)

    def test_interior_value(self):
        # higher pressure on the left pushes the node to the right
        alpha = sgh.nodal_acceleration([2.0, 1.0], [0.1, 0.1, 0.1], 2.0, 1.0)
        assert alpha[1] == pytest.approx(10.0, rel=1e-14)

    def test_wall_keeps_node_fixed(self):
        state = uniform_state(4, u=0.0)
        mesh = uniform_mesh(4)
        wall = BoundaryCondition.wall()
        _, new_state, report = sgh.predictor_step(state, mesh, GAS, 1e-3, wall, wall)
        assert report.u_star[0] == 0.0
        assert new_state.node_u[0] == 0.0


class TestHalfStepVelocity:
    def test_zero_acceleration(self):
        u = np.array([0.1, 0.2])
        np.testing.assert_array_equal(sgh.half_step_velocity(u, np.zeros(2), 0.5), u)

    def test_value(self):
        assert sgh.half_step_velocity(0.0, 10.0, 0.01) == pytest.approx(0.05)

    def test_full_step_recovery(self):
        u, a, dt = 0.3, 2.0, 0.01
        u_star = sgh.half_step_velocity(u, a, dt)
        assert 2.0 * u_star - u == pytest.approx(u + a * dt, rel=1e-14)


class TestPredictorStep:
    def test_uniform_flow_translates_only(self):
        state = uniform_state(8, u=0.4)
        mesh = uniform_mesh(8)
        new_mesh, new_state, _ = sgh.predictor_step(state, mesh, GAS, 1e-3,
                                                    TRANSMISSIVE, TRANSMISSIVE)
        np.testing.assert_allclose(new_mesh.node_x, mesh.node_x + 0.4e-3, rtol=1e-14)
        # velocities are untouched exactly; rho = m/V picks up round-off from
        # the shifted coordinates
        np.testing.assert_array_equal(new_state.node_u, state.node_u)
        np.testing.assert_allclose(new_state.rho, state.rho, rtol=1e-13)
        np.testing.assert_allclose(new_state.eps, state.eps, rtol=1e-13)

    def test_local_compression_heats_locally(self):
        n = 7
        state = uniform_state(n)
        state.node_u[3] = 0.2  # compresses cell 3, expands cell 2
        mesh = uniform_mesh(n)
        dt = 1e-6
        _, new_state, report = sgh.predictor_step(state, mesh, GAS, dt,
                                                  TRANSMISSIVE, TRANSMISSIVE)
        d_eps = new_state.eps - state.eps
        assert d_eps[3] > 0.0                      # compressed cell heats
        assert d_eps[0] == 0.0 and d_eps[6] == 0.0  # far cells untouched
        # cells adjacent to the disturbance move only at O(dt^2)
        assert abs(d_eps[1]) <= 1e-3 * d_eps[3]
        assert report.p_star[3] > state.p[3]
        assert report.p_star[2] == state.p[2]       # expansion keeps pressure

    def test_one_step_telescopes(self):
        problem = uh.by_name("sod")
        mesh, state = uh.build_initial(problem, 100, "sgh")
        ledger = ConservationLedger.open(mesh, state)
        dt = 1e-4
        new_mesh, new_state, report = sgh.predictor_step(
            state, mesh, GAS, dt, problem.bc_left, problem.bc_right)
        audit_step(ledger, new_mesh, new_state, report.boundary)
        assert ledger.mass_drift == 0.0
        assert ledger.momentum_residual_rel <= 1e-11
        assert ledger.energy_residual_rel <= 1e-11

    def test_negative_energy_is_solver_failure(self):
        # expansion work at unit pressure exceeds the available internal energy
        state = uniform_state(4, p=1.0)
        state.node_u[:] = np.linspace(0.0, 40.0, 5)
        mesh = uniform_mesh(4)
        with pytest.raises(SolverFailure, match="internal energy"):
            sgh.predictor_step(state, mesh, GAS, 0.1, TRANSMISSIVE, TRANSMISSIVE)


class TestCorrectorStep:
    def test_uniform_flow_matches_predictor(self):
        state = uniform_state(6, u=0.2)
        mesh = uniform_mesh(6)
        m1, s1, _ = sgh.step(state, mesh, GAS, 1e-3, TRANSMISSIVE, TRANSMISSIVE,
                             mode="predictor_only")
        m2, s2, _ = sgh.step(state, mesh, GAS, 1e-3, TRANSMISSIVE, TRANSMISSIVE,
                             mode="predictor_corrector")
        np.testing.assert_array_equal(s1.rho, s2.rho)
        np.testing.assert_array_equal(s1.node_u, s2.node_u)
        np.testing.assert_array_equal(m1.node_x, m2.node_x)

    def test_smooth_expansion_produces_zero_entropy(self):
        n = 10
        state = uniform_state(n)
        state.node_u[:] = np.linspace(-0.1, 0.1, n + 1)  # du > 0 everywhere
        mesh = uniform_mesh(n)
        _, _, report = sgh.step(state, mesh, GAS, 1e-4, TRANSMISSIVE, TRANSMISSIVE,
                                mode="predictor_corrector")
        np.testing.assert_array_equal(report.entropy_production, 0.0)

    def test_shock_position_matches_predictor_only(self):
        from oracles import crossing_position
        positions = {}
        for mode in ("predictor_only", "predictor_corrector"):
            result = uh.run(uh.RunConfig(problem="sod", method="sgh",
                                         n_cells=100, sgh_mode=mode))
            positions[mode] = crossing_position(
                result.mesh.cell_centers, result.state.rho, 0.19, window=(0.7, 1.0))
        # within one nominal cell of each other
        assert abs(positions["predictor_only"] - positions["predictor_corrector"]) <= 0.01

    def test_momentum_telescope_per_step(self):
        problem = uh.by_name("lax")
        gas = IdealGas(problem.gamma)
        mesh, state = uh.build_initial(problem, 60, "sgh")
        ledger = ConservationLedger.open(mesh, state)
        dt = 5e-5
        for _ in range(25):
            new_mesh, new_state, report = sgh.step(
                state, mesh, gas, dt, problem.bc_left, problem.bc_right,
                mode="predictor_corrector")
            audit_step(ledger, new_mesh, new_state, report.boundary)
            mesh, state = new_mesh, new_state
        assert ledger.momentum_residual_rel <= 1e-11


class TestEntropyBranches:
    def test_compression_production_nonnegative(self):
        rng = np.random.default_rng(17)
        problem = uh.by_name("sod")
        mesh, state = uh.build_initial(problem, 80, "sgh")
        state.node_u[:] += 0.05 * rng.normal(size=81)
        dt = 1e-5
        for _ in range(50):
            mesh, state, report = sgh.step(state, mesh, GAS, dt,
                                           problem.bc_left, problem.bc_right)
            scale = 1e-12 * np.abs(state.p * report.du)
            assert np.all(report.entropy_production >= -scale)
            # expansion cells produce exactly zero
            np.testing.assert_array_equal(
                report.entropy_production[report.du >= 0.0], 0.0)

    def test_step_mode_validation(self):
        state = uniform_state(4)
        mesh = uniform_mesh(4)
        with pytest.raises(ValueError):
            sgh.step(state, mesh, GAS, 1e-3, TRANSMISSIVE, TRANSMISSIVE, mode="rk2")
