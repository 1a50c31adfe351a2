"""Audit machinery: ledger telescopes, entropy production values, error norms,
profile features, and the entropy monitor."""

import numpy as np
import pytest

import unihydro as uh
from unihydro import diagnostics as diag
from unihydro.eos import IdealGas
from unihydro.problems import BoundaryCondition, ProblemSpec, Region

from oracles import count_extrema, crossing_position


def walled_collision_problem():
    """Gas driven into both walls: momentum drift must equal wall impulse."""
    return ProblemSpec(
        name="collision", domain=(0.0, 1.0), t_end=0.05, gamma=1.4,
        regions=(Region(0.0, 0.5, rho=1.0, u=-0.5, p=1.0),
                 Region(0.5, 1.0, rho=1.0, u=0.5, p=1.0)),
        bc_left=BoundaryCondition.wall(),
        bc_right=BoundaryCondition.wall(),
        reference="exact_riemann")


class TestLedger:
    def test_uniform_flow_has_no_drift(self):
        problem = ProblemSpec(
            name="uniform", domain=(0.0, 1.0), t_end=0.05, gamma=1.4,
            regions=(Region(0.0, 1.0, rho=1.0, u=0.3, p=1.0),),
            bc_left=BoundaryCondition.transmissive(),
            bc_right=BoundaryCondition.transmissive(),
            reference="exact_riemann")
        for method in ("sgh", "cch"):
            result = uh.run(uh.RunConfig(problem=problem, method=method, n_cells=20))
            led = result.ledger
            assert led.mass_drift == 0.0
            assert led.momentum_residual_rel <= 1e-13
            assert led.energy_residual_rel <= 1e-13

    def test_sod_full_run_energy_telescope(self):
        result = uh.run(uh.RunConfig(problem="sod", method="sgh", n_cells=100))
        assert result.ledger.energy_residual_rel <= 1e-10
        assert result.ledger.momentum_residual_rel <= 1e-10
        assert not result.ledger.violations

    @pytest.mark.parametrize("method", ["sgh", "cch"])
    def test_wall_collision_momentum_matches_impulse(self, method):
        result = uh.run(uh.RunConfig(problem=walled_collision_problem(),
                                     method=method, n_cells=50))
        led = result.ledger
        drift = led.momentum - led.momentum0
        assert drift == pytest.approx(led.boundary_impulse,
                                      abs=1e-10 * max(1.0, led.momentum_scale))
        assert led.energy_residual_rel <= 1e-10
        if method == "sgh":
            # the walls did no work after the first step (u = 0 there); the
            # only charge is absorbing the boundary nodes' initial kinetic
            # energy when the constraint takes hold
            problem = walled_collision_problem()
            mesh0, state0 = uh.build_initial(problem, 50, "sgh")
            absorbed = -0.5 * (mesh0.node_mass[0] * state0.node_u[0] ** 2
                               + mesh0.node_mass[-1] * state0.node_u[-1] ** 2)
            assert led.boundary_work == pytest.approx(absorbed, rel=1e-10)

    def test_shape_mismatch_rejected(self):
        problem = uh.by_name("sod")
        mesh, state = uh.build_initial(problem, 10, "sgh")
        other_mesh, _ = uh.build_initial(problem, 12, "sgh")
        ledger = diag.ConservationLedger.open(mesh, state)
        with pytest.raises(ValueError, match="mismatch"):
            diag.audit_step(ledger, other_mesh, state, diag.BoundaryFlux())


class TestEntropyProduction:
    def test_sgh_expansion_exactly_zero(self):
        # star pressure equals cell pressure for nonnegative divergence
        p = np.array([1.0, 2.0])
        assert np.all(diag.entropy_production_sgh(p, p, np.array([0.3, 0.0])) == 0.0)

    def test_sgh_compression_value(self):
        # (p - p*) du with p* = p + z|du| + k rho du^2 at du = -0.1:
        # 0.1*0.1 + 1.2*0.001 = 0.0112
        from unihydro.closure import sgh_star_pressure
        p_star = sgh_star_pressure(1.0, 1.0, 1.0, -0.1, 1.4)
        got = diag.entropy_production_sgh(1.0, p_star, -0.1)
        assert got == pytest.approx(0.0112, rel=1e-12)

    def test_cch_uniform_is_zero(self):
        n = 5
        p = np.ones(n)
        u = np.full(n, 0.2)
        u_star = np.full(n + 1, 0.2)
        ps = np.ones(n + 1)
        got = diag.entropy_production_cch(p, u - u_star[:-1], u_star[1:] - u, ps, ps)
        np.testing.assert_array_equal(got, 0.0)


class TestErrorNorms:
    def test_l1_identical_profiles(self):
        q = np.array([1.0, 2.0, 3.0])
        v = np.array([0.1, 0.2, 0.1])
        assert diag.l1_error(q, q, v) == 0.0

    def test_l1_constant_offset(self):
        q = np.array([1.0, 2.0, 3.0])
        v = np.array([0.1, 0.2, 0.1])
        assert diag.l1_error(q + 0.25, q, v) == pytest.approx(0.25, rel=1e-14)

    def test_l1_metric_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.uniform(0.1, 1.0, 8)
            a, b, c = rng.normal(size=(3, 8))
            dab = diag.l1_error(a, b, v)
            assert dab == pytest.approx(diag.l1_error(b, a, v), rel=1e-14)
            assert dab >= 0.0
            assert (diag.l1_error(a, c, v)
                    <= dab + diag.l1_error(b, c, v) + 1e-14)
        assert diag.l1_error(a, a, v) == 0.0

    def test_sod_regression_baseline(self):
        result = uh.run(uh.RunConfig(problem="sod", method="sgh", n_cells=100))
        ref = uh.sample_reference(uh.sod(), result.mesh.cell_centers, 0.2)
        err = diag.l1_error(result.state.rho, ref["rho"], result.mesh.cell_volumes)
        assert err == pytest.approx(0.005930619684310112, rel=1e-6)

    def test_convergence_order_examples(self):
        assert diag.convergence_order([50, 100, 200], [0.4, 0.2, 0.1]) == pytest.approx(1.0, rel=1e-12)
        assert diag.convergence_order([50, 100, 200], [0.3, 0.3, 0.3]) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            diag.convergence_order([50, 100], [0.1, 0.0])
        # one resolution, given once or twice, has no slope to fit
        for n, e in (([20, 20], [0.0267, 0.0267]), ([50], [0.1])):
            with pytest.raises(ValueError, match="two distinct resolutions"):
                diag.convergence_order(n, e)


class TestProfileFeatures:
    def test_crossing_position_interpolates(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        q = np.array([1.0, 1.0, 0.0, 0.0])
        assert crossing_position(x, q, 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_crossing_requires_a_crossing(self):
        with pytest.raises(ValueError):
            crossing_position([0.0, 1.0], [1.0, 1.0], 0.5)

    def test_count_extrema(self):
        x = np.linspace(0.0, 4.0 * np.pi, 200)
        q = np.sin(x)
        assert count_extrema(q, 0.5) == 2
        assert count_extrema(q + 0.01 * np.sin(40 * x), 0.5) == 2
        assert count_extrema(np.ones(50), 0.1) == 0


class TestEntropyMonitor:
    def test_monitor_nondecreasing_across_shock(self):
        """Cells swept by the Sod shock end with a higher ln(P tau^gamma)."""
        problem = uh.by_name("sod")
        result = uh.run(uh.RunConfig(problem="sod", method="sgh", n_cells=100))
        _, initial = uh.build_initial(problem, 100, "sgh")

        def ln_p_tau_gamma(state):
            return np.log(state.p) - problem.gamma * np.log(state.rho)

        ds = ln_p_tau_gamma(result.state) - ln_p_tau_gamma(initial)
        x = result.mesh.cell_centers
        swept = (x > 0.70) & (x < 0.84)  # behind the shock, ahead of the contact
        assert np.all(ds[swept] > 0.01)
        # nothing anywhere loses entropy beyond startup integration noise
        assert np.min(ds) >= -0.01

    def test_violation_counting(self):
        mon = diag.EntropyMonitor()
        mon.update(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        assert mon.violations == 1
        assert mon.worst_normalized == pytest.approx(-1.0)
        # a zero-scale cell counts as a violation but is not normalized, and
        # positive production (here over a zero scale) never lowers the worst
        mon = diag.EntropyMonitor()
        mon.update(np.array([2.0, -3.0, -1.0, -0.5, 0.0]),
                   np.array([0.0, 0.0, 4.0, 1.0, 0.0]))
        assert mon.violations == 3
        assert mon.worst_normalized == -0.5
        mon.update(np.array([1.0, -0.0]), np.array([0.0, 2.0]))
        assert mon.worst_normalized == -0.5
        # all production nonnegative, with an expansion mask: no violation, the
        # worst stays, and the expansion maximum is that of the masked cells
        mon.update(np.array([3.0, 0.0, 0.25, -0.0, 7.0]), np.array([1.0, 0.0, 1.0, 2.0, 0.0]),
                   np.array([False, True, True, True, False]))
        assert (mon.violations, mon.worst_normalized, mon.expansion_abs_max) == (3, -0.5, 0.25)
        mon.update(np.array([0.5, 0.0]), np.array([1.0, 1.0]), np.array([False, False]))
        mon.update(np.array([-2.0, 0.125]), np.array([0.0, 1.0]), np.array([True, True]))
        assert (mon.violations, mon.worst_normalized, mon.expansion_abs_max) == (4, -0.5, 2.0)

    def test_nan_production_takes_the_full_path(self):
        """A NaN anywhere fails the nonnegative fast test, so the negative cell
        after it is still counted and normalized."""
        mon = diag.EntropyMonitor()
        mon.update(np.array([1.0, np.nan, -2.0]), np.array([1.0, 1.0, 4.0]),
                   np.array([True, False, False]))
        assert (mon.violations, mon.worst_normalized, mon.expansion_abs_max) == (1, -0.5, 1.0)
