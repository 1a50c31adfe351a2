"""Audit machinery: ledger telescopes, entropy production values, error norms,
profile features, and the entropy monitor."""

from types import SimpleNamespace

import numpy as np
import pytest

import unihydro as uh
from unihydro import cch, sgh
from unihydro import diagnostics as diag
from unihydro.eos import IdealGas
from unihydro.mesh import Workspace
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

    @pytest.mark.parametrize("method", ["sgh", "cch"])
    def test_mass_is_summed_unless_the_opening_masses_carry_over(self, method):
        """A step's mesh that carries the opening read-only ``cell_mass`` array
        keeps the opening mass; any other masses are summed, so a change shows."""
        problem = uh.by_name("sod")
        gas = IdealGas(problem.gamma)
        mesh, state = uh.build_initial(problem, 10, method)
        step = sgh.step if method == "sgh" else cch.step
        ledger = diag.ConservationLedger.open(mesh, state)
        moved, state, report = step(state, mesh, gas, 1e-4, problem.bc_left, problem.bc_right)
        assert moved.cell_mass is mesh.cell_mass
        diag.audit_step(ledger, moved, state, report.boundary)
        assert ledger.mass == ledger.mass0 and ledger.mass_drift == 0.0
        assert not ledger.violations

        # another cell_mass array with another sum
        heavier = uh.Mesh1D(moved.node_x, moved.cell_mass * 1.5, moved.node_mass)
        diag.audit_step(ledger, heavier, state, diag.BoundaryFlux())
        assert ledger.mass == pytest.approx(1.5 * ledger.mass0, rel=1e-15)
        assert ledger.violations[-1]["mass_drift"] == ledger.mass_drift != 0.0

        # the opening array itself, made writeable and edited in place
        ledger = diag.ConservationLedger.open(mesh, state)
        mesh.cell_mass.setflags(write=True)
        mesh.cell_mass[0] *= 2.0
        diag.audit_step(ledger, moved, state, diag.BoundaryFlux())
        assert ledger.mass == float(mesh.cell_mass.sum()) > ledger.mass0
        assert ledger.violations[-1]["mass_drift"] == ledger.mass_drift != 0.0

    @pytest.mark.parametrize("method", ["sgh", "cch"])
    def test_nan_residual_is_a_violation(self, method):
        """Boundary work whose total overflows leaves an inf drift over an inf
        scale: a NaN energy residual, which the audit records as a violation."""
        mesh, state = uh.build_initial(uh.by_name("sod"), 10, method)
        ledger = diag.ConservationLedger.open(mesh, state)
        diag.audit_step(ledger, mesh, state, diag.BoundaryFlux(work_left=1e308, work_right=1e308))
        assert np.isnan(ledger.energy_residual_rel) and ledger.momentum_residual_rel == 0.0
        assert len(ledger.violations) == 1
        assert np.isnan(ledger.violations[0]["energy_residual_rel"])


def recomputed_residuals(led):
    """The relative residuals by their rule, from the ledger's totals, fluxes
    and scales: the drift of a total less the boundaries' share, over the scale."""
    momentum = (led.momentum - led.momentum0) - (led.impulse_left + led.impulse_right)
    energy = (led.energy - led.energy0) - (led.work_left + led.work_right)
    return (abs(momentum) / max(led.momentum_scale, 1e-300),
            abs(energy) / max(led.energy_scale, 1e-300))


@pytest.mark.parametrize("method", ["sgh", "cch"])
@pytest.mark.parametrize("problem", [walled_collision_problem(), uh.sedov()],
                         ids=["walled_collision", "sedov"])
def test_stored_residuals_stay_current(monkeypatch, problem, method):
    """After ``open`` and after every ``audit_step`` of a run, the stored
    relative residuals equal the rule recomputed from the ledger."""
    opened, audited, seen = diag.ConservationLedger.open, diag.audit_step, []

    def check(ledger):
        stored = (ledger.momentum_residual_rel, ledger.energy_residual_rel)
        assert stored == recomputed_residuals(ledger)
        seen.append(stored)
        return ledger

    monkeypatch.setattr(diag.ConservationLedger, "open",
                        classmethod(lambda cls, mesh, state: check(opened(mesh, state))))
    monkeypatch.setattr(diag, "audit_step", lambda *args: check(audited(*args)))
    result = uh.run(uh.RunConfig(problem=problem, method=method, n_cells=30))
    assert len(seen) == result.steps + 1
    assert seen[-1] == (result.ledger.momentum_residual_rel, result.ledger.energy_residual_rel)
    assert any(m > 0.0 for m, _ in seen) and any(e > 0.0 for _, e in seen)


class TestEntropyProduction:
    def test_sgh_expansion_exactly_zero(self):
        # star pressure equals cell pressure for nonnegative divergence
        p = np.array([1.0, 2.0])
        assert np.all(diag.entropy_production_sgh(p, p, np.array([0.3, 0.0])) == 0.0)

    def test_sgh_compression_value(self):
        # (p - p*) du with p* = p + z|du| + k rho du^2 at du = -0.1:
        # 0.1*0.1 + 1.2*0.001 = 0.0112
        from unihydro.closure import sgh_star_pressure
        p_star = sgh_star_pressure(1.0, 1.0, 1.0, -0.1, 1.2, Workspace(2).faces[:2])
        got = diag.entropy_production_sgh(1.0, p_star, -0.1)
        assert got == pytest.approx(0.0112, rel=1e-12)

    def test_cch_uniform_is_zero(self):
        n = 5
        p = np.ones(n)
        u = np.full(n, 0.2)
        u_star = np.full(n + 1, 0.2)
        ps = np.ones(n + 1)
        got = diag.entropy_production_cch(p, u - u_star[:-1], u_star[1:] - u, ps, ps,
                                          Workspace(n).cells[0])
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


def step_report(production, scale):
    """The two fields of a step report that ``EntropyMonitor.update`` reads."""
    return SimpleNamespace(entropy_production=np.array(production),
                           entropy_scale=np.array(scale))


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
        mon.update(step_report([1.0, -1.0], [1.0, 1.0]))
        assert mon.violations == 1
        assert mon.worst_normalized == pytest.approx(-1.0)
        # a zero-scale cell counts as a violation but is not normalized, and
        # positive production (here over a zero scale) never lowers the worst
        mon = diag.EntropyMonitor()
        mon.update(step_report([2.0, -3.0, -1.0, -0.5, 0.0], [0.0, 0.0, 4.0, 1.0, 0.0]))
        assert mon.violations == 3
        assert mon.worst_normalized == -0.5
        mon.update(step_report([1.0, -0.0], [0.0, 2.0]))
        assert mon.worst_normalized == -0.5
        # all production nonnegative: no violation, and the worst stays
        mon.update(step_report([3.0, 0.0, 0.25, -0.0, 7.0], [1.0, 0.0, 1.0, 2.0, 0.0]))
        assert (mon.violations, mon.worst_normalized) == (3, -0.5)
        mon.update(step_report([0.5, 0.0], [1.0, 1.0]))
        mon.update(step_report([-2.0, 0.125], [0.0, 1.0]))
        assert (mon.violations, mon.worst_normalized) == (4, -0.5)

    def test_nan_production_takes_the_full_path(self):
        """A NaN anywhere fails the nonnegative fast test, so the negative cell
        after it is still counted and normalized."""
        mon = diag.EntropyMonitor()
        mon.update(step_report([1.0, np.nan, -2.0], [1.0, 1.0, 4.0]))
        assert (mon.violations, mon.worst_normalized) == (1, -0.5)

    def test_scale_is_read_only_for_negative_production(self):
        """A step with no negative production leaves the lazy scale unformed."""
        class Report:
            entropy_production = np.array([0.0, 2.0, -0.0])

            @property
            def entropy_scale(self):
                raise AssertionError("entropy_scale read")

        mon = diag.EntropyMonitor()
        mon.update(Report())
        assert (mon.violations, mon.worst_normalized) == (0, 0.0)
