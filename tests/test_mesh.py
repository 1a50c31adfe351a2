"""Mesh construction, geometry updates, and mass-conservation structure."""

import numpy as np
import pytest

import unihydro as uh
from unihydro.eos import IdealGas
from unihydro.errors import MeshTangled, SolverFailure
from unihydro.mesh import Mesh1D, _greatest, _least, cell_thermo, update_geometry
from unihydro.problems import BoundaryCondition, ProblemSpec, Region, build_initial

GAS = IdealGas(1.4)


def spec(*regions, domain=(0.0, 1.0)):
    return ProblemSpec(name="test", domain=domain, t_end=0.1, gamma=1.4, regions=regions,
                       bc_left=BoundaryCondition.transmissive(),
                       bc_right=BoundaryCondition.transmissive(),
                       reference="self_converged")


UNIFORM = spec(Region(0.0, 1.0, rho=1.0, u=0.0, p=1.0))


class TestBuild:
    def test_uniform_cell_masses(self):
        mesh, _ = build_initial(UNIFORM, 10, "sgh")
        np.testing.assert_allclose(mesh.cell_mass, 0.1, rtol=1e-12)

    def test_uniform_node_masses(self):
        mesh, _ = build_initial(UNIFORM, 10, "sgh")
        np.testing.assert_allclose(mesh.node_mass[1:-1], 0.1, rtol=1e-12)
        np.testing.assert_allclose(mesh.node_mass[[0, -1]], 0.05, rtol=1e-12)

    def test_sod_two_cells(self):
        mesh, _ = build_initial(uh.sod(), 2, "sgh")
        np.testing.assert_allclose(mesh.cell_mass, [0.5, 0.0625], rtol=1e-12)

    def test_mass_sums_agree(self):
        mesh, _ = build_initial(uh.sod(), 7, "cch")
        assert np.sum(mesh.node_mass) == pytest.approx(np.sum(mesh.cell_mass), rel=1e-14)
        interior = mesh.subcell_mass_right[:-1] + mesh.subcell_mass_left[1:]
        np.testing.assert_allclose(mesh.node_mass[1:-1], interior, rtol=1e-14)

    def test_rejects_too_few_cells(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            build_initial(UNIFORM, 1, "sgh")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown state kind"):
            build_initial(UNIFORM, 4, "fvm")

    def test_rejects_non_finite_data(self):
        """(gamma - 1) rho e overflows to an infinite pressure."""
        overflowing = spec(Region(0.0, 1.0, rho=10.0, u=0.0, e=1e308))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite initial p"):
            build_initial(overflowing, 4, "sgh")

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError, match="nonempty interval"):
            build_initial(spec(Region(1.0, 1.0, rho=1.0, u=0.0, p=1.0), domain=(1.0, 1.0)),
                          4, "sgh")

    def test_cch_energy_consistency(self):
        _, state = build_initial(spec(Region(0.0, 1.0, rho=1.0, u=0.7, p=1.0)), 6, "cch")
        np.testing.assert_array_equal(state.eps, state.E - 0.5 * state.u ** 2)

    def test_rejects_underflowing_mass(self):
        tiny = spec(Region(0.0, 1e-300, rho=1e-30, u=0.0, p=1.0), domain=(0.0, 1e-300))
        with pytest.raises(ValueError, match="cell_mass must be strictly positive"):
            build_initial(tiny, 2, "cch")

    def test_rejects_nodes_out_of_order(self):
        """Subnormal node spacing rounds some cells to zero width."""
        subnormal = spec(Region(0.0, 1e-323, rho=1.0, u=0.0, p=1.0), domain=(0.0, 1e-323))
        with pytest.raises(MeshTangled, match="node ordering"):
            build_initial(subnormal, 10, "cch")

    def test_rejects_overflowing_node_velocity(self):
        """The interface node averages two finite velocities whose sum overflows."""
        fast = spec(Region(0.0, 0.5, rho=1.0, u=1.7e308, p=1.0),
                    Region(0.5, 1.0, rho=1.0, u=1.7e308, p=1.0))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="node velocity"):
            build_initial(fast, 10, "sgh")

    @pytest.mark.parametrize("field, value, message", [
        ("rho", np.nan, "non-finite initial rho"),
        ("u", np.inf, "non-finite initial u"),
        ("rho", -1.0, "initial density must be positive"),
        ("p", -1.0, "initial pressure must be nonnegative"),
    ])
    def test_rejects_bad_sampled_data(self, monkeypatch, field, value, message):
        """``Region`` rejects such data when a spec is made, so a patched sampler
        stands in for a spec that carries it."""
        sample = ProblemSpec.primitives_at

        def bad(problem, x):
            fields = dict(zip(("rho", "u", "p"), sample(problem, x)))
            fields[field][0] = value
            return fields["rho"], fields["u"], fields["p"]

        monkeypatch.setattr(ProblemSpec, "primitives_at", bad)
        with pytest.raises(ValueError, match=message):
            build_initial(UNIFORM, 4, "sgh")


class TestUpdateGeometry:
    def test_zero_velocity_is_identity(self):
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 5))
        moved = update_geometry(mesh, np.zeros(5), 0.37)
        np.testing.assert_array_equal(moved.node_x, mesh.node_x)

    def test_rigid_translation(self):
        mesh = Mesh1D.from_nodes([0.0, 1.0])
        moved = update_geometry(mesh, np.array([1.0, 1.0]), 0.1)
        np.testing.assert_allclose(moved.node_x, [0.1, 1.1], rtol=1e-15)

    def test_crossing_is_fatal(self):
        mesh = Mesh1D.from_nodes([0.0, 1.0])
        for dt in (0.6, 0.5):  # crossed nodes, then a zero-width cell
            with pytest.raises(MeshTangled, match="tangling"):
                update_geometry(mesh, np.array([1.0, -1.0]), dt)

    def test_volumes_checked_once_and_read_only(self):
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 5))
        moved = update_geometry(mesh, np.linspace(0.0, 0.4, 5), 0.05)
        assert moved.cell_volumes.tobytes() == np.diff(moved.node_x).tobytes()
        for a in (moved.node_x, moved.cell_volumes, mesh.node_x, mesh.cell_volumes):
            assert not a.flags.writeable

    def test_masses_shared_not_copied(self):
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 5))
        moved = update_geometry(mesh, np.full(5, 0.1), 0.05)
        assert moved.cell_mass is mesh.cell_mass
        assert moved.node_mass is mesh.node_mass


class TestExtrema:
    """``_least``/``_greatest`` give the values ``min``/``max`` give."""

    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 2.0, 1.0, 3.0],         # ties: the first is taken
        [1.0, np.nan, -5.0, np.nan],      # NaN inside wins over any number
        [np.nan, 1.0],
        [2.0, -np.inf, np.inf, -1.0],
        [0.0, -0.0, 1.0, -1.0],           # signed-zero ties compare equal
        [-0.0, 0.0],
        [np.inf, np.inf],
        [-np.inf],
        [True, False, True],              # a mask: is every entry true?
        [True, True],
    ], ids=["ties", "nan", "nan_first", "infinities", "signed_zeros", "zeros_only",
            "all_inf", "single", "mask", "mask_all_true"])
    def test_value_is_that_of_min_and_max(self, values):
        a = np.array(values)
        for fast, reduce in ((_least, np.min), (_greatest, np.max)):
            got, want = fast(a), reduce(a)
            assert got.dtype == want.dtype
            assert got == want or (np.isnan(got) and np.isnan(want))


class TestCellThermo:
    def test_values_are_the_eos_values(self):
        rho, eps = np.array([1.0, 0.125, 3.0]), np.array([2.5, 2.0, 1e-3])
        p, c = cell_thermo(GAS, rho, eps, (1e-4, 1e-2))
        assert p.tobytes() == GAS.pressure(rho, eps).tobytes()
        assert c.tobytes() == GAS.sound_speed(rho, p).tobytes()

    @pytest.mark.parametrize("rho, eps, reason", [
        ([1.0, 10.0], [1.0, 1e308], "non-finite pressure"),
        ([1.0, np.inf], [1.0, 1.0], "non-finite density"),
        ([1.0, 0.0], [1.0, 1.0], "nonpositive density"),
        ([1.0, np.nan], [1.0, 1.0], "non-finite density"),
        ([1.0, 1.0], [1.0, -np.inf], "non-finite internal energy"),
        ([1.0, 1.0], [1.0, -1.0], "nonpositive internal energy"),
        ([1.0, 1.0], [1.0, np.inf], "non-finite internal energy"),
    ])
    def test_invalid_state_is_solver_failure_naming_the_cell(self, rho, eps, reason):
        """Invalid states the EOS used to reject with ValueError. An infinite
        rho or eps with the other finite is caught by the finite-pressure test."""
        with np.errstate(over="ignore"), pytest.raises(SolverFailure) as err:
            cell_thermo(GAS, rho, eps)
        assert err.value.reason == reason
        assert err.value.cell == 1

    def test_negative_floors_act_as_zero(self):
        with pytest.raises(SolverFailure, match="nonpositive internal energy"):
            cell_thermo(GAS, [1.0, 1.0], [1.0, -0.5], (-1.0, -1.0))

    @pytest.mark.parametrize("floors, cell", [((0.5, 0.0), 2), ((0.0, 0.5), 1)])
    def test_each_floor_names_the_cell_of_its_field(self, floors, cell):
        rho, eps = np.array([1.0, 0.25, 2.0]), np.array([1.0, 2.0, 0.25])
        with pytest.raises(SolverFailure, match="positivity floor hit") as err:
            cell_thermo(GAS, rho, eps, floors)
        assert err.value.cell == cell
        cell_thermo(GAS, rho, eps, (0.2, 0.2))


class TestRunInvariants:
    def test_masses_bitwise_constant_and_density_consistent(self):
        cfg = uh.RunConfig(problem="sod", method="sgh", n_cells=40, t_end=0.02)
        problem = uh.by_name("sod")
        mesh0, _ = uh.build_initial(problem, 40, "sgh")
        result = uh.run(cfg)
        np.testing.assert_array_equal(result.mesh.cell_mass, mesh0.cell_mass)
        np.testing.assert_array_equal(result.mesh.node_mass, mesh0.node_mass)
        # rho * V recovers the frozen mass to round-off
        np.testing.assert_allclose(result.state.rho * result.mesh.cell_volumes,
                                   result.mesh.cell_mass, rtol=1e-14)

    def test_galilean_shift_leaves_thermodynamics_unchanged(self):
        """Adding a constant velocity changes positions only."""
        from unihydro import sgh as sgh_mod

        problem = uh.by_name("sod")
        gas = IdealGas(problem.gamma)
        mesh_a, state_a = uh.build_initial(problem, 50, "sgh")
        mesh_b, state_b = uh.build_initial(problem, 50, "sgh")
        shift = 0.3
        state_b.node_u += shift
        dt = 1e-3
        for _ in range(30):
            mesh_a, state_a, _ = sgh_mod.step(state_a, mesh_a, gas, dt,
                                              problem.bc_left, problem.bc_right)
            mesh_b, state_b, _ = sgh_mod.step(state_b, mesh_b, gas, dt,
                                              problem.bc_left, problem.bc_right)
        np.testing.assert_allclose(mesh_b.cell_volumes, mesh_a.cell_volumes, rtol=1e-12)
        np.testing.assert_allclose(state_b.rho, state_a.rho, rtol=1e-12)
        np.testing.assert_allclose(state_b.p, state_a.p, rtol=1e-12)
        np.testing.assert_allclose(state_b.node_u - shift, state_a.node_u, atol=1e-12)
