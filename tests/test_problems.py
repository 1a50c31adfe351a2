"""Benchmark definitions, initial-state construction, and reference sampling."""

import numpy as np
import pytest

import unihydro as uh
from unihydro.eos import IdealGas
from unihydro.mesh import CchState, Mesh1D, SghState
from unihydro.problems import (PROBLEM_NAMES, BoundaryCondition, ProblemSpec, Region,
                               build_initial, by_name, exact_riemann_star,
                               sample_reference)


def two_stage_build(problem, n_cells, method):
    """The construction ``build_initial`` replaced, kept as its reference: a
    uniform mesh with every primitive sampled at the cell centres (and, for the
    staggered state, again at the nodes), the node velocities then sampled a
    second time with interface averaging, and for a center deposit p, c and E
    recomputed after it."""
    gas = IdealGas(problem.gamma)
    a, b = float(problem.domain[0]), float(problem.domain[1])
    mid = 0.5 * (a + b)
    offsets = np.linspace(a, b, n_cells + 1) - mid
    node_x = mid + 0.5 * (offsets - offsets[::-1])
    centers = 0.5 * (node_x[:-1] + node_x[1:])
    rho, u, p = (np.array(q, dtype=float) for q in problem.primitives_at(centers))
    mesh = Mesh1D.from_nodes(node_x, rho)
    eps = np.asarray(gas.internal_energy(rho, p), dtype=float)
    c = np.asarray(gas.sound_speed(rho, p), dtype=float)
    if method == "sgh":
        node_u = np.array(problem.primitives_at(node_x)[1], dtype=float)  # sampled once
        node_u[:] = problem.primitives_at(node_x)[1]                      # and again
        width = problem.domain[1] - problem.domain[0]
        for left, right in zip(problem.regions[:-1], problem.regions[1:]):
            node_u[np.abs(node_x - left.x_hi) <= 1e-12 * width] = 0.5 * (left.u + right.u)
        state = SghState(node_u, rho, eps, p, c)
    else:
        state = CchState(rho, u, eps + 0.5 * u ** 2, eps, p, c)
    if problem.center_energy is not None:
        if n_cells % 2 == 0:
            targets = (n_cells // 2 - 1, n_cells // 2)
        else:
            targets = (n_cells // 2,)
        share = problem.center_energy / len(targets)
        for j in targets:
            state.eps[j] = share / mesh.cell_mass[j]
        state.p[:] = gas.pressure(state.rho, state.eps)
        state.c[:] = gas.sound_speed(state.rho, state.p)
        if method == "cch":
            state.E[:] = state.eps + 0.5 * state.u ** 2
    return mesh, state


# smooth densities on both sides of an interface, the second region given by its
# internal energy, moving regions and a center deposit
EXPR_SPEC = ProblemSpec(
    name="expr", domain=(-1.0, 2.0), t_end=0.1, gamma=1.4,
    regions=(Region(-1.0, 0.5, rho=1.0, u=0.3, p=1.0, rho_expr="1 + 0.5*cos(3*x)"),
             Region(0.5, 2.0, rho=1.0, u=-0.2, e=2.0, rho_expr="2 + sin(x)**2")),
    bc_left=BoundaryCondition.transmissive(), bc_right=BoundaryCondition.transmissive(),
    reference="self_converged", center_energy=5.0)


class TestDefinitions:
    def test_sod(self):
        p = uh.sod()
        assert p.gamma == 1.4 and p.domain == (0.0, 1.0) and p.t_end == 0.2
        rho, u, pr = p.primitives_at([0.25, 0.75])
        np.testing.assert_allclose(rho, [1.0, 0.125])
        np.testing.assert_allclose(u, [0.0, 0.0])
        np.testing.assert_allclose(pr, [1.0, 0.1])
        assert p.bc_left.kind == p.bc_right.kind == "transmissive"
        assert p.reference == "exact_riemann"

    def test_lax(self):
        p = uh.lax()
        assert p.t_end == 0.16
        rho, u, pr = p.primitives_at([0.2, 0.8])
        np.testing.assert_allclose(rho, [0.445, 0.5])
        np.testing.assert_allclose(u, [0.698, 0.0])
        np.testing.assert_allclose(pr, [3.528, 0.571])

    def test_double_rarefaction(self):
        p = uh.double_rarefaction()
        assert p.t_end == 0.15
        rho, u, pr = p.primitives_at([0.1, 0.9])
        np.testing.assert_allclose(rho, [1.0, 1.0])
        np.testing.assert_allclose(u, [-2.0, 2.0])
        np.testing.assert_allclose(pr, [0.4, 0.4])
        assert p.bc_left == BoundaryCondition.prescribed_velocity(-2.0)
        assert p.bc_right == BoundaryCondition.prescribed_velocity(2.0)

    def test_sedov(self):
        p = uh.sedov()
        assert p.domain == (-2.0, 2.0) and p.t_end == 0.001
        assert p.center_energy == 3.2e6
        rho, u, pr = p.primitives_at([1.0])
        assert rho[0] == 1.0 and u[0] == 0.0
        assert pr[0] == pytest.approx(0.4 * 1e-12, rel=1e-12)
        assert p.reference == "self_converged"

    def test_shu_osher(self):
        p = uh.shu_osher()
        assert p.domain == (-5.0, 5.0) and p.t_end == 1.8
        rho, u, pr = p.primitives_at([-4.5])
        assert rho[0] == pytest.approx(3.857143)
        assert u[0] == pytest.approx(2.629369)
        assert pr[0] == pytest.approx(10.333333)
        x = np.array([-3.0, 0.0, 2.0])
        rho, u, pr = p.primitives_at(x)
        np.testing.assert_allclose(rho, 1.0 + 0.2 * np.sin(5.0 * x), rtol=1e-13)
        np.testing.assert_allclose(pr, 1.0)

    def test_leblanc(self):
        p = uh.leblanc()
        assert p.gamma == pytest.approx(5.0 / 3.0)
        assert p.domain == (0.0, 9.0) and p.t_end == 6.0
        rho, u, pr = p.primitives_at([1.0, 6.0])
        np.testing.assert_allclose(rho, [1.0, 1e-3])
        # high pressure on the left drives the right-moving shock
        assert pr[0] == pytest.approx(2.0 / 3.0 * 1e-1)
        assert pr[1] == pytest.approx(2.0 / 3.0 * 1e-10)

    def test_by_name(self):
        assert by_name("sod").name == "sod"
        with pytest.raises(ValueError):
            by_name("nosuch")

    @pytest.mark.parametrize("name", uh.PROBLEM_NAMES)
    def test_serialization_roundtrip(self, name):
        p = by_name(name)
        again = ProblemSpec.from_json(p.to_json())
        assert again == p


class TestBuildInitial:
    @pytest.mark.parametrize("n", [99, 100])
    @pytest.mark.parametrize("method", ["sgh", "cch"])
    @pytest.mark.parametrize("name", [*PROBLEM_NAMES, "rho_expr"])
    def test_matches_two_stage_build(self, name, method, n):
        problem = EXPR_SPEC if name == "rho_expr" else by_name(name)
        got = build_initial(problem, n, method)
        want = two_stage_build(problem, n, method)
        for new, old in zip(got, want):
            assert type(new) is type(old)
            for field, value in vars(old).items():
                assert getattr(new, field).dtype == value.dtype, field
                assert getattr(new, field).tobytes() == value.tobytes(), field

    def test_interface_node_velocity_averages(self):
        # node exactly on the region edge takes the mean of the two sides
        _, state = build_initial(uh.double_rarefaction(), 10, "sgh")
        assert state.node_u[5] == 0.0
        np.testing.assert_allclose(state.node_u[:5], -2.0)
        np.testing.assert_allclose(state.node_u[6:], 2.0)

    @pytest.mark.parametrize("n", [10, 11])
    def test_sedov_deposit_total(self, n):
        mesh, state = build_initial(uh.sedov(), n, "sgh")
        background = 1e-12
        deposited = np.sum(mesh.cell_mass * (state.eps - background))
        assert deposited == pytest.approx(3.2e6, rel=1e-9)
        np.testing.assert_allclose(state.eps, state.eps[::-1], rtol=1e-12)

    def test_sedov_even_split_symmetric(self):
        mesh, state = build_initial(uh.sedov(), 10, "cch")
        assert state.eps[4] == state.eps[5]
        assert state.eps[4] == pytest.approx(1.6e6 / mesh.cell_mass[4], rel=1e-12)

    def test_cch_velocity_is_cellwise(self):
        _, state = build_initial(uh.lax(), 10, "cch")
        np.testing.assert_allclose(state.u[:5], 0.698)
        np.testing.assert_allclose(state.u[5:], 0.0)


class TestExactRiemannStar:
    def test_sod_values(self):
        p_star, u_star = exact_riemann_star((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), 1.4)
        assert p_star == pytest.approx(0.30313, abs=1e-5)
        assert u_star == pytest.approx(0.92745, abs=1e-5)

    def test_equal_states(self):
        p_star, u_star = exact_riemann_star((1.0, 0.5, 2.0), (1.0, 0.5, 2.0), 1.4)
        assert p_star == pytest.approx(2.0, rel=1e-12)
        assert u_star == pytest.approx(0.5, rel=1e-12)

    def test_vacuum_flag(self):
        sol = exact_riemann_star((1.0, -10.0, 0.4), (1.0, 10.0, 0.4), 1.4)
        assert sol.vacuum


class TestSampleReference:
    def test_initial_time_returns_ic(self):
        p = uh.sod()
        x = np.linspace(0.0, 1.0, 17)
        ref = sample_reference(p, x, 0.0)
        rho, u, pr = p.primitives_at(x)
        np.testing.assert_array_equal(ref["rho"], rho)
        np.testing.assert_array_equal(ref["p"], pr)

    def test_sod_ahead_of_shock(self):
        ref = sample_reference(uh.sod(), [0.99], 0.2)
        assert ref["rho"][0] == 0.125
        assert ref["p"][0] == 0.1

    def test_sod_left_state_near_origin(self):
        ref = sample_reference(uh.sod(), [0.01], 0.2)
        assert ref["rho"][0] == 1.0

    def test_self_similar(self):
        p = uh.sod()
        a = sample_reference(p, [0.6], 0.1)
        b = sample_reference(p, [0.7], 0.2)  # same xi = (x - 0.5) / t
        assert a["rho"][0] == pytest.approx(b["rho"][0], rel=1e-12)

    def test_rejects_late_time(self):
        with pytest.raises(ValueError):
            sample_reference(uh.sod(), [0.5], 0.3)

    def test_self_converged_reference(self):
        # small reference run; pre-shock sine must be reproduced
        p = uh.shu_osher()
        x = np.array([3.0, 4.0])
        ref = sample_reference(p, x, 1.8, n_reference=200)
        np.testing.assert_allclose(ref["rho"], 1.0 + 0.2 * np.sin(5.0 * x), atol=5e-3)


class TestValidation:
    def test_regions_must_tile(self):
        from unihydro.problems import Region
        with pytest.raises(ValueError, match="tile"):
            ProblemSpec(name="bad", domain=(0.0, 1.0), t_end=1.0, gamma=1.4,
                        regions=(Region(0.0, 0.4, 1.0, 0.0, p=1.0),
                                 Region(0.5, 1.0, 1.0, 0.0, p=1.0)),
                        bc_left=BoundaryCondition.transmissive(),
                        bc_right=BoundaryCondition.transmissive(),
                        reference="exact_riemann")

    def test_region_needs_p_or_e(self):
        from unihydro.problems import Region
        with pytest.raises(ValueError):
            Region(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Region(0.0, 1.0, 1.0, 0.0, p=1.0, e=1.0)

    @pytest.mark.parametrize("expr", [
        "().__class__.__base__.__subclasses__().__len__()",
        "x.real",
        "__import__('os')",
        "eval('1')",
        "sin(x, x)",
        "sqrt(x=1.0)",
        "[x][0]",
        "x[0]",
        "(lambda: 1)()",
        "lambda: x",
        "y + 1",
        "'1'",
        "1 +",
    ])
    def test_density_expression_rejected(self, expr):
        from unihydro.problems import Region
        with pytest.raises(ValueError, match="rho_expr"):
            Region(0.0, 1.0, 1.0, 0.0, p=1.0, rho_expr=expr)

    def test_density_expression_grammar(self):
        from unihydro.problems import Region
        region = Region(0.0, 1.0, 1.0, 0.0, p=1.0,
                        rho_expr="2 + sin(pi*x)**2 - -abs(cos(x))/exp(+x) * sqrt(x)")
        x = np.linspace(0.1, 0.9, 5)
        expected = 2 + np.sin(np.pi * x) ** 2 - -np.abs(np.cos(x)) / np.exp(+x) * np.sqrt(x)
        np.testing.assert_array_equal(region.density(x), expected)

    def test_bc_validation(self):
        with pytest.raises(ValueError):
            BoundaryCondition("nosuch")
        with pytest.raises(ValueError):
            BoundaryCondition("prescribed_velocity")
