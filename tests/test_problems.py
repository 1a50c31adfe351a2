"""Benchmark definitions, initial-state construction, and reference sampling."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

import unihydro as uh
from unihydro import problems
from unihydro.eos import IdealGas
from unihydro.errors import ConfigError
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
        state = CchState(rho, np.array((u, eps + 0.5 * u ** 2)), eps, p, c)
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


def riemann_array():
    """64 equal regions of drawn constant states on [0, 1], as the benchmark's
    Riemann array has."""
    rng = np.random.default_rng(1)
    edges = np.linspace(0.0, 1.0, 65)
    rho, u, p = rng.uniform(0.25, 4.0, 64), rng.uniform(-1.0, 1.0, 64), rng.uniform(0.1, 10.0, 64)
    return ProblemSpec(
        name="riemann_array_s1", domain=(0.0, 1.0), t_end=0.01, gamma=1.4,
        regions=tuple(Region(float(edges[i]), float(edges[i + 1]), rho=float(rho[i]),
                             u=float(u[i]), p=float(p[i])) for i in range(64)),
        bc_left=BoundaryCondition.transmissive(), bc_right=BoundaryCondition.transmissive(),
        reference="exact_riemann")


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

    @pytest.mark.parametrize("name", [*uh.PROBLEM_NAMES, "riemann_array"])
    def test_serialization_roundtrip(self, name):
        p = riemann_array() if name == "riemann_array" else by_name(name)
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
        for t in (0.3, float("nan"), -1.0):   # and a time that means nothing, or is before 0
            with pytest.raises(ValueError, match="t_end"):
                sample_reference(uh.sod(), [0.5], t)

    def test_self_converged_reference(self):
        # small reference run; pre-shock sine must be reproduced
        p = uh.shu_osher()
        x = np.array([3.0, 4.0])
        ref = sample_reference(p, x, 1.8, n_reference=200)
        np.testing.assert_allclose(ref["rho"], 1.0 + 0.2 * np.sin(5.0 * x), atol=5e-3)


def recorded_runs(monkeypatch):
    """(method, n_cells) of every ``cli.run`` call from here on, through a
    pass-through like the ``converge`` benchmark's."""
    from unihydro import cli

    inner, calls = cli.run, []

    def recording(config):
        calls.append((config.method, config.n_cells))
        return inner(config)
    monkeypatch.setattr(cli, "run", recording)
    return calls


def converge(name, method, ns):
    """``run_convergence`` on a built-in problem with an N = 40 reference."""
    from unihydro import cli
    return cli.run_convergence(cli.RunConfig(problem=name, method=method), ns, n_reference=40)


def request(t=0.2, n_reference=40, region_u=0.0, domain=(0.0, 1.0)):
    """Arguments of a ``reference`` call: sod with its first region's velocity
    and its domain replaced."""
    spec = uh.sod()
    first = replace(spec.regions[0], u=region_u)
    return replace(spec, domain=domain, regions=(first, *spec.regions[1:])), t, n_reference


class TestReferenceMemo:
    """``reference`` keeps the last reference it built, for a request with the
    same spec, t and n_reference."""

    def test_second_study_of_the_same_problem_reuses_the_hidden_run(self, monkeypatch):
        calls = recorded_runs(monkeypatch)
        tables = [converge("sedov", method, [20, 30]).format() for method in ("sgh", "cch")]
        assert calls == [("cch", 40), ("sgh", 20), ("sgh", 30), ("cch", 20), ("cch", 30)]
        fresh = []
        for method in ("sgh", "cch"):
            problems._last_reference.clear()
            fresh.append(converge("sedov", method, [20, 30]).format())
        assert tables == fresh

    def test_another_study_in_between_builds_again(self, monkeypatch):
        calls = recorded_runs(monkeypatch)
        for name in ("sedov", "lax", "sedov"):
            converge(name, "sgh", [10, 20])
        assert calls.count(("cch", 40)) == 2

    @pytest.mark.parametrize("changed", [
        dict(t=0.1), dict(n_reference=50), dict(region_u=-0.0), dict(domain=[0.0, 1.0]),
    ], ids=["t", "n_reference", "negative_zero_u", "list_domain"])
    def test_changed_request_builds_again(self, changed):
        x = np.linspace(0.0, 1.0, 41)
        first = problems.reference(*request())
        second = problems.reference(*request(**changed))
        assert second is not first
        problems._last_reference.clear()
        built = problems.reference(*request(**changed))(x)
        assert all(built[f].tobytes() == v.tobytes() for f, v in second(x).items())
        assert problems.reference(*request()) is not first   # one reference kept, no more

    def test_same_request_returns_the_same_reference(self):
        first = problems.reference(*request())
        assert problems.reference(*request()) is first
        spec = replace(uh.sod(), gamma=np.float64(1.4), t_end=np.int64(1))  # numpy fields
        assert problems.reference(spec, 0.2) is problems.reference(spec, 0.2)

    def test_call_that_raises_keeps_the_last_reference(self):
        first = problems.reference(*request())
        with pytest.raises(ValueError, match="t_end"):
            problems.reference(*request(t=0.3))
        assert problems.reference(*request()) is first


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


# every number field of the three spec classes, read from their annotations so
# that a field added later is held to the same rule
NUMBER_FIELDS = [(cls.__name__, f.name) for cls in (BoundaryCondition, Region, ProblemSpec)
                 for f in fields(cls) if "float" in str(f.type)]
NOT_NUMBERS = ["1", [1], True, np.True_, float("nan"), 10 ** 400]


def sod_dict_with(owner: str, name: str, value) -> dict:
    """A sod spec mapping, as JSON gives it, with one number field set to value:
    the first region's field (its e in place of p), the value of a prescribed
    left side, the right end of the domain, or the top-level field."""
    spec = json.loads(uh.sod().to_json())
    if owner == "Region":
        spec["regions"][0].update({"p": None} if name == "e" else {}, **{name: value})
    elif owner == "BoundaryCondition":
        spec["bc_left"] = {"kind": "prescribed_velocity", name: value}
    elif name == "domain":
        spec["domain"][1] = value
    else:
        spec[name] = value
    return spec


class TestNumberRule:
    """Every spec number is a real number, not a bool, inside its field's range,
    or ``from_dict`` raises a ConfigError (a ValueError) that names the field."""

    def test_fields_found(self):
        assert {name for _, name in NUMBER_FIELDS} == {
            "value", "x_lo", "x_hi", "rho", "u", "p", "e",
            "domain", "t_end", "gamma", "center_energy"}

    @pytest.mark.parametrize("value", NOT_NUMBERS,
                             ids=["string", "list", "true", "numpy_true", "nan", "big_int"])
    @pytest.mark.parametrize("owner, name", NUMBER_FIELDS,
                             ids=[f"{owner}.{name}" for owner, name in NUMBER_FIELDS])
    def test_every_number_field_refuses_what_is_no_number(self, owner, name, value):
        with pytest.raises(ConfigError, match=rf"\b{name} must be a number"):
            ProblemSpec.from_dict(sod_dict_with(owner, name, value))

    @pytest.mark.parametrize("owner, name", NUMBER_FIELDS,
                             ids=[f"{owner}.{name}" for owner, name in NUMBER_FIELDS])
    def test_a_long_number_is_cut_short(self, owner, name):
        """A 401-digit integer is named in one line of readable length."""
        with pytest.raises(ConfigError, match=rf"\b{name} must be a number") as error:
            ProblemSpec.from_dict(sod_dict_with(owner, name, 10 ** 400))
        assert len(str(error.value)) < 200 and "\n" not in str(error.value)

    @pytest.mark.parametrize("domain", ["1", [1], True, float("nan"), 10 ** 400, [0, 0.5, 1]],
                             ids=["string", "one_end", "true", "nan", "big_int", "three_ends"])
    def test_domain_is_two_numbers(self, domain):
        spec = dict(json.loads(uh.sod().to_json()), domain=domain)
        with pytest.raises(ValueError, match="domain must be"):
            ProblemSpec.from_dict(spec)

    @pytest.mark.parametrize("make", [BoundaryCondition.prescribed_velocity,
                                      BoundaryCondition.prescribed_pressure])
    def test_boundary_constructors_convert_nothing(self, make):
        """The constructors hand their value to the rule as given: float()
        would turn "1" and True into 1.0 and fail on an integer past its range."""
        for value in ("1", True, 10 ** 400):
            with pytest.raises(ValueError, match="boundary value must be a number"):
                make(value)

    @pytest.mark.parametrize("edit, message", [
        (lambda spec: spec.update(regions=5), "regions must be a list, got 5"),
        (lambda spec: spec.update(regions={"x_lo": 0.0}), "regions must be a list"),
        (lambda spec: spec.update(regions=["a"]), "each region must be an object, got 'a'"),
        (lambda spec: spec.update(bc_right=["wall"]), "bc_right must be an object"),
        (lambda spec: spec.pop("t_end"), "missing 1 required positional argument: 't_end'"),
        (lambda spec: spec["bc_left"].pop("kind"), "argument: 'kind'"),
    ], ids=["regions_int", "regions_object", "region_string", "boundary_list",
            "missing_t_end", "missing_boundary_kind"])
    def test_malformed_structure_names_the_field(self, edit, message):
        """``from_dict`` raises a TypeError naming the field; ``from_json``
        passes its message on as a ConfigError."""
        spec = json.loads(uh.sod().to_json())
        edit(spec)
        with pytest.raises(TypeError, match=message):
            ProblemSpec.from_dict(spec)
        with pytest.raises(ConfigError, match=message):
            ProblemSpec.from_json(json.dumps(spec))

    @pytest.mark.parametrize("text", ["[1]", "{", "[" * 100_000, '{"t_end": 1' + "0" * 5000 + "}"],
                             ids=["not_an_object", "not_json", "too_deep", "too_many_digits"])
    def test_malformed_document_is_config_error(self, text):
        with pytest.raises(ConfigError):
            ProblemSpec.from_json(text)

    def test_numpy_and_int_numbers_pass(self):
        spec = replace(uh.sod(), t_end=np.int64(1), gamma=np.float32(1.5), domain=(0, 1))
        assert (spec.t_end, spec.gamma, spec.domain) == (1, np.float32(1.5), (0, 1))
        assert Region(0, 1, rho=10 ** 300, u=-3, e=np.float64(2.0)).rho == 10 ** 300
