"""Acceptance suite: end-to-end checks of conservation, entropy, accuracy,
robustness, solver consistency, and determinism across the full benchmark
matrix. Each passing check prints a PASS line; run with
``pytest tests/test_acceptance.py -v -s``.

Expensive runs are shared through session-scoped fixtures. Tolerances are
fixed here, not calibrated to the implementation.
"""

import numpy as np
import pytest

import unihydro as uh
from unihydro import diagnostics as diag
from unihydro import problems as problems_mod
from unihydro.closure import solve_nodes
from unihydro.eos import IdealGas
from unihydro.riemann import PrimitiveState, solve as riemann_solve

from oracles import (ThermoState, count_extrema, crossing_position, hugoniot_pressure,
                     isentrope_pressure, taylor_pressure)

METHODS = ("sgh", "cch")
MATRIX_CELLS = {"sod": 100, "lax": 100, "double_rarefaction": 100,
                "sedov": 100, "shu_osher": 100, "leblanc": 300}


def _run(name, method, n, **kw):
    return uh.run(uh.RunConfig(problem=name, method=method, n_cells=n, **kw))


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def matrix_runs():
    """Full (problem x method) matrix at the default configuration."""
    runs = {}
    for name in uh.PROBLEM_NAMES:
        for method in METHODS:
            runs[name, method] = _run(name, method, MATRIX_CELLS[name])
    return runs


@pytest.fixture(scope="session")
def sod_runs():
    return {(m, n): _run("sod", m, n) for m in METHODS for n in (50, 100, 200)}


@pytest.fixture(scope="session")
def shu_osher_reference():
    problem = uh.shu_osher()
    return problems_mod._self_reference_run(problem, problem.t_end, 3200)


@pytest.fixture(scope="session")
def leblanc_runs():
    return {(m, n): _run("leblanc", m, n)
            for m in METHODS for n in (900, 1800, 3600)}


def _l1_vs_exact(result, problem):
    ref = uh.sample_reference(problem, result.mesh.cell_centers, result.t_final)
    return diag.l1_error(result.state.rho, ref["rho"], result.mesh.cell_volumes)


# ---------------------------------------------------------------- criteria

def test_closure_tangency_third_order():
    """Taylor closure matches both curves to third order in |dtau|."""
    for gamma in (7.0 / 5.0, 5.0 / 3.0):
        ref = ThermoState.from_rho_p(1.0, 1.0, IdealGas(gamma))
        steps = np.geomspace(1e-4, 1e-1, 12) * ref.tau
        for curve in (hugoniot_pressure, isentrope_pressure):
            diffs = [abs(taylor_pressure(-s, ref, gamma)
                         - curve(ref.tau - s, ref, gamma)) for s in steps]
            slope = np.polyfit(np.log(steps), np.log(diffs), 1)[0]
            assert abs(slope - 3.0) <= 0.2, (gamma, curve.__name__, slope)
    print("\nACCEPTANCE closure-tangency: PASS - log-log slopes 3.0 +/- 0.2 "
          "for both curves, gamma in {7/5, 5/3}")


def test_conservation_full_matrix(matrix_runs):
    """Mass exact; momentum/energy drift equals boundary bookkeeping."""
    worst_m = worst_e = 0.0
    for (name, method), result in matrix_runs.items():
        led = result.ledger
        assert led.mass_drift == 0.0, (name, method)
        assert led.momentum_residual_rel <= 1e-9, (name, method, led.momentum_residual_rel)
        assert led.energy_residual_rel <= 1e-9, (name, method, led.energy_residual_rel)
        worst_m = max(worst_m, led.momentum_residual_rel)
        worst_e = max(worst_e, led.energy_residual_rel)
    print(f"\nACCEPTANCE conservation: PASS - mass drift 0 everywhere; worst "
          f"momentum residual {worst_m:.2e}, worst energy residual {worst_e:.2e}")


def test_conservation_full_matrix_both_sgh_modes(matrix_runs):
    """SGH in either mode: mass exact, momentum and energy residuals within
    1e-9 on every step (no ledger violation). No entropy violation in
    predictor_only; the corrected step's audit, (P - P*) Delta u* with what the
    update used, is not nonnegative by construction and its count is reported."""
    worst_e, corrected_violations = 0.0, {}
    for name in uh.PROBLEM_NAMES:
        for mode in ("predictor_only", "predictor_corrector"):
            result = (matrix_runs[name, "sgh"] if mode == "predictor_only"
                      else _run(name, "sgh", MATRIX_CELLS[name], sgh_mode=mode))
            led = result.ledger
            assert led.mass_drift == 0.0, (name, mode)
            assert led.momentum_residual_rel <= 1e-9, (name, mode, led.momentum_residual_rel)
            assert led.energy_residual_rel <= 1e-9, (name, mode, led.energy_residual_rel)
            assert led.violations == [], (name, mode, len(led.violations))
            if mode == "predictor_only":
                assert result.monitor.violations == 0, (name, result.monitor.worst_normalized)
            else:
                corrected_violations[name] = result.monitor.violations
            worst_e = max(worst_e, led.energy_residual_rel)
    print(f"\nACCEPTANCE SGH modes conservation: PASS - both modes, worst energy "
          f"residual {worst_e:.2e}; predictor_corrector entropy violations "
          f"{corrected_violations}")


def test_entropy_inequality_full_matrix(matrix_runs):
    """Per-cell per-step production >= -1e-12 scale; exact zero in SGH
    expansion cells."""
    worst = 0.0
    for (name, method), result in matrix_runs.items():
        mon = result.monitor
        assert mon.violations == 0, (name, method, mon.worst_normalized)
        worst = min(worst, mon.worst_normalized)
        if method == "sgh":
            assert mon.expansion_abs_max == 0.0, (name, mon.expansion_abs_max)
    print(f"\nACCEPTANCE entropy: PASS - no violations in the full matrix "
          f"(worst normalized production {worst:.2e}); SGH expansion cells exact zero")


def test_sod_convergence_and_features(sod_runs):
    problem = uh.sod()
    for method in METHODS:
        errs = [_l1_vs_exact(sod_runs[method, n], problem) for n in (50, 100, 200)]
        assert errs[0] > errs[1] > errs[2], (method, errs)

    # exact feature positions from the exact star state
    sol = riemann_solve(PrimitiveState(1.0, 0.0, 1.0),
                        PrimitiveState(0.125, 0.0, 0.1), 1.4)
    g = 1.4
    cr = np.sqrt(g * 0.1 / 0.125)
    shock_speed = cr * np.sqrt((g + 1) / (2 * g) * sol.p_star / 0.1 + (g - 1) / (2 * g))
    x_shock = 0.5 + shock_speed * 0.2
    x_contact = 0.5 + sol.u_star * 0.2
    ratio = sol.p_star / 0.1
    rho_post = 0.125 * ((ratio + (g - 1) / (g + 1)) / ((g - 1) / (g + 1) * ratio + 1))
    rho_star_l = (sol.p_star / 1.0) ** (1 / g)
    cell = 1.0 / 200
    for method in METHODS:
        result = sod_runs[method, 200]
        x = result.mesh.cell_centers
        xs = crossing_position(x, result.state.rho, 0.5 * (rho_post + 0.125),
                               window=(x_contact + 0.02, 1.0))
        xc = crossing_position(x, result.state.rho, 0.5 * (rho_star_l + rho_post),
                               window=(0.5, x_shock - 0.02))
        assert abs(xs - x_shock) <= 2 * cell, (method, xs, x_shock)
        assert abs(xc - x_contact) <= 2 * cell, (method, xc, x_contact)
    print("\nACCEPTANCE sod: PASS - L1 density errors strictly decreasing for "
          "both methods; N=200 shock and contact within 2 cells of exact")


def test_lax_and_leblanc_convergence(leblanc_runs):
    lax = uh.lax()
    for method in METHODS:
        errs = [_l1_vs_exact(_run("lax", method, n), lax) for n in (50, 100, 200)]
        assert errs[0] > errs[1] > errs[2], ("lax", method, errs)

    leblanc = uh.leblanc()
    for method in METHODS:
        errs = [_l1_vs_exact(leblanc_runs[method, n], leblanc)
                for n in (900, 1800, 3600)]
        assert errs[0] > errs[1] > errs[2], ("leblanc", method, errs)

    # the N=3600 staggered run pins the shock inside [7.8, 8.2]
    result = leblanc_runs["sgh", 3600]
    xs = crossing_position(result.mesh.cell_centers, result.state.rho,
                           2.5e-3, window=(6.0, 9.0))
    assert 7.8 <= xs <= 8.2, xs
    print(f"\nACCEPTANCE lax+leblanc: PASS - errors strictly decreasing for "
          f"both methods; LeBlanc SGH N=3600 shock at x={xs:.3f}")


def test_double_rarefaction_robustness():
    for method in METHODS:
        for n in (50, 100, 200):
            result = _run("double_rarefaction", method, n)
            assert np.all(np.isfinite(result.state.rho))
            assert np.all(np.isfinite(result.state.p))
            assert np.all(result.state.rho > 0.0)
            assert np.all(result.state.p > 0.0)
    print("\nACCEPTANCE double-rarefaction robustness: PASS - no negative or "
          "non-finite values at N in {50,100,200}, both methods")


def test_double_rarefaction_center_pressure():
    """Near-vacuum plateau: pressure of the cell containing x=0.5 at N=200."""
    values = {}
    for method in METHODS:
        result = _run("double_rarefaction", method, 200)
        j = int(np.searchsorted(result.mesh.node_x, 0.5)) - 1
        values[method] = result.state.p[j]
    for method, p_center in values.items():
        assert p_center <= 1e-2, (method, p_center)
    print(f"\nACCEPTANCE double-rarefaction center-pressure: PASS - "
          f"sgh {values['sgh']:.2e}, cch {values['cch']:.2e} (<= 1e-2)")


def test_blast_wave_acoustic_solver_failure():
    """The documented failure of the plain acoustic nodal solver on the
    blast-wave start."""
    with pytest.raises(uh.SolverFailure):
        _run("sedov", "cch", 100, cch_solver="acoustic")
    print("\nACCEPTANCE blast-wave acoustic-solver-failure: PASS - expected "
          "solver-failure event observed")


@pytest.fixture(scope="session")
def sedov_runs():
    runs = {}
    for n in (50, 100, 200):
        runs["sgh", n] = _run("sedov", "sgh", n)
        runs["cch", n] = _run("sedov", "cch", n, cch_solver="quadratic")
    return runs


def test_blast_wave_completion_and_symmetry(sedov_runs):
    for (method, n), result in sedov_runs.items():
        assert result.steps > 0 and result.t_final == pytest.approx(0.001)
        rho = result.state.rho
        assert np.max(np.abs(rho - rho[::-1])) <= 1e-9, (method, n)
    print("\nACCEPTANCE blast-wave completion+symmetry: PASS - SGH and CCH "
          "quadratic complete at N in {50,100,200} with mirror symmetry <= 1e-9")


def test_blast_wave_peak_density(sedov_runs):
    peaks = {m: float(sedov_runs[m, 200].state.rho.max()) for m in METHODS}
    for method, peak in peaks.items():
        assert 4.0 <= peak <= 6.0, (method, peak)
    print(f"\nACCEPTANCE blast-wave peak-density: PASS - sgh {peaks['sgh']:.3f}, "
          f"cch {peaks['cch']:.3f} within [4, 6]")


def test_shock_density_wave_convergence_and_extrema(shu_osher_reference):
    rx, rfields = shu_osher_reference
    errors = {}
    finest = {}
    for method in METHODS:
        errs = []
        for n in (50, 100, 200):
            result = _run("shu_osher", method, n)
            c = result.mesh.cell_centers
            errs.append(diag.l1_error(result.state.rho,
                                      np.interp(c, rx, rfields["rho"]),
                                      result.mesh.cell_volumes))
            if n == 200:
                finest[method] = result
        assert errs[0] > errs[1] > errs[2], (method, errs)
        errors[method] = errs

    # oscillation extrema behind the shock, prominence 0.15
    xs_ref = crossing_position(rx, rfields["rho"], 2.0, window=(1.0, 4.0))
    w = (rx > xs_ref - 2.2) & (rx < xs_ref - 0.05)
    grid = np.linspace(xs_ref - 2.2, xs_ref - 0.05, 2000)
    n_ref = count_extrema(np.interp(grid, rx[w], rfields["rho"][w]), 0.15)
    for method, result in finest.items():
        c = result.mesh.cell_centers
        xs = crossing_position(c, result.state.rho, 2.0, window=(1.0, 4.0))
        wn = (c > xs - 2.2) & (c < xs - 0.05)
        n_num = count_extrema(result.state.rho[wn], 0.15)
        assert n_num == n_ref, (method, n_num, n_ref)
    print(f"\nACCEPTANCE shock-density-wave: PASS - errors decreasing toward the "
          f"N=3200 reference for both methods; {n_ref} post-shock extrema matched")


def nodal_star(left, right, solver="quadratic"):
    """(u*, p* left side, p* right side) of ``solve_nodes`` at one node between
    two (rho, c, p, u) faces."""
    arrays = (np.array([v], dtype=float) for v in (*left, *right))
    return tuple(a[0].item() for a in solve_nodes(*arrays, 1.4, solver)[:3])


NOH = problems_mod.ProblemSpec(
    name="noh", domain=(-1.0, 1.0), t_end=0.6, gamma=5.0 / 3.0,
    regions=(problems_mod.Region(-1.0, 0.0, rho=1.0, u=1.0, p=1e-6),
             problems_mod.Region(0.0, 1.0, rho=1.0, u=-1.0, p=1e-6)),
    bc_left=problems_mod.BoundaryCondition.prescribed_velocity(1.0),
    bc_right=problems_mod.BoundaryCondition.prescribed_velocity(-1.0),
    reference="exact_riemann")


@pytest.mark.parametrize("method, option", [
    ("sgh", {"sgh_mode": "predictor_only"}), ("sgh", {"sgh_mode": "predictor_corrector"}),
    ("cch", {"cch_solver": "quadratic"}), ("cch", {"cch_solver": "acoustic"}),
], ids=["sgh-predictor", "sgh-predictor-corrector", "cch-quadratic", "cch-acoustic"])
def test_noh_convergence(method, option):
    """Planar Noh (Noh, J. Comput. Phys. 72, 1987): two cold streams collide at
    x = 0, the symmetric two-shock Riemann problem, so the exact fan is its
    reference. L1(rho) falls with N, energy to 1e-9, and no entropy violation
    except in the SGH corrected step, whose audit (P - P*) Delta u* can go
    negative (its count is reported).

    The centre density stays near 2.5 (3.3 with the acoustic solver) against
    an exact 4: wall heating, a known first-order defect of schemes without a
    heat-flux term, which the paper's parameter-free closure does not add."""
    errors, violations = [], []
    for n in (100, 200, 400):
        result = _run(NOH, method, n, **option)
        violations.append(result.monitor.violations)
        if option.get("sgh_mode") != "predictor_corrector":
            assert violations[-1] == 0, (n, result.monitor.worst_normalized)
        assert result.ledger.energy_residual_rel <= 1e-9, (n, result.ledger.energy_residual_rel)
        errors.append(_l1_vs_exact(result, NOH))
    assert errors[0] > errors[1] > errors[2], errors
    centre = result.state.rho[len(result.state.rho) // 2]
    print(f"\nACCEPTANCE noh {method} {option}: PASS - L1(rho) "
          + " / ".join(f"{e:.4f}" for e in errors) + f", centre rho {centre:.2f} (exact 4), "
          f"entropy violations {violations}")


def test_nodal_solver_consistency():
    rng = np.random.default_rng(2024)
    # 1e4 randomized nearly-uniform face pairs with |du| <= 1e-3 min(c)
    for _ in range(10_000):
        rho0 = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
        c0 = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
        p0 = rho0 * c0 * c0 / 1.4
        u0 = rng.uniform(-3.0, 3.0) * c0
        du = np.exp(rng.uniform(np.log(1e-5), np.log(1e-3))) * c0 * rng.choice([-1.0, 1.0])
        eta = 1e-9
        left = (rho0 * (1 + eta * rng.normal()), c0 * (1 + eta * rng.normal()),
                p0 * (1 + eta * rng.normal()), u0 - 0.5 * du)
        right = (rho0 * (1 + eta * rng.normal()), c0 * (1 + eta * rng.normal()),
                 p0 * (1 + eta * rng.normal()), u0 + 0.5 * du)
        acoustic_u, _, _ = nodal_star(left, right, "acoustic")
        quad_u, _, _ = nodal_star(left, right)
        assert abs(quad_u - acoustic_u) <= 1e-5 * abs(du)

    # Galilean shift and swap symmetry at the stated tolerances
    for _ in range(1000):
        def face():
            rho = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
            c = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
            return (rho, c, rho * c * c / 1.4, 0.2 * c * rng.normal())
        left, right = face(), face()
        base_u, base_pl, base_pr = nodal_star(left, right)
        s = rng.uniform(-5.0, 5.0)
        shifted_u, shifted_pl, shifted_pr = nodal_star(
            (*left[:3], left[3] + s), (*right[:3], right[3] + s))
        scale = max(1.0, abs(base_u), abs(s))
        assert abs(shifted_u - (base_u + s)) <= 1e-9 * scale
        p_scale = max(1.0, abs(base_pl), abs(base_pr))
        assert abs(shifted_pl - base_pl) <= 1e-9 * p_scale
        assert abs(shifted_pr - base_pr) <= 1e-9 * p_scale

        mirrored_u, mirrored_pl, mirrored_pr = nodal_star(
            (*right[:3], -right[3]), (*left[:3], -left[3]))
        assert abs(mirrored_u + base_u) <= 1e-9 * max(1.0, abs(base_u))
        assert abs(mirrored_pl - base_pr) <= 1e-9 * p_scale
        assert abs(mirrored_pr - base_pl) <= 1e-9 * p_scale
    print("\nACCEPTANCE nodal-solver-consistency: PASS - 10^4 near-uniform pairs "
          "within 1e-5 |du|; Galilean and swap symmetries within 1e-9")


def test_determinism_bit_identical_outputs(tmp_path):
    def once(tag, method, suffixes):
        out = str(tmp_path / tag)
        _run("sod", method, 100, out=out)
        files = []
        for suffix in suffixes:
            with open(f"{out}/sod_{method}_N100{suffix}", "rb") as fh:
                files.append(fh.read())
        return files
    for method, suffixes in (("sgh", (".csv", ".nodes")), ("cch", (".csv",))):  # CCH quadratic
        assert once(f"{method}-a", method, suffixes) == once(f"{method}-b", method, suffixes)
    print("\nACCEPTANCE determinism: PASS - repeated runs produce bit-identical "
          "profile and node files")
