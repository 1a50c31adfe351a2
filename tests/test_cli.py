"""Driver tests: time-step control, run loop behavior, output files,
config handling, determinism, and exit codes."""

import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import unihydro as uh
from unihydro import cch, cli, sgh
from unihydro.diagnostics import BoundaryFlux
from unihydro.errors import ConfigError
from unihydro.mesh import Mesh1D, SghState
from unihydro.eos import IdealGas

GAS = IdealGas(1.4)


def uniform_sgh_state(n, c=1.0):
    ones = np.ones(n)
    p = c * c / 1.4
    return SghState(np.zeros(n + 1), ones, GAS.internal_energy(1.0, p) * ones,
                    p * ones, c * ones)


class TestComputeDt:
    def test_uniform_candidate(self):
        n = 100
        state = uniform_sgh_state(n)
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, n + 1))
        dt = cli.compute_dt(state, mesh, cfl=0.3, dt_prev=None,
                            dt_max=np.inf, dt_growth=1.01, time_remaining=1.0)
        assert dt == pytest.approx(0.003, rel=1e-12)

    def test_end_time_clamp(self):
        state = uniform_sgh_state(10)
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 11))
        dt = cli.compute_dt(state, mesh, 0.3, None, np.inf, 1.01, time_remaining=1e-5)
        assert dt == 1e-5

    def test_growth_clamp(self):
        state = uniform_sgh_state(10)
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 11))
        dt = cli.compute_dt(state, mesh, 0.3, dt_prev=1e-6, dt_max=np.inf,
                            dt_growth=1.01, time_remaining=1.0)
        assert dt == pytest.approx(1.01e-6, rel=1e-12)

    def test_dt_max_clamp(self):
        state = uniform_sgh_state(10)
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 11))
        dt = cli.compute_dt(state, mesh, 0.3, None, dt_max=1e-4,
                            dt_growth=1.01, time_remaining=1.0)
        assert dt == 1e-4


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            uh.RunConfig(problem="sod", cfl=0.0)
        with pytest.raises(ConfigError):
            uh.RunConfig(problem="sod", cfl=0.95)
        with pytest.raises(ConfigError):
            uh.RunConfig(problem="sod", n_cells=1)
        with pytest.raises(ConfigError):
            uh.RunConfig(problem="sod", dt_growth=0.9)
        with pytest.raises(ConfigError):
            uh.RunConfig(problem="sod", method="fvm")

    def test_problem_resolution_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(uh.sod().to_json(), encoding="utf-8")
        problem = cli.resolve_problem(f"@{path}")
        assert problem == uh.sod()


class TestStepContract:
    """Both steppers report the entropy scale and the expansion mask that the
    run loop hands to the entropy monitor."""

    @pytest.mark.parametrize("step, option", [
        (sgh.step, {"mode": "predictor_only"}),
        (sgh.step, {"mode": "predictor_corrector"}),
        (cch.step, {"solver": "quadratic"}),
        (cch.step, {"solver": "acoustic"}),
    ], ids=["sgh-predictor", "sgh-predictor-corrector", "cch-quadratic", "cch-acoustic"])
    def test_entropy_scale_and_expansion(self, step, option):
        problem = uh.lax()
        gas = IdealGas(problem.gamma)
        mesh, state = uh.build_initial(problem, 40, "sgh" if step is sgh.step else "cch")
        for _ in range(5):
            before = state
            mesh, state, report = step(before, mesh, gas, 1e-3,
                                       problem.bc_left, problem.bc_right, **option)
        if step is sgh.step:
            du = before.node_u[1:] - before.node_u[:-1]
            scale = before.p * np.abs(du)
            expansion = du >= 0.0 if option["mode"] == "predictor_only" else None
        else:
            us = report.nodal.u_star
            scale = before.p * (np.abs(before.u - us[:-1]) + np.abs(us[1:] - before.u))
            expansion = None
        assert report.entropy_scale.tobytes() == scale.tobytes()
        assert report.entropy_production.shape == scale.shape
        assert isinstance(report.boundary, BoundaryFlux)
        if expansion is None:
            assert report.expansion is None
        else:
            assert 0 < np.count_nonzero(expansion) < len(expansion)
            np.testing.assert_array_equal(report.expansion, expansion)


class TestRun:
    def test_zero_length_run_returns_ic(self):
        cfg = uh.RunConfig(problem="sod", method="cch", n_cells=20, t_end=0.0)
        result = uh.run(cfg)
        assert result.steps == 0
        mesh0, state0 = uh.build_initial(uh.sod(), 20, "cch")
        np.testing.assert_array_equal(result.state.rho, state0.rho)
        np.testing.assert_array_equal(result.mesh.node_x, mesh0.node_x)

    def test_transmissive_boundary_cells_stay_at_initial_values(self):
        """No physical wave reaches a transmissive boundary in these runs.

        Weak numerical precursors (one cell per step) do arrive, so quiescent
        boundaries hold to ~1e-3 and the moving inflow/near-vacuum boundaries
        of the harder problems to a couple of percent.
        """
        for name, tol in (("sod", 1e-3), ("sedov", 1e-12),
                          ("shu_osher", 2e-2), ("leblanc", 2e-2)):
            for method in ("sgh", "cch"):
                result = uh.run(uh.RunConfig(problem=name, method=method, n_cells=60))
                _, state0 = uh.build_initial(uh.by_name(name), 60, method)
                for j in (0, -1):
                    assert result.state.rho[j] == pytest.approx(state0.rho[j], rel=tol)

    def test_failure_carries_context(self):
        with pytest.raises(uh.SolverFailure) as err:
            uh.run(uh.RunConfig(problem="sedov", method="cch", n_cells=50,
                                cch_solver="acoustic",
                                cfl=0.9, dt_init=1.0, dt_growth=1e12))
        assert err.value.step is not None
        assert err.value.time is not None

    @pytest.mark.parametrize("step, option, kind", [
        (sgh.step, {"mode": "predictor_only"}, "sgh"),
        (sgh.step, {"mode": "predictor_corrector"}, "sgh"),
        (cch.step, {"solver": "quadratic"}, "cch"),
    ], ids=["sgh-predictor", "sgh-predictor-corrector", "cch-quadratic"])
    @pytest.mark.parametrize("field", ["eps", "rho"])
    def test_step_checks_each_floor(self, step, option, kind, field):
        """The floor of each field names that field's smallest cell (on lax
        the smallest eps is right of the contact, the smallest rho left of it)."""
        problem = uh.lax()
        gas = IdealGas(problem.gamma)
        mesh, state = uh.build_initial(problem, 20, kind)
        new_mesh, new_state, _ = step(state, mesh, gas, 1e-3, problem.bc_left,
                                      problem.bc_right, **option)
        values = getattr(new_state, field)
        level = float(np.min(values))
        floors = (level, 0.0) if field == "eps" else (0.0, level)
        with pytest.raises(uh.SolverFailure, match="positivity floor hit") as err:
            step(state, mesh, gas, 1e-3, problem.bc_left, problem.bc_right, **option,
                 floors=floors)
        assert err.value.cell == int(np.argmin(values))
        assert err.value.cell != int(np.argmin(new_state.eps if field == "rho"
                                                else new_state.rho))

    def test_floor_failure_names_the_failing_step(self, monkeypatch):
        """A floor hit in step 1 reports step 1, its start time and the cell
        of the smallest density."""
        problem = uh.lax()
        mesh, state = uh.build_initial(problem, 20, "cch")
        floors = (0.0, float(np.max(state.rho)))
        monkeypatch.setattr(cli, "_positivity_floors", lambda s: floors)
        with pytest.raises(uh.SolverFailure, match="positivity floor hit") as err:
            uh.run(uh.RunConfig(problem=problem, method="cch", n_cells=20))
        assert (err.value.step, err.value.time) == (1, 0.0)
        dt = 1e-4 * cli._cfl_candidate(state, mesh, 0.3)   # the first step of the ramp
        _, first, _ = cch.step(state, mesh, IdealGas(problem.gamma), dt,
                               problem.bc_left, problem.bc_right)
        assert err.value.cell == int(np.argmin(first.rho)) != int(np.argmin(first.eps))

    def test_snapshots_written(self, tmp_path):
        out = str(tmp_path / "snaps")
        cfg = uh.RunConfig(problem="sod", method="sgh", n_cells=20, t_end=0.02,
                           out=out, snapshot_times=(0.01,))
        uh.run(cfg)
        names = sorted(os.listdir(out))
        assert "sod_sgh_N20.csv" in names
        assert "sod_sgh_N20.nodes" in names
        assert "sod_sgh_N20.summary" in names
        assert any(n.startswith("sod_sgh_N20_t0.01") for n in names)

    @pytest.mark.parametrize("snapshots", [(0.1,), (0.05, 0.1, 0.15)])
    def test_snapshot_does_not_restart_the_ramp(self, snapshots):
        """A snapshot clamps one step; dt then grows from the step the CFL and
        growth rule chose, so the run stays close to the one without output."""
        config = uh.RunConfig(problem="sod", method="sgh", n_cells=100)
        plain = uh.run(config)
        snapped = uh.run(replace(config, snapshot_times=snapshots))
        assert plain.steps <= snapped.steps <= plain.steps + len(snapshots)
        assert snapped.t_final == plain.t_final
        assert np.max(np.abs(snapped.state.rho - plain.state.rho)) < 1e-5

    def test_profile_file_shape(self, tmp_path):
        out = str(tmp_path / "prof")
        uh.run(uh.RunConfig(problem="sod", method="cch", n_cells=25,
                            t_end=0.01, out=out))
        lines = open(os.path.join(out, "sod_cch_N25.csv"), encoding="utf-8").read().splitlines()
        assert lines[0] == "x,rho,u,p,eps,e_total"
        assert len(lines) == 26


class TestDeterminism:
    def test_bit_identical_outputs(self, tmp_path):
        def one(run_dir):
            out = str(tmp_path / run_dir)
            uh.run(uh.RunConfig(problem="lax", method="sgh", n_cells=40,
                                t_end=0.02, out=out))
            prof = open(os.path.join(out, "lax_sgh_N40.csv"), "rb").read()
            nodes = open(os.path.join(out, "lax_sgh_N40.nodes"), "rb").read()
            summary = [l for l in open(os.path.join(out, "lax_sgh_N40.summary"),
                                       encoding="utf-8").read().splitlines()
                       if not l.startswith("wall_time")]
            return prof, nodes, summary
        a = one("a")
        b = one("b")
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]


class TestWriteRows:
    def test_bytes_match_per_value_writer(self):
        rng = np.random.default_rng(5)
        n = 2 * 1024 + 7   # eight full 256-row chunks and a partial one
        special = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, -1e-300, np.inf, -np.inf, np.nan])
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
        for i, col in enumerate(columns):
            col[i::len(special)][:len(special)] = special
        columns.append(np.linspace(0.0, 1.0, n))

        expected = io.StringIO()
        for row in zip(*columns):   # the writer it replaced: one value at a time
            expected.write(",".join(f"{v:.17g}" for v in row) + "\n")
        got = io.StringIO()
        cli._write_rows(got, columns)
        assert got.getvalue() == expected.getvalue()
        assert got.getvalue().count("\n") == n
        assert "-0," in got.getvalue() and "4.9406564584124654e-324" in got.getvalue()


class TestConvergenceRunner:
    def test_sod_table(self):
        cfg = uh.RunConfig(problem="sod", method="sgh")
        table = uh.run_convergence(cfg, [25, 50, 100])
        errs = [row[1]["rho"] for row in table.rows]
        assert errs[0] > errs[1] > errs[2]
        assert 0.5 <= table.orders["rho"] <= 1.5
        text = table.format()
        assert text.startswith("N,l1_rho")

    def test_single_entry_has_no_order(self):
        cfg = uh.RunConfig(problem="sod", method="cch")
        table = uh.run_convergence(cfg, [30])
        assert table.orders == {f: None for f in cli.FIELDS}
        assert "order" not in table.format()


def config_of(*argv):
    """The RunConfig the ``run`` command builds from these arguments."""
    return cli._run_config(cli._build_parser().parse_args(["run", *argv]))


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("problem=sod\nmethod=sgh\nn_cells=30\ncfl=0.25\n",
                        encoding="utf-8")
        cfg = config_of("--config", str(path), "--cells", "40")
        assert cfg.n_cells == 40
        assert cfg.cfl == 0.25
        assert cfg.method == "sgh"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense=1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            config_of("--config", str(path))

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            config_of("--config", str(path))

    def test_file_key_takes_the_flag_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("problem=sod\nsgh_mode=pc\n", encoding="utf-8")
        from_file = config_of("--config", str(path))
        assert from_file == config_of("--problem", "sod", "--mode", "pc")
        assert from_file.sgh_mode == "predictor_corrector"


class TestCommandLine:
    def test_run_success(self, tmp_path, capsys):
        code = cli.main(["run", "--problem", "sod", "--method", "cch",
                         "--cells", "20", "--t-end", "0.01",
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert "sod cch N=20" in capsys.readouterr().out

    def test_python_m_entry_point(self):
        src = os.path.dirname(os.path.dirname(uh.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        command = [sys.executable, "-m", "unihydro", "run", "--problem", "sod", "--cells", "10"]
        ok = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("sod sgh N=10: ")
        bad = subprocess.run(command + ["--cfl", "2"], env=env, capture_output=True,
                             text=True, timeout=120)
        assert bad.returncode == 3
        assert "cfl" in bad.stderr

    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_help_lists_allowed_values(self, capsys, command):
        with pytest.raises(SystemExit) as done:
            cli.main([command, "--help"])
        assert done.value.code == 0
        text = capsys.readouterr().out
        for allowed in ("--method {sgh,cch}", "--solver {acoustic,quadratic}",
                        "--mode {predictor,pc,predictor_only,predictor_corrector}"):
            assert allowed in text

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["run", "--problem", "sod", "--cfl", "5.0"]) == 3
        assert cli.main(["run", "--problem", "nosuch"]) == 3

    @pytest.mark.parametrize("command, flag, value, named", [
        ("run", "--dt-init", "-1", "dt_init"),
        ("run", "--dt-init", "0", "dt_init"),
        ("run", "--dt-max", "-1", "dt_max"),
        ("run", "--dt-growth", "nan", "dt_growth"),
        ("run", "--t-end", "nan", "t_end"),
        ("run", "--t-end", "inf", "t_end"),
        ("converge", "--cells", "a,b", "'a,b'"),
        ("run", "--snapshots", "0.1,nan", "snapshot_times"),
        ("run", "--snapshots", "5,-1", "snapshot_times"),
        ("run", "--cfl", "abc", "--cfl"),
        ("run", "--cells", "2.5", "--cells"),
        ("run", "--method", "xyz", "--method"),
        ("run", "--solver", "foo", "--solver"),
        ("run", "--mode", "bogus", "--mode"),
        ("run", "--bogus", "1", "--bogus"),
        ("run", "--config", "{tmp}/missing.cfg", "--config"),
        ("reference", "--points", "-1", "--points"),
        ("reference", "--t", "5", "--t"),
        ("reference", "--t", "nan", "--t"),
        ("reference", "--out", "{tmp}/missing/ref.csv", "--out"),
    ])
    def test_bad_option_is_config_error(self, tmp_path, capsys, command, flag, value, named):
        # the options ``reference`` requires; the flag under test repeats and wins
        required = (["--t", "0.1", "--points", "5", "--out", str(tmp_path / "ref.csv")]
                    if command == "reference" else [])
        argv = [command, "--problem", "sod", *required, flag, value.format(tmp=tmp_path)]
        assert cli.main(argv) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda spec: spec["regions"][0].update(bogus=1.0), "bogus"),
        (lambda spec: spec.update(gamma=1.0), "gamma"),
        (lambda spec: spec["regions"][1].update(rho=-0.125), "rho"),
        (lambda spec: spec["regions"][0].update(rho_expr="x - 1"), "rho_expr"),
        (lambda spec: spec["regions"][0].update(u=1e200), "region u"),
        (lambda spec: spec.update(center_energy=-5.0), "center_energy"),
        (lambda spec: spec.update(center_energy=float("nan")), "center_energy"),
    ], ids=["unknown_region_key", "gamma_one", "negative_density", "negative_density_expr",
            "kinetic_energy_overflow", "negative_center_energy", "nan_center_energy"])
    def test_bad_spec_file_is_config_error(self, tmp_path, capsys, edit, named):
        spec = uh.sod().to_dict()
        edit(spec)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        for method in ("sgh", "cch"):
            argv = ["run", "--problem", f"@{path}", "--cells", "10", "--method", method]
            assert cli.main(argv) == 3
            assert named in capsys.readouterr().err

    def test_solver_failure_exit_code(self, capsys):
        code = cli.main(["run", "--problem", "sedov", "--method", "cch",
                         "--solver", "acoustic", "--cells", "50", "--cfl", "0.9",
                         "--dt-init", "1.0", "--dt-growth", "1e12"])
        assert code == 2

    @pytest.mark.parametrize("method", ["sgh", "cch"])
    def test_huge_spec_velocity_ends_at_first_step(self, tmp_path, capsys, method):
        """u = 1e100 makes the CFL step ~1e-101, about 1e100 steps to t_end:
        the run exits 2 at step 1 (the suite makes RuntimeWarnings errors)."""
        spec = uh.sod().to_dict()
        spec["regions"][0]["u"] = 1e100
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["run", "--problem", f"@{path}", "--cells", "10", "--method", method]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "steps left" in err and "step 1 " in err

    def test_step_budget_ends_run(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_STEPS", 500)   # sod at N = 100 takes 922 steps
        with pytest.raises(uh.SolverFailure, match="the 0 steps left") as failed:
            uh.run(uh.RunConfig(problem="sod", n_cells=100))
        assert failed.value.step == 501

    def test_reference_command(self, tmp_path):
        out = tmp_path / "ref.csv"
        code = cli.main(["reference", "--problem", "sod", "--t", "0.2",
                         "--points", "50", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,rho,u,p,eps"
        assert len(lines) == 51

    def test_failed_reference_keeps_earlier_profile(self, tmp_path, monkeypatch):
        """The profile is built before ``--out`` is opened, so a solver failure
        exits 2 and leaves an earlier file as it was."""
        from unihydro import problems
        from unihydro.errors import SolverFailure

        def fail(problem, x, t):
            raise SolverFailure("reference run failed")

        out = tmp_path / "ref.csv"
        out.write_text("earlier\n", encoding="utf-8")
        monkeypatch.setattr(problems, "sample_reference", fail)
        code = cli.main(["reference", "--problem", "sod", "--t", "0.2",
                         "--points", "5", "--out", str(out)])
        assert code == 2
        assert out.read_text(encoding="utf-8") == "earlier\n"

    def test_converge_one_resolution_prints_no_order(self, capsys):
        assert cli.main(["converge", "--problem", "sod", "--cells", "20,20"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r.split(",")[0] for r in rows] == ["N", "20", "20"]

    def test_converge_command(self, tmp_path, capsys):
        code = cli.main(["converge", "--problem", "sod", "--method", "sgh",
                         "--cells", "25,50", "--out", str(tmp_path / "c")])
        assert code == 0
        assert os.path.exists(tmp_path / "c" / "sod_sgh_convergence.csv")
