"""Driver tests: time-step control, run loop behavior, output files,
config handling, determinism, and exit codes."""

import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import unihydro as uh
from unihydro import cch, cli, sgh
from unihydro.diagnostics import BoundaryFlux
from unihydro.errors import ConfigError
from unihydro.mesh import Mesh1D, SghState, Workspace
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
        dt = cli.compute_dt(state, mesh, cfl=0.3, dt_prev=None, dt_max=np.inf, dt_growth=1.01,
                            time_remaining=1.0, workspace=Workspace(n))
        assert dt == pytest.approx(0.003, rel=1e-12)

    def test_end_time_clamp(self):
        state = uniform_sgh_state(10)
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 11))
        dt = cli.compute_dt(state, mesh, 0.3, None, np.inf, 1.01, time_remaining=1e-5,
                            workspace=Workspace(10))
        assert dt == 1e-5

    def test_growth_clamp(self):
        state = uniform_sgh_state(10)
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 11))
        dt = cli.compute_dt(state, mesh, 0.3, dt_prev=1e-6, dt_max=np.inf,
                            dt_growth=1.01, time_remaining=1.0, workspace=Workspace(10))
        assert dt == pytest.approx(1.01e-6, rel=1e-12)

    def test_dt_max_clamp(self):
        state = uniform_sgh_state(10)
        mesh = Mesh1D.from_nodes(np.linspace(0.0, 1.0, 11))
        dt = cli.compute_dt(state, mesh, 0.3, None, dt_max=1e-4,
                            dt_growth=1.01, time_remaining=1.0, workspace=Workspace(10))
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
        with pytest.raises(ConfigError, match="sgh_mode"):
            uh.RunConfig(problem="sod", sgh_mode="rk2")
        with pytest.raises(ConfigError, match="cch_solver"):
            uh.RunConfig(problem="sod", cch_solver="hll")

    @pytest.mark.parametrize("problem", [5, ["sod"], None])
    def test_unresolvable_problem(self, problem):
        with pytest.raises(ConfigError, match="unknown problem"):
            uh.run(uh.RunConfig(problem=problem))

    def test_problem_resolution_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(uh.sod().to_json(), encoding="utf-8")
        problem = cli.resolve_problem(f"@{path}")
        assert problem == uh.sod()


class TestStepContract:
    """Both steppers report the entropy production and scale that the run loop
    hands to the entropy monitor, and the boundary flux."""

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
        else:
            us = report.nodal.u_star
            scale = before.p * (np.abs(before.u - us[:-1]) + np.abs(us[1:] - before.u))
        assert report.entropy_scale.tobytes() == scale.tobytes()
        assert report.entropy_production.shape == scale.shape
        assert isinstance(report.boundary, BoundaryFlux)


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
        dt = 1e-4 * cli._cfl_candidate(state, mesh, 0.3, Workspace(20))   # the ramp's first step
        _, first, _ = cch.step(state, mesh, IdealGas(problem.gamma), dt,
                               problem.bc_left, problem.bc_right)
        assert err.value.cell == int(np.argmin(first.rho)) != int(np.argmin(first.eps))

    @pytest.mark.parametrize("t_end", [5e-14, 1e-15])
    def test_run_ends_at_a_tiny_t_end(self, t_end):
        """The loop's stopping tolerance is relative to t_end, so a run to an end
        time far below 1 reaches it rather than stopping short or taking no step."""
        result = uh.run(uh.RunConfig(problem="sod", n_cells=10, t_end=t_end))
        assert result.steps > 0
        assert abs(result.t_final - t_end) <= 1e-14 * t_end

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

    @pytest.mark.parametrize("snapshots", [(0.1,), (0.05, 0.1, 0.15), (0.1, 0.1)])
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


def per_value_rows(columns) -> str:
    """The writer ``cli._write_rows`` replaced: one value at a time."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns))


def _nan(payload: int, sign: int = 0) -> float:
    return np.array([sign << 63 | 0x7FF8 << 48 | payload], np.uint64).view(float)[0]


_RNG = np.random.default_rng(11)
_DISTINCT = _RNG.standard_normal(20) * 10.0 ** _RNG.integers(-5, 5, 20)
# columns holding runs of equal bits, with CHUNK = 8 rows a chunk
RUN_CASES = {
    "run_across_chunk_boundary": [[1.0] * 3 + [2.5] * 10 + [3.0] * 3, _DISTINCT[:16]],
    "run_fills_a_chunk": [[0.5] * 8 + [0.25] * 8 + [1 / 3] * 4, _DISTINCT],
    "signed_zeros": [[0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0],
                     [-0.0] * 6 + [0.0] * 6],
    "nan_payloads": [[_nan(1), _nan(1), _nan(2), _nan(2), _nan(2), _nan(1, sign=1),
                      _nan(1, sign=1), 1.0, 1.0, _nan(0), np.nan, _nan(2)], [4.0] * 12],
    "infinities": [[np.inf] * 4 + [-np.inf] * 4 + [np.inf, np.inf, -np.inf, 5e-324],
                   _DISTINCT[:12]],
    "no_repeat_column_beside_runs": [_DISTINCT, [7.0] * 10 + [-7.0] * 10, [0.1] * 20],
}
# columns the writer formats value by value
VALUE_CASES = {
    "one_row": [[0.1], [-0.0], [np.nan]],
    "no_repeats": [_DISTINCT, _DISTINCT[::-1]],
    "few_repeats": [_DISTINCT, list(_DISTINCT[:19]) + [_DISTINCT[18]]],
}
CHUNK = 8


def _repeat_share(columns) -> float:
    bits = np.array(columns, dtype=float).view(np.int64)
    return np.count_nonzero(bits[:, 1:] == bits[:, :-1]) / bits.size


class TestWriteRows:
    def test_bytes_match_per_value_writer(self):
        rng = np.random.default_rng(5)
        n = 2 * 1024 + 7   # two full 1,024-row chunks and a partial one
        special = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, -1e-300, np.inf, -np.inf, np.nan])
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
        for i, col in enumerate(columns):
            col[i::len(special)][:len(special)] = special
        columns.append(np.linspace(0.0, 1.0, n))

        got = io.StringIO()
        cli._write_rows(got, columns)
        assert got.getvalue() == per_value_rows(columns)
        assert got.getvalue().count("\n") == n
        assert "-0," in got.getvalue() and "4.9406564584124654e-324" in got.getvalue()

    @pytest.mark.parametrize("chunk", [CHUNK, 1024])
    @pytest.mark.parametrize("case", list(RUN_CASES) + list(VALUE_CASES))
    def test_runs_match_per_value_writer(self, case, chunk):
        columns = [np.array(c, dtype=float) for c in {**RUN_CASES, **VALUE_CASES}[case]]
        # a run case repeats at least one value in six, so its chunks take the
        # run path; a value case repeats fewer
        assert (_repeat_share(columns) >= 1 / 6) == (case in RUN_CASES)
        got = io.StringIO()
        cli._write_rows(got, columns, chunk=chunk)
        assert got.getvalue() == per_value_rows(columns)


class TestConvergenceRunner:
    def test_sod_table(self):
        cfg = uh.RunConfig(problem="sod", method="sgh")
        table = uh.run_convergence(cfg, [25, 50, 100])
        errs = [row[1]["rho"] for row in table.rows]
        assert errs[0] > errs[1] > errs[2]
        assert 0.5 <= table.orders["rho"] <= 1.5
        text = table.format()
        assert text.startswith("N,l1_rho")

    def test_errors_are_against_sample_reference(self):
        """Each error of the table is its run's L1 error against
        ``sample_reference`` at t_end, every field of it (eps included)."""
        problem, n_reference = uh.sedov(), 40
        cfg = uh.RunConfig(problem=problem, method="sgh")
        table = uh.run_convergence(cfg, [20, 30], n_reference=n_reference)
        for n, errs in table.rows:
            result = uh.run(replace(cfg, n_cells=n))
            mesh, state = result.mesh, result.state
            ref = uh.sample_reference(problem, mesh.cell_centers, problem.t_end, n_reference)
            num = {"rho": state.rho, "u": state.cell_u, "p": state.p, "eps": state.eps}
            assert errs == {f: uh.diagnostics.l1_error(num[f], ref[f], mesh.cell_volumes)
                            for f in cli.FIELDS}

    def test_spec_file_is_read_once(self, tmp_path, monkeypatch):
        """The study resolves ``@spec.json`` once and hands every run the spec,
        so all resolutions and the reference come from one read."""
        path = tmp_path / "spec.json"
        path.write_text(uh.sedov().to_json(), encoding="utf-8")
        inner, reads = uh.ProblemSpec.from_json, []

        def counting(text):
            reads.append(text)
            return inner(text)

        monkeypatch.setattr(uh.ProblemSpec, "from_json", counting)
        cfg = uh.RunConfig(problem=f"@{path}", method="sgh")
        uh.run_convergence(cfg, [10, 20, 30], n_reference=20)
        assert len(reads) == 1

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

    def test_file_without_problem_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("method=sgh\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 3
        assert "no problem specified" in capsys.readouterr().err

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
        ("converge", "--cells", ",", "--cells"),
        ("converge", "--t-end", "5", "t_end"),
        ("run", "--snapshots", "0.1,nan", "snapshot_times"),
        ("run", "--snapshots", "5,-1", "snapshot_times"),
        ("run", "--snapshots", "0.1,0.1000000001", "snapshot_times"),
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
        ("run", "--out", "{tmp}/a_file", "--out"),
        ("converge", "--out", "{tmp}/a_file", "--out"),
        ("converge", "--out", "{tmp}/a_file/sub", "--out"),
    ])
    def test_bad_option_is_config_error(self, tmp_path, capsys, command, flag, value, named):
        # the options ``reference`` and ``converge`` require; the flag under test
        # repeats and wins
        required = {"reference": ["--t", "0.1", "--points", "5", "--out",
                                  str(tmp_path / "ref.csv")],
                    "converge": ["--cells", "10"]}.get(command, [])
        (tmp_path / "a_file").write_text("", encoding="utf-8")   # an --out that is no directory
        argv = [command, "--problem", "sod", *required, flag, value.format(tmp=tmp_path)]
        assert cli.main(argv) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, content", [
        ("--config", "{path}", b"\xff\xfe\x00"),
        ("--problem", "@{path}", b"\xff\xfe\x00"),
        ("--problem", "@{path}", None),
    ], ids=["config_not_utf8", "spec_not_utf8", "spec_missing"])
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, flag, value, content):
        """A file named on the command line that cannot be read, or is not UTF-8,
        exits 3 naming the flag and the path (a missing --config file is a case
        of test_bad_option_is_config_error)."""
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        assert cli.main(["run", "--problem", "sod", flag, value.format(path=path)]) == 3
        err = capsys.readouterr().err
        assert f"{flag}: cannot read {str(path)!r}" in err

    @pytest.mark.parametrize("edit, named", [
        (lambda spec: spec["regions"][0].update(bogus=1.0), "bogus"),
        (lambda spec: spec.update(gamma=1.0), "gamma"),
        (lambda spec: spec["regions"][1].update(rho=-0.125), "rho"),
        (lambda spec: spec["regions"][0].update(rho_expr="x - 1"), "rho_expr"),
        (lambda spec: spec["regions"][0].update(u=1e200), "region u"),
        (lambda spec: spec.update(center_energy=-5.0), "center_energy"),
        (lambda spec: spec.update(center_energy=float("nan")), "center_energy"),
        (lambda spec: spec.update(center_energy=0.0), "center_energy"),
        (lambda spec: spec.update(center_enrgy=10.0), "center_enrgy"),
        (lambda spec: spec.update(name="a/b"), "name"),
        (lambda spec: spec.update(name="../escaped"), "name"),
        (lambda spec: spec.update(name=""), "name"),
        (lambda spec: spec.update(name=5), "name"),
        (lambda spec: spec.update(name="x\nstatus=failure"), "name"),
        (lambda spec: spec.update(name="a=b"), "name"),
        (lambda spec: spec.update(regions=[dict(spec["regions"][0], x_hi=0.7),
                                           dict(spec["regions"][0], x_lo=0.7, x_hi=0.5, rho=2.0),
                                           spec["regions"][1]]), "nonempty interval"),
        (lambda spec: spec.update(bc_left={"kind": "wall", "value": 5.0}),
         "wall boundary takes no value"),
        (lambda spec: spec.update(bc_right={"kind": "transmissive", "value": 0.0}),
         "transmissive boundary takes no value"),
        (lambda spec: spec.update(t_end=True), "t_end must be a number"),
        (lambda spec: spec.update(center_energy=True), "center_energy must be a number"),
        (lambda spec: spec.update(domain=[0.0, True]), "domain must be a number"),
        (lambda spec: spec["regions"][0].update(rho=True), "region rho must be a number"),
        (lambda spec: spec.update(bc_left={"kind": "prescribed_velocity", "value": False}),
         "boundary value must be a number"),
        (lambda spec: spec["regions"][0].update(p=0.0), "region p"),
        (lambda spec: spec["regions"][0].update(p=None, e=0.0), "region e"),
        (lambda spec: spec["regions"][0].update(rho=1e-300, p=1e10), "internal energy"),
        (lambda spec: spec.update(t_end=0.0), "t_end must be a number in (0, inf)"),
        (lambda spec: spec.update(reference="exact"), "unknown reference kind"),
        (lambda spec: spec["regions"][0].update(x_lo=0.1), "regions must tile the domain"),
        (lambda spec: spec.update(regions=5), "regions must be a list"),
        (lambda spec: spec.update(regions=["a"]), "each region must be an object"),
        (lambda spec: spec.update(bc_left="wall"), "bc_left must be an object"),
        (lambda spec: spec.pop("domain"), "argument: 'domain'"),
        (lambda spec: spec["regions"][1].pop("rho"), "argument: 'rho'"),
        (lambda spec: spec.update(domain=[0.0, 1e10], bc_left={"kind": "wall"},
                                  regions=[dict(spec["regions"][0], x_hi=1e10, rho=1e300)],
                                  bc_right={"kind": "wall"}),
         "cell_mass must be strictly positive and finite, got inf"),
    ], ids=["unknown_region_key", "gamma_one", "negative_density", "negative_density_expr",
            "kinetic_energy_overflow", "negative_center_energy", "nan_center_energy",
            "zero_center_energy", "unknown_top_level_key",
            "name_with_slash", "name_escaping_out", "empty_name", "name_not_a_string",
            "name_forging_summary_line", "name_with_key_separator", "reversed_region",
            "wall_with_value", "transmissive_with_value", "true_t_end", "true_center_energy",
            "true_domain_end", "true_region_density", "false_boundary_velocity",
            "zero_pressure", "zero_internal_energy", "overflowing_internal_energy",
            "zero_t_end", "unknown_reference_kind", "regions_short_of_left_end",
            "regions_not_a_list", "region_not_an_object", "boundary_not_an_object",
            "missing_domain", "missing_region_density", "overflowing_cell_mass"])
    def test_bad_spec_file_is_config_error(self, tmp_path, capsys, edit, named):
        spec = uh.sod().to_dict()
        edit(spec)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        for method in ("sgh", "cch"):
            argv = ["run", "--problem", f"@{path}", "--cells", "10", "--method", method]
            assert cli.main(argv) == 3
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["converge", "reference"])
    @pytest.mark.parametrize("changes", [
        {"regions": [{"x_lo": 0.0, "x_hi": 0.3, "rho": 1.0, "u": 0.0, "p": 1.0},
                     {"x_lo": 0.3, "x_hi": 0.5, "rho": 0.5, "u": 0.0, "p": 0.5},
                     {"x_lo": 0.5, "x_hi": 1.0, "rho": 0.125, "u": 0.0, "p": 0.1}]},
        {"regions": [{"x_lo": 0.0, "x_hi": 0.5, "rho": 1.0, "u": 0.0, "p": 1.0,
                      "rho_expr": "1 + 0.5*x"},
                     {"x_lo": 0.5, "x_hi": 1.0, "rho": 0.125, "u": 0.0, "p": 0.1}]},
        {"center_energy": 10.0},
    ], ids=["three_regions", "density_expression", "center_deposit"])
    def test_spec_without_exact_fan_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                     command, changes):
        """An exact_riemann spec that is not two regions of constant density, or
        that deposits a center energy, has no exact fan: both commands exit 3
        before a run starts."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(uh.sod().to_dict(), **changes)), encoding="utf-8")
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a run started"))
        required = {"reference": ["--t", "0.1", "--points", "5", "--out",
                                  str(tmp_path / "ref.csv")],
                    "converge": ["--cells", "10"]}[command]
        assert cli.main([command, "--problem", f"@{path}", *required]) == 3
        assert "exact_riemann reference" in capsys.readouterr().err
        assert not (tmp_path / "ref.csv").exists()

    @pytest.mark.parametrize("command, required", [
        ("reference", ["--t", "0.1", "--points", "5"]),
        ("reference", ["--t", "0", "--points", "5"]),
        ("converge", ["--cells", "10"]),
    ], ids=["reference", "reference_t0", "converge"])
    def test_exact_fan_of_an_overflowing_pressure_is_config_error(self, tmp_path, capsys,
                                                                  monkeypatch, command, required):
        """A region given by ``e`` whose pressure (gamma - 1) rho e overflows has no
        exact fan, nor a reference at t = 0: the commands exit 3 before a run
        starts, with no warning from the sampling or the Riemann solver, and write
        no file."""
        spec = uh.sod().to_dict()
        spec["regions"] = [{"x_lo": 0.0, "x_hi": 0.5, "rho": 1e300, "u": 0.0, "e": 1e300},
                           spec["regions"][1]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a run started"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--problem", f"@{path}", *required, "--out", str(out)]) == 3
        assert "the initial pressure must be finite, got inf" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["converge", "--problem", "sedov", "--cells", "50,100", "--t-end", "0"],
        ["reference", "--problem", "sedov", "--t", "0", "--points", "5", "--out", "{ref}"],
    ], ids=["converge", "reference"])
    def test_initial_reference_of_a_deposit_is_config_error(self, tmp_path, capsys,
                                                            monkeypatch, argv):
        """The center deposit depends on N, so no reference at t = 0 carries it:
        both commands exit 3 naming center_energy before a run starts."""
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a run started"))
        ref = tmp_path / "ref.csv"
        assert cli.main([arg.format(ref=ref) for arg in argv]) == 3
        assert "center_energy" in capsys.readouterr().err
        assert not ref.exists()

    @pytest.mark.parametrize("command, cells", [("run", "100"), ("converge", "50,100")])
    def test_domain_too_narrow_for_the_cells_is_config_error(self, tmp_path, capsys,
                                                             command, cells):
        """A domain whose cells round to zero width is bad input, found before the
        first step: exit 3 naming the cell width, not a mesh-tangling failure."""
        spec = uh.sod().to_dict()
        lo, mid, hi = 1.0, 1.0 + 5e-15, 1.0 + 1e-14
        spec.update(domain=[lo, hi], regions=[dict(spec["regions"][0], x_lo=lo, x_hi=mid),
                                              dict(spec["regions"][1], x_lo=mid, x_hi=hi)])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert cli.main([command, "--problem", f"@{path}", "--cells", cells]) == 3
        assert "cell width must be strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_deeply_nested_spec_file_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "spec.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        required = (["--t", "0.1", "--points", "5", "--out", str(tmp_path / "ref.csv")]
                    if command == "reference" else [])
        assert cli.main([command, "--problem", f"@{path}", *required]) == 3
        assert "recursion" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, blocked", [
        (["run", "--cells", "10"], "sod_sgh_N10.csv"),
        (["run", "--cells", "10", "--snapshots", "0.1"], "sod_sgh_N10_t0.1.csv"),
        (["converge", "--cells", "10"], "sod_sgh_convergence.csv"),
    ], ids=["final_profile", "snapshot", "convergence_table"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, argv, blocked):
        """An output file under ``--out`` that is a directory exits 3 and names
        ``--out``, not an IsADirectoryError traceback."""
        (tmp_path / blocked).mkdir()
        assert cli.main([*argv, "--problem", "sod", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "--out" in err and blocked in err

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

    def test_failed_convergence_run_names_its_resolution(self, capsys):
        assert cli.main(["converge", "--problem", "sod", "--cells", "10",
                         "--dt-max", "1e-300"]) == 2
        assert ("convergence run N=10 failed: t_end needs more than the 10000000 steps left"
                in capsys.readouterr().err)

    def test_step_budget_ends_run(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_STEPS", 500)   # sod at N = 100 takes 922 steps
        with pytest.raises(uh.SolverFailure, match="the 0 steps left") as failed:
            uh.run(uh.RunConfig(problem="sod", n_cells=100))
        assert failed.value.step == 501

    @pytest.mark.parametrize("option", [{"dt_max": 1e-300},
                                        {"dt_init": 1e-300, "dt_growth": 1.0}],
                             ids=["dt_max", "dt_init_without_growth"])
    def test_step_budget_projects_the_dt_rule(self, monkeypatch, option):
        """The budget projects the step the dt rule can take: the CFL step
        clamped by dt_max and by dt grown on each step left."""
        monkeypatch.setattr(cli, "_MAX_STEPS", 4096)
        with pytest.raises(uh.SolverFailure, match="the 4096 steps left") as failed:
            uh.run(uh.RunConfig(problem="sod", n_cells=20, **option))
        assert failed.value.step == 1

    def test_step_budget_lets_a_slow_ramp_finish(self, monkeypatch):
        """dt may grow on every step left, not only over the next 1,024: this
        ramp reaches t_end in about 3,050 of the 4,096 steps, though 4,096 steps
        of dt_init * 1.001^1024 would not."""
        monkeypatch.setattr(cli, "_MAX_STEPS", 4096)
        result = uh.run(uh.RunConfig(problem="sod", n_cells=20, dt_init=1e-5, dt_growth=1.001))
        assert 3000 < result.steps < 4096

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
