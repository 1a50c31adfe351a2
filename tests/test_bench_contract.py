"""The names the benchmark under ``bench/`` reaches by module attribute.

``bench/tracer.py`` patches every target in its ``TARGETS`` table, and the
workloads call or patch a few private driver helpers. A restructure that
moves one of them would break the benchmark without failing any other test.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return _bench_module("tracer").TARGETS


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(f"unihydro.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


@pytest.mark.parametrize("module, attr", [
    ("cli", "_cfl_candidate"), ("cli", "_run_stem"), ("problems", "_self_reference_run"),
])
def test_workload_helper_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"unihydro.{module}"), attr))


def test_quadratic_kernel_counter_contract(monkeypatch):
    """The tracer counts attempted nodes from ``args[0]`` and accepted ones from
    the boolean mask at index 3 of ``closure._quadratic_kernel``, patched on the
    ``closure`` module; ``cch.solve_all_nodes`` must reach the kernel there."""
    from unihydro import cch, closure, problems
    from unihydro.eos import IdealGas
    from unihydro.mesh import Workspace

    kernel = closure._quadratic_kernel
    calls = []

    def recording(*args, **kwargs):
        result = kernel(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(closure, "_quadratic_kernel", recording)
    problem = problems.by_name("sod")
    _, state = problems.build_initial(problem, 10, "cch")
    cch.solve_all_nodes(state, IdealGas(problem.gamma), problem.bc_left, problem.bc_right,
                        workspace=Workspace(10))
    (args, result), = calls
    mask = result[3]
    assert mask.dtype == np.bool_
    assert mask.shape == np.shape(args[0]) == (9,)


def test_convergence_runs_go_through_cli_run(monkeypatch):
    """The ``converge`` workload counts every run of ``run_convergence``, the
    hidden reference run included, through a pass-through it sets on ``cli.run``."""
    from unihydro import cli

    inner, calls = cli.run, []

    def recording(config):
        calls.append((config.method, config.n_cells))
        return inner(config)

    monkeypatch.setattr(cli, "run", recording)
    cli.run_convergence(cli.RunConfig(problem="sedov", method="sgh"), [20, 40], n_reference=40)
    assert calls == [("sgh", 40), ("sgh", 20), ("sgh", 40)]


def test_exact_reference_study_makes_no_hidden_run(monkeypatch):
    """On an exact-reference problem ``run_convergence`` calls ``cli.run`` once per
    resolution and no more: the ``converge`` workload's step count relies on it."""
    from unihydro import cli

    inner, calls = cli.run, []

    def recording(config):
        calls.append((config.method, config.n_cells))
        return inner(config)

    monkeypatch.setattr(cli, "run", recording)
    cli.run_convergence(cli.RunConfig(problem="lax", method="sgh"), [20, 40], n_reference=40)
    assert calls == [("sgh", 20), ("sgh", 40)]


def test_snapshot_write_arguments(monkeypatch, tmp_path):
    """The tracer's byte counter takes the config and the problem from ``args[0]``
    and ``args[1]`` of ``cli._write_outputs`` and a snapshot's tag from the
    keyword ``tag``, and counts the files at the stem they give."""
    from unihydro import cli
    from unihydro.problems import ProblemSpec

    inner, calls = cli._write_outputs, []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_outputs", recording)
    config = cli.RunConfig(problem="sod", n_cells=10, out=str(tmp_path), snapshot_times=(0.1,))
    cli.run(config)
    (args, kwargs), _ = calls   # the snapshot, then the final profile
    assert args[0] is config and isinstance(args[1], ProblemSpec)
    assert len(args) == 4 and kwargs == {"tag": "_t0.1"}
    stem = os.path.join(config.out, cli._run_stem(config, args[1]) + kwargs["tag"])
    assert os.path.getsize(stem + ".csv") > 0 and os.path.getsize(stem + ".nodes") > 0


@pytest.mark.parametrize("method, option", [
    ("sgh", {}), ("cch", {}), ("cch", {"cch_solver": "acoustic"}),
], ids=["sgh", "cch-quadratic", "cch-acoustic"])
def test_correctness_gate_reads_the_run(method, option):
    """``bench/checks.py::run_problems`` reads ``mass_drift``, both relative
    residuals, ``monitor.violations`` and ``vars(result.state)``: a finished run
    passes it, a ledger that audited an overflowing total fails it and the audit
    alike, and one that audited a changed mass fails it by its drift."""
    import unihydro as uh
    from unihydro import diagnostics as diag

    run_problems = _bench_module("checks").run_problems
    result = uh.run(uh.RunConfig(problem="sod", method=method, n_cells=20, **option))
    assert run_problems(result) == []

    # boundary work whose total overflows: a NaN energy residual fails both
    diag.audit_step(result.ledger, result.mesh, result.state,
                    diag.BoundaryFlux(work_left=1e308, work_right=1e308))
    assert run_problems(result) == ["energy residual nan"]
    assert result.ledger.violations

    mesh = result.mesh
    heavier = uh.Mesh1D(mesh.node_x, mesh.cell_mass * 1.5, mesh.node_mass)
    diag.audit_step(result.ledger, heavier, result.state, diag.BoundaryFlux())
    found = run_problems(result)
    assert found and found[0] == f"mass drift {result.ledger.mass_drift:.3e}"
