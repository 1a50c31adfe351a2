"""Each failure has its class where it is found, and ``cli`` converts none.

Bad input is a ``ConfigError`` (a ValueError, exit 3) at the check that finds
it, in ``problems`` as in ``cli``; a step or an exact solve that breaks down is
a ``SolverFailure`` (a RuntimeError, exit 2). An AST walk pins that
``problems`` raises no plain ValueError, that no module raises a
FloatingPointError or a bare RuntimeError, and that the ``cli`` functions
between the command line and ``problems`` hold no ``except`` clause that turns
one failure into a ConfigError. The end-to-end tests run the breakdowns that
used to end in a traceback.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unihydro as uh
from unihydro import cli, problems, riemann

SRC = Path(uh.__file__).parent
ENTRIES = ("resolve_problem", "run", "run_convergence", "_write_reference")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _raised(node: ast.AST) -> set:
    """Names of the classes raised below ``node``, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for raised in ast.walk(node):
        if isinstance(raised, ast.Raise) and raised.exc is not None:
            exc = raised.exc.func if isinstance(raised.exc, ast.Call) else raised.exc
            names.add(exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))
    return names


def test_problems_raises_no_plain_value_error():
    raised = _raised(_tree("problems"))
    assert "ConfigError" in raised
    assert "ValueError" not in raised


def test_no_module_raises_a_floating_point_or_bare_runtime_error():
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    assert {"closure", "riemann", "cli", "problems"} <= set(modules)
    for module in modules:
        assert not _raised(_tree(module)) & {"FloatingPointError", "RuntimeError"}, module


def test_cli_converts_no_failure_to_config_error():
    """The only ``except`` clauses left between the command line and
    ``problems``: the two that add context to a SolverFailure, and the one that
    sets an order that cannot be fitted to None."""
    functions = {node.name: node for node in _tree("cli").body
                 if isinstance(node, ast.FunctionDef) and node.name in ENTRIES}
    assert set(functions) == set(ENTRIES)
    clauses = []
    for name, function in functions.items():
        for handler in ast.walk(function):
            if isinstance(handler, ast.ExceptHandler):
                assert "ConfigError" not in _raised(handler), name
                clauses.append((name, ast.unparse(handler.type)))
    assert sorted(clauses) == [("run", "SolverFailure"), ("run_convergence", "SolverFailure"),
                               ("run_convergence", "ValueError")]


def test_non_finite_nodal_coefficients_exit_2_without_a_traceback(tmp_path):
    """Velocities of +-1e150 on rho = 1e10 overflow the nodal force balance at
    the first step. Run in a subprocess: the conservation ledger's energy total
    overflows first, and its RuntimeWarning is an error under pytest."""
    spec = dict(uh.sod().to_dict(), name="collide", domain=[0.0, 2e140], t_end=1e-9,
                regions=[{"x_lo": 0.0, "x_hi": 1e140, "rho": 1e10, "u": 1e150, "p": 1.0},
                         {"x_lo": 1e140, "x_hi": 2e140, "rho": 1e10, "u": -1e150, "p": 1.0}])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "unihydro", "run", "--problem", f"@{path}",
                           "--cells", "10", "--method", "cch"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "solver failure: non-finite nodal force-balance coefficients | cell 4" in done.stderr
    assert "Traceback" not in done.stderr


def test_tangling_in_a_convergence_run_keeps_its_class(capsys, monkeypatch):
    """``converge`` reports a tangled mesh as ``run`` does; the reference is
    not built, as the run fails before it is read."""
    monkeypatch.setattr(problems, "reference", lambda *args: None)
    argv = ["converge", "--problem", "sedov", "--method", "cch", "--solver", "acoustic",
            "--cells", "100", "--cfl", "0.5", "--dt-init", "1", "--dt-growth", "1e12"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "mesh tangling: convergence run N=100 failed: mesh tangling | cell 48 | step 3")


@pytest.mark.parametrize("argv", [
    ["converge", "--problem", "sod", "--cells", "20,40"],
    ["reference", "--problem", "sod", "--t", "0.2", "--points", "5", "--out", "{ref}"],
], ids=["converge", "reference"])
def test_exact_solver_that_does_not_converge_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(riemann, "_MAX_ITER", 0)
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a run started"))
    ref = tmp_path / "ref.csv"
    assert cli.main([arg.format(ref=ref) for arg in argv]) == 2
    assert "solver failure: Riemann pressure iteration failed" in capsys.readouterr().err
    assert not ref.exists()
