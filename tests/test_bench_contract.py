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

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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

    kernel = closure._quadratic_kernel
    calls = []

    def recording(*args, **kwargs):
        result = kernel(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(closure, "_quadratic_kernel", recording)
    problem = problems.by_name("sod")
    _, state = problems.build_initial(problem, 10, "cch")
    cch.solve_all_nodes(state, IdealGas(problem.gamma), problem.bc_left, problem.bc_right)
    (args, result), = calls
    mask = result[3]
    assert mask.dtype == np.bool_
    assert mask.shape == np.shape(args[0]) == (9,)
