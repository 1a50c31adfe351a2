"""The names the benchmark under ``bench/`` reaches by module attribute.

``bench/tracer.py`` patches every target in its ``TARGETS`` table, and the
workloads call or patch a few private driver helpers. A restructure that
moves one of them would break the benchmark without failing any other test.
"""

import importlib
import importlib.util
import os

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
