"""Per-step budget of NumPy memory held by temporaries.

``cli.run`` binds one ``mesh.Workspace`` into the stepper, and a step writes
every temporary into its buffers: the nodal solve, the momentum and energy
update, the star pressures and the entropy production. What a step still
allocates is what a caller can keep: the new state and mesh, the report and
the nodal fields. The rest of ``cli.run``'s loop keeps within the same budget:
the CFL candidate works in the same workspace between steps, the ledger forms
its products in buffers it owns, and the entropy monitor's fast path
allocates nothing. ``tracemalloc`` sees NumPy's data buffers, so the peak traced
during one step, less what is still held when the step returns, is what its
temporaries took at their worst. The count is deterministic; nothing is timed.
"""

import tracemalloc
from functools import partial

import pytest

import unihydro as uh
from unihydro import cch, cli, sgh
from unihydro import diagnostics as diag
from unihydro.eos import IdealGas
from unihydro.mesh import Workspace

N = 800
DT = 1e-9        # well below the CFL step of sedov's initial deposit at N = 800
BUDGET = 1.0     # N-sized float arrays; a step writing its temporaries afresh holds 3 to 9


@pytest.mark.parametrize("method, step, option", [
    ("sgh", sgh.step, {"mode": "predictor_only"}),
    ("cch", cch.step, {"solver": "quadratic"}),
    ("cch", cch.step, {"solver": "acoustic"}),
], ids=["sgh-predictor", "cch-quadratic", "cch-acoustic"])
def test_step_temporaries_within_budget(method, step, option):
    problem = uh.sedov()
    gas = IdealGas(problem.gamma)
    mesh, state = uh.build_initial(problem, N, method)
    step = partial(step, floors=cli._positivity_floors(state), workspace=Workspace(N), **option)
    for _ in range(3):   # the workspace buffers are made on first use
        mesh, state, _ = step(state, mesh, gas, DT, problem.bc_left, problem.bc_right)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = step(state, mesh, gas, DT, problem.bc_left, problem.bc_right)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[1].rho.shape == (N,)
    assert kept >= 8 * N * 8    # the new state alone holds eight N-sized arrays or more
    assert (peak - kept) / (8 * N) <= BUDGET


@pytest.mark.parametrize("method, step, option", [
    ("sgh", sgh.step, {"mode": "predictor_only"}),
    ("cch", cch.step, {"solver": "quadratic"}),
    ("cch", cch.step, {"solver": "acoustic"}),
], ids=["sgh-predictor", "cch-quadratic", "cch-acoustic"])
def test_loop_iteration_temporaries_within_budget(method, step, option):
    """One whole iteration of ``cli.run``'s loop, with the buffers ``cli.run``
    gives it: the step, the audit, the entropy monitor and the dt rule of the
    next step. The new state is held from the step on, so a temporary of the
    phases after it raises the peak above what the iteration keeps."""
    problem = uh.sedov()
    gas = IdealGas(problem.gamma)
    mesh, state = uh.build_initial(problem, N, method)
    workspace = Workspace(N)
    step = partial(step, floors=cli._positivity_floors(state), workspace=workspace, **option)
    ledger, monitor = diag.ConservationLedger.open(mesh, state), diag.EntropyMonitor()

    def iteration(mesh, state, dt):
        mesh, state, report = step(state, mesh, gas, dt, problem.bc_left, problem.bc_right)
        diag.audit_step(ledger, mesh, state, report.boundary)
        monitor.update(report)
        dt = cli.compute_dt(state, mesh, 0.3, dt, DT, 1.01, 1.0, workspace)
        return mesh, state, report, dt   # the loop holds the report until the next step

    dt = DT
    for _ in range(3):
        mesh, state, _, dt = iteration(mesh, state, dt)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = iteration(mesh, state, dt)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[1].rho.shape == (N,) and result[3] == DT
    assert ledger.steps == 4 and not ledger.violations and monitor.violations == 0
    assert kept >= 8 * N * 8
    assert (peak - kept) / (8 * N) <= BUDGET
