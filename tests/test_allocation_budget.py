"""Per-step budget of NumPy memory held by temporaries.

``cli.run`` binds one ``mesh.Workspace`` into the stepper, and a step writes
every temporary into its buffers: the nodal solve, the momentum and energy
update, the star pressures and the entropy production. What a step still
allocates is what a caller can keep: the new state and mesh, the report and
the nodal fields. ``tracemalloc`` sees NumPy's data buffers, so the peak traced
during one step, less what is still held when the step returns, is what its
temporaries took at their worst. The count is deterministic; nothing is timed.
"""

import tracemalloc
from functools import partial

import pytest

import unihydro as uh
from unihydro import cch, cli, sgh
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
