"""Per-step budget of ufunc calls in the driver loop, for each step kind.

At the sizes most runs use a step costs its count of numpy calls, not its
cell count: a ufunc call takes about 0.4 us at N = 100, whatever it computes.
So the count is the measure of the fixed per-step cost, and a change that
adds calls fails here. ``oracles.ufunc_calls`` counts every ufunc call made on
the run's arrays, operators and in-place operators included, so moving a call
into an operator does not leave the budget. The count is deterministic;
nothing is timed. The budgets are the counts of the present code (the loop's
reach check, once per 1,024 steps, adds 0.1 a step over the 50 steps).
"""

from dataclasses import replace

import numpy as np
import pytest

import unihydro as uh

from oracles import _Counted, run_ufunc_calls, ufunc_calls

N_STEPS = 50
DT = 1e-4          # well below the CFL step of Sod at N = 40: every step takes it


@pytest.mark.parametrize("method, option, budget", [
    ("sgh", {"sgh_mode": "predictor_only"}, 42.1),
    ("sgh", {"sgh_mode": "predictor_corrector"}, 75.1),
    ("cch", {"cch_solver": "quadratic"}, 110.12),
    ("cch", {"cch_solver": "acoustic"}, 53.12),
], ids=["sgh-predictor", "sgh-predictor-corrector", "cch-quadratic", "cch-acoustic"])
def test_ufunc_calls_per_step_within_budget(method, option, budget):
    config = uh.RunConfig(problem="sod", method=method, n_cells=40,
                          dt_init=DT, dt_max=DT, **option)
    # a run of no steps counts the set-up: initial state, ledger, floors
    setup_steps, setup = run_ufunc_calls(replace(config, t_end=0.0))
    steps, calls = run_ufunc_calls(replace(config, t_end=N_STEPS * DT))
    assert (setup_steps, steps) == (0, N_STEPS)
    per_step = (calls.total() - setup.total()) / N_STEPS
    assert per_step <= budget, dict(calls - setup)


def test_counter_sees_operators_and_in_place_operators():
    """An operator and an in-place operator on a counted array count as the
    ufunc calls they make, and arrays derived from it are counted too."""
    with ufunc_calls() as calls:
        a = np.ones(3).view(_Counted)
        b = a * 2.0
        b += 1.0
        np.add.reduce(-b)
    assert calls == {("multiply", "__call__"): 1, ("add", "__call__"): 1,
                     ("negative", "__call__"): 1, ("add", "reduce"): 1}
