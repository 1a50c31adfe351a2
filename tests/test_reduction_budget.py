"""Per-step budget of numpy reductions in the driver loop.

A ufunc reduction (``min``, ``max``, ``all``, ``sum``) costs about 2.5 us at
the sizes most runs use, while ``a[a.argmin()]`` gives the same value in about
1 us. So the per-step validity, tangling, CFL, speed, monitor and nodal-solve
tests take their extrema through ``mesh._least``/``_greatest``, and only the
conservation ledger keeps its sums (their pairwise order sets the ledger's
bits): SGH 3 a step (momentum, internal and kinetic energy), CCH 1 (one row-sum
of the (2, N) masses times (u, E); ``test_paired_row_sum.py`` pins that it sums
each row as a 1-D sum would). Total mass is summed once per run, as every step's
mesh carries the opening read-only masses. The reductions are counted by
``oracles.ufunc_calls``, the counter of ``test_call_budget.py``, as the calls
with method ``reduce``; the count is deterministic, and a change that puts a
per-step reduction back fails here. Nothing is timed.
"""

from dataclasses import replace

import pytest

import unihydro as uh

from oracles import run_ufunc_calls

N_STEPS = 50
DT = 1e-4          # well below the CFL step of Sod at N = 40: every step takes it


def _reduce_calls(config):
    """(steps, ufunc reductions) of one run."""
    steps, calls = run_ufunc_calls(config)
    return steps, sum(n for (_, method), n in calls.items() if method == "reduce")


@pytest.mark.parametrize("method, option, budget", [
    ("sgh", {"sgh_mode": "predictor_only"}, 3),
    ("sgh", {"sgh_mode": "predictor_corrector"}, 3),
    ("cch", {"cch_solver": "quadratic"}, 1),
    ("cch", {"cch_solver": "acoustic"}, 1),
], ids=["sgh-predictor", "sgh-predictor-corrector", "cch-quadratic", "cch-acoustic"])
def test_reductions_per_step_within_budget(method, option, budget):
    config = uh.RunConfig(problem="sod", method=method, n_cells=40,
                          dt_init=DT, dt_max=DT, **option)
    # a run of no steps counts the set-up: initial state, ledger, floors
    setup_steps, setup = _reduce_calls(replace(config, t_end=0.0))
    steps, total = _reduce_calls(replace(config, t_end=N_STEPS * DT))
    assert (setup_steps, steps) == (0, N_STEPS)
    assert total - setup <= budget * N_STEPS
