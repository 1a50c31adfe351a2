"""``closure._quadratic_kernel`` against a reference copy of its earlier,
where-guarded form.

The library kernel tests admissibility as c >= k|d| and forms one candidate
root without division guards. Both kernels must accept the same nodes, except
where c = k|d| holds to a few ulps (the two forms of the bound round
differently there), and must give bitwise the same star state wherever they
agree.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unihydro as uh
from unihydro.closure import _acoustic_kernel, _quadratic_kernel, star_pressure

GAMMA = 1.4
K = 0.5 * (GAMMA + 1.0)
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _reference_admissible(z, rho, d, k):
    """One-sided bound z d^2 >= k rho |d|^3 on the quadratic relation."""
    return z * d * d >= k * rho * np.abs(d) ** 3


def reference_kernel(rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac):
    """The kernel as it was before the single-pass rewrite; also returns the
    tried root ``u_try``, which the mask comparison needs."""
    k = 0.5 * (gamma + 1.0)
    zl = rl * cl
    zr = rr * cr
    A = k * (rl - rr)
    B = -((gamma + 1.0) * (rl * ul - rr * ur) + zl + zr)
    C = k * (rl * ul * ul - rr * ur * ur) + (pl - pr) + zl * ul + zr * ur
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
        raise FloatingPointError("non-finite nodal force-balance coefficients")

    tol_a = 1e-12 * k * np.maximum(rl, rr)
    linear = np.abs(A) < tol_a
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.where(disc > 0.0, disc, 0.0))
        # numerically stable quadratic roots
        q = -0.5 * (B + np.where(B >= 0.0, 1.0, -1.0) * sq)
        safe_a = np.where(A != 0.0, A, 1.0)
        safe_q = np.where(q != 0.0, q, 1.0)
        root_a = np.where(A != 0.0, q / safe_a, np.inf)
        root_b = np.where(q != 0.0, C / safe_q, np.inf)
        safe_b = np.where(B != 0.0, B, 1.0)
        u_lin = np.where(B != 0.0, -C / safe_b, np.nan)

    picked = np.where(np.abs(root_a - u_ac) <= np.abs(root_b - u_ac), root_a, root_b)
    u_try = np.where(linear, u_lin, picked)
    solvable = np.where(linear, B != 0.0, disc > 0.0) & np.isfinite(u_try)

    accepted = (solvable & _reference_admissible(zl, rl, u_try - ul, k)
                & _reference_admissible(zr, rr, u_try - ur, k))

    u_star = np.where(accepted, u_try, u_ac)
    ps_left = star_pressure(pl, zl, rl, u_star - ul, k)
    ps_right = star_pressure(pr, zr, rr, ur - u_star, k)
    return u_star, ps_left, ps_right, accepted, u_try


def _near_bound(c, d):
    """c = k|d| to within a few ulps of c."""
    return np.abs(c - K * np.abs(d)) <= 8.0 * np.finfo(float).eps * c


def assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur):
    """Same accept mask up to bound ties, bitwise-equal star states elsewhere.
    Returns the number of nodes accepted."""
    args = tuple(np.asarray(a, dtype=float) for a in (rl, cl, pl, ul, rr, cr, pr, ur))
    u_ac, _ = _acoustic_kernel(*args)
    with np.errstate(all="ignore"):
        *ref, ref_ok, u_try = reference_kernel(*args, GAMMA, u_ac)
    rl, cl, pl, ul, rr, cr, pr, ur = args
    *new, new_ok = _quadratic_kernel(*args, GAMMA, u_ac, rl * cl, rr * cr, pl - pr)
    assert new_ok.dtype == np.bool_ and new_ok.shape == u_ac.shape
    flipped = ref_ok != new_ok
    tie = _near_bound(args[1], u_try - args[3]) | _near_bound(args[5], u_try - args[7])
    assert np.all(tie[flipped]), f"accept flips away from c = k|d| at {np.flatnonzero(flipped)}"
    # accepted by both: the star state; rejected by both: the acoustic guess
    for old, fresh in zip(ref, new):
        np.testing.assert_array_equal(old[~flipped].view(np.int64),
                                      fresh[~flipped].view(np.int64))
    return int(np.count_nonzero(new_ok))


def test_covers_linear_negative_discriminant_and_zero_jump():
    # node 0: equal densities (A = 0, linear); 1: uniform flow (d = 0 on both
    # sides); 2: strong contrast with a discriminant below zero; 3: mild shock;
    # 4: a double root (disc == 0 exactly) that would be admissible; 5: |A|
    # below the linear tolerance but not zero, disc < 0, admissible linear root
    u5 = 0.4166666666666678
    rl = np.array([1.0, 2.0, 10.0, 1.0, 4.0, 1.0])
    cl = np.array([1.0, 1.5, 1.0, 1.2, 1.5, 1.0])
    pl = np.array([1.0, 3.0, 101.0, 1.0, 4.444444444444445, 1.0 - 36 * 2.0 ** -52])
    ul = np.array([0.5, 0.3, -0.42, 0.2, 0.0, -u5])
    rr = np.array([1.0, 2.0, 0.1, 1.1, 1.0, 1.0 + 2.0 ** -45])
    cr = np.array([0.8, 1.5, 1.0, 1.2, 2.0, 1.0])
    pr = np.array([0.5, 3.0, 1.0, 1.0, 0.0, 1.0])
    ur = np.array([-0.5, 0.3, 0.0, 0.0, 0.0, u5])
    A = K * (rl - rr)
    B = -((GAMMA + 1.0) * (rl * ul - rr * ur) + rl * cl + rr * cr)
    C = K * (rl * ul * ul - rr * ur * ur) + (pl - pr) + rl * cl * ul + rr * cr * ur
    disc = B * B - 4.0 * A * C
    assert A[0] == 0.0 and disc[2] < 0.0 and disc[4] == 0.0
    assert 0.0 < abs(A[5]) < 1e-12 * K and disc[5] < 0.0
    root4 = -B[4] / (2.0 * A[4])
    assert cl[4] >= K * abs(root4 - ul[4]) and cr[4] >= K * abs(root4 - ur[4])
    u_ac, _ = _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur)
    u_star, _, _, accepted = _quadratic_kernel(rl, cl, pl, ul, rr, cr, pr, ur, GAMMA, u_ac,
                                               rl * cl, rr * cr, pl - pr)
    assert accepted.tolist() == [True, True, False, True, False, True]
    assert u_star[1] == 0.3 and u_star[2] == u_ac[2] and u_star[4] == u_ac[4]
    assert u_star[5] == C[5] / -B[5]
    assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur)


def test_non_finite_coefficients_raise():
    one = np.ones(2)
    with pytest.raises(FloatingPointError, match="non-finite"):
        _quadratic_kernel(one, one, one, np.array([1.0, np.inf]), one, one, one, one,
                          GAMMA, one, one, one, one - one)


_rho = st.floats(0.01, 100.0)
_c = st.floats(0.01, 100.0)
_p = st.floats(0.0, 1000.0)
_u = st.floats(-100.0, 100.0)
_node = st.tuples(st.sampled_from(["random", "equal_rho", "uniform", "equal_u_p"]),
                  _rho, _c, _p, _u, _rho, _c, _p, _u)


@settings(max_examples=150, deadline=None)
@given(st.lists(_node, min_size=1, max_size=40))
def test_random_states_match_reference(nodes):
    rows = []
    for kind, rl, cl, pl, ul, rr, cr, pr, ur in nodes:
        if kind == "equal_rho":
            rr = rl
        elif kind == "uniform":
            rr, cr, pr, ur = rl, cl, pl, ul
        elif kind == "equal_u_p":
            pr, ur = pl, ul
        rows.append((rl, cl, pl, ul, rr, cr, pr, ur))
    assert_matches_reference(*np.array(rows).T)


def _riemann_array_spec(seed):
    """The ``array_large`` benchmark problem of ``bench/workloads.py``."""
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(BENCH, "workloads.py"))
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(BENCH)
    problem, _ = workloads.riemann_array(uh, seed)
    return problem, workloads.ARRAY_N, workloads.ARRAY_DT


def test_array_large_state_matches_reference():
    problem, n, dt = _riemann_array_spec(1)
    result = uh.run(uh.RunConfig(problem=problem, method="cch", n_cells=n,
                                 dt_init=dt, dt_max=dt, t_end=100 * dt))
    s = result.state
    accepted = assert_matches_reference(s.rho[:-1], s.c[:-1], s.p[:-1], s.u[:-1],
                                        s.rho[1:], s.c[1:], s.p[1:], s.u[1:])
    assert n // 2 < accepted < n - 1
