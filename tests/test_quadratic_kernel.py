"""``closure._quadratic_kernel`` against a reference copy of its earlier,
where-guarded form.

The library kernel tests admissibility as c >= k|d| and solves for the
correction to the acoustic guess without division guards. Both kernels must
accept the same nodes, except where c = k|d| holds to 8 ulps of c at the
reference's root or at the exact root, and where the balance has no real root
and only the reference's |A| band accepted its linear root. Where both accept a
node they must give (a) the same star velocity to 1e-12 of the velocity scale
and (b) a force-balance residual |p*_L - p*_R| / (|p*_L| + |p*_R|) no worse than
the reference's or than 8 ulps. The one exception: the new root is the exact
root (``exact_root``) to 1e-12 of the velocity scale, and, for (a), the
reference's root is not. A rejected node's star state is not the kernel's:
``solve_nodes`` gives it the two-shock solve (``assert_two_shock_where_rejected``).
Where star pressures cancel to far below their terms, the residual of either
kernel is the rounding of their evaluation, and the new one can be the larger
at a root as exact.
"""

import importlib.util
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unihydro as uh
from unihydro.closure import ACOUSTIC, _quadratic_kernel, star_pressure
from unihydro.mesh import Workspace

from oracles import acoustic_solve, face_solve, two_shock_solve

GAMMA = 1.4
K = 0.5 * (GAMMA + 1.0)
EPS = np.finfo(float).eps
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
    ps_left = star_pressure(pl, zl, k * rl, u_star - ul)
    ps_right = star_pressure(pr, zr, k * rr, ur - u_star)
    return u_star, ps_left, ps_right, accepted, u_try


def _near_bound(c, d):
    """c = k|d| to within a few ulps of c."""
    return np.abs(c - K * np.abs(d)) <= 8.0 * EPS * c


def exact_root(rl, cl, pl, ul, rr, cr, pr, ur, u_ac):
    """The root of p*_L(u) = p*_R(u) nearest ``u_ac`` for one node, in exact
    arithmetic on the float inputs (with z = rho c and k rounded to floats, as
    both kernels form them), as a 60-digit Decimal; None without a real root."""
    k, zl, zr = Fraction(K), Fraction(rl * cl), Fraction(rr * cr)
    rl, pl, ul, rr, pr, ur, u_ac = map(Fraction, (rl, pl, ul, rr, pr, ur, u_ac))
    dl0, dr0 = u_ac - ul, ur - u_ac
    a = k * (rl - rr)
    b = 2 * k * (rl * dl0 + rr * dr0) - zl - zr
    c = k * (rl * dl0 * dl0 - rr * dr0 * dr0) + (pl - zl * dl0) - (pr - zr * dr0)
    disc = b * b - 4 * a * c
    if disc < 0 or b == disc == 0:
        return None
    with localcontext() as ctx:
        ctx.prec = 60
        dec = [Decimal(q.numerator) / Decimal(q.denominator) for q in (b, c, disc, u_ac)]
        return dec[3] - 2 * dec[1] / (dec[0] + dec[2].sqrt().copy_sign(dec[0]))


def quadratic(rl, cl, pl, ul, rr, cr, pr, ur, u_ac):
    """``_quadratic_kernel`` around the acoustic guess ``u_ac``, into fresh arrays:
    (u_star, p_star_left_side, p_star_right_side, accepted)."""
    n = np.shape(u_ac)
    out = (np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool), np.empty((2, *n)))
    zl, zr = rl * cl, rr * cr
    return _quadratic_kernel(zl, K * rl, cl, pl, zr, K * rr, cr, pr, K, u_ac,
                             np.array((u_ac - ul, ur - u_ac)), zl + zr, out,
                             Workspace(n[0] + 1))[:4]


def balance_residual(ps_l, ps_r):
    """|p*_L - p*_R| / (|p*_L| + |p*_R|), zero where both vanish."""
    return np.abs(ps_l - ps_r) / np.maximum(np.abs(ps_l) + np.abs(ps_r), np.finfo(float).tiny)


def assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur):
    """Same accept mask up to bound ties and the reference's |A| band; where both
    accept, (a) the same root to 1e-12 of |u*| + |ul| + |ur| + cl + cr and (b) a
    residual no worse than the reference's or 8 ulps.

    A node may miss (a) or (b) only where its new root is the exact root to
    1e-12 of that velocity scale, and miss (a) only where the reference's root
    is not. Returns the numbers of nodes accepted and of nodes that needed the
    exception."""
    args = tuple(np.asarray(a, dtype=float) for a in (rl, cl, pl, ul, rr, cr, pr, ur))
    u_ac, _ = acoustic_solve(*args)
    with np.errstate(all="ignore"):
        *ref, ref_ok, u_try = reference_kernel(*args, GAMMA, u_ac)
    rl, cl, pl, ul, rr, cr, pr, ur = args
    *new, new_ok = quadratic(*args, u_ac)
    assert new_ok.dtype == np.bool_ and new_ok.shape == u_ac.shape
    flipped = ref_ok != new_ok
    tie = _near_bound(cl, u_try - ul) | _near_bound(cr, u_try - ur)
    for i in np.flatnonzero(flipped & ~tie):   # a tie at the exact root, where u_try is off
        exact = exact_root(*(a[i] for a in args), u_ac[i])
        if exact is None:   # no real root: only the reference's |A| band gave one
            assert ref_ok[i] and abs(rl[i] - rr[i]) < 1e-12 * max(rl[i], rr[i]), i
            continue
        assert any(
            abs(Decimal(c) - Decimal(K) * abs(exact - Decimal(u))) <= Decimal(8.0 * EPS * c)
            for c, u in ((cl[i], ul[i]), (cr[i], ur[i]))), f"accept flips away from c = k|d| at {i}"
    # accepted by both: (a) the same root to round-off, (b) a force balance no worse
    both = ref_ok & new_ok
    (ref_u, ref_l, ref_r), (u_star, ps_l, ps_r) = ref, new
    speed = np.abs(u_star) + np.abs(ul) + np.abs(ur) + cl + cr
    off_a = both & ~(np.abs(u_star - ref_u) <= 1e-12 * speed)
    off_b = both & ~(balance_residual(ps_l, ps_r)
                     <= np.maximum(balance_residual(ref_l, ref_r), 8.0 * EPS))
    for i in np.flatnonzero(off_a | off_b):
        exact = exact_root(*(a[i] for a in args), u_ac[i])
        assert exact is not None, i
        tol = Decimal(1e-12 * speed[i])
        assert abs(Decimal(u_star[i]) - exact) <= tol, (i, off_a[i], off_b[i])
        if off_a[i]:
            assert abs(Decimal(ref_u[i]) - exact) > tol, i
    return int(np.count_nonzero(new_ok)), int(np.count_nonzero(off_a | off_b))


def assert_two_shock_where_rejected(rl, cl, pl, ul, rr, cr, pr, ur, rejected):
    """``solve_nodes`` rejects exactly the nodes ``rejected`` and gives them
    bitwise ``_two_shock_kernel`` on the gathered subset, one pressure on both
    sides; every output is finite."""
    args = tuple(np.asarray(a, dtype=float) for a in (rl, cl, pl, ul, rr, cr, pr, ur))
    u_star, ps_l, ps_r, order = face_solve(*args, GAMMA)
    assert np.isfinite(u_star).all() and np.isfinite(ps_l).all() and np.isfinite(ps_r).all()
    j = np.asarray(rejected)
    assert np.flatnonzero(order == ACOUSTIC).tolist() == j.tolist()
    rl, cl, pl, ul, rr, cr, pr, ur = (a[j] for a in args)
    u_2s, p_2s = two_shock_solve(rl, cl, pl, ul, rr, cr, pr, ur, GAMMA)
    for got, want in ((u_star[j], u_2s), (ps_l[j], p_2s), (ps_r[j], p_2s)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_covers_linear_negative_discriminant_and_zero_jump():
    # node 0: equal densities (A = 0, linear); 1: uniform flow (d = 0 on both
    # sides); 2: strong contrast with a discriminant below zero; 3: mild shock;
    # 4: a double root (disc == 0 exactly) that would be admissible; 5: |A|
    # far below k rho but not zero, disc < 0: rejected, although the linear
    # part alone has an admissible root
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
    u_ac, _ = acoustic_solve(rl, cl, pl, ul, rr, cr, pr, ur)
    u_star, _, _, accepted = quadratic(rl, cl, pl, ul, rr, cr, pr, ur, u_ac)
    assert accepted.tolist() == [True, True, False, True, False, False]
    assert u_star[1] == 0.3
    assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur)
    assert_two_shock_where_rejected(rl, cl, pl, ul, rr, cr, pr, ur, [2, 4, 5])


def test_expanding_equal_density_and_rejected_nodes():
    # node 0: rho = c = 1, p = 0, u = 0 | 1 expands so strongly that B' > 0 in
    # A d^2 + B' d + C' = 0 (d = u* - u_ac): a root formed as if B' < 0 is 0/0;
    # 1: equal densities, A = 0 exactly, whose root is rational (3/26);
    # 2: disc < 0 with A far from 0, rejected
    rl, cl, pl, ul = (np.array(v) for v in ([1.0, 2.0, 10.0], [1.0, 1.5, 1.0],
                                            [0.0, 3.0, 101.0], [0.0, 0.25, -0.42]))
    rr, cr, pr, ur = (np.array(v) for v in ([1.0, 2.0, 0.1], [1.0, 1.25, 1.0],
                                            [0.0, 1.0, 1.0], [1.0, -0.5, 0.0]))
    u_ac, _ = acoustic_solve(rl, cl, pl, ul, rr, cr, pr, ur)
    u_star, ps_l, ps_r, accepted = quadratic(rl, cl, pl, ul, rr, cr, pr, ur, u_ac)
    assert accepted.tolist() == [True, True, False]
    assert u_star[0] == 0.5 and ps_l[0] == ps_r[0] == -0.2
    assert abs(u_star[1] - 3.0 / 26.0) <= 4.0 * EPS * (abs(ul[1]) + abs(ur[1]))
    assert balance_residual(ps_l[1], ps_r[1]) <= 8.0 * EPS
    assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur)
    assert_two_shock_where_rejected(rl, cl, pl, ul, rr, cr, pr, ur, [2])


def test_non_finite_coefficients_raise():
    """A non-finite coefficient is a SolverFailure at the cell left of its node."""
    one = np.ones(2)
    with pytest.raises(uh.SolverFailure, match="non-finite") as failure:
        quadratic(one, one, one, np.array([1.0, np.inf]), one, one, one, one, one)
    assert failure.value.cell == 1


_rho = st.floats(0.01, 100.0)
_c = st.floats(0.01, 100.0)
_p = st.floats(0.0, 1000.0)
_u = st.floats(-100.0, 100.0)
_node = st.tuples(st.sampled_from(["random", "equal_rho", "uniform", "equal_u_p"]),
                  _rho, _c, _p, _u, _rho, _c, _p, _u)


def _node_arrays(nodes):
    """The eight face arrays of drawn nodes, each shaped by its kind."""
    rows = []
    for kind, rl, cl, pl, ul, rr, cr, pr, ur in nodes:
        if kind == "equal_rho":
            rr = rl
        elif kind == "uniform":
            rr, cr, pr, ur = rl, cl, pl, ul
        elif kind == "equal_u_p":
            pr, ur = pl, ul
        rows.append((rl, cl, pl, ul, rr, cr, pr, ur))
    return np.array(rows).T


@settings(max_examples=150, deadline=None)
@given(st.lists(_node, min_size=1, max_size=40))
def test_random_states_match_reference(nodes):
    assert_matches_reference(*_node_arrays(nodes))


@settings(max_examples=150, deadline=None)
@given(st.lists(_node, min_size=1, max_size=40))
def test_mirrored_nodes_mirror_exactly(nodes):
    """With either solver of ``solve_nodes``, swapping the sides and negating the
    velocities negates u*, swaps the star pressures and keeps the order, exactly
    (zeros of either sign compare equal), at every node; every output is finite."""
    rl, cl, pl, ul, rr, cr, pr, ur = _node_arrays(nodes)
    for solver in ("acoustic", "quadratic"):
        u_star, ps_l, ps_r, order = face_solve(rl, cl, pl, ul, rr, cr, pr, ur, GAMMA, solver)
        m_star, m_l, m_r, m_order = face_solve(rr, cr, pr, -ur, rl, cl, pl, -ul, GAMMA, solver)
        assert np.isfinite((u_star, ps_l, ps_r, m_star, m_l, m_r)).all()
        assert np.array_equal(m_order, order)
        assert np.array_equal(m_star, -u_star)
        assert np.array_equal(m_l, ps_r) and np.array_equal(m_r, ps_l)


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
    accepted, excepted = assert_matches_reference(s.rho[:-1], s.c[:-1], s.p[:-1], s.u[:-1],
                                                  s.rho[1:], s.c[1:], s.p[1:], s.u[1:])
    assert n // 2 < accepted < n - 1 and excepted == 0
