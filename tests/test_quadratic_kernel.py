"""``closure._quadratic_kernel`` against a reference copy of its earlier,
where-guarded form.

The library kernel tests admissibility as c >= k|d| and solves for the
correction to the acoustic guess without division guards. Both kernels must
accept the same nodes, except where c = k|d| holds to 8 ulps of c at the
reference's root or at the exact root. Where both reject a node they must give
bitwise the same star state (the acoustic guess); where both accept it, (a) the
same star velocity to 1e-12 of the velocity scale and (b) a force-balance
residual |p*_L - p*_R| / (|p*_L| + |p*_R|) no worse than the reference's or
than 8 ulps. The one exception: the new root is the exact root (``exact_root``)
to 1e-12 of the velocity scale, and, for (a), the reference's root is not.
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
from unihydro.closure import _acoustic_kernel, _quadratic_kernel, star_pressure

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
    ps_left = star_pressure(pl, zl, rl, u_star - ul, k)
    ps_right = star_pressure(pr, zr, rr, ur - u_star, k)
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
    """``_quadratic_kernel`` around the acoustic guess ``u_ac``, into fresh arrays."""
    n = np.shape(u_ac)
    out = (np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    return _quadratic_kernel(rl, cl, pl, ul, rr, cr, pr, ur, GAMMA, u_ac, u_ac - ul, ur - u_ac,
                             rl * cl, rr * cr, out)


def balance_residual(ps_l, ps_r):
    """|p*_L - p*_R| / (|p*_L| + |p*_R|), zero where both vanish."""
    return np.abs(ps_l - ps_r) / np.maximum(np.abs(ps_l) + np.abs(ps_r), np.finfo(float).tiny)


def assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur):
    """Same accept mask up to bound ties; bitwise-equal star states where both
    reject; where both accept, (a) the same root to 1e-12 of |u*| + |ul| + |ur|
    + cl + cr and (b) a residual no worse than the reference's or 8 ulps.

    A node may miss (a) or (b) only where its new root is the exact root to
    1e-12 of that velocity scale, and miss (a) only where the reference's root
    is not. Returns the numbers of nodes accepted and of nodes that needed the
    exception."""
    args = tuple(np.asarray(a, dtype=float) for a in (rl, cl, pl, ul, rr, cr, pr, ur))
    u_ac, _ = _acoustic_kernel(*args)
    with np.errstate(all="ignore"):
        *ref, ref_ok, u_try = reference_kernel(*args, GAMMA, u_ac)
    rl, cl, pl, ul, rr, cr, pr, ur = args
    *new, new_ok = quadratic(*args, u_ac)
    assert new_ok.dtype == np.bool_ and new_ok.shape == u_ac.shape
    flipped = ref_ok != new_ok
    tie = _near_bound(cl, u_try - ul) | _near_bound(cr, u_try - ur)
    for i in np.flatnonzero(flipped & ~tie):   # a tie at the exact root, where u_try is off
        exact = exact_root(*(a[i] for a in args), u_ac[i])
        assert exact is not None and any(
            abs(Decimal(c) - Decimal(K) * abs(exact - Decimal(u))) <= Decimal(8.0 * EPS * c)
            for c, u in ((cl[i], ul[i]), (cr[i], ur[i]))), f"accept flips away from c = k|d| at {i}"
    # rejected by both: the acoustic guess and its star pressures
    rejected = ~ref_ok & ~new_ok
    for old, fresh in zip(ref, new):
        np.testing.assert_array_equal(old[rejected].view(np.int64),
                                      fresh[rejected].view(np.int64))
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
    u_star, _, _, accepted = quadratic(rl, cl, pl, ul, rr, cr, pr, ur, u_ac)
    assert accepted.tolist() == [True, True, False, True, False, True]
    assert u_star[1] == 0.3 and u_star[2] == u_ac[2] and u_star[4] == u_ac[4]
    assert u_star[5] == C[5] / -B[5]
    assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur)


def test_expanding_equal_density_and_rejected_nodes():
    # node 0: rho = c = 1, p = 0, u = 0 | 1 expands so strongly that B' > 0 in
    # A d^2 + B' d + C' = 0 (d = u* - u_ac): a root formed as if B' < 0 is 0/0;
    # 1: equal densities, A = 0 exactly, whose root is rational (3/26);
    # 2: disc < 0 outside the |A| band, rejected with the acoustic guess
    rl, cl, pl, ul = (np.array(v) for v in ([1.0, 2.0, 10.0], [1.0, 1.5, 1.0],
                                            [0.0, 3.0, 101.0], [0.0, 0.25, -0.42]))
    rr, cr, pr, ur = (np.array(v) for v in ([1.0, 2.0, 0.1], [1.0, 1.25, 1.0],
                                            [0.0, 1.0, 1.0], [1.0, -0.5, 0.0]))
    u_ac, _ = _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur)
    u_star, ps_l, ps_r, accepted = quadratic(rl, cl, pl, ul, rr, cr, pr, ur, u_ac)
    assert accepted.tolist() == [True, True, False]
    assert np.isfinite(u_star).all() and np.isfinite(ps_l).all() and np.isfinite(ps_r).all()
    assert u_star[0] == 0.5 and ps_l[0] == ps_r[0] == -0.2
    assert abs(u_star[1] - 3.0 / 26.0) <= 4.0 * EPS * (abs(ul[1]) + abs(ur[1]))
    assert balance_residual(ps_l[1], ps_r[1]) <= 8.0 * EPS
    assert u_star[2] == u_ac[2]
    assert_matches_reference(rl, cl, pl, ul, rr, cr, pr, ur)


def test_non_finite_coefficients_raise():
    one = np.ones(2)
    with pytest.raises(FloatingPointError, match="non-finite"):
        quadratic(one, one, one, np.array([1.0, np.inf]), one, one, one, one, one)


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
    """Swapping the sides and negating the velocities negates u* and swaps the
    star pressures, exactly (zeros of either sign compare equal), except in the
    |A| band, whose root keeps the earlier u-form and its rounding."""
    rl, cl, pl, ul, rr, cr, pr, ur = _node_arrays(nodes)
    u_ac, _ = _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur)
    u_star, ps_l, ps_r, accepted = quadratic(rl, cl, pl, ul, rr, cr, pr, ur, u_ac)
    m_ac, _ = _acoustic_kernel(rr, cr, pr, -ur, rl, cl, pl, -ul)
    m_star, m_l, m_r, m_accepted = quadratic(rr, cr, pr, -ur, rl, cl, pl, -ul, m_ac)
    kept = ~((rl != rr) & (np.abs(rl - rr) < 1e-12 * np.maximum(rl, rr)))
    assert np.array_equal(m_accepted[kept], accepted[kept])
    assert np.array_equal(m_star[kept], -u_star[kept])
    assert np.array_equal(m_l[kept], ps_r[kept]) and np.array_equal(m_r[kept], ps_l[kept])


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
