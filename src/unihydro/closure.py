"""Pressure-velocity closure shared by the staggered and cell-centered methods.

A quadratic Taylor expansion of the pressure in the specific-volume change
(the shock adiabat and the isentrope of an ideal gas share its first and second
derivatives) is turned into a pressure-velocity relation through the
sound-crossing time of a cell.
For the staggered method this yields a per-cell star pressure with a
linear-plus-quadratic compression term; for the cell-centered method a nodal
force balance gives either a linear (acoustic) solve or a quadratic solve with
an admissibility test. Every one-sided star pressure is ``star_pressure``.

``solve_nodes`` is the cell-centered nodal solve. Its quadratic solve finds the
correction delta = u* - u_ac to the acoustic guess u_ac from A delta^2 + B' delta + C' = 0:
A = k rl - k rr, B' = 2 (k rl dl0 + k rr dr0) - zl - zr and C' = k rl dl0^2 - k rr dr0^2
+ r0, with dl0 = u_ac - ul, dr0 = ur - u_ac, z = rho c, k = (gamma+1)/2 and r0 =
(pl - zl dl0) - (pr - zr dr0) the rounding of the linear part (zero at u_ac in exact
arithmetic). The root delta = -2 C' / (B' + sign(B') sqrt(D)), D = B'^2 - 4 A C'
(B' > 0 at a strongly expanding node), divides by no A, so only rejected nodes with
D <= 0 test the band |A| ~ 0 (for the linear part's root in u); A and C' flip sign
under a mirror swap. A node is accepted where D > 0 and c >= k|d| on both sides, else
it gets the two-shock solve ``_two_shock_kernel`` on the jumps already formed: a linear
force balance whose impedance on a compressed side is ``rho c + k rho (compression)``,
with the compression measured from the acoustic guess. This is the two-shock impedance
of Dukowicz (J. Comput. Phys. 61, 1985), and it keeps the same ``k rho d^2`` compression
term the staggered star pressure carries. An expanding side adds no impedance, so
without compression the solve is the acoustic one.
"""

from __future__ import annotations

import numpy as np

from .mesh import _greatest, _least

__all__ = ["star_pressure", "sgh_star_pressure", "solve_nodes"]

ACOUSTIC = 0
QUADRATIC = 1
SOLVERS = ("acoustic", "quadratic")


def star_pressure(p, z, rho, d, k):
    """One-sided pressure-velocity relation p - z d + k rho d^2, where d < 0
    compresses the cell: d = u* - u left of the node, u - u* right of it."""
    return p - z * d + k * rho * d * d


def sgh_star_pressure(rho, c, p, du, gamma: float):
    """Star pressure of a cell with velocity jump du across it.

    Compression (du < 0) follows the quadratic expansion expressed through
    du = rho c dtau; expansion and uniform flow keep the cell pressure, which
    makes smooth-flow entropy production exactly zero.
    """
    rho = np.asarray(rho, dtype=float)
    c = np.asarray(c, dtype=float)
    p = np.asarray(p, dtype=float)
    du = np.asarray(du, dtype=float)
    compressed = star_pressure(p, rho * c, rho, du, 0.5 * (gamma + 1.0))
    return np.where(du < 0.0, compressed, p)


def _balance_velocity(zl, ul, zr, ur, dp):
    """u* = (zl ul + zr ur + dp)/(zl + zr), dp = pl - pr, in perturbation form:
    exact (no rounding) for identical inputs, bitwise symmetric under a mirror swap."""
    return 0.5 * (ul + ur) + (0.5 * (zr - zl) * (ur - ul) + dp) / (zl + zr)


def _linear_balance(zl, pl, ul, zr, pr, ur):
    """Impedance-weighted star (velocity, pressure), both exact and symmetric."""
    u_star = _balance_velocity(zl, ul, zr, ur, pl - pr)
    dl = u_star - ul
    dr = u_star - ur
    p_star = 0.5 * ((pl - zl * dl) + (pr + zr * dr))
    return u_star, p_star


def _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur):
    """Linear nodal solve with the acoustic impedances rho c."""
    return _linear_balance(rl * cl, pl, ul, rr * cr, pr, ur)


def _two_shock_kernel(rl, cl, pl, ul, rr, cr, pr, ur, gamma, dl0, dr0):
    """Linear nodal solve with two-shock impedances from the acoustic guess.

    A side compressed at the acoustic star velocity u_ac (jump ``dl0`` = u_ac - ul
    or ``dr0`` = ur - u_ac below 0) gets the impedance rho c + k rho |d0|; an
    expanding side keeps rho c. Each side's entropy production w (u*-u)^2 is
    nonnegative; with no compressed side this is bitwise ``_acoustic_kernel``.
    """
    k = 0.5 * (gamma + 1.0)
    wl = rl * cl - k * rl * np.minimum(dl0, 0.0)   # bitwise rho c + k rho max(-d0, 0)
    wr = rr * cr - k * rr * np.minimum(dr0, 0.0)
    return _linear_balance(wl, pl, ul, wr, pr, ur)


def _admissible(c, d, k):
    """One-sided bound c >= k |d|: z d^2 >= k rho |d|^3 over rho d^2 (both hold at d = 0)."""
    return c >= k * np.abs(d)


def _quadratic_kernel(rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac, dl0, dr0, zl, zr, out):
    """The quadratic force balance for delta = u* - u_ac, with the admissibility
    test, written into ``out`` = (u_star, p_star_left_side, p_star_right_side,
    accepted) and returned. ``dl0``, ``dr0`` are the jumps at u_ac and ``zl``,
    ``zr`` the impedances; a rejected node carries u_ac, for the caller to fill.
    """
    k = 0.5 * (gamma + 1.0)
    u_star, ps_l, ps_r, accepted = out
    krl, krr = k * rl, k * rr
    kdl, kdr = krl * dl0, krr * dr0
    # A delta^2 + 2 b delta - c = 0: B' = 2 b and C' = -c (with r0) of the module docstring
    A, b = krl - krr, kdl + kdr - 0.5 * (zl + zr)
    c = kdr * dr0 - kdl * dl0 + ((pr - zr * dr0) - (pl - zl * dl0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = b * b + A * c   # D/4
        # a non-finite coefficient makes disc non-finite (so does an overflow)
        if not _greatest(np.abs(disc)) < np.inf and not np.isfinite((A, b, c)).all():
            raise FloatingPointError("non-finite nodal force-balance coefficients")
        delta = c / (b + np.copysign(np.sqrt(disc), b))   # NaN where disc < 0
        dl, dr = dl0 + delta, dr0 - delta
        # an admissible jump is finite, so this also rejects a NaN delta
        np.logical_and(disc > 0.0, _admissible(cl, dl, k) & _admissible(cr, dr, k), out=accepted)
        np.add(u_ac, delta, out=u_star)
        if not _least(accepted):   # rare: a rejected node carries the acoustic guess
            j = (~accepted).nonzero()[0]
            u_star[j], dl[j], dr[j] = u_ac[j], dl0[j], dr0[j]
            j = j[disc[j] <= 0.0]   # no real root: in the |A| band, the linear part's root in u
            if j.size and (j := j[np.abs(A[j]) < 1e-12 * k * np.maximum(rl[j], rr[j])]).size:
                m_l, m_r = rl[j] * ul[j], rr[j] * ur[j]
                u = ((k * (m_l * ul[j] - m_r * ur[j]) + (pl[j] - pr[j]) + zl[j] * ul[j]
                      + zr[j] * ur[j]) / ((gamma + 1.0) * (m_l - m_r) + zl[j] + zr[j]))
                ok = _admissible(cl[j], u - ul[j], k) & _admissible(cr[j], u - ur[j], k)
                j, u = j[ok], u[ok]
                u_star[j], dl[j], dr[j], accepted[j] = u, u - ul[j], ur[j] - u, True
    np.add(pl - zl * dl, krl * dl * dl, out=ps_l)   # star_pressure, k rho formed once
    np.add(pr - zr * dr, krr * dr * dr, out=ps_r)
    return out


def solve_nodes(rl, cl, pl, ul, rr, cr, pr, ur, gamma: float, solver: str = "quadratic",
                out=None):
    """Cell-centered nodal solve between left and right cell arrays.

    Returns (u_star, p_star_left_side, p_star_right_side, order), order being
    ACOUSTIC or QUADRATIC per node, in the arrays of ``out`` if given. The acoustic
    solver gives the acoustic values, one pressure for both sides. The quadratic
    solver keeps an admissible quadratic root and gives the two-shock solve where
    it is rejected, with one star pressure on both sides and order ACOUSTIC.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown nodal solver {solver!r}; expected one of {SOLVERS}")
    u_star, ps_l, ps_r, order = out = out or (
        *(np.empty(np.shape(rl)) for _ in range(3)), np.empty(np.shape(rl), np.int8))
    if solver == "acoustic":
        u_star[...], ps_l[...] = _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur)
        ps_r[...], order[...] = ps_l, ACOUSTIC
        return out
    zl, zr = rl * cl, rr * cr
    u_ac = _balance_velocity(zl, ul, zr, ur, pl - pr)  # the acoustic guess
    dl0, dr0 = u_ac - ul, ur - u_ac
    accepted = order.view(np.bool_)   # QUADRATIC = 1, ACOUSTIC = 0
    _quadratic_kernel(rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac, dl0, dr0, zl, zr,
                      (u_star, ps_l, ps_r, accepted))
    if not _least(accepted):
        j = (~accepted).nonzero()[0]
        u_star[j], p_2s = _two_shock_kernel(
            rl[j], cl[j], pl[j], ul[j], rr[j], cr[j], pr[j], ur[j], gamma, dl0[j], dr0[j])
        ps_l[j] = ps_r[j] = p_2s
    return out
