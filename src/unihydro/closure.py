"""Pressure-velocity closure shared by the staggered and cell-centered methods.

A quadratic Taylor expansion of the pressure in the specific-volume change
(the shock adiabat and the isentrope of an ideal gas share its first and second
derivatives) is turned into a pressure-velocity relation through the
sound-crossing time of a cell.
For the staggered method this yields a per-cell star pressure with a
linear-plus-quadratic compression term; for the cell-centered method a nodal
force balance gives either a linear (acoustic) solve or a quadratic solve with
an admissibility test. Every one-sided star pressure is ``star_pressure``.

``solve_nodes`` is the cell-centered nodal solve. Where the quadratic root is
rejected it uses the two-shock solve ``_two_shock_kernel``: a linear force
balance whose impedance on a compressed side is ``rho c + k rho (compression)``,
with the compression measured from the acoustic guess and k = (gamma+1)/2. This
is the two-shock impedance of Dukowicz (J. Comput. Phys. 61, 1985), and it keeps
the same ``k rho d^2`` compression term the staggered star pressure carries.
An expanding side adds no impedance, so without compression the solve is the
acoustic one.
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


def _two_shock_kernel(rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac):
    """Linear nodal solve with two-shock impedances from the acoustic guess.

    A side compressed by the acoustic star velocity ``u_ac`` gets the
    impedance rho c + k rho (compression), k = (gamma+1)/2; an expanding side
    keeps rho c. Each side's entropy production w (u*-u)^2 is nonnegative, and
    with no compressed side the result is bitwise that of ``_acoustic_kernel``.
    """
    k = 0.5 * (gamma + 1.0)
    wl = rl * cl + k * rl * np.maximum(ul - u_ac, 0.0)
    wr = rr * cr + k * rr * np.maximum(u_ac - ur, 0.0)
    return _linear_balance(wl, pl, ul, wr, pr, ur)


def _admissible(c, d, k):
    """One-sided bound c >= k |d|: z d^2 >= k rho |d|^3 over rho d^2 (both hold at d = 0)."""
    return c >= k * np.abs(d)


def _quadratic_kernel(rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac, zl, zr, dp):
    """Quadratic nodal force balance A u^2 + B u + C = 0 with admissibility test.

    Returns (u_star, p_star_left_side, p_star_right_side, accepted_mask). The root
    nearest the acoustic star velocity ``u_ac`` is tried (the one root where |A| is
    negligible); a rejected node carries ``u_ac`` and is for the caller to fill.
    ``zl`` = rl cl, ``zr`` = rr cr and ``dp`` = pl - pr come from the caller,
    which forms them once for the acoustic guess as well.
    """
    k = 0.5 * (gamma + 1.0)
    mom_l = rl * ul
    mom_r = rr * ur
    A = k * (rl - rr)
    neg_b = (gamma + 1.0) * (mom_l - mom_r) + zl + zr
    C = k * (mom_l * ul - mom_r * ur) + dp + zl * ul + zr * ur

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = neg_b * neg_b - 4.0 * A * C
        # a non-finite coefficient makes disc non-finite (so does an overflow)
        if not _greatest(np.abs(disc)) < np.inf and not np.isfinite((A, neg_b, C)).all():
            raise FloatingPointError("non-finite nodal force-balance coefficients")
        # stable roots q/A, C/q: q = -(B + sign(B) sqrt(disc))/2, sign(+-0) = +1
        q = 0.5 * (neg_b - np.copysign(np.sqrt(disc), 0.0 - neg_b))
        root_a = q / A
        root_b = C / q
        u_try = np.where(np.abs(root_a - u_ac) <= np.abs(root_b - u_ac), root_a, root_b)
        linear = np.abs(A) < 1e-12 * k * np.maximum(rl, rr)
        u_try = np.where(linear, C / neg_b, u_try)
        # an admissible jump is finite, so this also rejects non-finite roots
        accepted = (((disc > 0.0) | linear)
                    & _admissible(cl, u_try - ul, k) & _admissible(cr, u_try - ur, k))
    u_star = np.where(accepted, u_try, u_ac)
    return (u_star, star_pressure(pl, zl, rl, u_star - ul, k),
            star_pressure(pr, zr, rr, ur - u_star, k), accepted)


def solve_nodes(rl, cl, pl, ul, rr, cr, pr, ur, gamma: float, solver: str = "quadratic"):
    """Cell-centered nodal solve between left and right cell arrays.

    Returns (u_star, p_star_left_side, p_star_right_side, order), order being
    ACOUSTIC or QUADRATIC per node. The acoustic solver gives the acoustic
    values, one pressure array for both sides. The quadratic solver keeps an
    admissible quadratic root and gives the two-shock solve where it is
    rejected, with one star pressure on both sides and order ACOUSTIC.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown nodal solver {solver!r}; expected one of {SOLVERS}")
    if solver == "acoustic":
        u_ac, p_ac = _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur)
        return u_ac, p_ac, p_ac, np.zeros(np.shape(u_ac), dtype=np.int8)  # ACOUSTIC = 0
    zl, zr, dp = rl * cl, rr * cr, pl - pr
    u_ac = _balance_velocity(zl, ul, zr, ur, dp)  # the acoustic guess
    u_star, ps_l, ps_r, accepted = _quadratic_kernel(
        rl, cl, pl, ul, rr, cr, pr, ur, gamma, u_ac, zl, zr, dp)
    if not _least(accepted):
        j = (~accepted).nonzero()[0]
        u_star[j], p_2s = _two_shock_kernel(
            rl[j], cl[j], pl[j], ul[j], rr[j], cr[j], pr[j], ur[j], gamma, u_ac[j])
        ps_l[j] = ps_r[j] = p_2s
    return u_star, ps_l, ps_r, accepted.view(np.int8)  # QUADRATIC = 1, ACOUSTIC = 0
