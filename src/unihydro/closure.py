"""Pressure-velocity closure shared by the staggered and cell-centered methods.

A second-order Taylor series of the pressure in the specific-volume change
(the shock adiabat and the isentrope of an ideal gas share its first and second
derivatives) is turned into a pressure-velocity relation through the
sound-crossing time of a cell.
For the staggered method this yields a per-cell star pressure with a
linear-plus-quadratic compression term; for the cell-centered method a nodal
force balance gives either a linear (acoustic) solve or a quadratic solve with
an admissibility test. ``star_pressure`` evaluates every quadratic one-sided relation.

``solve_nodes`` is the cell-centered nodal solve. Its quadratic solve finds the
correction delta = u* - u_ac to the acoustic guess u_ac from A delta^2 + B' delta + C' = 0:
A = k rl - k rr, B' = 2 (k rl dl0 + k rr dr0) - zl - zr and C' = k rl dl0^2 - k rr dr0^2
+ r0, with dl0 = u_ac - ul, dr0 = ur - u_ac, z = rho c, k = (gamma+1)/2 and r0 =
(pl - zl dl0) - (pr - zr dr0) the rounding of the linear part (zero at u_ac in exact
arithmetic). The root delta = -2 C' / (B' + sign(B') sqrt(D)), D = B'^2 - 4 A C'
(B' > 0 at a strongly expanding node), divides by no A, so it needs no band |A| ~ 0;
A and C' flip sign under a mirror swap, and the solve is exactly mirror symmetric at
every node. A node is accepted where D > 0 and c >= k|d| on both sides. ``solve_nodes``
solves each rejected node once, by the two-shock solve ``_two_shock_kernel`` on the
jumps already formed: a linear force balance whose impedance on a compressed side is
``rho c + k rho (compression)``, with the compression measured from the acoustic
guess. This is the two-shock impedance of Dukowicz (J. Comput. Phys. 61, 1985), and
it keeps the same ``k rho d^2`` compression term the staggered star pressure carries.
An expanding side adds no impedance, so without compression the solve is the acoustic
one.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure
from .mesh import _greatest, _least

__all__ = ["star_pressure", "sgh_star_pressure", "solve_nodes"]

ACOUSTIC = 0
QUADRATIC = 1
SOLVERS = ("acoustic", "quadratic")


def star_pressure(p, z, krho, d, out=None, t=None):
    """One-sided relation (p - z d) + ((k rho) d) d, d < 0 compressing the cell (u* - u left of
    the node, u - u* right of it); ``out`` may be ``z`` and the buffer ``t`` may be ``krho``."""
    ps = np.subtract(p, np.multiply(z, d, out), out)
    return np.add(ps, np.multiply(np.multiply(krho, d, t), d, t), out)


def sgh_star_pressure(rho, c, p, du, gamma: float, scratch):
    """Star pressure of a cell with velocity jump du across it.

    Compression (du < 0) follows the quadratic Taylor series expressed through
    du = rho c dtau; expanding and uniform flow keep the cell pressure, which
    makes smooth-flow entropy production exactly zero. ``scratch``: two buffers
    of the broadcast shape for the temporaries.
    """
    z, t = scratch
    ps = star_pressure(p, np.multiply(rho, c, z), np.multiply(0.5 * (gamma + 1.0), rho, t),
                       du, z, t)
    return np.where(np.less(du, 0.0), ps, p)


def _balance_velocity(zl, ul, zr, ur, dp, out, t):
    """u* = (zl ul + zr ur + dp)/(zl + zr), dp = pl - pr, in perturbation form:
    exact (no rounding) for identical inputs, bitwise symmetric under a mirror swap."""
    # into out, with the buffer t: 0.5 (ul + ur) + (0.5 (zr - zl) (ur - ul) + dp) / (zl + zr)
    np.multiply(np.multiply(0.5, np.subtract(zr, zl, out), out), np.subtract(ur, ul, t), out)
    np.divide(np.add(out, dp, out), np.add(zl, zr, t), out)
    return np.add(np.multiply(0.5, np.add(ul, ur, t), t), out, out)


def _linear_balance(zl, pl, ul, zr, pr, ur, out):
    """Impedance-weighted star (velocity, pressure), both exact and symmetric,
    written into the first two of the three buffers ``out``."""
    u_star, p_star, t = out
    _balance_velocity(zl, ul, zr, ur, np.subtract(pl, pr, p_star), u_star, t)
    # p* = 0.5 ((pl - zl dl) + (pr + zr dr)), dl = u* - ul, dr = u* - ur
    np.subtract(pl, np.multiply(zl, np.subtract(u_star, ul, t), t), p_star)
    np.add(p_star, np.add(pr, np.multiply(zr, np.subtract(u_star, ur, t), t), t), p_star)
    return u_star, np.multiply(0.5, p_star, p_star)


def _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur, out):
    """Linear nodal solve with the acoustic impedances rho c; ``out``: five buffers."""
    u_star, p_star, t, zl, zr = out
    return _linear_balance(np.multiply(rl, cl, zl), pl, ul, np.multiply(rr, cr, zr),
                           pr, ur, (u_star, p_star, t))


def _two_shock_kernel(rl, cl, pl, ul, rr, cr, pr, ur, gamma, dl0, dr0, out):
    """Linear nodal solve with two-shock impedances from the acoustic guess.

    A side compressed at the acoustic star velocity u_ac (jump ``dl0`` = u_ac - ul
    or ``dr0`` = ur - u_ac below 0) gets the impedance rho c + k rho |d0|; an
    expanding side keeps rho c. Each side's entropy production w (u*-u)^2 is
    nonnegative; with no compressed side this is bitwise ``_acoustic_kernel``.
    ``out`` holds three buffers, as for ``_linear_balance``.
    """
    k = 0.5 * (gamma + 1.0)
    wl = rl * cl - k * rl * np.minimum(dl0, 0.0)   # bitwise rho c + k rho max(-d0, 0)
    wr = rr * cr - k * rr * np.minimum(dr0, 0.0)
    return _linear_balance(wl, pl, ul, wr, pr, ur, out)


def _admissible(c, d, k, t=None):
    """One-sided bound c >= k |d|: z d^2 >= k rho |d|^3 over rho d^2 (both hold at d = 0);
    ``t`` is a buffer for k |d|."""
    return c >= np.multiply(k, np.abs(d, t), t)


def _quadratic_kernel(rl, cl, pl, rr, cr, pr, gamma, u_ac, dl0, dr0, zl, zr, out, scratch):
    """The quadratic force balance for delta = u* - u_ac, with the admissibility
    test, written into ``out`` = (u_star, p_star_left_side, p_star_right_side,
    accepted) and returned. ``dl0``, ``dr0`` are the jumps at u_ac and ``zl``,
    ``zr`` the impedances; ``scratch`` holds seven buffers for the temporaries. The
    star state of a rejected node is left for the caller to fill (it may be NaN).
    """
    k = 0.5 * (gamma + 1.0)
    u_star, ps_l, ps_r, accepted = out
    s0, s1, s2, s3, s4, s5, s6 = scratch
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        krl, krr = np.multiply(k, rl, s0), np.multiply(k, rr, s1)
        kdl, kdr = np.multiply(krl, dl0, s2), np.multiply(krr, dr0, s3)
        # A delta^2 + 2 b delta - c = 0: B' = 2 b and C' = -c (with r0) of the module docstring;
        # b = kdl + kdr - 0.5 (zl + zr), c = kdr dr0 - kdl dl0 + ((pr - zr dr0) - (pl - zl dl0))
        A = np.subtract(krl, krr, s4)
        b = np.subtract(np.add(kdl, kdr, s6), np.multiply(0.5, np.add(zl, zr, s5), s5), s6)
        c = np.subtract(np.multiply(kdr, dr0, s5), np.multiply(kdl, dl0, s2), s5)
        c += np.subtract(np.subtract(pr, np.multiply(zr, dr0, s2), s2),
                         np.subtract(pl, np.multiply(zl, dl0, s3), s3), s2)
        disc = np.add(np.multiply(b, b, s2), np.multiply(A, c, s3), s2)   # D/4
        # a non-finite coefficient makes disc non-finite (so does an overflow); the failure
        # names the cell left of the first node with one (node i is right of cell i)
        if not _greatest(np.abs(disc, s3)) < np.inf and not np.isfinite((A, b, c)).all():
            raise SolverFailure("non-finite nodal force-balance coefficients",
                                cell=int(np.isfinite((A, b, c)).all(0).argmin()))
        # c / (b + sign(b) sqrt(disc)), NaN where disc < 0
        delta = np.divide(c, np.add(b, np.copysign(np.sqrt(disc, s3), b, s3), s3), s3)
        dl, dr = np.add(dl0, delta, s4), np.subtract(dr0, delta, s5)
        # an admissible jump is finite, so this also rejects a NaN delta
        np.greater(disc, 0.0, accepted)
        accepted &= _admissible(cl, dl, k, s6)
        accepted &= _admissible(cr, dr, k, s6)
        np.add(u_ac, delta, u_star)
        star_pressure(pl, zl, krl, dl, ps_l, s3)
        star_pressure(pr, zr, krr, dr, ps_r, s3)
    return out


def solve_nodes(rl, cl, pl, ul, rr, cr, pr, ur, gamma: float, solver: str = "quadratic", *,
                out, scratch):
    """Cell-centered nodal solve between left and right cell arrays.

    Returns (u_star, p_star_left_side, p_star_right_side, order), order being
    ACOUSTIC or QUADRATIC per node, in the arrays of ``out``. The acoustic
    solver gives the acoustic values, one pressure for both sides (``out`` may hold
    one array for both). The quadratic solver keeps an admissible quadratic root
    and gives the two-shock solve where it is rejected, with one star pressure on
    both sides and order ACOUSTIC.
    ``scratch`` holds twelve float buffers shaped like ``rl`` for the temporaries;
    the two-shock solve writes into three of them once the quadratic kernel is done.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown nodal solver {solver!r}; expected one of {SOLVERS}")
    u_star, ps_l, ps_r, order = out
    zl, zr, u_ac, dl0, dr0, *kernel_scratch = scratch
    if solver == "acoustic":
        _acoustic_kernel(rl, cl, pl, ul, rr, cr, pr, ur, (u_star, ps_l, u_ac, zl, zr))
        if ps_r is not ps_l:
            ps_r[...] = ps_l
        order[...] = ACOUSTIC
        return out
    zl, zr = np.multiply(rl, cl, zl), np.multiply(rr, cr, zr)
    _balance_velocity(zl, ul, zr, ur, np.subtract(pl, pr, dl0), u_ac, dr0)  # the acoustic guess
    dl0, dr0 = np.subtract(u_ac, ul, dl0), np.subtract(ur, u_ac, dr0)
    accepted = order.view(np.bool_)   # QUADRATIC = 1, ACOUSTIC = 0
    _quadratic_kernel(rl, cl, pl, rr, cr, pr, gamma, u_ac, dl0, dr0, zl, zr,
                      (u_star, ps_l, ps_r, accepted), kernel_scratch)
    if not _least(accepted):
        j = (~accepted).nonzero()[0]
        u_star[j], p_2s = _two_shock_kernel(
            rl[j], cl[j], pl[j], ul[j], rr[j], cr[j], pr[j], ur[j], gamma, dl0[j], dr0[j],
            [s[:len(j)] for s in kernel_scratch[:3]])
        ps_l[j] = ps_r[j] = p_2s
    return out
