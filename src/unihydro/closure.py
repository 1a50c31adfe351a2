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
solves each rejected node once, by the two-shock solve ``_two_shock_kernel``: a linear
force balance whose impedance on a compressed side is ``rho c + k rho (compression)``,
with the compression measured from the acoustic guess. This is the two-shock impedance
of Dukowicz (J. Comput. Phys. 61, 1985), and it keeps the same ``k rho d^2``
compression term the staggered star pressure carries. An expanding side adds no
impedance, so without compression the solve is the acoustic one. The fallback reads
what the solve already formed: the impedance z - min(k rho d0, 0) takes the kernel's
k rho d0 (bitwise z - k rho min(d0, 0), as k rho > 0), and the balance takes the
guess's node sums pl - pr, ur - ul and (ul + ur)/2, gathered at the rejected nodes.

The caller forms z = rho c and k rho once per cell, and both sides of every node read
views of them; the solve takes k as a 0-d array (``eos.IdealGas.factors``).
"""

from __future__ import annotations

import numpy as np

from .eos import HALF, ZERO
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


def sgh_star_pressure(rho, c, p, du, k, scratch):
    """Star pressure of a cell with velocity jump du across it.

    Compression (du < 0) follows the quadratic Taylor series expressed through
    du = rho c dtau; expanding and uniform flow keep the cell pressure, which
    makes smooth-flow entropy production exactly zero. ``k`` is (gamma + 1)/2 and
    ``scratch`` two buffers of the broadcast shape for the temporaries.
    """
    z, t = scratch
    ps = star_pressure(p, np.multiply(rho, c, z), np.multiply(k, rho, t), du, z, t)
    return np.where(np.less(du, ZERO), ps, p)


def _node_sums(pl, ul, pr, ur, zl, zr, out):
    """(pl - pr, ur - ul, (ul + ur)/2, zl + zr) of every node, into the four buffers ``out``."""
    dp, du, hu, zsum = out
    np.subtract(pl, pr, dp)
    np.subtract(ur, ul, du)
    np.multiply(HALF, np.add(ul, ur, hu), hu)
    np.add(zl, zr, zsum)
    return out


def _balance_velocity(zl, zr, sums, out):
    """u* = (zl ul + zr ur + dp)/(zl + zr) from ``_node_sums``, in perturbation form:
    (ul + ur)/2 + ((zr - zl) (ur - ul)/2 + dp)/(zl + zr), written into ``out``. Exact
    (no rounding) for identical inputs, bitwise symmetric under a mirror swap."""
    dp, du, hu, zsum = sums
    np.multiply(np.multiply(HALF, np.subtract(zr, zl, out), out), du, out)
    np.divide(np.add(out, dp, out), zsum, out)
    return np.add(hu, out, out)


def _linear_balance(zl, pl, ul, zr, pr, ur, sums, out):
    """Impedance-weighted star (velocity, pressure), both exact and symmetric, written
    into the first two of the three buffers ``out``; ``sums`` as for ``_balance_velocity``."""
    u_star, p_star, t = out
    _balance_velocity(zl, zr, sums, u_star)
    # p* = 0.5 ((pl - zl dl) + (pr + zr dr)), dl = u* - ul, dr = u* - ur
    np.subtract(pl, np.multiply(zl, np.subtract(u_star, ul, t), t), p_star)
    np.add(p_star, np.add(pr, np.multiply(zr, np.subtract(u_star, ur, t), t), t), p_star)
    return u_star, np.multiply(HALF, p_star, p_star)


def _acoustic_kernel(zl, pl, ul, zr, pr, ur, sums, out):
    """The acoustic nodal solve: ``_linear_balance`` with the impedances z = rho c."""
    return _linear_balance(zl, pl, ul, zr, pr, ur, sums, out)


def _two_shock_kernel(zl, pl, ul, zr, pr, ur, kd, sums, out):
    """Linear nodal solve with two-shock impedances from the acoustic guess u_ac.

    ``kd`` holds k rho (u_ac - ul) and k rho (ur - u_ac) in its two rows: each side's
    jump at u_ac times k rho. A side compressed there (a jump below 0) gets the
    impedance z + k rho |d0|; an expanding side keeps z = rho c. Each side's entropy
    production w (u*-u)^2 is nonnegative; with no compressed side this is bitwise the
    acoustic solve. ``sums`` are the first three ``_node_sums`` (those of z are w's,
    formed here) and ``out`` as for ``_linear_balance``.
    """
    gain = np.minimum(kd, ZERO)   # bitwise k rho min(d0, 0), as k rho > 0
    wl, wr = np.subtract(zl, gain[0]), np.subtract(zr, gain[1])
    return _linear_balance(wl, pl, ul, wr, pr, ur, (*sums, np.add(wl, wr)), out)


def _admissible(c, d, k):
    """One-sided bound c >= k |d|: z d^2 >= k rho |d|^3 over rho d^2 (both hold at d = 0);
    the boundary nodes test it on scalars, the kernel inline on both sides at once."""
    return c >= k * abs(d)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")   # 2 us less than a with block
def _quadratic_kernel(zl, krl, cl, pl, zr, krr, cr, pr, k, u_ac, d0, zsum, out, workspace):
    """The quadratic force balance for delta = u* - u_ac, with the admissibility
    test, written into ``out`` = (u_star, p_star_left_side, p_star_right_side,
    accepted, kd) and returned. ``d0`` holds the jumps dl0, dr0 at u_ac in its two
    rows, and ``kd`` gets them times k rho (``krl``, ``krr``); ``zl``, ``zr`` are the
    impedances and ``zsum`` = zl + zr. The temporaries go into faces 4 to 8 of
    ``workspace``, a ``mesh.Workspace``. The star state of a rejected node is left for
    the caller to fill (it may be NaN).
    """
    u_star, ps_l, ps_r, accepted, kd = out
    dl0, dr0, kdl, kdr = d0[0], d0[1], kd[0], kd[1]   # indexed: unpacking rows costs 3x
    A, b, c, s0, s1 = workspace.faces[4:9]
    d, pair = workspace.face_pairs[2:4]   # the rows A, b and c, s0
    np.multiply(krl, dl0, kdl)
    np.multiply(krr, dr0, kdr)
    # A delta^2 + 2 b delta - c = 0: B' = 2 b and C' = -c (with r0) of the module docstring;
    # b = kdl + kdr - 0.5 (zl + zr), c = kdr dr0 - kdl dl0 + ((pr - zr dr0) - (pl - zl dl0))
    np.subtract(krl, krr, A)
    np.subtract(np.add(kdl, kdr, b), np.multiply(HALF, zsum, s0), b)
    np.multiply(kd, d0, pair)   # kdl dl0 into c, kdr dr0 into s0
    np.subtract(s0, c, c)
    c += np.subtract(np.subtract(pr, np.multiply(zr, dr0, s0), s0),
                     np.subtract(pl, np.multiply(zl, dl0, s1), s1), s0)
    disc = np.add(np.multiply(b, b, s0), np.multiply(A, c, s1), s0)   # D/4
    # a non-finite coefficient makes disc non-finite (so does an overflow); the failure
    # names the cell left of the first node with one (node i is right of cell i)
    if (not (_greatest(disc) < np.inf and _least(disc) > -np.inf)
            and not np.isfinite((A, b, c)).all()):
        raise SolverFailure("non-finite nodal force-balance coefficients",
                            cell=int(np.isfinite((A, b, c)).all(0).argmin()))
    # c / (b + sign(b) sqrt(disc)), NaN where disc < 0
    delta = np.divide(c, np.add(b, np.copysign(np.sqrt(disc, s1), b, s1), s1), s1)
    np.greater(disc, ZERO, accepted)
    np.add(u_ac, delta, u_star)
    dl, dr = np.add(dl0, delta, A), np.subtract(dr0, delta, b)   # the rows of d
    # c >= k |d| on both sides (``_admissible``), k |d| into c and s0; an admissible
    # jump is finite, so this also rejects a NaN delta
    np.multiply(k, np.abs(d, pair), pair)
    accepted &= np.greater_equal(cl, c)
    accepted &= np.greater_equal(cr, s0)
    star_pressure(pl, zl, krl, dl, ps_l, s1)
    star_pressure(pr, zr, krr, dr, ps_r, s1)
    return out


def solve_nodes(zl, krl, cl, pl, ul, zr, krr, cr, pr, ur, k, solver: str = "quadratic", *,
                out, workspace):
    """Cell-centered nodal solve between left and right cell arrays: z = rho c,
    k rho, c, p and u of each side, and k = (gamma + 1)/2.

    Returns (u_star, p_star_left_side, p_star_right_side, order), order being
    ACOUSTIC or QUADRATIC per node, in the arrays of ``out``. The acoustic
    solver gives the acoustic values, one pressure for both sides (``out`` may hold
    one array for both; it reads no k rho, c or k). The quadratic solver keeps an
    admissible quadratic root and gives the two-shock solve where it is rejected,
    with one star pressure on both sides and order ACOUSTIC. The temporaries go into
    the ``faces`` of ``workspace``, a ``mesh.Workspace`` of one cell more than nodes:
    the jumps at the acoustic guess and k rho times them into the first two pairs,
    the kernel's into faces 4 to 8 (then the two-shock solve's), the guess into
    face 9 and the ``_node_sums`` into faces 10 to 13.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown nodal solver {solver!r}; expected one of {SOLVERS}")
    u_star, ps_l, ps_r, order = out
    faces = workspace.faces
    u_ac = faces[9]
    sums = dp, du, hu, zsum = _node_sums(pl, ul, pr, ur, zl, zr, faces[10:14])
    if solver == "acoustic":
        _acoustic_kernel(zl, pl, ul, zr, pr, ur, sums, (u_star, ps_l, u_ac))
        if ps_r is not ps_l:
            ps_r[...] = ps_l
        order[...] = ACOUSTIC
        return out
    d0, kd = workspace.face_pairs[:2]
    _balance_velocity(zl, zr, sums, u_ac)   # the acoustic guess
    np.subtract(u_ac, ul, faces[0])
    np.subtract(ur, u_ac, faces[1])
    accepted = order.view(np.bool_)   # QUADRATIC = 1, ACOUSTIC = 0
    _quadratic_kernel(zl, krl, cl, pl, zr, krr, cr, pr, k, u_ac, d0, zsum,
                      (u_star, ps_l, ps_r, accepted, kd), workspace)
    if not _least(accepted):
        j = (~accepted).nonzero()[0]
        m = len(j)
        u_star[j], p_2s = _two_shock_kernel(
            zl[j], pl[j], ul[j], zr[j], pr[j], ur[j], kd[:, j], (dp[j], du[j], hu[j]),
            (faces[4][:m], faces[5][:m], faces[6][:m]))
        ps_l[j] = ps_r[j] = p_2s
    return out
