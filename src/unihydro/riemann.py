"""Exact Riemann solver for the 1D Euler equations with an ideal gas.

Used only to build reference solutions; the time steppers never call it.
Newton iteration on the standard pressure function with a two-rarefaction
initial guess, explicit vacuum detection, and self-similar sampling of the
full wave fan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

__all__ = ["PrimitiveState", "RiemannSolution", "solve"]


@dataclass(frozen=True)
class PrimitiveState:
    rho: float
    u: float
    p: float

    def __post_init__(self):
        if not (self.rho > 0.0 and self.p >= 0.0):
            raise ValueError(f"invalid state {self}")

    def sound_speed(self, gamma: float) -> float:
        return np.sqrt(gamma * self.p / self.rho)


_TOL = 1e-12      # Newton stops at this relative pressure change
_MAX_ITER = 100


def _wave(p, state: PrimitiveState, c, gamma):
    """Velocity change f across the wave connecting ``state`` to pressure p,
    and its derivative df/dp, in one routine like PREFUN in Toro, *Riemann
    Solvers and Numerical Methods for Fluid Dynamics*, 3rd ed., section 4.9."""
    if p > state.p:  # shock
        a = 2.0 / ((gamma + 1.0) * state.rho)
        b = (gamma - 1.0) / (gamma + 1.0) * state.p
        root = np.sqrt(a / (p + b))
        return (p - state.p) * root, root * (1.0 - 0.5 * (p - state.p) / (p + b))
    return ((2.0 * c / (gamma - 1.0)) * ((p / state.p) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0),
            (p / state.p) ** (-(gamma + 1.0) / (2.0 * gamma)) / (state.rho * c))


def _two_rarefaction_guess(left, right, cl, cr, gamma):
    z = (gamma - 1.0) / (2.0 * gamma)
    num = cl + cr - 0.5 * (gamma - 1.0) * (right.u - left.u)
    den = cl / left.p ** z + cr / right.p ** z
    return (num / den) ** (1.0 / z)


@dataclass(frozen=True)
class RiemannSolution:
    """Star state plus enough context to sample the self-similar solution."""

    left: PrimitiveState
    right: PrimitiveState
    gamma: float
    p_star: float
    u_star: float
    vacuum: bool
    residual: float

    def __iter__(self):
        # allows: p_star, u_star = solution
        return iter((self.p_star, self.u_star))

    # -- sampling ---------------------------------------------------------

    def sample(self, xi):
        """Primitive profile (rho, u, p) at similarity coordinates xi = x/t."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        rho = np.empty_like(xi)
        u = np.empty_like(xi)
        p = np.empty_like(xi)
        g, vacuum = self.gamma, self.vacuum
        left, right = self.left, self.right
        cl = left.sound_speed(g)
        cr = right.sound_speed(g)
        split, tail_l, tail_r = self.u_star, None, None
        if vacuum:
            # each side is a rarefaction to p = 0 whose tail is its vacuum front
            tail_l = left.u + 2.0 * cl / (g - 1.0)
            tail_r = right.u - 2.0 * cr / (g - 1.0)
            split, u_gap = tail_l, 0.5 * (tail_l + tail_r)
        for i, s in enumerate(xi.tolist()):
            if s < split:
                rho[i], u[i], p[i] = self._sample_side(s, left, cl, +1.0, tail_l)
            elif vacuum and s <= tail_r:
                rho[i], u[i], p[i] = 0.0, u_gap, 0.0
            else:
                rho[i], u[i], p[i] = self._sample_side(s, right, cr, -1.0, tail_r)
        return rho, u, p

    def _sample_side(self, s, state, c, sign, tail=None):
        """Sample left (sign=+1) or right (sign=-1) of the contact.

        Works in a mirrored frame where the wave always moves to the left;
        velocities are mirrored in and out with ``sign``. ``tail`` is the
        velocity of a rarefaction's tail, u* -/+ c* when not given.
        """
        g = self.gamma
        ps, us = self.p_star, self.u_star
        sr = sign * s
        ur = sign * state.u
        if ps > state.p:  # shock wave
            ms = np.sqrt((g + 1.0) / (2.0 * g) * ps / state.p + (g - 1.0) / (2.0 * g))
            shock_speed = ur - c * ms
            if sr <= shock_speed:
                return state.rho, state.u, state.p
            rho_star = state.rho * ((ps / state.p + (g - 1.0) / (g + 1.0))
                                    / ((g - 1.0) / (g + 1.0) * ps / state.p + 1.0))
            return rho_star, us, ps
        # rarefaction fan between head and tail
        if tail is None:
            tail = us - sign * c * (ps / state.p) ** ((g - 1.0) / (2.0 * g))
        head = ur - c
        if sr <= head:
            return state.rho, state.u, state.p
        if sr >= sign * tail:
            rho_star = state.rho * (ps / state.p) ** (1.0 / g)
            return rho_star, us, ps
        cf = (2.0 / (g + 1.0)) * (c + 0.5 * (g - 1.0) * (ur - sr))
        uf = (2.0 / (g + 1.0)) * (c + 0.5 * (g - 1.0) * ur + sr)
        rho_f = state.rho * (cf / c) ** (2.0 / (g - 1.0))
        p_f = state.p * (cf / c) ** (2.0 * g / (g - 1.0))
        return rho_f, sign * uf, p_f


def solve(left: PrimitiveState, right: PrimitiveState, gamma: float) -> RiemannSolution:
    """Exact star state of the Riemann problem (left | right).

    Raises SolverFailure with the residual if Newton fails to converge within
    ``_MAX_ITER`` iterations.
    """
    cl = left.sound_speed(gamma)
    cr = right.sound_speed(gamma)

    # vacuum generation: the two rarefactions separate completely
    if 2.0 * (cl + cr) / (gamma - 1.0) <= right.u - left.u:
        return RiemannSolution(left, right, gamma, p_star=0.0,
                               u_star=0.5 * (left.u + right.u), vacuum=True, residual=0.0)

    du = right.u - left.u
    p = max(_two_rarefaction_guess(left, right, cl, cr, gamma), 1e-300)
    change = float("inf")
    # each pass evaluates both waves at p once: the last pass's f give the
    # residual and u* at the converged p
    for _ in range(_MAX_ITER + 1):
        (fl, dfl), (fr, dfr) = _wave(p, left, cl, gamma), _wave(p, right, cr, gamma)
        f = fl + fr + du
        if change < _TOL:
            break
        p_new = p - f / (dfl + dfr)
        if p_new <= 0.0:
            p_new = 0.5 * p  # keep the iterate positive
        change = abs(p_new - p) / max(p_new, 1e-300)
        p = p_new
    else:
        raise SolverFailure(
            f"Riemann pressure iteration failed after {_MAX_ITER} iterations, "
            f"residual {abs(f):.3e}")
    u_star = 0.5 * (left.u + right.u) + 0.5 * (fr - fl)
    return RiemannSolution(left, right, gamma, p_star=float(p), u_star=float(u_star),
                           vacuum=False, residual=float(abs(f)))
