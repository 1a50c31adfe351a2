"""Ideal-gas thermodynamics: the equation of state the solver runs on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IdealGas"]


def ideal_pressure(gamma: float, rho, eps):  # unchecked; IdealGas.pressure checks
    return (gamma - 1.0) * rho * eps


def ideal_sound_speed(gamma: float, rho, p):  # unchecked; IdealGas.sound_speed checks
    return np.sqrt(gamma * p / rho)


@dataclass(frozen=True)
class IdealGas:
    """Ideal gas with p = (gamma - 1) rho eps.

    This is the only EOS family supported: the quadratic closure relies on
    d2P/dtau2 = (gamma+1) rho^3 c^2, which holds for ideal gases only.
    """

    gamma: float

    def __post_init__(self):
        g = self.gamma
        if not np.isfinite(g) or g <= 1.0:
            raise ValueError(f"adiabatic index must be finite and > 1, got {g}")

    def pressure(self, rho, eps):
        """Pressure from density and specific internal energy."""
        rho = np.asarray(rho, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(eps))):
            raise ValueError("non-finite input to pressure()")
        if np.any(rho <= 0.0):
            raise ValueError("unphysical state: rho <= 0")
        return ideal_pressure(self.gamma, rho, eps)

    def internal_energy(self, rho, p):
        """Specific internal energy from density and pressure."""
        rho = np.asarray(rho, dtype=float)
        p = np.asarray(p, dtype=float)
        if np.any(rho <= 0.0):
            raise ValueError("unphysical state: rho <= 0")
        return p / ((self.gamma - 1.0) * rho)

    def sound_speed(self, rho, p):
        """c = sqrt(gamma p / rho); rejects negative pressure."""
        rho = np.asarray(rho, dtype=float)
        p = np.asarray(p, dtype=float)
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(p))):
            raise ValueError("non-finite input to sound_speed()")
        if np.any(rho <= 0.0) or np.any(p < 0.0):
            raise ValueError("unphysical state: rho <= 0 or p < 0")
        return ideal_sound_speed(self.gamma, rho, p)
