"""Ideal-gas thermodynamics: the EOS plus exact shock-adiabat and isentrope curves.

The two curves serve as oracles for the quadratic pressure closure: both have
the same first and second derivatives at the reference state, so a Taylor
expansion approximates either to third order in the specific-volume change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IdealGas", "ThermoState", "hugoniot_pressure", "isentrope_pressure"]


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


@dataclass(frozen=True)
class ThermoState:
    """Reference thermodynamic point (tau, P) with its sound speed."""

    tau: float
    p: float
    c: float

    def __post_init__(self):
        if not (self.tau > 0.0 and self.p >= 0.0 and self.c >= 0.0):
            raise ValueError(f"invalid thermodynamic state {self}")

    @property
    def rho(self) -> float:
        return 1.0 / self.tau

    @classmethod
    def from_rho_p(cls, rho: float, p: float, gas: IdealGas) -> "ThermoState":
        return cls(tau=1.0 / rho, p=p, c=float(gas.sound_speed(rho, p)))


def hugoniot_pressure(tau, ref: ThermoState, gamma: float):
    """Pressure on the shock adiabat through ``ref`` (ideal-gas closed form).

    Solves eps(tau, P) - eps(tau0, P0) + (tau - tau0)(P + P0)/2 = 0 for P:

        P = P0 [(g+1) tau0 - (g-1) tau] / [(g+1) tau - (g-1) tau0]

    Valid for tau above the infinite-strength compression limit
    tau0 (g-1)/(g+1).
    """
    tau = np.asarray(tau, dtype=float)
    gp, gm = gamma + 1.0, gamma - 1.0
    tau_limit = ref.tau * gm / gp
    if np.any(tau <= tau_limit):
        raise ValueError(
            f"specific volume at or below the compression limit {tau_limit:.6g}")
    return ref.p * (gp * ref.tau - gm * tau) / (gp * tau - gm * ref.tau)


def isentrope_pressure(tau, ref: ThermoState, gamma: float):
    """Pressure on the isentrope through ``ref``: P = P0 (tau0/tau)^gamma."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0):
        raise ValueError("specific volume must be positive")
    return ref.p * (ref.tau / tau) ** gamma
