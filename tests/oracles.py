"""Reference curves and profile measures that only the tests read.

Test code, not public API: the exact shock adiabat and isentrope of an ideal
gas through a reference state, the quadratic Taylor expansion of pressure in
the specific-volume change that the closure is built on (it touches both
curves to second order), and two measures of a computed profile: where it
crosses a level and how many prominent peaks it has. The package needs none
of them to run.
"""

from dataclasses import dataclass

import numpy as np

from unihydro.eos import IdealGas


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


def taylor_pressure(delta_tau, ref: ThermoState, gamma: float):
    """Quadratic expansion of pressure in the specific-volume change.

    p = P0 - rho0^2 c0^2 dtau + ((gamma+1)/2) rho0^3 c0^2 dtau^2
    """
    dtau = np.asarray(delta_tau, dtype=float)
    rho0 = ref.rho
    lin = rho0 * rho0 * ref.c * ref.c
    quad = 0.5 * (gamma + 1.0) * rho0 * rho0 * rho0 * ref.c * ref.c
    return ref.p - lin * dtau + quad * dtau * dtau


def crossing_position(x, q, level, window=None, which="last") -> float:
    """x where the profile crosses ``level``, linearly interpolated.

    ``window`` restricts the search to (x_lo, x_hi); ``which`` selects the
    first or last crossing.
    """
    x = np.asarray(x, float)
    q = np.asarray(q, float)
    if window is not None:
        m = (x >= window[0]) & (x <= window[1])
        x, q = x[m], q[m]
    d = q - level
    sign_change = d[:-1] * d[1:] <= 0.0
    idx = np.flatnonzero(sign_change & (d[:-1] != d[1:]))
    if len(idx) == 0:
        raise ValueError(f"profile never crosses level {level}")
    i = idx[-1] if which == "last" else idx[0]
    t = d[i] / (d[i] - d[i + 1])
    return float(x[i] + t * (x[i + 1] - x[i]))


def count_extrema(q, min_prominence: float) -> int:
    """Number of local maxima with at least the given prominence.

    Prominence of a peak is its height above the higher of the two minima
    separating it from taller terrain (or the array ends).
    """
    q = np.asarray(q, float)
    n = len(q)
    count = 0
    for i in range(1, n - 1):
        if not (q[i] > q[i - 1] and q[i] >= q[i + 1]):
            continue
        left_min = q[i]
        j = i - 1
        while j >= 0 and q[j] <= q[i]:
            left_min = min(left_min, q[j])
            j -= 1
        right_min = q[i]
        j = i + 1
        while j < n and q[j] <= q[i]:
            right_min = min(right_min, q[j])
            j += 1
        if q[i] - max(left_min, right_min) >= min_prominence:
            count += 1
    return count
