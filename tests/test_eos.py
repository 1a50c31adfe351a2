"""EOS and curve-oracle tests.

Expected values are hand evaluations of the closed forms; the Hugoniot value
is additionally cross-checked in-test by solving the defining energy relation
directly (it is linear in P for an ideal gas).
"""

import numpy as np
import pytest

from unihydro.eos import IdealGas

from oracles import ThermoState, hugoniot_pressure, isentrope_pressure

GAS = IdealGas(1.4)


def reference_state(gamma=1.4, rho=1.0, p=1.0):
    return ThermoState.from_rho_p(rho, p, IdealGas(gamma))


class TestIdealGas:
    def test_pressure_sod_left(self):
        assert GAS.pressure(1.0, 2.5) == pytest.approx(1.0, rel=1e-14)

    def test_pressure_sod_right(self):
        assert GAS.pressure(0.125, 2.0) == pytest.approx(0.1, rel=1e-14)

    def test_pressure_zero_energy(self):
        assert GAS.pressure(1.0, 0.0) == 0.0

    def test_pressure_rejects_bad_input(self):
        with pytest.raises(ValueError):
            GAS.pressure(-1.0, 1.0)
        with pytest.raises(ValueError):
            GAS.pressure(1.0, np.nan)

    def test_sound_speed_values(self):
        assert GAS.sound_speed(1.0, 1.0) == pytest.approx(1.1832159566199232, rel=1e-14)
        assert GAS.sound_speed(1.0, 0.0) == 0.0
        # huge-pressure regime: sqrt((5/3)(2/3 1e10)/1e-3) = 1e7/3
        big = IdealGas(5.0 / 3.0).sound_speed(1e-3, 2.0 / 3.0 * 1e10)
        assert big == pytest.approx(1e7 / 3.0, rel=1e-12)

    def test_sound_speed_rejects_unphysical(self):
        with pytest.raises(ValueError, match="unphysical"):
            GAS.sound_speed(1.0, -0.1)
        with pytest.raises(ValueError):
            GAS.sound_speed(0.0, 1.0)

    def test_internal_energy_roundtrip(self):
        rho, p = 0.3, 0.7
        assert GAS.pressure(rho, GAS.internal_energy(rho, p)) == pytest.approx(p, rel=1e-14)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            IdealGas(1.0)
        with pytest.raises(ValueError):
            IdealGas(float("nan"))


class TestHugoniot:
    def test_reference_point(self):
        ref = reference_state()
        assert hugoniot_pressure(ref.tau, ref, 1.4) == pytest.approx(ref.p, rel=1e-14)

    def test_known_compression(self):
        # defining relation eps - eps0 + (tau - tau0)(P + P0)/2 = 0 is linear
        # in P for an ideal gas; solve it directly as the oracle
        g, tau0, p0, tau = 1.4, 1.0, 1.0, 0.9
        a = tau / (g - 1.0) + 0.5 * (tau - tau0)
        b = p0 * tau0 / (g - 1.0) - 0.5 * (tau - tau0) * p0
        oracle = b / a
        assert oracle == pytest.approx(1.159090909090909, rel=1e-13)
        ref = reference_state()
        assert hugoniot_pressure(0.9, ref, g) == pytest.approx(oracle, rel=1e-13)

    def test_compression_limit_rejected(self):
        ref = reference_state()
        limit = ref.tau * (1.4 - 1.0) / (1.4 + 1.0)
        with pytest.raises(ValueError, match="compression limit"):
            hugoniot_pressure(limit, ref, 1.4)
        with pytest.raises(ValueError):
            hugoniot_pressure(0.5 * limit, ref, 1.4)


class TestIsentrope:
    def test_reference_point(self):
        ref = reference_state()
        assert isentrope_pressure(ref.tau, ref, 1.4) == pytest.approx(ref.p, rel=1e-14)

    def test_known_compression(self):
        ref = reference_state()
        assert isentrope_pressure(0.5, ref, 1.4) == pytest.approx(2.6390158215457884, rel=1e-13)

    def test_vacuum_limit_monotone(self):
        ref = reference_state()
        taus = np.geomspace(1.0, 1e6, 40)
        p = isentrope_pressure(taus, ref, 1.4)
        assert np.all(np.diff(p) < 0)
        assert p[-1] < 1e-8


@pytest.mark.parametrize("gamma", [7.0 / 5.0, 5.0 / 3.0])
@pytest.mark.parametrize("curve", [hugoniot_pressure, isentrope_pressure])
class TestCurveDerivatives:
    def test_first_derivative(self, gamma, curve):
        ref = reference_state(gamma=gamma, rho=1.3, p=0.8)
        h = 1e-6 * ref.tau
        fd = (curve(ref.tau + h, ref, gamma) - curve(ref.tau - h, ref, gamma)) / (2 * h)
        exact = -ref.rho ** 2 * ref.c ** 2
        assert fd == pytest.approx(exact, rel=1e-6)

    def test_second_derivative(self, gamma, curve):
        ref = reference_state(gamma=gamma, rho=1.3, p=0.8)
        h = 1e-4 * ref.tau
        fd = (curve(ref.tau + h, ref, gamma) - 2 * curve(ref.tau, ref, gamma)
              + curve(ref.tau - h, ref, gamma)) / h ** 2
        exact = (gamma + 1.0) * ref.rho ** 3 * ref.c ** 2
        assert fd == pytest.approx(exact, rel=1e-4)


@pytest.mark.parametrize("gamma", [7.0 / 5.0, 5.0 / 3.0])
def test_curves_agree_to_third_order(gamma):
    """|P_H - P_S| must scale as |dtau|^3 near the reference point."""
    ref = reference_state(gamma=gamma)
    steps = np.geomspace(1e-4, 1e-1, 10) * ref.tau
    diffs = [abs(hugoniot_pressure(ref.tau - s, ref, gamma)
                 - isentrope_pressure(ref.tau - s, ref, gamma)) for s in steps]
    slope = np.polyfit(np.log(steps), np.log(diffs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.2)
