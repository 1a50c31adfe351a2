"""Exact Riemann solver tests.

Sod star values are Toro's classic numbers; the double-rarefaction star
pressure has a closed form (both waves are rarefactions, so the
two-rarefaction expression is exact) evaluated in-test as the oracle.
"""

import numpy as np
import pytest

from unihydro.riemann import PrimitiveState, solve

SOD_L = PrimitiveState(1.0, 0.0, 1.0)
SOD_R = PrimitiveState(0.125, 0.0, 0.1)


class TestStarStates:
    def test_sod(self):
        sol = solve(SOD_L, SOD_R, 1.4)
        assert sol.p_star == pytest.approx(0.30313, abs=1e-5)
        assert sol.u_star == pytest.approx(0.92745, abs=1e-5)
        assert sol.residual < 1e-12
        assert not sol.vacuum

    def test_equal_states(self):
        state = PrimitiveState(0.7, 0.3, 2.0)
        sol = solve(state, state, 1.4)
        assert sol.p_star == pytest.approx(2.0, rel=1e-12)
        assert sol.u_star == pytest.approx(0.3, rel=1e-12)

    def test_tuple_unpacking(self):
        p_star, u_star = solve(SOD_L, SOD_R, 1.4)
        assert p_star == pytest.approx(0.30313, abs=1e-5)
        assert u_star == pytest.approx(0.92745, abs=1e-5)

    def test_double_rarefaction_is_not_vacuum(self):
        left = PrimitiveState(1.0, -2.0, 0.4)
        right = PrimitiveState(1.0, 2.0, 0.4)
        sol = solve(left, right, 1.4)
        assert not sol.vacuum
        # two-rarefaction closed form is exact here
        g = 1.4
        c = np.sqrt(g * 0.4)
        z = (g - 1.0) / (2.0 * g)
        exact = ((2.0 * c - 0.5 * (g - 1.0) * 4.0) / (2.0 * c / 0.4 ** z)) ** (1.0 / z)
        assert exact == pytest.approx(0.0018938734200547632, rel=1e-12)
        assert sol.p_star == pytest.approx(exact, rel=1e-10)
        assert sol.u_star == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_detection(self):
        left = PrimitiveState(1.0, -10.0, 0.4)
        right = PrimitiveState(1.0, 10.0, 0.4)
        sol = solve(left, right, 1.4)
        assert sol.vacuum
        assert sol.p_star == 0.0

    def test_leblanc_star(self):
        sol = solve(PrimitiveState(1.0, 0.0, 2.0 / 3.0 * 1e-1),
                    PrimitiveState(1e-3, 0.0, 2.0 / 3.0 * 1e-10), 5.0 / 3.0)
        assert sol.residual < 1e-12
        # right shock position at t=6 from the star state: x = 3 + 6 S
        g = 5.0 / 3.0
        cr = np.sqrt(g * (2.0 / 3.0 * 1e-10) / 1e-3)
        S = cr * np.sqrt((g + 1) / (2 * g) * sol.p_star / (2.0 / 3.0 * 1e-10) + (g - 1) / (2 * g))
        assert 7.8 <= 3.0 + 6.0 * S <= 8.2

    def test_random_pairs_residual(self):
        """Newton residual below 1e-12 over wide pressure ratios."""
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            rho_l, rho_r = rng.uniform(0.1, 10.0, 2)
            p_l = np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))
            p_r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))
            u_l, u_r = rng.uniform(-1.0, 1.0, 2)
            left = PrimitiveState(rho_l, u_l, p_l)
            right = PrimitiveState(rho_r, u_r, p_r)
            g = 1.4
            if 2.0 * (left.sound_speed(g) + right.sound_speed(g)) / (g - 1.0) <= u_r - u_l:
                continue
            sol = solve(left, right, g)
            assert sol.residual < 1e-12
            checked += 1


class TestSampling:
    def test_self_similarity(self):
        sol = solve(SOD_L, SOD_R, 1.4)
        xi = np.linspace(-2.0, 2.0, 41)
        a = sol.sample(xi)
        b = sol.sample(xi)  # same coordinates, same answer
        for qa, qb in zip(a, b):
            np.testing.assert_array_equal(qa, qb)

    def test_sod_regions(self):
        sol = solve(SOD_L, SOD_R, 1.4)
        # far field keeps the initial states
        rho, u, p = sol.sample([(0.99 - 0.5) / 0.2])
        assert (rho[0], u[0], p[0]) == (0.125, 0.0, 0.1)
        rho, u, p = sol.sample([-10.0])
        assert (rho[0], u[0], p[0]) == (1.0, 0.0, 1.0)
        # between contact and shock: the right star state
        g = 1.4
        ratio = sol.p_star / 0.1
        rho_star_r = 0.125 * ((ratio + (g - 1) / (g + 1)) / ((g - 1) / (g + 1) * ratio + 1))
        rho, u, p = sol.sample([(0.8 - 0.5) / 0.2])
        assert p[0] == pytest.approx(sol.p_star, rel=1e-10)
        assert u[0] == pytest.approx(sol.u_star, rel=1e-10)
        assert rho[0] == pytest.approx(rho_star_r, rel=1e-10)
        # between rarefaction tail and contact: the left star state
        rho, u, p = sol.sample([(0.6 - 0.5) / 0.2])
        assert p[0] == pytest.approx(sol.p_star, rel=1e-10)
        assert rho[0] == pytest.approx((sol.p_star / 1.0) ** (1 / g), rel=1e-10)

    def test_rarefaction_fan_is_continuous(self):
        sol = solve(SOD_L, SOD_R, 1.4)
        cl = SOD_L.sound_speed(1.4)
        head = -cl
        inside, _, _ = sol.sample([head + 1e-9])
        outside, _, _ = sol.sample([head - 1e-9])
        assert inside[0] == pytest.approx(outside[0], rel=1e-6)

    def test_vacuum_profile(self):
        left = PrimitiveState(1.0, -10.0, 0.4)
        right = PrimitiveState(1.0, 10.0, 0.4)
        sol = solve(left, right, 1.4)
        rho, _, p = sol.sample([0.0])
        assert rho[0] == 0.0 and p[0] == 0.0
        rho, u, p = sol.sample([-50.0])
        assert (rho[0], u[0], p[0]) == (1.0, -10.0, 0.4)

    @pytest.mark.parametrize("left, right, gamma", [
        ((1.0, -10.0, 0.4), (1.0, 10.0, 0.4), 1.4),
        ((1.0, -3.0, 1.0), (0.2, 12.0, 0.05), 1.4),
        ((0.3, -8.0, 0.02), (2.0, 4.0, 1.5), 5.0 / 3.0),
    ], ids=["symmetric", "asymmetric", "asymmetric_monatomic"])
    def test_vacuum_profile_matches_side_by_side_sampler(self, left, right, gamma):
        """The fan sampler shared with non-vacuum solutions gives, bit for bit,
        the profile of a sampler written for the vacuum case alone."""
        from oracles import sample_vacuum
        sol = solve(PrimitiveState(*left), PrimitiveState(*right), gamma)
        assert sol.vacuum
        xi = np.linspace(-40.0, 40.0, 20_001)
        expected = np.array([sample_vacuum(sol, float(s)) for s in xi]).T
        assert np.array(sol.sample(xi)).tobytes() == expected.tobytes()

    def test_zero_pressure_side_front_is_vacuum(self):
        """A side at p = 0 has no fan: its state reaches its front u and the
        vacuum starts there. Exactly on the front both sides give the vacuum
        state (the side-by-side sampler gave the left state on the left
        front and the vacuum on the right one); elsewhere the profile agrees
        bit for bit."""
        from oracles import sample_vacuum
        for left, right in (((1.0, -1.0, 0.0), (1.0, 8.0, 1.0)),
                            ((1.0, -8.0, 1.0), (1.0, 1.0, 0.0))):
            sol = solve(PrimitiveState(*left), PrimitiveState(*right), 1.4)
            xi = np.linspace(-40.0, 40.0, 20_001)   # holds -1.0 and 1.0 exactly
            profile = np.array(sol.sample(xi))
            expected = np.array([sample_vacuum(sol, float(s)) for s in xi]).T
            differ = np.flatnonzero((profile != expected).any(axis=0))
            assert xi[differ].tolist() == ([-1.0] if left[2] == 0.0 else [])
            front = left[1] if left[2] == 0.0 else right[1]
            rho, u, p = sol.sample([front])
            assert (rho[0], p[0]) == (0.0, 0.0)
            front_l = sol.left.u + 2.0 * sol.left.sound_speed(1.4) / (1.4 - 1.0)
            front_r = sol.right.u - 2.0 * sol.right.sound_speed(1.4) / (1.4 - 1.0)
            assert u[0] == 0.5 * (front_l + front_r)
