"""Closure kernel tests: quadratic pressure relation, star pressures, and the
two nodal solvers with their symmetry and consistency properties."""

from typing import NamedTuple

import numpy as np
import pytest

from unihydro.closure import ACOUSTIC, QUADRATIC, sgh_star_pressure
from unihydro.eos import IdealGas
from unihydro.mesh import Workspace

from oracles import (ThermoState, acoustic_solve, face_solve, hugoniot_pressure,
                     isentrope_pressure, taylor_pressure, two_shock_solve)

GAS = IdealGas(1.4)
K = GAS.factors[2]   # (gamma + 1)/2
REF = ThermoState.from_rho_p(1.0, 1.0, GAS)  # c0^2 = 1.4


class CellFace(NamedTuple):
    """Cell state seen by a node: density, sound speed, pressure, velocity."""

    rho: float
    c: float
    p: float
    u: float


class Nodal(NamedTuple):
    u_star: float
    p_star_left: float
    p_star_right: float
    order: int

    @property
    def p_star(self) -> float:
        return 0.5 * (self.p_star_left + self.p_star_right)


def solve_node(left, right, solver="quadratic", gamma=1.4) -> Nodal:
    """``solve_nodes`` at a single node between two faces."""
    return Nodal(*(a[0].item() for a in face_solve(*left, *right, gamma, solver)))


def acoustic_node(left, right) -> Nodal:
    return solve_node(left, right, solver="acoustic")


def random_face(rng, rho_span=(0.1, 10.0), c_span=(0.1, 10.0), u_scale=1.0):
    rho = np.exp(rng.uniform(np.log(rho_span[0]), np.log(rho_span[1])))
    c = np.exp(rng.uniform(np.log(c_span[0]), np.log(c_span[1])))
    p = rho * c * c / 1.4
    u = u_scale * rng.normal()
    return CellFace(rho=rho, c=c, p=p, u=u)


def nearly_uniform_pair(rng, gamma=1.4):
    """Two faces differing only at the 1e-9 level plus a small velocity jump.

    The velocity jump is bounded away from zero so the tolerance
    1e-5 |du| stays meaningful, and the state contrast is small enough that
    the quadratic root genuinely tracks the acoustic one.
    """
    rho0 = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
    c0 = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
    p0 = rho0 * c0 * c0 / gamma
    u0 = rng.uniform(-3.0, 3.0) * c0
    du = np.exp(rng.uniform(np.log(1e-5), np.log(1e-3))) * c0 * rng.choice([-1.0, 1.0])
    def side(su):
        eta = 1e-9
        return CellFace(rho=rho0 * (1 + eta * rng.normal()),
                        c=c0 * (1 + eta * rng.normal()),
                        p=p0 * (1 + eta * rng.normal()),
                        u=su)
    return side(u0 - 0.5 * du), side(u0 + 0.5 * du), du


class TestTaylorPressure:
    def test_zero_jump(self):
        assert taylor_pressure(0.0, REF, 1.4) == REF.p

    def test_compression(self):
        # 1 + 1.4*0.1 + 1.2*1.4*0.01 = 1.1568
        got = taylor_pressure(-0.1, REF, 1.4)
        assert got == pytest.approx(1.1568, rel=1e-13)
        # third-order agreement with the shock adiabat: |dtau|^3 scale
        exact = hugoniot_pressure(0.9, REF, 1.4)
        assert abs(got - exact) <= 3e-3

    def test_expansion(self):
        got = taylor_pressure(0.1, REF, 1.4)
        assert got == pytest.approx(0.8768, rel=1e-13)
        exact = isentrope_pressure(1.1, REF, 1.4)
        assert abs(got - exact) <= 3e-3

    @pytest.mark.parametrize("gamma", [7.0 / 5.0, 5.0 / 3.0])
    @pytest.mark.parametrize("curve", [hugoniot_pressure, isentrope_pressure])
    def test_third_order_tangency(self, gamma, curve):
        ref = ThermoState.from_rho_p(1.0, 1.0, IdealGas(gamma))
        steps = np.geomspace(1e-4, 1e-1, 10) * ref.tau
        diffs = [abs(taylor_pressure(-s, ref, gamma) - curve(ref.tau - s, ref, gamma))
                 for s in steps]
        slope = np.polyfit(np.log(steps), np.log(diffs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)


class TestSghStarPressure:
    def test_expansion_keeps_pressure(self):
        assert sgh_star_pressure(1.0, 1.0, 1.0, 0.3, K, Workspace(2).faces[:2]) == 1.0

    def test_zero_jump_keeps_pressure(self):
        assert sgh_star_pressure(1.0, 1.0, 1.0, 0.0, K, Workspace(2).faces[:2]) == 1.0

    def test_compression_value(self):
        # 1 + 0.1 + 1.2*0.01 = 1.112
        assert (sgh_star_pressure(1.0, 1.0, 1.0, -0.1, K, Workspace(2).faces[:2])
                == pytest.approx(1.112, rel=1e-14))

    def test_continuity_at_zero(self):
        eps = 1e-12
        below = sgh_star_pressure(1.0, 1.0, 1.0, -eps, K, Workspace(2).faces[:2])
        assert below == pytest.approx(1.0, abs=1e-11)

    def test_exceeds_pressure_while_linear_dominates(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = rng.uniform(0.1, 5.0)
            c = rng.uniform(0.1, 5.0)
            p = rng.uniform(0.01, 5.0)
            du = -rng.uniform(0.0, 2.0 * c / 2.4)  # z >= k rho |du|
            assert sgh_star_pressure(rho, c, p, du, K, Workspace(2).faces[:2]) >= p

    def test_vectorized(self):
        du = np.array([-0.1, 0.0, 0.2])
        got = sgh_star_pressure(np.ones(3), np.ones(3), np.ones(3), du, K,
                                Workspace(4).faces[:2])
        np.testing.assert_allclose(got, [1.112, 1.0, 1.0], rtol=1e-14)


class TestAcousticSolver:
    def test_uniform_states(self):
        face = CellFace(rho=1.0, c=1.2, p=0.9, u=0.4)
        sol = acoustic_node(face, face)
        assert sol.u_star == pytest.approx(0.4, rel=1e-14)
        assert sol.p_star_left == sol.p_star_right
        assert sol.p_star == pytest.approx(0.9, rel=1e-14)

    def test_mirror_collision(self):
        v = 0.3
        left = CellFace(rho=1.0, c=1.0, p=1.0, u=v)
        right = CellFace(rho=1.0, c=1.0, p=1.0, u=-v)
        sol = acoustic_node(left, right)
        assert sol.u_star == pytest.approx(0.0, abs=1e-15)
        assert sol.p_star == pytest.approx(1.0 + 1.0 * v, rel=1e-14)

    def test_sod_interface(self):
        left = CellFace(rho=1.0, c=1.1832159566199232, p=1.0, u=0.0)
        right = CellFace(rho=0.125, c=1.058300524425836, p=0.1, u=0.0)
        sol = acoustic_node(left, right)
        assert sol.u_star == pytest.approx(0.6841486813454064, rel=1e-12)
        assert sol.p_star == pytest.approx(0.19050436353163594, rel=1e-12)
        # force balance against the one-sided relations
        zl = left.rho * left.c
        assert sol.p_star == pytest.approx(left.p - zl * sol.u_star, rel=1e-12)


class TestQuadraticSolver:
    def solve(self, left, right, gamma=1.4):
        return solve_node(left, right, gamma=gamma)

    @staticmethod
    def assert_two_shock(left, right, sol):
        """A rejected node: order ACOUSTIC, one star pressure, the values of
        the two-shock solve."""
        u_2s, p_2s = two_shock_solve(*left, *right)
        assert sol.order == ACOUSTIC
        assert sol.p_star_left == sol.p_star_right
        assert (sol.u_star, sol.p_star_left) == (u_2s, p_2s)

    def test_uniform_states_exact(self):
        face = CellFace(rho=2.0, c=0.7, p=0.8, u=-0.2)
        sol = self.solve(face, face)
        assert sol.u_star == pytest.approx(-0.2, rel=1e-13)
        assert sol.p_star_left == pytest.approx(0.8, rel=1e-13)
        assert sol.p_star_right == pytest.approx(0.8, rel=1e-13)

    def test_symmetric_collision_linear_branch(self):
        v = 0.05
        left = CellFace(rho=1.0, c=1.0, p=1.0, u=v)
        right = CellFace(rho=1.0, c=1.0, p=1.0, u=-v)
        sol = self.solve(left, right)
        assert sol.u_star == pytest.approx(0.0, abs=1e-15)
        assert sol.order == QUADRATIC

    def test_uniform_pressure_velocity_contact(self):
        """Density jump, equal u and p: the star state is the shared (u, p)."""
        left = CellFace(rho=2.0, c=np.sqrt(1.4 * 1.0 / 2.0), p=1.0, u=0.3)
        right = CellFace(rho=0.5, c=np.sqrt(1.4 * 1.0 / 0.5), p=1.0, u=0.3)
        sol = self.solve(left, right)
        assert sol.u_star == pytest.approx(0.3, rel=1e-12)
        assert sol.p_star_left == pytest.approx(1.0, rel=1e-12)
        assert sol.p_star_right == pytest.approx(1.0, rel=1e-12)

    def test_negative_discriminant_falls_back(self):
        left = CellFace(rho=10.0, c=0.01, p=1e4, u=0.0)
        right = CellFace(rho=0.1, c=0.01, p=1e-4, u=0.0)
        self.assert_two_shock(left, right, self.solve(left, right))

    def test_inadmissible_root_falls_back(self):
        # enormous velocity jump versus one side's sound speed
        left = CellFace(rho=1.0, c=3000.0, p=6.4e7, u=0.0)
        right = CellFace(rho=1.0, c=1e-6, p=4e-13, u=0.0)
        self.assert_two_shock(left, right, self.solve(left, right))

    def test_force_balance_when_accepted(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 300:
            left = random_face(rng, u_scale=0.1)
            right = random_face(rng, u_scale=0.1)
            sol = self.solve(left, right)
            if sol.order != QUADRATIC:
                continue
            checked += 1
            scale = max(1.0, abs(sol.p_star_left))
            assert abs(sol.p_star_left - sol.p_star_right) <= 1e-11 * scale

    def test_matches_acoustic_for_small_velocity_jumps(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            left, right, du = nearly_uniform_pair(rng)
            acoustic = acoustic_node(left, right)
            sol = self.solve(left, right)
            assert abs(sol.u_star - acoustic.u_star) <= 1e-5 * abs(du)

    def test_galilean_shift(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            left = random_face(rng, u_scale=0.05)
            right = CellFace(rho=left.rho * rng.uniform(0.95, 1.05),
                             c=left.c * rng.uniform(0.95, 1.05),
                             p=left.p * rng.uniform(0.95, 1.05),
                             u=left.u + 0.01 * left.c * rng.normal())
            shift = rng.uniform(-5.0, 5.0)
            base = self.solve(left, right)
            moved = self.solve(
                CellFace(left.rho, left.c, left.p, left.u + shift),
                CellFace(right.rho, right.c, right.p, right.u + shift))
            scale = max(1.0, abs(base.u_star), abs(shift))
            assert abs(moved.u_star - (base.u_star + shift)) <= 1e-9 * scale
            p_scale = max(1.0, abs(base.p_star_left))
            assert abs(moved.p_star_left - base.p_star_left) <= 1e-9 * p_scale
            assert abs(moved.p_star_right - base.p_star_right) <= 1e-9 * p_scale

    def test_swap_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            left = random_face(rng, u_scale=0.3)
            right = random_face(rng, u_scale=0.3)
            base = self.solve(left, right)
            flipped = self.solve(
                CellFace(right.rho, right.c, right.p, -right.u),
                CellFace(left.rho, left.c, left.p, -left.u))
            scale = max(1.0, abs(base.u_star))
            assert abs(flipped.u_star + base.u_star) <= 1e-9 * scale
            p_scale = max(1.0, abs(base.p_star_left), abs(base.p_star_right))
            assert abs(flipped.p_star_left - base.p_star_right) <= 1e-9 * p_scale
            assert abs(flipped.p_star_right - base.p_star_left) <= 1e-9 * p_scale

    def test_acoustic_swap_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            left = random_face(rng, u_scale=0.5)
            right = random_face(rng, u_scale=0.5)
            base = acoustic_node(left, right)
            flipped = acoustic_node(
                CellFace(right.rho, right.c, right.p, -right.u),
                CellFace(left.rho, left.c, left.p, -left.u))
            assert flipped.u_star == pytest.approx(-base.u_star, abs=1e-14 * (1 + abs(base.u_star)))
            assert flipped.p_star == pytest.approx(base.p_star, rel=1e-13)


class TestTwoShockSolver:
    """The linear fallback for rejected quadratic nodes, on face arrays."""

    @staticmethod
    def faces(rng, n=2000, u_scale=1.0):
        rho = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (2, n)))
        c = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (2, n)))
        u = u_scale * c * rng.normal(size=(2, n))
        return rho, c, rho * c * c / 1.4, u

    @staticmethod
    def solve(rl, cl, pl, ul, rr, cr, pr, ur):
        return two_shock_solve(rl, cl, pl, ul, rr, cr, pr, ur)

    def test_per_side_entropy_production(self):
        rng = np.random.default_rng(41)
        (rl, rr), (cl, cr), (pl, pr), (ul, ur) = self.faces(rng, u_scale=3.0)
        u_star, p_star = self.solve(rl, cl, pl, ul, rr, cr, pr, ur)
        # (p - p*)(u* - u) on the left cell, (p - p*)(u - u*) on the right
        left = (pl - p_star) * (u_star - ul)
        right = (pr - p_star) * (ur - u_star)
        scale = np.maximum(pl, pr) * (np.abs(ul) + np.abs(ur) + cl + cr)
        assert np.all(left >= -1e-12 * scale)
        assert np.all(right >= -1e-12 * scale)

    def test_compressed_side_impedance(self):
        # symmetric collision: both sides compressed by v, impedance z + k rho v
        v = 3.0
        u_star, p_star = self.solve(1.0, 1.0, 1.0, v, 1.0, 1.0, 1.0, -v)
        assert u_star == 0.0
        assert p_star == pytest.approx(1.0 + (1.0 + 1.2 * v) * v, rel=1e-14)

    def test_galilean_shift(self):
        rng = np.random.default_rng(43)
        (rl, rr), (cl, cr), (pl, pr), (ul, ur) = self.faces(rng)
        shift = rng.uniform(-5.0, 5.0, ul.shape)
        base_u, base_p = self.solve(rl, cl, pl, ul, rr, cr, pr, ur)
        moved_u, moved_p = self.solve(rl, cl, pl, ul + shift, rr, cr, pr, ur + shift)
        u_scale = np.maximum(1.0, np.maximum(np.abs(base_u), np.abs(shift)))
        assert np.all(np.abs(moved_u - (base_u + shift)) <= 1e-9 * u_scale)
        p_scale = np.maximum(1.0, np.abs(base_p))
        assert np.all(np.abs(moved_p - base_p) <= 1e-9 * p_scale)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(47)
        (rl, rr), (cl, cr), (pl, pr), (ul, ur) = self.faces(rng)
        base_u, base_p = self.solve(rl, cl, pl, ul, rr, cr, pr, ur)
        flip_u, flip_p = self.solve(rr, cr, pr, -ur, rl, cl, pl, -ul)
        assert np.all(np.abs(flip_u + base_u) <= 1e-9 * np.maximum(1.0, np.abs(base_u)))
        assert np.all(np.abs(flip_p - base_p) <= 1e-9 * np.maximum(1.0, np.abs(base_p)))

    def test_reduces_to_acoustic_without_compression(self):
        rng = np.random.default_rng(53)
        (rl, rr), (cl, cr), (pl, pr), (ul, ur) = self.faces(rng)
        u_ac, p_ac = acoustic_solve(rl, cl, pl, ul, rr, cr, pr, ur)
        u_2s, p_2s = two_shock_solve(rl, cl, pl, ul, rr, cr, pr, ur)
        neither = (ul <= u_ac) & (u_ac <= ur)
        assert neither.sum() > 100
        np.testing.assert_array_equal(u_2s[neither], u_ac[neither])
        np.testing.assert_array_equal(p_2s[neither], p_ac[neither])
        assert np.all(p_2s[~neither] >= p_ac[~neither])

