import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from morphplan.dynamics import (
    GRAVITY,
    Wrench,
    allocation_matrix,
    constant_wrench,
    inertia_of,
    noise_wrench,
    power,
    quat_to_rot,
    radius_model,
    ramp_wrench,
    rigid_body_rates,
    rigid_body_step,
    rk4_jacobians,
    rot_to_quat,
    step,
)

from conftest import vehicle_params


def quat_mul(a, b):
    """Hamilton product of quaternions (w, x, y, z): the oracle for the
    rotation and the quaternion rates the model writes out by components."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_rotate(q, v):
    """v rotated by the unit quaternion q, as q (0, v) q*."""
    return quat_mul(quat_mul(q, np.array([0.0, *v])), q * [1.0, -1.0, -1.0, -1.0])[1:]


def arm_inertia(params, r):
    """The four arm point masses' part of `inertia_of` at radius r: at radius
    0 the motors sit on the axis and only the central body remains."""
    return inertia_of(params, r) - inertia_of(params, 0.0)


def hover_state(params, r=None, omega=(0.0, 0.0, 0.0)):
    """The state row at rest and level at the origin, spinning at omega,
    with the servo angle of the radius r (r_max by default) and r itself."""
    r = params.body.r_max if r is None else r
    return [0.0] * 6 + [1.0, 0.0, 0.0, 0.0] + list(omega), params.servo_angle_of_radius(r), r


def sim_step(state, thrusts, servo_rate, disturbance, params, dt):
    """`step` on the radius model of the carried radius, then the radius of
    the new servo angle, as the tracking loop does."""
    x, theta, r = state
    x, theta = step(x, theta, thrusts, servo_rate, disturbance, params, dt,
                    radius_model(params, r))
    return x, theta, params.radius_of_servo_angle(theta)


class TestQuaternions:
    def test_rotation_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            r = quat_to_rot(q)
            q2 = rot_to_quat(r)
            assert np.allclose(np.abs(q @ q2), 1.0, atol=1e-12)
            v = rng.normal(size=3)
            assert np.allclose(r @ v, quat_rotate(q, v), atol=1e-12)

    def test_mul_identity(self):
        q = np.array([0.7, 0.1, -0.3, 0.2])
        q /= np.linalg.norm(q)
        e = np.array([1.0, 0, 0, 0])
        assert np.allclose(quat_mul(q, e), q)
        assert np.allclose(quat_mul(e, q), q)


def _floats(n, bound):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n)


@st.composite
def _model_input(draw):
    """One state with a unit quaternion, its collective, torque and force."""
    q = np.array(draw(_floats(4, 1.0)))
    assume(np.linalg.norm(q) > 0.1)
    x = draw(_floats(6, 5.0)) + (q / np.linalg.norm(q)).tolist() + draw(_floats(3, 4.0))
    return x, draw(st.floats(0.0, 32.0)), draw(_floats(3, 1.5)), draw(_floats(3, 3.0))


class TestSharedModel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_model_input(), min_size=1, max_size=6),
           st.floats(vehicle_params().body.r_min, vehicle_params().body.r_max), st.floats(1e-3, 0.05))
    def test_float_and_row_paths_bit_identical(self, cases, r, dt):
        params = vehicle_params()
        j = inertia_of(params, r)
        model = (params.mass, j.tolist(), np.linalg.inv(j).tolist(), dt)
        singles = np.array([rigid_body_step(x, u, tau, f, *model) for x, u, tau, f in cases])
        xs, us, taus, fs = (np.array(c, dtype=float) for c in zip(*cases))
        rows = rigid_body_step(list(xs.T), us, list(taus.T), list(fs.T), *model)
        assert np.array_equal(np.array(rows).T, singles)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_model_input(), min_size=1, max_size=4),
           st.floats(vehicle_params().body.r_min, vehicle_params().body.r_max), st.floats(1e-3, 0.05))
    def test_exact_jacobians_match_central_differences(self, cases, r, dt):
        """rk4_jacobians from the stage points the float path records, against
        central differences of the row path in all 13 state and 4 input
        components (the quaternion perturbed off the unit sphere too)."""
        params = vehicle_params()
        j = inertia_of(params, r)
        model = (params.mass, j.tolist(), np.linalg.inv(j).tolist(), dt)
        stages = []
        for x, u, tau, f in cases:
            rigid_body_step(x, u, tau, f, *model, stages)
        a, b = rk4_jacobians(stages, [u for _, u, _, _ in cases], params.mass, j,
                             np.linalg.inv(j), dt)
        assert a.shape == (len(cases), 13, 13) and b.shape == (len(cases), 13, 4)
        eps = 1e-6
        delta = np.concatenate([np.eye(17), -np.eye(17)]) * eps
        for i, (x, u, tau, f) in enumerate(cases):
            z = np.concatenate([x, [u], tau]) + delta
            rows = rigid_body_step(list(z[:, :13].T), z[:, 13], list(z[:, 14:].T), f, *model)
            out = np.array(rows).T
            fd = (out[:17] - out[17:]).T / (2.0 * eps)
            np.testing.assert_allclose(a[i], fd[:, :13], rtol=0.0, atol=1e-7)
            np.testing.assert_allclose(b[i], fd[:, 13:], rtol=0.0, atol=1e-7)

    def test_recording_stages_leaves_the_step_unchanged(self):
        params = vehicle_params()
        j = inertia_of(params, 0.17)
        model = (params.mass, j.tolist(), np.linalg.inv(j).tolist(), 0.05)
        x = [0.1, -0.2, 1.0, 0.5, 0.1, -0.3, 0.9, 0.1, -0.3, 0.2, 1.0, -2.0, 0.5]
        stages = []
        out = rigid_body_step(x, 12.0, [0.1, -0.2, 0.05], [0.3, 0.0, -0.1], *model, stages)
        assert out == rigid_body_step(x, 12.0, [0.1, -0.2, 0.05], [0.3, 0.0, -0.1], *model)
        assert len(stages) == 1 and stages[0][0] is x

    def test_rates_match_rotation_matrix_form(self):
        params = vehicle_params()
        rng = np.random.default_rng(9)
        for _ in range(50):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            x = np.concatenate([rng.normal(size=6), q, rng.normal(scale=3.0, size=3)])
            thrust = rng.uniform(0.0, 32.0)
            torque = rng.normal(scale=0.5, size=3)
            force = rng.normal(size=3)
            j = inertia_of(params, rng.uniform(params.body.r_min, params.body.r_max))
            j_inv = np.linalg.inv(j)
            got = rigid_body_rates(x.tolist(), thrust, torque.tolist(), force.tolist(),
                                   params.mass, j.tolist(), j_inv.tolist())
            w = x[10:13]
            want = np.concatenate([
                x[3:6],
                (thrust * quat_to_rot(q)[:, 2] + force) / params.mass + GRAVITY,
                0.5 * quat_mul(q, np.array([0.0, *w])),
                j_inv @ (torque - np.cross(w, j @ w)),
            ])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestAllocation:
    def test_equal_thrust_symmetry(self):
        params = vehicle_params()
        h = allocation_matrix(params, 0.18)
        out = h @ np.full(4, 2.0)
        assert out[0] == pytest.approx(8.0)
        assert np.allclose(out[1:], 0.0, atol=1e-12)

    def test_radius_scaling_of_rows(self):
        params = vehicle_params()
        r0, lam = 0.2, 0.7
        h0 = allocation_matrix(params, r0)
        h1 = allocation_matrix(params, lam * r0)
        assert np.allclose(h1[1:3], lam * h0[1:3])
        assert np.allclose(h1[0], h0[0])
        assert np.allclose(h1[3], h0[3])

    def test_invertible_across_radius_range(self):
        params = vehicle_params()
        for r in np.linspace(params.body.r_min, params.body.r_max, 100):
            h = allocation_matrix(params, r)
            assert abs(np.linalg.det(h)) > 1e-9
            assert np.allclose(h @ np.linalg.inv(h), np.eye(4), atol=1e-10)

    def test_radius_out_of_range(self):
        params = vehicle_params()
        with pytest.raises(ValueError):
            allocation_matrix(params, params.body.r_max + 0.01)


class TestInertia:
    def test_arm_contribution_scales_quadratically(self):
        params = vehicle_params()
        j1 = arm_inertia(params, 0.1)
        j2 = arm_inertia(params, 0.2)
        assert np.allclose(j2, 4.0 * j1, atol=1e-15)

    def test_loewner_order_of_arm_part(self):
        params = vehicle_params()
        diff = arm_inertia(params, params.body.r_max) - arm_inertia(params, params.body.r_min)
        assert np.all(np.linalg.eigvalsh(diff) >= -1e-15)
        assert np.linalg.eigvalsh(diff)[-1] > 0.0

    def test_symmetric_positive_definite(self):
        params = vehicle_params()
        j = inertia_of(params, 0.18)
        assert np.array_equal(j, j.T)
        assert np.all(np.linalg.eigvalsh(j) > 0.0)


class TestStep:
    def test_hover_holds_state(self):
        params = vehicle_params()
        state = hover_state(params)
        t_hover = np.full(4, params.hover_thrust / 4.0)
        for _ in range(1000):
            state = sim_step(state, t_hover, 0.0, None, params, 1e-3)
        assert np.linalg.norm(state[0][0:3]) < 1e-9
        assert np.linalg.norm(state[0][3:6]) < 1e-9

    def test_free_fall(self):
        params = vehicle_params()
        state = hover_state(params)
        dt = 1e-3
        x, _, _ = sim_step(state, np.zeros(4), 0.0, None, params, dt)
        assert x[5] == pytest.approx(-9.81 * dt, rel=1e-12)

    def test_principal_axis_spin_constant(self):
        params = vehicle_params()
        state = hover_state(params, omega=(0.0, 0.0, 2.0))
        for _ in range(2000):
            state = sim_step(state, np.zeros(4), 0.0, None, params, 1e-3)
        assert np.allclose(state[0][10:13], [0, 0, 2.0], atol=1e-9)

    def test_torque_free_energy_conservation(self):
        params = vehicle_params()
        state = hover_state(params, omega=(1.3, -0.7, 2.1))
        j = inertia_of(params, state[2])
        omega = np.array(state[0][10:13])
        e0 = 0.5 * omega @ j @ omega
        for _ in range(10000):
            state = sim_step(state, np.zeros(4), 0.0, None, params, 1e-3)
        omega = np.array(state[0][10:13])
        e1 = 0.5 * omega @ j @ omega
        assert abs(e1 - e0) / e0 < 1e-6

    def test_quaternion_norm_drift(self):
        params = vehicle_params()
        state = hover_state(params, omega=(2.0, 1.0, -1.5))
        for _ in range(500):
            state = sim_step(state, np.full(4, 2.0), 0.0, None, params, 1e-3)
            assert abs(np.linalg.norm(state[0][6:10]) - 1.0) < 1e-9

    def test_rk4_order(self):
        params = vehicle_params()

        def run(dt):
            state = hover_state(params, omega=(0.5, -0.4, 0.3))
            n = int(round(2.0 / dt))
            per = int(round(0.1 / dt))
            for k in range(n):
                phase = (k // per) % 4
                thrusts = np.array([3.0, 2.0, 2.5, 2.2]) if phase % 2 == 0 \
                    else np.array([2.0, 3.0, 2.2, 2.7])
                state = sim_step(state, thrusts, 0.0, None, params, dt)
            return np.array(state[0])

        ref = run(1.25e-4)
        e1 = np.linalg.norm(run(2e-3) - ref)
        e2 = np.linalg.norm(run(1e-3) - ref)
        assert 12.0 < e1 / e2 < 20.0

    def test_deterministic(self):
        params = vehicle_params()
        outs = []
        for _ in range(2):
            state = hover_state(params, omega=(0.3, 0.2, -0.1))
            for _ in range(100):
                state = sim_step(state, np.array([2.5, 2.4, 2.45, 2.5]), 0.1,
                                 Wrench(force=[0.1, 0, 0], torque=[0, 0.01, 0]), params, 1e-3)
            x, theta, r = state
            outs.append(np.array([*x, r, theta]))
        assert np.array_equal(outs[0], outs[1])

    def test_servo_moves_radius(self):
        params = vehicle_params()
        state = hover_state(params, r=params.body.r_max)
        t_hover = np.full(4, params.hover_thrust / 4.0)
        for _ in range(100):
            state = sim_step(state, t_hover, -3.0, None, params, 1e-3)
        _, theta, r = state
        assert r < params.body.r_max
        assert theta == pytest.approx(np.pi - 0.3, abs=1e-9)

    def test_rejects_bad_inputs(self):
        params = vehicle_params()
        with pytest.raises(ValueError):
            sim_step(hover_state(params), np.array([np.nan, 0, 0, 0]), 0.0, None, params, 1e-3)
        with pytest.raises(ValueError):
            sim_step(hover_state(params), np.zeros(4), 0.0, None, params, 0.0)


class TestPower:
    def test_hand_value(self):
        params = vehicle_params(energy_c1=1.0, energy_c2=1.0)
        assert power(4.0, params.body.r_max, params) == pytest.approx(8.0)

    def test_zero_thrust_at_max_radius(self):
        params = vehicle_params()
        assert power(0.0, params.body.r_max, params) == 0.0

    def test_shrink_term(self):
        params = vehicle_params(energy_c2=2.0)
        shrink = (params.body.r_min - params.body.r_max) / params.body.r_max
        assert power(0.0, params.body.r_min, params) == pytest.approx(2.0 * shrink**2)


class TestWrenchProfiles:
    def test_constant(self):
        p = constant_wrench([1, 0, 0], [0, 0, 0.1])
        assert np.allclose(p(0.0).force, [1, 0, 0])
        assert np.allclose(p(5.0).torque, [0, 0, 0.1])

    def test_ramp(self):
        p = ramp_wrench([2, 0, 0], [0, 0, 0], t_ramp=2.0)
        assert np.allclose(p(0.0).force, 0.0)
        assert np.allclose(p(1.0).force, [1, 0, 0])
        assert np.allclose(p(10.0).force, [2, 0, 0])

    def test_noise_deterministic(self):
        a = noise_wrench(0.1, 0.01, 2.0, 0.01, 1.0, seed=3)
        b = noise_wrench(0.1, 0.01, 2.0, 0.01, 1.0, seed=3)
        ts = np.linspace(0, 1, 17)
        assert all(np.array_equal(a(t).force, b(t).force) for t in ts)

    def test_noise_is_the_first_order_recursion(self):
        """Bit for bit, the profile is the recursion f[k] = f[k-1] +
        alpha (raw[k] - f[k-1]) from f[0] = 0 over the same draws."""
        dt, duration, cutoff, seed = 0.005, 3.0, 2.0, 7
        profile = noise_wrench(0.3, 0.02, cutoff, dt, duration, seed=seed)
        rng = np.random.default_rng(seed)
        n = int(np.ceil(duration / dt)) + 2
        alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff * dt)
        raw_f = rng.normal(scale=0.3, size=(n, 3))
        raw_t = rng.normal(scale=0.02, size=(n, 3))
        f = np.zeros((n, 3))
        tq = np.zeros((n, 3))
        for k in range(1, n):
            f[k] = f[k - 1] + alpha * (raw_f[k] - f[k - 1])
            tq[k] = tq[k - 1] + alpha * (raw_t[k] - tq[k - 1])
        for k in range(n):
            w = profile((k + 0.5) * dt)
            assert w.force.tobytes() == f[k].tobytes()
            assert w.torque.tobytes() == tq[k].tobytes()
