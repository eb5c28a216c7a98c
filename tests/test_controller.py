import sys
from pathlib import Path

import numpy as np
import pytest

from morphplan.controller import (
    _bounded_lsq,
    NmpcConfig,
    TrackingConfig,
    allocate,
    estimate_external_force,
    flat_reference,
    indi_torque,
    nmpc_solve,
    run_tracking,
    servo_command,
    TRACKING_LOG_HEADER,
    write_tracking_csv,
)
from morphplan.dynamics import (
    LowPassFilter,
    allocation_matrix,
    constant_wrench,
    radius_model,
)
from morphplan.trajectory import fit_min_jerk

from conftest import figure_eight, vehicle_params

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  the benchmark's operations


def hover_refs(params, n, p=(0.0, 0.0, 1.0)):
    x = np.zeros(13)
    x[0:3] = p
    x[6] = 1.0
    x_ref = np.tile(x, (n + 1, 1))
    u_ref = np.tile([params.hover_thrust, 0, 0, 0], (n + 1, 1))
    return x_ref, u_ref


def max_model(params):
    """The horizon solver's radius model at r_max, the radius of the hover
    references."""
    return radius_model(params, params.body.r_max)


def reference_at(traj, t, params):
    """flat_reference at the one time t: x_ref (13,), u_ref (4,) and the radius."""
    x_ref, u_ref, radii = flat_reference(traj, [t], params)
    return x_ref[0], u_ref[0], float(radii[0])


def hover_traj(p=(0.0, 0.0, 1.0), r=0.211, duration=3.0):
    b = np.zeros((3, 4))
    b[0, :3] = p
    b[0, 3] = r
    return fit_min_jerk(np.zeros((0, 4)), [duration], b, b)


class TestNmpc:
    def test_hover_stationarity(self):
        params = vehicle_params()
        cfg = NmpcConfig()
        x_ref, u_ref = hover_refs(params, cfg.horizon)
        out, info = nmpc_solve(x_ref[0], x_ref, u_ref, cfg, params, max_model(params), None,
                               np.zeros(3))
        assert out[0] == pytest.approx(params.hover_thrust, abs=1e-6)
        assert np.allclose(out[1:], 0.0, atol=1e-6)
        assert info.converged

    def test_below_reference_pushes_up(self):
        params = vehicle_params()
        cfg = NmpcConfig()
        x_ref, u_ref = hover_refs(params, cfg.horizon)
        x0 = x_ref[0].copy()
        x0[2] -= 0.3  # below the reference
        out, _ = nmpc_solve(x0, x_ref, u_ref, cfg, params, max_model(params), None, np.zeros(3))
        assert out[0] > params.hover_thrust + 0.5
        assert np.linalg.norm(out[1:]) < 0.05

    def test_thrust_clamped_at_bound_flag_clean(self):
        """The default budget's one iteration already lands on the bound; the
        solve converged to tol lands there too."""
        params = vehicle_params()
        u_max = np.array([11.0, 1.5, 1.5, 0.5])
        x_ref, u_ref = hover_refs(params, NmpcConfig().horizon)
        x0 = x_ref[0].copy()
        x0[2] -= 3.0
        x0[5] = -2.5  # falling fast: wants much more than the bound allows
        out, _ = nmpc_solve(x0, x_ref, u_ref, NmpcConfig(u_max=u_max), params,
                            max_model(params), None, np.zeros(3))
        assert out[0] == pytest.approx(11.0, abs=1e-8)
        out, full = nmpc_solve(x0, x_ref, u_ref, NmpcConfig(u_max=u_max, max_iters=30), params,
                               max_model(params), None, np.zeros(3))
        assert out[0] == pytest.approx(11.0, abs=1e-8)
        assert full.converged

    def test_warm_start_from_converged_solution_is_used_as_given(self):
        params = vehicle_params()
        cfg = NmpcConfig(max_iters=30)
        x_ref, u_ref = hover_refs(params, cfg.horizon)
        x0 = x_ref[0].copy()
        x0[0:3] += [0.2, -0.1, -0.3]
        x0[3:6] = [0.5, 0.2, -0.4]
        _, first = nmpc_solve(x0, x_ref, u_ref, cfg, params, max_model(params), None, np.zeros(3))
        assert first.converged and first.iterations > 1
        # a one-stage shift of the solution would move these inputs by far more than tol
        out, again = nmpc_solve(x0, x_ref, u_ref, cfg, params, max_model(params),
                                warm_start=first.inputs, f_ext=np.zeros(3))
        assert again.converged and again.iterations == 1
        assert np.max(np.abs(again.inputs - first.inputs)) < cfg.tol
        assert out[0] == pytest.approx(first.inputs[0, 0], rel=0.0, abs=cfg.tol)

    def test_budget_bounds_the_iterations(self):
        params = vehicle_params()
        x_ref, u_ref = hover_refs(params, NmpcConfig().horizon)
        x0 = x_ref[0].copy()
        x0[0:3] += [0.2, -0.1, -0.3]
        x0[3:6] = [0.5, 0.2, -0.4]
        _, capped = nmpc_solve(x0, x_ref, u_ref, NmpcConfig(), params, max_model(params), None,
                               np.zeros(3))
        _, full = nmpc_solve(x0, x_ref, u_ref, NmpcConfig(max_iters=30), params,
                             max_model(params), None, np.zeros(3))
        # the default is the real-time iteration: one iteration, the full step
        assert capped.iterations == NmpcConfig().max_iters == 1
        assert not capped.converged and capped.step == 1.0
        assert full.converged and full.iterations > 3

    def test_rejects_bad_reference_shape(self):
        params = vehicle_params()
        cfg = NmpcConfig()
        x_ref, u_ref = hover_refs(params, cfg.horizon - 1)
        with pytest.raises(ValueError):
            nmpc_solve(x_ref[0], x_ref, u_ref, cfg, params, max_model(params), None, np.zeros(3))

    def test_upward_external_force_lowers_thrust(self):
        """At the default budget of one iteration and solved to tol."""
        params = vehicle_params()
        x_ref, u_ref = hover_refs(params, NmpcConfig().horizon)
        for cfg in (NmpcConfig(), NmpcConfig(max_iters=30)):
            out, info = nmpc_solve(x_ref[0], x_ref, u_ref, cfg, params, max_model(params),
                                   warm_start=None, f_ext=[0.0, 0.0, 1.0])
            # the model carries 1 N of the weight; the input cost pulls the
            # collective only slightly back toward the hover reference
            assert params.hover_thrust - out[0] == pytest.approx(1.0, abs=0.01)
            assert np.allclose(out[1:], 0.0, atol=1e-6)
            assert info.converged == (cfg.max_iters == 30)

    def test_lateral_external_force_tilts_against_it(self):
        params = vehicle_params()
        cfg = NmpcConfig()
        x_ref, u_ref = hover_refs(params, cfg.horizon)
        out, _ = nmpc_solve(x_ref[0], x_ref, u_ref, cfg, params, max_model(params),
                            warm_start=None, f_ext=[1.0, 0.0, 0.0])
        # a push toward +x is cancelled by tilting z_body toward -x, which
        # takes a negative torque about body y
        assert out[2] < -0.05
        assert abs(out[1]) < 1e-6
        assert abs(out[3]) < 1e-6


class TestNmpcConfig:
    def test_rejects_nonpositive_input_weight(self):
        with pytest.raises(ValueError):
            NmpcConfig(w_input=np.array([0.02, 0.0, 0.4, 0.4]))

    def test_rejects_u_min_above_u_max(self):
        with pytest.raises(ValueError):
            NmpcConfig(u_min=np.array([0.0, -1.5, 2.0, -0.5]))


class TestGaussNewtonStep:
    def test_cholesky_step_matches_lstsq(self):
        # random Jacobians of the solver's shape: 12 weighted output rows per
        # stage, each depending on the inputs up to that stage, over the
        # diagonal input-weight rows
        cfg = NmpcConfig()
        n = cfg.horizon
        w_out = np.sqrt([cfg.q_pos] * 3 + [cfg.q_vel] * 3 + [cfg.q_att] * 3 + [cfg.q_omega] * 3)
        rng = np.random.default_rng(12)
        free = np.full(4 * n, np.inf)
        for _ in range(20):
            jx = rng.normal(scale=0.05, size=(n, 12, 4 * n)) * w_out[:, None]
            for k in range(n):
                jx[k, :, 4 * (k + 1):] = 0.0
            a = np.vstack([jx.reshape(12 * n, 4 * n), np.diag(np.tile(np.sqrt(cfg.w_input), n))])
            b = rng.normal(size=16 * n)
            got, ok = _bounded_lsq(a, b, -free, free)
            want = np.linalg.lstsq(a, b, rcond=None)[0]
            assert ok
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


class TestForceEstimate:
    def test_hover_zero(self):
        out = estimate_external_force(1.0, np.zeros(3), 9.81, [0, 0, 1])
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_hovering_on_less_thrust_means_upward_force(self):
        out = estimate_external_force(1.0, np.zeros(3), 8.81, [0, 0, 1])
        assert np.allclose(out, [0, 0, 1.0], atol=1e-12)

    def test_filter_converges_to_constant(self):
        lp = LowPassFilter(5.0, 0.01, 3)
        target = np.array([0.4, -0.2, 0.1])
        tau = 1.0 / (2 * np.pi * 5.0)
        n = int(5 * tau / 0.01) + 1
        for _ in range(n):
            out = lp.update(estimate_external_force(1.0, target / 1.0 + np.array([0, 0, 0]),
                                                    9.81, [0, 0, 1]))
        # raw estimate equals target, so after 5 time constants the filter is
        # within exp(-5) < 1%% of it
        assert np.linalg.norm(out - target) <= 0.05 * np.linalg.norm(target)


class TestIndi:
    def test_zero_increment(self):
        inertia = np.diag([0.01, 0.012, 0.02])
        omega = np.array([0.1, -0.2, 0.05])
        tau_u = np.array([0.02, 0.01, -0.005])
        omega_dot_des = np.linalg.solve(inertia, tau_u - np.cross(omega, inertia @ omega))
        tau_f = np.array([0.003, -0.001, 0.002])
        out = indi_torque(tau_u, omega, inertia, tau_f, omega_dot_des)
        assert np.allclose(out, tau_f, atol=1e-15)

    def test_hand_case(self):
        inertia = np.diag([0.01, 0.01, 0.01])
        out = indi_torque([0.01, 0, 0], np.zeros(3), inertia, np.zeros(3), np.zeros(3))
        assert np.allclose(out, [0.01, 0, 0], atol=1e-15)

    def test_singular_inertia_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            indi_torque([0.01, 0, 0], np.zeros(3), np.zeros((3, 3)), np.zeros(3), np.zeros(3))


class TestAllocate:
    def test_zero_torque_splits_evenly(self):
        params = vehicle_params()
        h = allocation_matrix(params, 0.18)
        t, clamped = allocate(8.0, np.zeros(3), h, params.thrust_min, params.thrust_max)
        assert np.allclose(t, 2.0)
        assert not clamped

    def test_round_trip_identity(self):
        params = vehicle_params()
        rng = np.random.default_rng(4)
        for r in np.linspace(params.body.r_min, params.body.r_max, 9):
            h = allocation_matrix(params, r)
            f = rng.uniform(4.0, 16.0)
            tau = rng.uniform(-0.1, 0.1, 3)
            t, clamped = allocate(f, tau, h, params.thrust_min, params.thrust_max)
            assert not clamped
            back = h @ t
            assert abs(back[0] - f) < 1e-10
            assert np.allclose(back[1:], tau, atol=1e-10)

    def test_extreme_torque_preserves_collective(self):
        params = vehicle_params()
        h = allocation_matrix(params, 0.18)
        t, clamped = allocate(8.0, np.array([5.0, 0, 0]), h, params.thrust_min, params.thrust_max)
        assert clamped
        assert np.sum(t) == pytest.approx(8.0, abs=1e-9)
        assert np.all(t >= params.thrust_min - 1e-12)
        assert np.all(t <= params.thrust_max + 1e-12)


class TestServo:
    def test_at_target(self):
        params = vehicle_params(servo_tau=0.1)
        r_des = 0.18
        theta = params.servo_angle_of_radius(r_des)
        assert servo_command(r_des, theta, params, 6.0) == 0.0

    def test_hand_case(self):
        params = vehicle_params(servo_tau=0.1)
        # choose r_des so its servo angle is 1.0 rad, estimate 0.8 rad
        r_des = params.radius_of_servo_angle(1.0)
        assert servo_command(r_des, 0.8, params, rate_limit=50.0) == pytest.approx(2.0)

    def test_first_order_convergence(self):
        params = vehicle_params(servo_tau=0.1)
        r_des = params.body.r_min
        target = params.servo_angle_of_radius(r_des)
        e0 = abs(np.pi - target)  # start at r_max
        # forward Euler, as dynamics.step integrates the servo angle: the
        # error contracts by exactly (1 - dt/tau) per step
        dt = 1e-3
        theta = np.pi
        for k in range(600):
            theta = theta + servo_command(r_des, theta, params, rate_limit=1e9) * dt
            assert abs(theta - target) == pytest.approx(e0 * (1.0 - dt / 0.1) ** (k + 1),
                                                        rel=1e-9)
        # at a fine step the discrete lag approaches the continuous first-order
        # response theta(t) = target + (theta0 - target) exp(-t/tau)
        dt = 1e-5
        theta = np.pi
        for _ in range(round(0.3 / dt)):
            theta = theta + servo_command(r_des, theta, params, rate_limit=1e9) * dt
        assert abs(theta - target) == pytest.approx(e0 * np.exp(-0.3 / 0.1), rel=5e-3)


class TestFlatReference:
    def test_unit_z_and_positive_thrust(self, fig8_traj):
        params = vehicle_params()
        for t in np.linspace(0, fig8_traj.total_time, 50):
            x_ref, u_ref, r_des = reference_at(fig8_traj, t, params)
            q = x_ref[6:10]
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert u_ref[0] > 0.0
            from morphplan.dynamics import quat_to_rot

            z_b = quat_to_rot(q)[:, 2]
            assert np.linalg.norm(z_b) == pytest.approx(1.0, abs=1e-12)

    def test_batched_matches_scalar(self, fig8_traj):
        params = vehicle_params()
        times = np.linspace(-0.1, fig8_traj.total_time + 0.2, 41)
        x_refs, u_refs, radii = flat_reference(fig8_traj, times, params)
        for j, t in enumerate(times):
            x_ref, u_ref, r_des = reference_at(fig8_traj, t, params)
            assert np.array_equal(x_refs[j], x_ref)
            assert np.array_equal(u_refs[j], u_ref)
            assert radii[j] == r_des

    def test_hover_reference(self):
        params = vehicle_params()
        traj = hover_traj()
        x_ref, u_ref, r_des = reference_at(traj, 1.0, params)
        assert np.allclose(x_ref[0:3], [0, 0, 1.0])
        assert u_ref[0] == pytest.approx(params.hover_thrust)
        assert r_des == pytest.approx(0.211)


# position RMSEs of the tracker on the undisturbed conftest figure-eight,
# compensation on and off: at the default budget (1 iteration per tick) and
# at a budget of 3
ON_RMSE_DEFAULT = 0.004343426493339874
OFF_RMSE_DEFAULT = 0.00434347519366996
ON_RMSE_BUDGET_3 = 0.004345863617459309
OFF_RMSE_BUDGET_3 = 0.0043459123752809005
DEFAULT_BUDGET = NmpcConfig().max_iters


@pytest.fixture(scope="module")
def fig8_run(fig8_traj):
    """run_tracking on the conftest figure-eight, memoised per (Gauss-Newton
    budget, compensation on/off, constant wrench or none)."""
    runs = {}
    params = vehicle_params()

    def run(max_iters, compensation, wrench=False):
        key = (max_iters, compensation, wrench)
        if key not in runs:
            disturbance = (constant_wrench([0.1 * params.hover_thrust, 0, 0], [0, 0.02, 0])
                           if wrench else None)
            runs[key] = run_tracking(
                fig8_traj, params, NmpcConfig(max_iters=max_iters),
                TrackingConfig(force_compensation=compensation, indi=compensation,
                               duration_pad=0.0),
                disturbance=disturbance)
        return runs[key]

    return run


class TestRunTracking:
    def test_hover_rmse_tiny(self):
        params = vehicle_params()
        traj = hover_traj(duration=2.0)
        result = run_tracking(traj, params, NmpcConfig(), TrackingConfig(duration_pad=0.0),
                              disturbance=None)
        assert result.rmse < 1e-3

    def test_compensation_inert_without_disturbance(self, fig8_run):
        # the horizon solved to convergence at every tick, the solver this
        # golden was recorded for
        on = fig8_run(30, compensation=True)
        off = fig8_run(30, compensation=False)
        assert on.rmse <= 1.05 * off.rmse + 1e-6
        assert off.rmse <= 1.05 * on.rmse + 1e-6
        # measured with the earlier numpy-batch model and SVD least-squares
        # step; a change of arithmetic alone must stay within 1e-9 m
        assert on.rmse == pytest.approx(0.004346184903904435, rel=0.0, abs=1e-9)
        assert off.rmse == pytest.approx(0.004346233636593493, rel=0.0, abs=1e-9)

    def test_default_budget_golden(self, fig8_run):
        """A budget of 3 Gauss-Newton iterations per tick on the undisturbed
        figure-eight; a change of arithmetic alone must stay within 1e-9 m."""
        on = fig8_run(3, compensation=True)
        off = fig8_run(3, compensation=False)
        assert on.rmse == pytest.approx(ON_RMSE_BUDGET_3, rel=0.0, abs=1e-9)
        assert off.rmse == pytest.approx(OFF_RMSE_BUDGET_3, rel=0.0, abs=1e-9)

    def test_one_iteration_golden(self, fig8_run):
        """The default real-time iteration (1 Gauss-Newton iteration per
        tick) on the undisturbed figure-eight; a change of arithmetic alone
        must stay within 1e-9 m."""
        assert DEFAULT_BUDGET == 1
        on = fig8_run(DEFAULT_BUDGET, compensation=True)
        off = fig8_run(DEFAULT_BUDGET, compensation=False)
        assert on.rmse == pytest.approx(ON_RMSE_DEFAULT, rel=0.0, abs=1e-9)
        assert off.rmse == pytest.approx(OFF_RMSE_DEFAULT, rel=0.0, abs=1e-9)

    def test_constant_wrench_compensation_helps(self, fig8_run):
        for budget in (3, DEFAULT_BUDGET):
            on = fig8_run(budget, compensation=True, wrench=True)
            off = fig8_run(budget, compensation=False, wrench=True)
            assert on.rmse <= 0.8 * off.rmse

    @pytest.mark.parametrize("wrench", [False, True], ids=["inert", "constant-wrench"])
    def test_default_budget_tracks_like_the_converged_solver(self, fig8_run, wrench):
        """A budget of 3 iterations per tick tracks within 1% of the solver
        run to convergence at every tick."""
        budget = fig8_run(3, compensation=True, wrench=wrench)
        full = fig8_run(30, compensation=True, wrench=wrench)
        assert abs(budget.rmse - full.rmse) <= 0.01 * full.rmse
        # one count and flag per control tick, within the budget
        ticks = len(range(0, len(budget.times), 2))
        assert budget.gn_iterations.shape == budget.gn_converged.shape == (ticks,)
        assert budget.gn_iterations.min() >= 1 and budget.gn_iterations.max() == 3
        assert np.all(budget.gn_converged[budget.gn_iterations < 3])
        assert full.gn_iterations.mean() > budget.gn_iterations.mean()

    @pytest.mark.parametrize("wrench", [False, True], ids=["inert", "constant-wrench"])
    def test_one_iteration_tracks_like_the_converged_solver(self, fig8_run, wrench):
        """The default budget tracks within 1% of the solver run to
        convergence at every tick.  Each tick records the step fraction its
        last iteration accepted, 0 only where no trial kept the cost from
        rising, which ends the solve as converged."""
        rti = fig8_run(DEFAULT_BUDGET, compensation=True, wrench=wrench)
        full = fig8_run(30, compensation=True, wrench=wrench)
        assert abs(rti.rmse - full.rmse) <= 0.01 * full.rmse
        ticks = len(range(0, len(rti.times), 2))
        assert rti.gn_iterations.shape == rti.gn_step.shape == (ticks,)
        assert np.all(rti.gn_iterations == 1)
        # no tick's one step is cut back: each takes the whole Gauss-Newton step
        assert np.all(rti.gn_step == 1.0)
        for result in (rti, full):
            assert set(np.unique(result.gn_step)) <= {0.0, 0.125, 0.25, 0.5, 1.0}
            assert np.all(result.gn_converged[result.gn_step == 0.0])

    def test_one_iteration_backtracks_above_the_planners_speed(self):
        """At a 2.5 m/s peak, above the planner's 2 m/s `v_max`, the default
        budget cuts its one step back on some ticks (6 of 525), so the trial
        rollouts act at a budget of 1; a change of arithmetic alone must stay
        within 1e-9 m."""
        assert DEFAULT_BUDGET == 1
        result = run_tracking(figure_eight(peak_speed=2.5), vehicle_params(), NmpcConfig(),
                              TrackingConfig(duration_pad=0.0), disturbance=None)
        assert np.all(result.gn_iterations == 1)
        assert np.any(result.gn_step < 1.0)
        assert result.rmse == pytest.approx(0.08991919285887273, rel=0.0, abs=1e-9)

    def test_logged_references_equal_scalar_flat_reference(self, fig8_traj, fig8_run):
        result = fig8_run(3, compensation=True)
        params = vehicle_params()
        for k, t in enumerate(result.times):
            x_ref, _, _ = reference_at(fig8_traj, t, params)
            assert result.log[k, 1:4].tolist() == x_ref[0:3].tolist()

    def test_force_estimate_converges_in_closed_loop(self):
        params = vehicle_params()
        traj = hover_traj(duration=2.5)
        injected = np.array([0.3, -0.2, 0.15])
        result = run_tracking(traj, params, NmpcConfig(),
                              TrackingConfig(duration_pad=0.0),
                              disturbance=constant_wrench(injected, [0, 0, 0]))
        tau = 1.0 / (2 * np.pi * 5.0)
        after = result.times >= 5 * tau
        err = np.linalg.norm(result.force_estimates[after] - injected, axis=1)
        assert err.max() <= 0.05 * np.linalg.norm(injected)

    def test_indi_improves_torque_rejection(self):
        params = vehicle_params()
        traj = hover_traj(duration=2.0)
        wrench = constant_wrench([0, 0, 0], [0.02, -0.015, 0.0])
        base = TrackingConfig(force_compensation=False, indi=False, duration_pad=0.0)
        with_indi = TrackingConfig(force_compensation=False, indi=True, duration_pad=0.0)
        off = run_tracking(traj, params, NmpcConfig(), base, disturbance=wrench)
        on = run_tracking(traj, params, NmpcConfig(), with_indi, disturbance=wrench)
        assert on.rmse < off.rmse

    def test_log_csv(self, tmp_path):
        params = vehicle_params()
        traj = hover_traj(duration=0.5)
        result = run_tracking(traj, params, NmpcConfig(), TrackingConfig(duration_pad=0.0),
                              disturbance=None)
        path = tmp_path / "log.csv"
        write_tracking_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACKING_LOG_HEADER
        assert len(lines) == len(result.log) + 1
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back, result.log)
        # the arrays the benchmark reads are the log's columns of those names
        col = TRACKING_LOG_HEADER.split(",").index
        assert back.shape[1] == len(TRACKING_LOG_HEADER.split(","))
        assert np.array_equal(result.times, back[:, col("t")])
        assert np.array_equal(result.positions, back[:, [col("x"), col("y"), col("z")]])
        assert np.array_equal(result.radii, back[:, col("r")])
        assert np.array_equal(result.force_estimates,
                              back[:, [col("fext_x"), col("fext_y"), col("fext_z")]])


@pytest.mark.parametrize("seed", [101, 1601, 1811, 7, 42])
def test_one_iteration_within_one_percent_under_noise(seed):
    """The benchmark's disturbed-track operation (a small shrinking
    figure-eight under a constant force and torque, with accelerometer noise
    drawn from the seed) tracks at the default budget within 1% of the
    solver run to convergence at every tick."""
    op = workloads.track_op(seed, disturbed=True)
    rti = workloads.run_track(op)
    op.scenario.control.update(max_iters=30)
    full = workloads.run_track(op)
    assert np.all(rti.gn_iterations == 1) and full.gn_iterations.max() > 1
    assert abs(rti.rmse - full.rmse) <= 0.01 * full.rmse
