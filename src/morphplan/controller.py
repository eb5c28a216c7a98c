"""Tracking stack: receding-horizon thrust/torque optimizer, external-force
estimation fed into the horizon model, incremental torque compensation,
allocation inversion and the servo proportional loop.

The horizon model is `dynamics.rigid_body_step`, the same RK4 rigid body the
simulator (`dynamics.step`) integrates.  The solver is single-shooting
Gauss-Newton run as a real-time iteration: each control tick starts from the
previous tick's input sequence as it is (no shift) and takes at most
`NmpcConfig.max_iters` iterations, one by default as in the original
real-time iteration (Diehl, Bock & Schloeder, SIAM J. Control Optim. 2005),
stopping early when the input step falls below `tol`.  An iteration rolls
the model forward on Python floats, recording the RK stage points,
linearizes every stage at once with the exact sensitivities
`dynamics.rk4_jacobians` chains from them, and takes the least-squares step
from the Cholesky-factored normal equations, or from a bounded solver when
the step hits an input bound; backtracking keeps each iteration monotone,
and the solve reports the step fraction it accepted.  Attitude error enters
the cost as the vector part of the reference-relative quaternion.  The
estimated external force acts on the model's translational dynamics, so the
solver plans the tilt and collective that cancel it rather than correcting
it after a position error builds up.  `run_tracking` samples the reference of
every simulator step and the horizon of every control tick in two batched
`flat_reference` calls before its loop, and builds the radius model
(allocation, inertia) once per step; the horizon solve, the allocation and
the simulator step all take that one model.  The loop's state is the state
row of `dynamics.rigid_body_step`, 13 floats [p, v, q, w], which the
simulator steps and the horizon solve starts from as it is; beside it the
loop carries the servo angle and the radius it maps to.  Each step appends
one row of the 30 `TRACKING_LOG_HEADER` columns (time, reference position,
state row, radius, servo angle, force estimate, commanded collective and
torque, rotor thrusts) to `TrackingResult.log`, a (steps, 30) array of
which the result's times, positions, radii and force estimates are column
views.  Its filters are `dynamics.LowPassFilter` and
`dynamics.SecondOrderLowPass`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as _field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import lsq_linear

from .dynamics import (
    GRAVITY,
    LowPassFilter,
    RadiusModel,
    SecondOrderLowPass,
    VehicleParams,
    quat_to_rot,
    radius_model,
    rigid_body_step,
    rk4_jacobians,
    rot_to_quat,
    step,
)
from .fields import check_field_types
from .trajectory import write_numeric_csv

log = logging.getLogger(__name__)


@dataclass
class NmpcConfig:
    """Horizon solver settings.  max_iters is the Gauss-Newton budget of one
    control tick: the real-time iteration takes one iteration per tick from
    the previous tick's solution rather than solving each horizon to
    convergence; tol ends a tick early once the input step is below it."""

    horizon: int = 20
    dt: float = 0.05
    q_pos: float = 40.0
    q_vel: float = 8.0
    q_att: float = 16.0
    q_omega: float = 1.0
    terminal_scale: float = 2.0
    w_input: np.ndarray = _field(default_factory=lambda: np.array([0.02, 0.4, 0.4, 0.4]))
    u_min: np.ndarray = _field(default_factory=lambda: np.array([0.0, -1.5, -1.5, -0.5]))
    u_max: np.ndarray = _field(default_factory=lambda: np.array([32.0, 1.5, 1.5, 0.5]))
    max_iters: int = 1
    tol: float = 1e-6

    def __post_init__(self):
        check_field_types(self)
        self.w_input = np.asarray(self.w_input, dtype=float).reshape(4)
        self.u_min = np.asarray(self.u_min, dtype=float).reshape(4)
        self.u_max = np.asarray(self.u_max, dtype=float).reshape(4)
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.dt > 0.0 and self.tol > 0.0):
            raise ValueError("dt and tol must be positive")
        if min(self.q_pos, self.q_vel, self.q_att, self.q_omega, self.terminal_scale) < 0.0:
            raise ValueError("state weights must be non-negative")
        if not np.all(self.w_input > 0.0):   # keeps the Gauss-Newton normal matrix definite
            raise ValueError("every input weight must be positive")
        if not np.all(self.u_min <= self.u_max):
            raise ValueError("u_min must not exceed u_max")
        if self.u_min[0] < 0.0:
            raise ValueError("the collective thrust bound u_min[0] must be non-negative")


def _quat_error_matrices(q_ref: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows 1..3 of the left-multiplication matrix of conj(q_ref) per stage,
    (N, 3, 4): the map q -> vec(q_ref^-1 * q), exact because it is linear in
    q.  Each q_ref (N, 4) takes the sign that makes q_ref . q >= 0."""
    q_ref = np.where(np.sum(q_ref * q, axis=1, keepdims=True) < 0.0, -q_ref, q_ref)
    w, x, y, z = q_ref[:, 0], -q_ref[:, 1], -q_ref[:, 2], -q_ref[:, 3]
    return np.stack([x, w, -z, y, y, z, w, -x, z, -y, x, w], axis=1).reshape(-1, 3, 4)


@dataclass(eq=False)
class NmpcInfo:
    converged: bool
    iterations: int
    step: float         # step fraction of the last iteration; 0: every trial raised the cost
    inputs: np.ndarray  # (N, 4) solution sequence (warm start for the next tick)


def nmpc_solve(x_now: np.ndarray, x_ref: np.ndarray, u_ref: np.ndarray,
               config: NmpcConfig, params: VehicleParams, model: RadiusModel,
               warm_start: np.ndarray | None, f_ext) -> tuple[np.ndarray, NmpcInfo]:
    """Finite-horizon tracking solve; returns the first input [f, tau] (4,)
    of the solution, and the solve's `NmpcInfo`.

    x_now (13,), x_ref (N+1, 13), u_ref (N, 4) or (N+1, 4).  The model is the
    rigid body with the inertia of `model` (the current radius's
    `radius_model`, held over the horizon) under the constant world-frame
    external force f_ext [N], discretized with RK4 at
    config.dt.  The Gauss-Newton iteration starts from warm_start,
    the previous tick's (N, 4) input sequence, as given, or from u_ref when
    it is None; it stops after config.max_iters iterations or once the input
    step is below config.tol (then `converged`).  Each iteration linearizes
    on the exact RK4 sensitivities of its rollout and backtracks along the
    Gauss-Newton step over fractions 1, 1/2, 1/4 and 1/8 until the cost does
    not rise; when none qualifies the inputs stay and the solve ends
    (`converged`, with `step` 0).
    """
    n = config.horizon
    x_now = np.asarray(x_now, dtype=float).reshape(13)
    x_ref = np.asarray(x_ref, dtype=float)
    if x_ref.shape != (n + 1, 13):
        raise ValueError(f"reference must be ({n + 1}, 13)")
    u_ref = np.asarray(u_ref, dtype=float)[:n]
    f_ext = np.asarray(f_ext, dtype=float).reshape(3)

    body = (f_ext.tolist(), params.mass, model.inertia.tolist(), model.inertia_inv.tolist(),
            config.dt)

    u_seq = u_ref if warm_start is None else warm_start
    u_seq = np.clip(u_seq, config.u_min, config.u_max)

    sq = np.sqrt
    w_state = np.concatenate([np.full(3, sq(config.q_pos)), np.full(3, sq(config.q_vel)),
                              np.full(3, sq(config.q_att)), np.full(3, sq(config.q_omega))])
    w_x = np.tile(w_state, (n, 1))   # output weights per stage 1..N
    w_x[-1] *= sq(config.terminal_scale)
    w_in = sq(config.w_input)

    def rollout(useq):
        """States x_0..x_N, and the RK stage points of each step."""
        xs = [x_now.tolist()]
        stages = []
        for u in useq.tolist():
            xs.append(rigid_body_step(xs[-1], u[0], u[1:], *body, stages))
        return np.array(xs), stages

    def residuals(xs, useq):
        """Weighted residual vector, and the attitude error maps at xs."""
        e_mats = _quat_error_matrices(x_ref[1:, 6:10], xs[1:, 6:10])
        r_x = np.concatenate([xs[1:, 0:6] - x_ref[1:, 0:6],
                              (e_mats @ xs[1:, 6:10, None])[:, :, 0],
                              xs[1:, 10:13] - x_ref[1:, 10:13]], axis=1)
        return np.concatenate([(w_x * r_x).ravel(), (w_in * (useq - u_ref)).ravel()]), e_mats

    n_u = 4 * n
    jac = np.zeros((16 * n, n_u))
    jac[12 * n:] = np.diag(np.tile(w_in, n))
    converged = False
    it = 0
    xs, stages = rollout(u_seq)
    res, e_mats = residuals(xs, u_seq)
    cost = float(res @ res)

    for it in range(1, config.max_iters + 1):
        a_mats, b_mats = rk4_jacobians(stages, u_seq[:, 0], params.mass, model.inertia,
                                       model.inertia_inv, config.dt)

        # sensitivities s_k of x_k w.r.t. the stacked inputs; the output rows
        # of all stages are mapped and weighted at once, in place in jac
        jx = jac[:12 * n].reshape(n, 12, n_u)
        s_q = np.empty((n, 4, n_u))
        s_k = np.zeros((13, n_u))
        for k in range(n):
            s_k = a_mats[k] @ s_k
            s_k[:, 4 * k:4 * k + 4] += b_mats[k]
            jx[k, 0:6], s_q[k], jx[k, 9:12] = s_k[0:6], s_k[6:10], s_k[10:13]
        jx[:, 6:9] = e_mats @ s_q
        jx *= w_x[:, :, None]

        lo = np.tile(config.u_min, n) - u_seq.ravel()
        hi = np.tile(config.u_max, n) - u_seq.ravel()
        du, _ = _bounded_lsq(jac, -res, lo, hi)

        # backtracking keeps the iteration monotone
        step = 0.0
        for alpha in (1.0, 0.5, 0.25, 0.125):
            u_try = np.clip(u_seq + alpha * du.reshape(n, 4), config.u_min, config.u_max)
            xs_try, stages_try = rollout(u_try)
            r_try, e_try = residuals(xs_try, u_try)
            c_try = float(r_try @ r_try)
            if c_try <= cost:
                step = alpha
                break
        if step == 0.0:
            converged = True
            break
        step_norm = float(np.max(np.abs(u_try - u_seq)))
        u_seq, stages, res, e_mats, cost = u_try, stages_try, r_try, e_try, c_try
        if step_norm < config.tol:
            converged = True
            break

    if not converged:
        log.debug("horizon solver stopped at its budget of %d iterations (cost %.3e)",
                  config.max_iters, cost)
    return u_seq[0], NmpcInfo(converged=converged, iterations=it, step=step, inputs=u_seq)


def _bounded_lsq(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Least squares with box bounds; unconstrained solve first, falling back
    to the bounded solver only when a bound is hit.  The unconstrained step
    solves the normal equations by Cholesky: a^T a is positive definite
    because the input rows of a add diag(w_input)."""
    x = cho_solve(cho_factor(a.T @ a), a.T @ b)
    if np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12):
        return np.clip(x, lo, hi), True
    res = lsq_linear(a, b, bounds=(lo, hi), method="bvls")
    return res.x, res.success


# ---------------------------------------------------------------------------
# estimation and compensation

def estimate_external_force(mass: float, accel_meas, thrust: float, z_body) -> np.ndarray:
    """World-frame external force from the translational force balance,
    unfiltered."""
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    return mass * np.asarray(accel_meas, dtype=float) - mass * GRAVITY \
        - thrust * np.asarray(z_body, dtype=float)


def indi_torque(torque_cmd, omega, inertia, torque_filtered, omega_dot_filtered) -> np.ndarray:
    """Increment the filtered applied torque by the inertia-scaled angular
    acceleration error."""
    torque_cmd = np.asarray(torque_cmd, dtype=float).reshape(3)
    omega = np.asarray(omega, dtype=float).reshape(3)
    inertia = np.asarray(inertia, dtype=float).reshape(3, 3)
    omega_dot_des = np.linalg.solve(inertia, torque_cmd - np.cross(omega, inertia @ omega))
    return np.asarray(torque_filtered, dtype=float) \
        + inertia @ (omega_dot_des - np.asarray(omega_dot_filtered, dtype=float))


def allocate(thrust_des: float, torque, h_mat, thrust_min: float, thrust_max: float):
    """Invert the allocation; on saturation the torque shrinks uniformly while
    the collective is preserved.  Returns (rotor thrusts, clamped flag)."""
    torque = np.asarray(torque, dtype=float).reshape(3)
    h_mat = np.asarray(h_mat, dtype=float).reshape(4, 4)
    clamped = False
    f = float(thrust_des)
    f_feasible = float(np.clip(f, 4.0 * thrust_min, 4.0 * thrust_max))
    if f_feasible != f:
        clamped = True
        f = f_feasible
    base = np.linalg.solve(h_mat, np.array([f, 0.0, 0.0, 0.0]))
    full = np.linalg.solve(h_mat, np.concatenate([[f], torque]))
    direction = full - base
    scale = 1.0
    for j in range(4):
        d = direction[j]
        if d > 1e-12:
            scale = min(scale, (thrust_max - base[j]) / d)
        elif d < -1e-12:
            scale = min(scale, (thrust_min - base[j]) / d)
    scale = max(scale, 0.0)
    if scale < 1.0:
        clamped = True
    return base + scale * direction, clamped


def servo_command(radius_des: float, theta_est: float, params: VehicleParams,
                  rate_limit: float) -> float:
    """Proportional servo rate toward the angle matching the desired radius."""
    rate = (params.servo_angle_of_radius(radius_des) - theta_est) / params.servo_tau
    return float(np.clip(rate, -rate_limit, rate_limit))


# ---------------------------------------------------------------------------
# differential-flatness reference and the closed-loop harness

def flat_reference(traj, times, params: VehicleParams):
    """Full reference states x_ref (T, 13), inputs u_ref (T, 4) and radii
    (T,) from the flat trajectory at the times (T,), from one trajectory
    sample (yaw fixed to zero); clamps beyond the trajectory end."""
    times = np.clip(np.asarray(times, dtype=float), 0.0, traj.total_time)
    sig = traj.sample(times, orders=(0, 1, 2, 3))
    pos, vel, acc, jerk = sig[:, 0], sig[:, 1], sig[:, 2, :3], sig[:, 3, :3]
    thrust_vec = acc - GRAVITY
    norm = np.linalg.norm(thrust_vec, axis=1, keepdims=True)
    z_b = thrust_vec / norm
    y_b = np.cross(z_b, [1.0, 0.0, 0.0])
    along_x = np.linalg.norm(y_b, axis=1) < 1e-6   # z_b along world x: head by world y
    if along_x.any():
        y_b[along_x] = np.cross(z_b[along_x], [0.0, 1.0, 0.0])
    y_b /= np.linalg.norm(y_b, axis=1, keepdims=True)
    x_b = np.cross(y_b, z_b)
    quat = rot_to_quat(np.stack([x_b, y_b, z_b], axis=-1))
    quat[quat[:, 0] < 0.0] *= -1.0
    f_ref = params.mass * norm
    h_vec = (params.mass / f_ref) * (jerk - np.sum(z_b * jerk, axis=1, keepdims=True) * z_b)
    omega_ref = np.stack([-np.sum(h_vec * y_b, axis=1), np.sum(h_vec * x_b, axis=1),
                          np.zeros(len(sig))], axis=1)
    x_ref = np.concatenate([pos[:, :3], vel[:, :3], quat, omega_ref], axis=1)
    u_ref = np.concatenate([f_ref, np.zeros((len(sig), 3))], axis=1)
    return x_ref, u_ref, pos[:, 3]


@dataclass
class TrackingConfig:
    """Closed-loop harness settings.

    force_compensation passes the low-pass external-force estimate to the
    horizon model; off, the solver plans for zero external force (the
    estimate is still computed and logged).  indi adds the incremental
    torque correction at the simulation rate.
    """

    sim_dt: float = 0.005
    control_dt: float = 0.01
    force_compensation: bool = True
    indi: bool = True
    force_cutoff_hz: float = 5.0
    omega_cutoff_hz: float = 20.0
    servo_rate_limit: float = 6.0
    accel_noise_std: float = 0.0
    duration_pad: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if min(self.sim_dt, self.control_dt, self.force_cutoff_hz, self.omega_cutoff_hz,
               self.servo_rate_limit) <= 0.0:
            raise ValueError("time steps, cutoffs and the servo rate limit must be positive")
        if min(self.accel_noise_std, self.duration_pad) < 0.0:
            raise ValueError("accel_noise_std and duration_pad must be non-negative")
        ticks = round(self.control_dt / self.sim_dt)
        if ticks < 1 or abs(self.control_dt - ticks * self.sim_dt) > 1e-9 * self.control_dt:
            raise ValueError(f"control_dt {self.control_dt} must be a whole number of "
                             f"simulation steps of {self.sim_dt}")


@dataclass(eq=False)
class TrackingResult:
    log: np.ndarray             # (steps, 30): one row per simulator step, TRACKING_LOG_HEADER
    rmse: float
    gn_iterations: np.ndarray   # (ticks,) Gauss-Newton iterations of each control tick
    gn_converged: np.ndarray    # (ticks,) whether the tick's solve met the tolerance
    gn_step: np.ndarray         # (ticks,) step fraction of each tick's last iteration (0: none)

    @property
    def times(self) -> np.ndarray:
        return self.log[:, 0]

    @property
    def positions(self) -> np.ndarray:
        return self.log[:, 4:7]

    @property
    def radii(self) -> np.ndarray:
        return self.log[:, 17]

    @property
    def force_estimates(self) -> np.ndarray:
        return self.log[:, 19:22]


def run_tracking(traj, params: VehicleParams, nmpc: NmpcConfig,
                 config: TrackingConfig, disturbance) -> TrackingResult:
    """Closed-loop tracking of a flat trajectory on the simulator.

    The loop carries the state row x (13 floats [p, v, q, w]), the servo
    angle and the radius it maps to, and builds the radius model at that
    radius once per step for the horizon solve, the allocation and `step`.
    Tick order per control step: force estimate, then the horizon solve with
    that estimate in its model when force compensation is on; torque
    compensation and allocation run at the simulation rate.  Returns the
    log (one `TRACKING_LOG_HEADER` row per step, taken before the step),
    the position RMSE over the run, and each tick's Gauss-Newton iteration
    count, converged flag and accepted step fraction.
    """
    if traj.total_time <= 0.0:
        raise ValueError("trajectory must have positive duration")
    rng = np.random.default_rng(config.seed)
    n_steps = int(np.ceil((traj.total_time + config.duration_pad) / config.sim_dt))
    ticks_per_control = round(config.control_dt / config.sim_dt)
    # the references of every step and the horizons of every tick, from two
    # batched calls; a reference does not depend on the batch it is sampled in
    step_times = np.arange(n_steps) * config.sim_dt
    ref_states, _, ref_radii = flat_reference(traj, step_times, params)
    tick_times = step_times[::ticks_per_control]
    horizon_x, horizon_u, _ = flat_reference(
        traj, (tick_times[:, None] + np.arange(nmpc.horizon + 1) * nmpc.dt).ravel(), params)
    horizon_x = horizon_x.reshape(len(tick_times), nmpc.horizon + 1, 13)
    horizon_u = horizon_u.reshape(len(tick_times), nmpc.horizon + 1, 4)

    x, radius = ref_states[0].tolist(), float(ref_radii[0])
    theta = params.servo_angle_of_radius(radius)

    force_lp = LowPassFilter(config.force_cutoff_hz, config.control_dt, 3)
    omega_lp = SecondOrderLowPass(config.omega_cutoff_hz, config.sim_dt, 3)
    thrust_lp = SecondOrderLowPass(config.omega_cutoff_hz, config.sim_dt, 4)

    warm = None
    f_ext_est = np.zeros(3)
    last_thrusts = np.full(4, params.hover_thrust / 4.0)
    omega_prev = np.array(x[10:13])

    gn_iterations = np.zeros(len(tick_times), dtype=int)
    gn_converged = np.zeros(len(tick_times), dtype=bool)
    gn_step = np.zeros(len(tick_times))
    rows = []

    for k in range(n_steps):
        t = k * config.sim_dt
        wrench = disturbance(t) if disturbance is not None else None
        model = radius_model(params, radius)

        if k % ticks_per_control == 0:   # step 0 is a tick, so u_cmd is set before its use
            tick = k // ticks_per_control
            z_b = quat_to_rot(x[6:10])[:, 2]
            accel = (np.sum(last_thrusts) * z_b
                     + (wrench.force if wrench is not None else 0.0)) / params.mass + GRAVITY
            if config.accel_noise_std > 0.0:
                accel = accel + rng.normal(scale=config.accel_noise_std, size=3)
            f_ext_est = force_lp.update(estimate_external_force(
                params.mass, accel, float(np.sum(last_thrusts)), z_b))
            u_cmd, info = nmpc_solve(x, horizon_x[tick], horizon_u[tick], nmpc, params, model,
                                     warm_start=warm,
                                     f_ext=f_ext_est if config.force_compensation else np.zeros(3))
            warm = info.inputs
            gn_iterations[tick], gn_converged[tick], gn_step[tick] = \
                info.iterations, info.converged, info.step

        omega = np.array(x[10:13])
        omega_dot_f = omega_lp.update((omega - omega_prev) / config.sim_dt)
        omega_prev = omega
        tau_f = model.allocation[1:] @ thrust_lp.update(last_thrusts)

        if config.indi:
            tau_cmd = indi_torque(u_cmd[1:], omega, model.inertia, tau_f, omega_dot_f)
        else:
            tau_cmd = u_cmd[1:]

        thrusts, _ = allocate(u_cmd[0], tau_cmd, model.allocation, params.thrust_min,
                              params.thrust_max)
        kappa = servo_command(ref_radii[k], theta, params, config.servo_rate_limit)
        rows.append([t, *ref_states[k, 0:3], *x, radius, theta, *f_ext_est, u_cmd[0],
                     *tau_cmd, *thrusts])

        x, theta = step(x, theta, thrusts, kappa, wrench, params, config.sim_dt, model=model)
        radius = params.radius_of_servo_angle(theta)
        last_thrusts = thrusts

    log = np.array(rows)
    # summed in step order (np.sum's pairwise order would move the last bits)
    sq_err = sum(float(e @ e) for e in log[:, 4:7] - log[:, 1:4])
    return TrackingResult(log=log, rmse=float(np.sqrt(sq_err / n_steps)),
                          gn_iterations=gn_iterations, gn_converged=gn_converged,
                          gn_step=gn_step)


TRACKING_LOG_HEADER = (
    "t,ref_x,ref_y,ref_z,x,y,z,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,r,theta,"
    "fext_x,fext_y,fext_z,f_des,tau_x,tau_y,tau_z,t1,t2,t3,t4"
)


def write_tracking_csv(result: TrackingResult, path) -> None:
    write_numeric_csv(path, result.log, TRACKING_LOG_HEADER)
