"""6-DoF rigid-body model of the morphing quadrotor, shared by the
simulator and the horizon solver.

The vehicle, `VehicleParams`, is four rotors on arms that scale with the
deformation radius over its body's range, plus a central body of the body's
height; it also holds the power model's coefficients.  Collective thrust
and body torque follow from the radius-dependent allocation matrix;
`radius_model` builds it with the inertia and its inverse once per radius,
and the caller of `step` and of `controller.nmpc_solve` passes that model
in.  `rigid_body_rates` and `rigid_body_step` (RK4 with quaternion
renormalisation) are the one rigid-body model: they are written once over
the 13 state components [p, v, q, w] with explicit cross and quaternion
products, and run either on Python floats (one state) or on numpy rows of
one shape (a batch).  The simulated state is the same 13 components as
one list of floats, the state row, and nothing more: `step`, the
simulator, steps the row and integrates the servo angle beside it; its
caller carries the angle and the radius it maps to affinely, and builds the
radius model at that radius.  `controller.nmpc_solve` calls them on floats
for its rollouts, recording each step's RK stage points, from which
`rk4_jacobians` chains the exact one-step sensitivities.  The row path is
the tests' finite-difference oracle for those sensitivities.

`LowPassFilter` is the one first-order low-pass: the band-limited noise
disturbance is filtered by it, and the tracking loop's estimates by it and
by `SecondOrderLowPass`, its two-section cascade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field

import numpy as np

from .esdf import BodyGeometry
from .fields import check_field_types
from .trajectory import fixed_rate_times

GRAVITY = np.array([0.0, 0.0, -9.81])
_GRAVITY = tuple(GRAVITY.tolist())  # as Python floats, for the float path
SPIN_DIRS = (1.0, 1.0, -1.0, -1.0)  # rotor spin directions, in motor order


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix, or of each of a stack (..., 3, 3).

    Entries of the symmetric 4 q q^T are linear in r.  Its row 0 (when the
    trace is positive) or the row of the largest diagonal entry of r is
    proportional to q, with no division by a small number; that component
    of q comes out positive.
    """
    r = np.asarray(r, dtype=float)
    r00, r01, r02 = r[..., 0, 0], r[..., 0, 1], r[..., 0, 2]
    r10, r11, r12 = r[..., 1, 0], r[..., 1, 1], r[..., 1, 2]
    r20, r21, r22 = r[..., 2, 0], r[..., 2, 1], r[..., 2, 2]
    col = np.where(r00 + r11 + r22 > 0.0, 0, 1 + np.argmax(np.diagonal(r, 0, -2, -1), axis=-1))
    k = np.stack([
        1.0 + r00 + r11 + r22, r21 - r12, r02 - r20, r10 - r01,
        r21 - r12, 1.0 + r00 - r11 - r22, r10 + r01, r02 + r20,
        r02 - r20, r10 + r01, 1.0 - r00 + r11 - r22, r21 + r12,
        r10 - r01, r02 + r20, r21 + r12, 1.0 - r00 - r11 + r22,
    ], axis=-1).reshape(-1, 4, 4)
    q = k[np.arange(len(k)), col.reshape(-1)].reshape(r.shape[:-2] + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


@dataclass(eq=False)
class Wrench:
    force: np.ndarray = _field(default_factory=lambda: np.zeros(3))   # world frame [N]
    torque: np.ndarray = _field(default_factory=lambda: np.zeros(3))  # body frame [N m]

    def __post_init__(self):
        self.force = np.asarray(self.force, dtype=float).reshape(3)
        self.torque = np.asarray(self.torque, dtype=float).reshape(3)
        if not (np.all(np.isfinite(self.force)) and np.all(np.isfinite(self.torque))):
            raise ValueError("wrench components must be finite")


@dataclass
class VehicleParams:
    """The one description of the vehicle for tracking and energy; `body`
    alone gives its radius range and its central body's height."""

    body: BodyGeometry
    mass: float = 1.0
    central_mass_fraction: float = 0.6
    central_radius: float = 0.06
    thrust_coeff: float = 1.0e-5   # rotor speed^2 -> thrust
    torque_coeff: float = 1.6e-7   # rotor speed^2 -> drag torque (ratio 0.016 m)
    thrust_min: float = 0.0
    thrust_max: float = 8.0
    servo_tau: float = 0.1  # first-order servo time constant [s]
    energy_c1: float = 1.0  # `power`'s thrust term
    energy_c2: float = 1.0  # `power`'s shrink term

    def __post_init__(self):
        check_field_types(self)
        if self.mass <= 0.0 or self.thrust_coeff <= 0.0 or self.torque_coeff <= 0.0:
            raise ValueError("mass and rotor coefficients must be positive")
        if not (self.thrust_min >= 0.0 < self.thrust_max):
            raise ValueError("invalid thrust limits")
        if not self.servo_tau > 0.0:
            raise ValueError("servo_tau must be positive")

    def motor_positions(self, r: float) -> np.ndarray:
        """X layout: arms scale linearly with the deformation radius."""
        d = r / np.sqrt(2.0)
        return np.array([[d, d, 0.0], [-d, -d, 0.0], [d, -d, 0.0], [-d, d, 0.0]])

    def servo_angle_of_radius(self, r: float) -> float:
        """Affine map [r_min, r_max] of the body -> [0, pi]."""
        return np.pi * (r - self.body.r_min) / (self.body.r_max - self.body.r_min)

    def radius_of_servo_angle(self, theta: float) -> float:
        r = self.body.r_min + (self.body.r_max - self.body.r_min) * theta / np.pi
        return float(np.clip(r, self.body.r_min, self.body.r_max))

    @property
    def hover_thrust(self) -> float:
        return self.mass * 9.81


def allocation_matrix(params: VehicleParams, r: float) -> np.ndarray:
    """Rows map per-rotor thrusts to (collective force, body torque)."""
    if not (params.body.r_min <= r <= params.body.r_max):
        raise ValueError(f"radius {r} outside [{params.body.r_min}, {params.body.r_max}]")
    pos = params.motor_positions(r)
    c = params.torque_coeff / params.thrust_coeff
    h = np.empty((4, 4))
    h[0] = 1.0
    h[1] = pos[:, 1]    # thrust along +z: torque_x = +l_y * t
    h[2] = -pos[:, 0]   # torque_y = -l_x * t
    h[3] = np.asarray(SPIN_DIRS) * c
    return h


def inertia_of(params: VehicleParams, r: float) -> np.ndarray:
    """Central solid cylinder plus four arm point masses at the motors."""
    m_c = params.central_mass_fraction * params.mass
    rc, hgt = params.central_radius, params.body.height
    j = np.diag([
        m_c * (3 * rc * rc + hgt * hgt) / 12.0,
        m_c * (3 * rc * rc + hgt * hgt) / 12.0,
        m_c * rc * rc / 2.0,
    ])
    m_arm = (params.mass - m_c) / 4.0
    for l in params.motor_positions(r):
        j += m_arm * (np.dot(l, l) * np.eye(3) - np.outer(l, l))
    return j


@dataclass(frozen=True, eq=False)
class RadiusModel:
    """The radius-dependent parts of the model at one radius."""

    allocation: np.ndarray   # `allocation_matrix`
    inertia: np.ndarray      # `inertia_of`
    inertia_inv: np.ndarray


def radius_model(params: VehicleParams, r: float) -> RadiusModel:
    inertia = inertia_of(params, r)
    return RadiusModel(allocation=allocation_matrix(params, r), inertia=inertia,
                       inertia_inv=np.linalg.inv(inertia))


def rigid_body_rates(x, thrust, torque, force, mass, inertia, inertia_inv) -> list:
    """Time derivative of the state [p(3), v(3), q(4), w(3)] as 13 components.

    x holds 13 Python floats (one state) or 13 numpy rows of one shape (a
    batch); thrust is the collective along body z, torque the 3 body-frame
    components, force the 3 world-frame external components, each a float
    or a row.  inertia and inertia_inv are 3x3 nested float lists.  The
    thrust direction is the third column of the rotation of q as given.
    """
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = x
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = inertia
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = inertia_inv
    zx = 2 * (qx * qz + qw * qy)
    zy = 2 * (qy * qz - qw * qx)
    zz = 1 - 2 * (qx * qx + qy * qy)
    # w x (J w), subtracted from the torque
    jx = j00 * wx + j01 * wy + j02 * wz
    jy = j10 * wx + j11 * wy + j12 * wz
    jz = j20 * wx + j21 * wy + j22 * wz
    tx = torque[0] - (wy * jz - wz * jy)
    ty = torque[1] - (wz * jx - wx * jz)
    tz = torque[2] - (wx * jy - wy * jx)
    return [
        vx, vy, vz,
        (thrust * zx + force[0]) / mass + _GRAVITY[0],
        (thrust * zy + force[1]) / mass + _GRAVITY[1],
        (thrust * zz + force[2]) / mass + _GRAVITY[2],
        0.5 * (-qx * wx - qy * wy - qz * wz),   # q * (0, w) / 2
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        i00 * tx + i01 * ty + i02 * tz,
        i10 * tx + i11 * ty + i12 * tz,
        i20 * tx + i21 * ty + i22 * tz,
    ]


def rigid_body_step(x, thrust, torque, force, mass, inertia, inertia_inv, dt: float,
                    stages: list | None = None) -> list:
    """One RK4 step of `rigid_body_rates` with the inputs held, the
    quaternion renormalised at the end; same argument forms.  When `stages`
    is a list, the step appends its stage points (x, y2, y3, y4) and its
    quaternion before renormalisation, as `rk4_jacobians` takes them."""
    def f(y):
        return rigid_body_rates(y, thrust, torque, force, mass, inertia, inertia_inv)

    h = 0.5 * dt
    k1 = f(x)
    y2 = [a + h * b for a, b in zip(x, k1)]
    k2 = f(y2)
    y3 = [a + h * b for a, b in zip(x, k2)]
    k3 = f(y3)
    y4 = [a + dt * b for a, b in zip(x, k3)]
    k4 = f(y4)
    c = dt / 6.0
    out = [a + c * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    qw, qx, qy, qz = out[6:10]
    if stages is not None:
        stages.append((x, y2, y3, y4, out[6:10]))
    norm = (math.sqrt if isinstance(qw, float) else np.sqrt)(qw * qw + qx * qx + qy * qy + qz * qz)
    out[6:10] = qw / norm, qx / norm, qy / norm, qz / norm
    return out


def _rate_jacobians(y: np.ndarray, thrust: np.ndarray, mass: float, inertia: np.ndarray,
                    inertia_inv: np.ndarray) -> np.ndarray:
    """Partials of `rigid_body_rates` at the points y (..., 13) with the
    collectives thrust (broadcast against y[..., 0]): (..., 13, 17), the
    columns [x (13), thrust, torque (3)].  The external force enters
    additively and has no partial."""
    qw, qx, qy, qz = (y[..., i] for i in range(6, 10))
    w = y[..., 10:13]
    wx, wy, wz = w[..., 0], w[..., 1], w[..., 2]
    zero = np.zeros_like(qw)
    d = np.zeros(y.shape[:-1] + (13, 17))
    d[..., 0:3, 3:6] = np.eye(3)
    # thrust * dz/dq, z the third column of the rotation of q
    dz = 2.0 * np.stack([qy, qz, qw, qx, -qx, -qw, qz, qy, zero, -2.0 * qx, -2.0 * qy, zero],
                        axis=-1).reshape(y.shape[:-1] + (3, 4))
    d[..., 3:6, 6:10] = (thrust / mass)[..., None, None] * dz
    d[..., 3:6, 13] = np.stack([2.0 * (qx * qz + qw * qy), 2.0 * (qy * qz - qw * qx),
                                1.0 - 2.0 * (qx * qx + qy * qy)], axis=-1) / mass
    # q' = Omega(w) q / 2 = Xi(q) w / 2
    d[..., 6:10, 6:10] = 0.5 * np.stack([zero, -wx, -wy, -wz, wx, zero, wz, -wy,
                                         wy, -wz, zero, wx, wz, wy, -wx, zero],
                                        axis=-1).reshape(y.shape[:-1] + (4, 4))
    d[..., 6:10, 10:13] = 0.5 * np.stack([-qx, -qy, -qz, qw, -qz, qy, qz, qw, -qx, -qy, qx, qw],
                                         axis=-1).reshape(y.shape[:-1] + (4, 3))
    # w' = J^-1 (tau - w x J w): d/dw = -J^-1 ([w]x J - [J w]x), d/dtau = J^-1
    d[..., 10:13, 10:13] = -inertia_inv @ (_skew(w) @ inertia - _skew(w @ inertia.T))
    d[..., 10:13, 14:17] = inertia_inv
    return d


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x of vectors v (..., 3): (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(v.shape + (3,))


def rk4_jacobians(stages: list, thrust, mass: float, inertia, inertia_inv,
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact sensitivities of N `rigid_body_step` calls from the stage
    points they recorded: A (N, 13, 13) = d x_next / d x and B (N, 13, 4) =
    d x_next / d [thrust, torque], with thrust (N,) the collectives of the
    steps and the other arguments as the steps took them (any array form).

    The partials of `rigid_body_rates` at all 4N stage points are chained
    through the four RK stages and the quaternion renormalisation in one
    batch over the steps."""
    inertia = np.asarray(inertia, dtype=float)
    inertia_inv = np.asarray(inertia_inv, dtype=float)
    points = np.array([s[:4] for s in stages], dtype=float)   # (N, 4, 13)
    q_raw = np.array([s[4] for s in stages], dtype=float)     # (N, 4)
    thrust = np.asarray(thrust, dtype=float).reshape(-1, 1)   # held over the 4 stages
    d = _rate_jacobians(points, thrust, mass, inertia, inertia_inv)
    f = d[..., :13]
    g = np.zeros_like(d)
    g[..., 13:] = d[..., 13:]
    seed = np.eye(13, 17)   # d [x] / d [x, u] at the start of the step
    k1 = d[:, 0]
    k2 = f[:, 1] @ (seed + 0.5 * dt * k1) + g[:, 1]
    k3 = f[:, 2] @ (seed + 0.5 * dt * k2) + g[:, 2]
    k4 = f[:, 3] @ (seed + dt * k3) + g[:, 3]
    out = seed + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # q / |q|: d/dq = (I - q_n q_n^T) / |q|
    norm = np.linalg.norm(q_raw, axis=1)
    q_n = q_raw / norm[:, None]
    proj = (np.eye(4) - q_n[:, :, None] * q_n[:, None, :]) / norm[:, None, None]
    out[:, 6:10] = proj @ out[:, 6:10]
    return out[:, :, :13], out[:, :, 13:]


def step(x, servo_angle: float, thrusts, servo_rate: float, disturbance: Wrench | None,
         params: VehicleParams, dt: float, model: RadiusModel) -> tuple[list, float]:
    """One RK4 step of the state row x, 13 floats [p, v, q, w], and the
    servo angle under constant rotor thrusts and servo rate; returns the
    next row and angle.

    Thrusts outside the rotor limits are clamped, and the quaternion is
    renormalised before the step.  The radius, allocation and inertia are
    held at their start-of-step values, those of `model`: the caller carries
    the radius, `params.radius_of_servo_angle` of the angle, and builds the
    model at it.  The servo angle integrates the commanded rate.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    thrusts = np.asarray(thrusts, dtype=float).reshape(4)
    if not np.all(np.isfinite(thrusts)) or not np.isfinite(servo_rate):
        raise ValueError("non-finite control input")
    clamped = np.clip(thrusts, params.thrust_min, params.thrust_max)
    general = model.allocation @ clamped
    torque = general[1:]
    force = (0.0, 0.0, 0.0)
    if disturbance is not None:
        force = disturbance.force.tolist()
        torque = torque + disturbance.torque
    x = np.asarray(x, dtype=float).reshape(13)
    x = np.concatenate([x[0:6], x[6:10] / np.linalg.norm(x[6:10]), x[10:13]]).tolist()
    x_next = rigid_body_step(x, float(general[0]), torque.tolist(), force, params.mass,
                             model.inertia.tolist(), model.inertia_inv.tolist(), dt)
    return x_next, float(np.clip(servo_angle + servo_rate * dt, 0.0, np.pi))


def power(thrust, radius, params: VehicleParams):
    """Instantaneous power model, energy_c1 F^1.5 + energy_c2 ((r - r_max) / r_max)^2
    with the vehicle's coefficients and body; elementwise on arrays."""
    if np.any(np.asarray(thrust) < 0.0):
        raise ValueError("thrust must be non-negative")
    shrink = (radius - params.body.r_max) / params.body.r_max
    return params.energy_c1 * thrust**1.5 + params.energy_c2 * shrink**2


def trajectory_energy(traj, params: VehicleParams) -> float:
    """Model energy of a flat trajectory: Simpson integral of `power` over the
    export's sample grid, `fixed_rate_times` at `EXPORT_HZ`, with thrust from
    differential flatness."""
    from scipy.integrate import simpson

    times = fixed_rate_times(traj.total_time)
    data = traj.sample(times, orders=(0, 2))
    thrust = params.mass * np.linalg.norm(data[:, 1, :3] - GRAVITY, axis=1)
    return float(simpson(power(thrust, data[:, 0, 3], params), x=times))


def constant_wrench(force, torque):
    w = Wrench(force=np.asarray(force, dtype=float), torque=np.asarray(torque, dtype=float))
    return lambda t: w


def ramp_wrench(force, torque, t_ramp: float):
    force = np.asarray(force, dtype=float)
    torque = np.asarray(torque, dtype=float)

    def profile(t):
        a = min(max(t / t_ramp, 0.0), 1.0) if t_ramp > 0 else 1.0
        return Wrench(force=a * force, torque=a * torque)

    return profile


class LowPassFilter:
    """First-order discrete low-pass; state starts at zero."""

    def __init__(self, cutoff_hz: float, dt: float, dim: int):
        self.alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz * dt)
        self.value = np.zeros(dim)

    def update(self, x) -> np.ndarray:
        self.value = self.value + self.alpha * (np.asarray(x, dtype=float) - self.value)
        return self.value.copy()


class SecondOrderLowPass:
    """Two cascaded first-order sections."""

    def __init__(self, cutoff_hz: float, dt: float, dim: int):
        self.a = LowPassFilter(cutoff_hz, dt, dim)
        self.b = LowPassFilter(cutoff_hz, dt, dim)

    def update(self, x) -> np.ndarray:
        return self.b.update(self.a.update(x))


def noise_wrench(force_std, torque_std, cutoff_hz: float, dt: float,
                 duration: float, seed: int):
    """Band-limited noise: white gaussian per step, through a `LowPassFilter`
    that starts at zero.  Pre-generated on a fixed grid so runs are
    reproducible.  A cutoff <= 0, which filters nothing, or a negative std
    raises ValueError."""
    if not cutoff_hz > 0.0 or min(np.min(force_std), np.min(torque_std)) < 0.0:
        raise ValueError("noise needs a positive cutoff_hz and non-negative standard deviations")
    rng = np.random.default_rng(seed)
    n = int(np.ceil(duration / dt)) + 2
    raw = np.hstack([rng.normal(scale=force_std, size=(n, 3)),
                     rng.normal(scale=torque_std, size=(n, 3))])
    lp = LowPassFilter(cutoff_hz, dt, 6)
    filtered = np.zeros((n, 6))
    for k in range(1, n):
        filtered[k] = lp.update(raw[k])

    def profile(t):
        k = min(int(t / dt), n - 1)
        return Wrench(force=filtered[k, :3], torque=filtered[k, 3:])

    return profile
