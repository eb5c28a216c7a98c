"""6-DoF rigid-body model of the morphing quadrotor, shared by the
simulator and the horizon solver.

The vehicle is four rotors on arms that scale with the deformation radius,
plus a central body.  Collective thrust and body torque follow from the
radius-dependent allocation matrix.  `rigid_body_rates` and
`rigid_body_step` (RK4 with quaternion renormalisation) are the one
rigid-body model: they are written once over the 13 state components
[p, v, q, w] with explicit cross and quaternion products, and run either on
Python floats (one state) or on numpy rows of one shape (a batch).  `step`,
the simulator, calls them on floats and also integrates the servo angle,
which maps affinely back to the radius; `controller.nmpc_solve` calls them
on floats for its rollouts and on rows for its finite-difference
linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field

import numpy as np

from .trajectory import fixed_rate_times

GRAVITY = np.array([0.0, 0.0, -9.81])
_GRAVITY = tuple(GRAVITY.tolist())  # as Python floats, for the float path


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    qv = np.array([0.0, *v])
    return quat_mul(quat_mul(q, qv), quat_conj(q))[1:]


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


@dataclass(eq=False)
class RigidBodyState:
    position: np.ndarray
    velocity: np.ndarray
    quaternion: np.ndarray  # (w, x, y, z), world from body
    omega: np.ndarray       # body frame [rad/s]
    radius: float
    servo_angle: float

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        self.quaternion = np.asarray(self.quaternion, dtype=float).reshape(4)
        self.omega = np.asarray(self.omega, dtype=float).reshape(3)

    def copy(self) -> "RigidBodyState":
        return RigidBodyState(self.position.copy(), self.velocity.copy(),
                              self.quaternion.copy(), self.omega.copy(),
                              self.radius, self.servo_angle)

    @property
    def z_body(self) -> np.ndarray:
        return quat_to_rot(self.quaternion)[:, 2]


@dataclass
class VehicleParams:
    mass: float = 1.0
    central_mass_fraction: float = 0.6
    central_radius: float = 0.06
    height: float = 0.12
    thrust_coeff: float = 1.0e-5   # rotor speed^2 -> thrust
    torque_coeff: float = 1.6e-7   # rotor speed^2 -> drag torque (ratio 0.016 m)
    spin_dirs: tuple = (1.0, 1.0, -1.0, -1.0)
    r_min: float = 0.131
    r_max: float = 0.211
    thrust_min: float = 0.0
    thrust_max: float = 8.0
    servo_tau: float = 0.1  # first-order servo time constant [s]

    def __post_init__(self):
        if self.mass <= 0.0 or self.thrust_coeff <= 0.0 or self.torque_coeff <= 0.0:
            raise ValueError("mass and rotor coefficients must be positive")
        if not (self.thrust_min >= 0.0 < self.thrust_max):
            raise ValueError("invalid thrust limits")

    def motor_positions(self, r: float) -> np.ndarray:
        """X layout: arms scale linearly with the deformation radius."""
        d = r / np.sqrt(2.0)
        return np.array([[d, d, 0.0], [-d, -d, 0.0], [d, -d, 0.0], [-d, d, 0.0]])

    def servo_angle_of_radius(self, r: float) -> float:
        """Affine map [r_min, r_max] -> [0, pi]."""
        return np.pi * (r - self.r_min) / (self.r_max - self.r_min)

    def radius_of_servo_angle(self, theta: float) -> float:
        r = self.r_min + (self.r_max - self.r_min) * theta / np.pi
        return float(np.clip(r, self.r_min, self.r_max))

    @property
    def hover_thrust(self) -> float:
        return self.mass * 9.81


def allocation_matrix(params: VehicleParams, r: float) -> np.ndarray:
    """Rows map per-rotor thrusts to (collective force, body torque)."""
    if not (params.r_min <= r <= params.r_max):
        raise ValueError(f"radius {r} outside [{params.r_min}, {params.r_max}]")
    pos = params.motor_positions(r)
    c = params.torque_coeff / params.thrust_coeff
    h = np.empty((4, 4))
    h[0] = 1.0
    h[1] = pos[:, 1]    # thrust along +z: torque_x = +l_y * t
    h[2] = -pos[:, 0]   # torque_y = -l_x * t
    h[3] = np.asarray(params.spin_dirs, dtype=float) * c
    return h


def inertia_of(params: VehicleParams, r: float) -> np.ndarray:
    """Central solid cylinder plus four arm point masses at the motors."""
    m_c = params.central_mass_fraction * params.mass
    rc, hgt = params.central_radius, params.height
    j = np.diag([
        m_c * (3 * rc * rc + hgt * hgt) / 12.0,
        m_c * (3 * rc * rc + hgt * hgt) / 12.0,
        m_c * rc * rc / 2.0,
    ])
    m_arm = (params.mass - m_c) / 4.0
    for l in params.motor_positions(r):
        j += m_arm * (np.dot(l, l) * np.eye(3) - np.outer(l, l))
    return j


def arm_inertia(params: VehicleParams, r: float) -> np.ndarray:
    """Point-mass arm contribution alone (diagnostics and tests)."""
    m_arm = (params.mass - params.central_mass_fraction * params.mass) / 4.0
    j = np.zeros((3, 3))
    for l in params.motor_positions(r):
        j += m_arm * (np.dot(l, l) * np.eye(3) - np.outer(l, l))
    return j


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


def rigid_body_step(x, thrust, torque, force, mass, inertia, inertia_inv, dt: float) -> list:
    """One RK4 step of `rigid_body_rates` with the inputs held, the
    quaternion renormalised at the end; same argument forms."""
    def f(y):
        return rigid_body_rates(y, thrust, torque, force, mass, inertia, inertia_inv)

    h = 0.5 * dt
    k1 = f(x)
    k2 = f([a + h * b for a, b in zip(x, k1)])
    k3 = f([a + h * b for a, b in zip(x, k2)])
    k4 = f([a + dt * b for a, b in zip(x, k3)])
    c = dt / 6.0
    out = [a + c * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    qw, qx, qy, qz = out[6:10]
    norm = (math.sqrt if isinstance(qw, float) else np.sqrt)(qw * qw + qx * qx + qy * qy + qz * qz)
    out[6:10] = qw / norm, qx / norm, qy / norm, qz / norm
    return out


def step(state: RigidBodyState, thrusts, servo_rate: float, disturbance: Wrench | None,
         params: VehicleParams, dt: float, info: dict | None = None) -> RigidBodyState:
    """One RK4 step under constant rotor thrusts and servo rate.

    Thrusts outside the rotor limits are clamped (flagged via info, when
    given).  The radius, allocation and inertia are held at their
    start-of-step values; the servo angle integrates the commanded rate and
    the radius follows the servo map.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    thrusts = np.asarray(thrusts, dtype=float).reshape(4)
    if not np.all(np.isfinite(thrusts)) or not np.isfinite(servo_rate):
        raise ValueError("non-finite control input")
    clamped = np.clip(thrusts, params.thrust_min, params.thrust_max)
    if info is not None:
        info["thrust_clamped"] = bool(np.any(clamped != thrusts))

    general = allocation_matrix(params, state.radius) @ clamped
    torque = general[1:]
    force = (0.0, 0.0, 0.0)
    if disturbance is not None:
        force = disturbance.force.tolist()
        torque = torque + disturbance.torque
    inertia = inertia_of(params, state.radius)
    q = state.quaternion / np.linalg.norm(state.quaternion)
    x = np.concatenate([state.position, state.velocity, q, state.omega]).tolist()
    x_new = rigid_body_step(x, float(general[0]), torque.tolist(), force, params.mass,
                            inertia.tolist(), np.linalg.inv(inertia).tolist(), dt)
    theta = float(np.clip(state.servo_angle + servo_rate * dt, 0.0, np.pi))
    return RigidBodyState(
        position=x_new[0:3], velocity=x_new[3:6], quaternion=x_new[6:10],
        omega=x_new[10:13], radius=params.radius_of_servo_angle(theta),
        servo_angle=theta,
    )


def power(thrust, radius, params: VehicleParams, c1: float = 1.0, c2: float = 1.0):
    """Instantaneous power model: c1 * F^1.5 plus a shrink penalty term;
    elementwise on arrays of thrusts and radii."""
    if np.any(np.asarray(thrust) < 0.0):
        raise ValueError("thrust must be non-negative")
    shrink = (radius - params.r_max) / params.r_max
    return c1 * thrust**1.5 + c2 * shrink**2


def trajectory_energy(traj, params: VehicleParams, hz: float = 100.0, **coeffs) -> float:
    """Model energy of a flat trajectory: Simpson integral of the power (with
    `power`'s coefficients c1, c2) over the export's fixed-rate sample grid,
    with thrust from differential flatness."""
    from scipy.integrate import simpson

    times = fixed_rate_times(traj.total_time, hz)
    data = traj.sample(times, orders=(0, 2))
    thrust = params.mass * np.linalg.norm(data[:, 1, :3] - GRAVITY, axis=1)
    return float(simpson(power(thrust, data[:, 0, 3], params, **coeffs), x=times))


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


def noise_wrench(force_std, torque_std, cutoff_hz: float, dt: float,
                 duration: float, seed: int = 0):
    """Band-limited noise: white gaussian per step, first-order low-passed.
    Pre-generated on a fixed grid so runs are reproducible."""
    rng = np.random.default_rng(seed)
    n = int(np.ceil(duration / dt)) + 2
    alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz * dt)
    raw_f = rng.normal(scale=force_std, size=(n, 3))
    raw_t = rng.normal(scale=torque_std, size=(n, 3))
    f = np.zeros((n, 3))
    tq = np.zeros((n, 3))
    for k in range(1, n):
        f[k] = f[k - 1] + alpha * (raw_f[k] - f[k - 1])
        tq[k] = tq[k - 1] + alpha * (raw_t[k] - tq[k - 1])

    def profile(t):
        k = min(int(t / dt), n - 1)
        return Wrench(force=f[k], torque=tq[k])

    return profile
