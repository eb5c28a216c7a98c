import math

import numpy as np
import pytest

from morphplan.dynamics import VehicleParams
from morphplan.esdf import BodyGeometry
from morphplan.trajectory import fit_min_jerk


def poly_basis(t, order: int) -> np.ndarray:
    """Basis row(s) of the order-th derivative of [1, t, ..., t^5] at time t,
    entry k being k!/(k - order)! * t ** (k - order): the per-order formula
    that `trajectory.basis_rows` batches, kept as its reference."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (6,))
    for k in range(order, 6):
        out[..., k] = float(math.perm(k, order)) * t ** (k - order)
    return out


def jerk_energy_matrix(t) -> np.ndarray:
    """Gram matrix Q with c^T Q c = integral of the squared third derivative
    of c^T beta over [0, t], entry by entry on numpy scalars: the closed form
    that `trajectory.jerk_energy_matrices` batches, kept as its reference."""
    t = np.float64(t)
    q = np.zeros((6, 6))
    for a in range(3, 6):
        for b in range(3, 6):
            power = a + b - 5
            q[a, b] = np.float64(math.perm(a, 3)) * np.float64(math.perm(b, 3)) * t**power / power
    return q


def vehicle_params(**fields):
    """VehicleParams on the shipped scenarios' body: 0.12 m high, radius
    range [0.131, 0.211] m."""
    return VehicleParams(body=BodyGeometry(height=0.12), **fields)


def plan_rows(position, radius, velocity=(0.0, 0.0, 0.0), radius_rate=0.0):
    """Planning states as the search's rows [p, r, v, v_r]: (8,) for one
    position (3,), (K, 8) for positions (K, 3); the other arguments
    broadcast against the positions."""
    position = np.asarray(position, dtype=float)
    lead = position.shape[:-1]
    return np.concatenate([position, np.broadcast_to(radius, lead)[..., None],
                           np.broadcast_to(velocity, (*lead, 3)),
                           np.broadcast_to(radius_rate, lead)[..., None]], axis=-1)


def figure_eight(peak_speed=1.5, ax=1.2, ay=0.6, height=1.0, radius=0.211, laps=1):
    """Smooth figure-eight reference built from lemniscate waypoints, with the
    durations scaled so the peak speed matches the request."""
    n_seg = 8 * laps
    ts = np.arange(n_seg + 1) / n_seg * 2.0 * np.pi * laps
    wps = np.stack([
        ax * np.sin(ts),
        ay * np.sin(2.0 * ts),
        np.full_like(ts, height),
        np.full_like(ts, radius),
    ], axis=1)
    b0 = np.zeros((3, 4))
    b0[0] = wps[0]
    b1 = np.zeros((3, 4))
    b1[0] = wps[-1]
    durations = np.full(n_seg, 1.0)
    traj = fit_min_jerk(wps[1:-1], durations, b0, b1)
    times = np.linspace(0, traj.total_time, 600)
    speeds = np.linalg.norm(traj.sample(times, orders=(1,))[:, 0, :3], axis=1)
    scale = speeds.max() / peak_speed
    return fit_min_jerk(wps[1:-1], durations * scale, b0, b1)


@pytest.fixture(scope="session")
def fig8_traj():
    return figure_eight()
