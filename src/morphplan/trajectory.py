"""Piecewise degree-5 polynomial trajectories over the 4-D flat output
(x, y, z, r), and the minimum-jerk construction that maps interior
waypoints plus per-piece durations to coefficients.

The construction solves one banded linear system per channel: boundary
value/velocity/acceleration rows, a waypoint row per interior junction and
derivative-continuity rows up to order 4 (the minimum-jerk class is C^4 at
junctions, which comfortably covers the required C^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

N_COEF = 6  # degree 5
N_CHANNELS = 4

_FACT = np.ones((N_COEF, N_COEF))
for _d in range(1, N_COEF):
    for _k in range(_d, N_COEF):
        _FACT[_d, _k] = _FACT[_d - 1, _k] * (_k - _d + 1)


def poly_basis(t, order: int = 0) -> np.ndarray:
    """Basis row(s) of the order-th derivative of [1, t, ..., t^5] at time t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (N_COEF,))
    for k in range(order, N_COEF):
        out[..., k] = _FACT[order, k] * t ** (k - order)
    return out


# basis rows of orders 0..4 at t = 0
_START_ROWS = np.stack([poly_basis(0.0, d) for d in range(5)])


@dataclass(eq=False)
class PiecewiseTrajectory:
    """M quintic pieces; coeffs[i] is (6, 4): coefficient rows of 1..t^5 for
    the channels (x, y, z, r) on piece i, valid for local time in [0, T_i]."""

    durations: np.ndarray
    coeffs: np.ndarray
    s: int = 3

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float).reshape(-1)
        self.coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1, N_COEF, N_CHANNELS)
        if len(self.durations) != len(self.coeffs):
            raise ValueError("durations and coefficient blocks disagree")
        if np.any(self.durations <= 0.0):
            raise ValueError("all piece durations must be positive")

    @property
    def n_pieces(self) -> int:
        return len(self.durations)

    @property
    def total_time(self) -> float:
        return float(self.durations.sum())

    def piece_index(self, t):
        """Piece index and local time of a time, or of each of an array of
        times; junction times select the right piece, the total time selects
        the last piece."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.total_time + 1e-12):
            raise ValueError(f"time {t} outside [0, {self.total_time}]")
        t = np.minimum(t, self.total_time)
        ends = np.cumsum(self.durations)
        i = np.minimum(np.searchsorted(ends, t, side="right"), self.n_pieces - 1)
        tau = t - (ends[i] - self.durations[i])
        return (int(i), float(tau)) if t.ndim == 0 else (i, tau)

    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """Order-th time derivative of all four channels at global time t."""
        if order < 0 or order > N_COEF - 1:
            raise ValueError(f"derivative order {order} outside 0..{N_COEF - 1}")
        i, tau = self.piece_index(float(t))
        return poly_basis(tau, order) @ self.coeffs[i]

    def sample(self, times, orders=(0,)) -> np.ndarray:
        """Vectorized evaluation; returns (len(times), len(orders), 4)."""
        i, tau = self.piece_index(np.asarray(times, dtype=float).reshape(-1))
        coeffs = self.coeffs[i]
        # a (1, 6) @ (6, 4) product per sample and order: the same arithmetic as eval
        return np.concatenate([poly_basis(tau, order)[:, None, :] @ coeffs for order in orders],
                              axis=1)


class MinJerkSystem:
    """Linear map from (interior waypoints, boundary states) to quintic
    coefficients for a fixed duration vector, with the adjoint solves needed
    to push objective gradients back onto waypoints and durations."""

    def __init__(self, durations):
        self.durations = np.asarray(durations, dtype=float).reshape(-1)
        if np.any(self.durations <= 0.0):
            raise ValueError("all piece durations must be positive")
        m = len(self.durations)
        self.n_pieces = m
        n = N_COEF * m
        # basis rows of orders 0..5 at each piece's end (M, 6, 6)
        ends = np.stack([poly_basis(self.durations, d) for d in range(N_COEF)], axis=1)
        self.end_rows = ends
        mat = np.zeros((n, n))
        mat[:3, :N_COEF] = _START_ROWS[:3]
        # junction i (between pieces i and i+1) owns rows 3 + 6i .. 8 + 6i: the
        # waypoint row, then continuity of orders 0..4
        k = np.arange(m - 1)
        junctions = mat[3:n - 3].reshape(m - 1, N_COEF, m, N_COEF)
        junctions[k, 0, k] = ends[:-1, 0]
        junctions[k, 1:, k] = -ends[:-1, :5]
        junctions[k, 1:, k + 1] = _START_ROWS
        mat[n - 3:, N_COEF * (m - 1):] = ends[-1, :3]
        self.waypoint_rows = 3 + N_COEF * k
        self.matrix = mat
        self._lu = lu_factor(mat)

    def solve(self, waypoints, boundary_start, boundary_end) -> np.ndarray:
        """waypoints (M-1, C), boundary_* (3, C) value/velocity/acceleration
        rows -> coefficients (M, 6, C)."""
        waypoints = np.atleast_2d(np.asarray(waypoints, dtype=float))
        b0 = np.asarray(boundary_start, dtype=float)
        b1 = np.asarray(boundary_end, dtype=float)
        n_ch = b0.shape[1]
        m = self.n_pieces
        rhs = np.zeros((N_COEF * m, n_ch))
        rhs[:3] = b0
        rhs[self.waypoint_rows] = waypoints
        rhs[-3:] = b1
        coef = lu_solve(self._lu, rhs)
        return coef.reshape(m, N_COEF, n_ch)

    def adjoint(self, grad_coeffs: np.ndarray) -> np.ndarray:
        """Solve matrix^T lam = grad for gradient backpropagation."""
        m = self.n_pieces
        g = np.asarray(grad_coeffs, dtype=float).reshape(N_COEF * m, -1)
        return lu_solve(self._lu, g, trans=1)

    def duration_rows(self, i: int):
        """(row, derivative order, sign) triples whose entries depend on T_i."""
        m = self.n_pieces
        if i < m - 1:
            base = 3 + 6 * i
            rows = [(base, 0, 1.0)]
            rows += [(base + 1 + d, d, -1.0) for d in range(5)]
            return rows
        return [(N_COEF * m - 3 + d, d, 1.0) for d in range(3)]


def fit_min_jerk(waypoints, durations, boundary_start, boundary_end) -> PiecewiseTrajectory:
    """Minimum-jerk quintic spline through the waypoints with the given
    per-piece durations and full boundary (value, velocity, acceleration)."""
    system = MinJerkSystem(durations)
    coeffs = system.solve(waypoints, boundary_start, boundary_end)
    return PiecewiseTrajectory(durations=system.durations, coeffs=coeffs)


def jerk_energy_matrix(t: float) -> np.ndarray:
    """Gram matrix Q with c^T Q c = integral of the squared third derivative
    of c^T beta over [0, t]."""
    q = np.zeros((N_COEF, N_COEF))
    for a in range(3, N_COEF):
        for b in range(3, N_COEF):
            power = a + b - 5
            q[a, b] = _FACT[3, a] * _FACT[3, b] * t**power / power
    return q


def jerk_energy(traj: PiecewiseTrajectory, channels=range(N_CHANNELS)) -> float:
    total = 0.0
    for i in range(traj.n_pieces):
        q = jerk_energy_matrix(traj.durations[i])
        c = traj.coeffs[i]
        for ch in channels:
            total += float(c[:, ch] @ q @ c[:, ch])
    return total


def fixed_rate_times(total_time: float, hz: float = 100.0) -> np.ndarray:
    """The sample grid 0, 1/hz, 2/hz, ..., closed with total_time itself."""
    n = int(np.floor(total_time * hz)) + 1
    times = np.arange(n) / hz
    if times[-1] < total_time - 1e-9:
        times = np.append(times, total_time)
    return times


def write_sample_csv(traj: PiecewiseTrajectory, path, hz: float = 100.0) -> None:
    """Fixed-rate export with value and first three derivatives per channel."""
    times = fixed_rate_times(traj.total_time, hz)
    data = traj.sample(times, orders=(0, 1, 2, 3))
    header = ["t"]
    for tag in ("", "d", "dd", "ddd"):
        for ch in ("x", "y", "z", "r"):
            header.append(tag + ch)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for j, t in enumerate(times):
            row = [t] + [data[j, oi, ch] for oi in range(4) for ch in range(4)]
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_coeff_dump(traj: PiecewiseTrajectory, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{traj.n_pieces} {traj.s}\n")
        for i in range(traj.n_pieces):
            fh.write(format(traj.durations[i], ".17g") + "\n")
            for row in traj.coeffs[i]:
                fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def read_coeff_dump(path) -> PiecewiseTrajectory:
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)
    m = int(next(it))
    s = int(next(it))
    durations = np.empty(m)
    coeffs = np.empty((m, N_COEF, N_CHANNELS))
    for i in range(m):
        durations[i] = float(next(it))
        for a in range(N_COEF):
            for b in range(N_CHANNELS):
                coeffs[i, a, b] = float(next(it))
    return PiecewiseTrajectory(durations=durations, coeffs=coeffs, s=s)


def read_sample_csv(path):
    """Read a fixed-rate trajectory export back as (times, data (N, 4, 4))."""
    raw = np.genfromtxt(path, delimiter=",", names=True)
    times = np.atleast_1d(raw["t"])
    cols = []
    for tag in ("", "d", "dd", "ddd"):
        for ch in ("x", "y", "z", "r"):
            cols.append(np.atleast_1d(raw[tag + ch]))
    data = np.stack(cols, axis=1).reshape(len(times), 4, 4)
    return times, data
