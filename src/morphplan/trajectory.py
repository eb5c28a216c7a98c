"""Piecewise degree-5 polynomial trajectories over the 4-D flat output
(x, y, z, r), and the minimum-jerk construction that maps interior
waypoints plus per-piece durations to coefficients.

The construction is one dense (6M x 6M) linear system for M pieces, the
same for every channel: boundary value/velocity/acceleration rows, a
waypoint row per interior junction and derivative-continuity rows up to
order 4 (the minimum-jerk class is C^4 at junctions, which comfortably
covers the required C^2).  `MinJerkSystem` factors it once with LAPACK's
LU and solves all channels as the columns of one right-hand side.

The basis and Gram helpers are batched, and exact: `basis_rows` equals the
per-order formula `_FACT[d, k] * t ** (k - d)` (0 for k < d) bit for bit,
each order's rows as a C-contiguous array of their own, and
`jerk_energy_matrices` equals the per-piece closed form of the jerk Gram
matrix, term by term as scalar arithmetic.  Both matter: the optimizer
carries any last-bit change into the planned trajectory, and a matrix
product can round differently on a strided operand than on a contiguous
one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgetrf, dgetrs

N_COEF = 6  # degree 5
N_CHANNELS = 4
EXPORT_HZ = 100.0  # rate of the sample export and of the energy integral's grid
DUMP_ORDER = 3  # minimum-jerk order s, the second number of a coefficient dump's header
# the sample export's columns: time, then each channel's value and first three derivatives
SAMPLE_COLUMNS = ["t"] + [tag + ch for tag in ("", "d", "dd", "ddd") for ch in "xyzr"]

_FACT = np.ones((N_COEF, N_COEF))
for _d in range(1, N_COEF):
    for _k in range(_d, N_COEF):
        _FACT[_d, _k] = _FACT[_d - 1, _k] * (_k - _d + 1)


# the Gram matrix's nonzero block: (factor, power) of each entry (a, b) of
# rows and columns 3..5, row by row
_GRAM_TERMS = [(float(_FACT[3, a] * _FACT[3, b]), a + b - 5)
               for a in range(3, N_COEF) for b in range(3, N_COEF)]


def basis_rows(t, orders) -> np.ndarray:
    """Basis rows (len(orders),) + t.shape + (6,) of the derivatives of the
    given orders of [1, t, ..., t^5] at the time(s) t; each order's block is
    C-contiguous.

    One power table serves every order: t ** e for e = 0..5 after five
    zero columns, so that order d's row is `_FACT[d]` times the table's
    columns 5 - d .. 10 - d, which hold t ** (k - d), or 0 for k < d."""
    t = np.asarray(t, dtype=float)
    table = np.zeros(t.shape + (2 * N_COEF - 1,))
    powers = table[..., N_COEF - 1:]
    np.power(t[..., None], np.arange(N_COEF), out=powers)
    # `t ** 2` squares, where the power kernel can round differently
    powers[..., 2] = t ** 2
    out = np.empty((len(orders),) + t.shape + (N_COEF,))
    for rows, d in zip(out, orders):
        np.multiply(_FACT[d], table[..., N_COEF - 1 - d:2 * N_COEF - 1 - d], out=rows)
    return out


# basis rows of orders 0..4 at t = 0
_START_ROWS = basis_rows(0.0, range(5))


@dataclass(eq=False)
class PiecewiseTrajectory:
    """M quintic pieces; coeffs[i] is (6, 4): coefficient rows of 1..t^5 for
    the channels (x, y, z, r) on piece i, valid for local time in [0, T_i]."""

    durations: np.ndarray
    coeffs: np.ndarray

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
        return i, tau

    def sample(self, times, orders) -> np.ndarray:
        """Vectorized evaluation; returns (len(times), len(orders), 4)."""
        i, tau = self.piece_index(np.asarray(times, dtype=float).reshape(-1))
        coeffs = self.coeffs[i]
        # a (1, 6) @ (6, 4) product per sample and order: one basis row times the
        # piece's coefficients, as the tests' per-time oracle computes it
        return np.concatenate([rows[:, None, :] @ coeffs for rows in basis_rows(tau, orders)],
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
        ends = np.ascontiguousarray(basis_rows(self.durations, range(N_COEF)).swapaxes(0, 1))
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
        self._lu = _lu_factor(mat)

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
        coef = _lu_solve(self._lu, rhs, trans=0)
        return coef.reshape(m, N_COEF, n_ch)

    def adjoint(self, grad_coeffs: np.ndarray) -> np.ndarray:
        """Solve matrix^T lam = grad for gradient backpropagation."""
        m = self.n_pieces
        g = np.asarray(grad_coeffs, dtype=float).reshape(N_COEF * m, -1)
        return _lu_solve(self._lu, g, trans=1)


def _finite(a: np.ndarray) -> np.ndarray:
    """`a`, checked as scipy checks a LAPACK input: no inf, no NaN."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _lu_factor(mat: np.ndarray):
    """scipy.linalg.lu_factor without its wrappers: LAPACK's getrf, the
    routine it calls, with its checks and its singular-matrix warning."""
    lu, piv, info = dgetrf(_finite(mat))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      LinAlgWarning, stacklevel=3)
    return lu, piv


def _lu_solve(lu_piv, rhs: np.ndarray, trans: int) -> np.ndarray:
    """scipy.linalg.lu_solve without its wrappers: LAPACK's getrs on the
    factors of `_lu_factor`, with its checks."""
    x, info = dgetrs(*lu_piv, _finite(rhs), trans=trans)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def fit_min_jerk(waypoints, durations, boundary_start, boundary_end) -> PiecewiseTrajectory:
    """Minimum-jerk quintic spline through the waypoints with the given
    per-piece durations and full boundary (value, velocity, acceleration)."""
    system = MinJerkSystem(durations)
    coeffs = system.solve(waypoints, boundary_start, boundary_end)
    return PiecewiseTrajectory(durations=system.durations, coeffs=coeffs)


def jerk_energy_matrices(durations) -> np.ndarray:
    """Gram matrices Q_i (M, 6, 6) with c^T Q_i c = integral of the squared
    third derivative of c^T beta over [0, T_i].  Entry (a, b), for a, b >= 3,
    is F_a F_b T_i^p / p with p = a + b - 5 and F the third-derivative
    factors, computed on Python floats: their power rounds as numpy's scalar
    power does, where numpy's array power can round differently."""
    durations = np.asarray(durations, dtype=float).reshape(-1)
    q = np.zeros((len(durations), N_COEF, N_COEF))
    q[:, 3:, 3:] = np.array([f * t**power / power for t in durations.tolist()
                             for f, power in _GRAM_TERMS]).reshape(-1, 3, 3)
    return q


def jerk_energy(traj: PiecewiseTrajectory, channels) -> float:
    total = 0.0
    for q, c in zip(jerk_energy_matrices(traj.durations), traj.coeffs):
        for ch in channels:
            total += float(c[:, ch] @ q @ c[:, ch])
    return total


def fixed_rate_times(total_time: float) -> np.ndarray:
    """The sample grid 0, 1/EXPORT_HZ, 2/EXPORT_HZ, ..., closed with
    total_time itself."""
    n = int(np.floor(total_time * EXPORT_HZ)) + 1
    times = np.arange(n) / EXPORT_HZ
    if times[-1] < total_time - 1e-9:
        times = np.append(times, total_time)
    return times


def write_numeric_csv(path, rows, header: str) -> None:
    """The one writer of the numeric CSV outputs: the header line, then each
    row's values at 17 significant digits, which read back exactly."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def write_sample_csv(traj: PiecewiseTrajectory, path) -> None:
    """Export at `EXPORT_HZ` (`fixed_rate_times`) with value and first three
    derivatives per channel."""
    times = fixed_rate_times(traj.total_time)
    data = traj.sample(times, orders=(0, 1, 2, 3))
    write_numeric_csv(path, np.hstack([times[:, None], data.reshape(len(times), 16)]),
                      ",".join(SAMPLE_COLUMNS))


def write_coeff_dump(traj: PiecewiseTrajectory, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{traj.n_pieces} {DUMP_ORDER}\n")
        for i in range(traj.n_pieces):
            fh.write(format(traj.durations[i], ".17g") + "\n")
            for row in traj.coeffs[i]:
                fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def read_coeff_dump(path) -> PiecewiseTrajectory:
    """Read a `write_coeff_dump` file back.  ValueError unless it holds the
    header (a positive piece count m and the order) and then exactly m
    pieces of a duration and the coefficients, all finite."""
    with open(path) as fh:
        values = np.array(fh.read().split(), dtype=float)
    per_piece = 1 + N_COEF * N_CHANNELS
    if len(values) >= 2 and values[1] != DUMP_ORDER:
        raise ValueError(f"coefficient dump {path} is not of order {DUMP_ORDER}")
    m = (len(values) - 2) // per_piece
    if not (m >= 1 and values[0] == m and len(values) == 2 + m * per_piece):
        raise ValueError(f"coefficient dump {path} does not hold the pieces its header counts")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"a value in coefficient dump {path} is not finite")
    pieces = values[2:].reshape(m, per_piece)
    return PiecewiseTrajectory(durations=pieces[:, 0], coeffs=pieces[:, 1:])


def read_sample_csv(path):
    """Read a fixed-rate trajectory export back as (times, data (N, 4, 4)).
    A missing column, a row that does not parse, a value that is not finite
    or no rows raise ValueError."""
    raw = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    data = np.stack([raw[c] for c in SAMPLE_COLUMNS], axis=1)
    if len(data) == 0:
        raise ValueError(f"no rows in {path}")
    if not np.isfinite(data).all():
        raise ValueError(f"a value in {path} is not finite")
    return data[:, 0], data[:, 1:].reshape(len(data), 4, 4)
