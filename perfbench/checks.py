"""Checks of the planner's and the tracker's outputs, computed apart from
the program: only numpy and the scenario JSON are used here, never a
morphplan routine.

Every check returns a list of failure messages; an empty list accepts.
A trajectory is read as its raw data, `durations` (M,) and `coeffs`
(M, 6, 4): coefficient rows of 1, t, ..., t^5 for the channels x, y, z, r.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as P

GATE_TOL = 1e-3          # the verification gate's tolerance
COST_RTOL = 1e-6
ENDPOINT_TOL = 1e-6
CONTINUITY_TOL = 1e-6
FORCE_RTOL = 0.05        # force estimate vs applied force, last second
FINAL_POS_TOL = 0.05     # m
RADIUS_MIN_TOL = 0.01    # m
RMSE_RTOL = 1e-9

_GL_X, _GL_W = legendre.leggauss(8)  # exact to degree 15


# ---------------------------------------------------------------------------
# polynomial evaluation

def piece_eval(coeffs_piece, ts, order=0):
    """Order-th time derivative of the four channels of one piece at local
    times ts; returns (len(ts), 4)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    c = np.asarray(coeffs_piece, dtype=float)
    return np.stack([P.polyval(ts, P.polyder(c[:, ch], order)) for ch in range(c.shape[1])], axis=1)


def dense_samples(durations, coeffs, per_piece, orders=(0,)):
    """Samples at per_piece + 1 evenly spaced local times on every piece
    (endpoints included); returns {order: (N, 4)}."""
    out = {o: [] for o in orders}
    for ti, ci in zip(durations, coeffs):
        ts = np.linspace(0.0, ti, per_piece + 1)
        for o in orders:
            out[o].append(piece_eval(ci, ts, o))
    return {o: np.vstack(v) for o, v in out.items()}


def eval_global(durations, coeffs, t, order=0):
    """Value of the spline (or a derivative) at global time t, clamped."""
    ends = np.cumsum(durations)
    t = float(np.clip(t, 0.0, ends[-1]))
    i = min(int(np.searchsorted(ends, t, side="right")), len(durations) - 1)
    return piece_eval(coeffs[i], t - (ends[i] - durations[i]), order)[0]


# ---------------------------------------------------------------------------
# scenario geometry, read from the JSON

def true_obstacles(raw, map_seed):
    """The scenario's boxes and spheres with the map seed's jitter: one
    uniform draw of 3 per jittered obstacle, in file order."""
    rng = np.random.default_rng(map_seed) if map_seed is not None else None
    out = []
    for o in raw["map"].get("obstacles", []):
        jitter = float(o.get("jitter", 0.0))
        shift = rng.uniform(-jitter, jitter, size=3) if jitter > 0.0 and rng is not None else np.zeros(3)
        if o["type"] == "box":
            out.append(("box", np.asarray(o["min"], float) + shift, np.asarray(o["max"], float) + shift))
        else:
            out.append(("sphere", np.asarray(o["center"], float) + shift, float(o["radius"])))
    return out


def signed_distance(points, obstacles):
    """Exact signed distance from each point to the union of the obstacles
    (negative inside)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    best = np.full(len(pts), np.inf)
    for kind, a, b in obstacles:
        if kind == "box":
            outside = np.maximum(np.maximum(a - pts, pts - b), 0.0)
            d_out = np.linalg.norm(outside, axis=1)
            depth = np.minimum(pts - a, b - pts).min(axis=1)
            d = np.where(d_out > 0.0, d_out, -depth)
        else:
            d = np.linalg.norm(pts - a, axis=1) - b
        best = np.minimum(best, d)
    return best


def body_points(centers, radii, height, payload=None, n_theta=48, n_rings=3, payload_step=0.025):
    """Surface samples of the upright cylinder hull (radius r, height h) and
    of the grasped box, for each pose; returns (B, S, 3)."""
    ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
    zs = np.linspace(-0.5 * height, 0.5 * height, n_rings)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    lat = np.empty((len(centers), n_theta * n_rings, 3))
    for k, z in enumerate(zs):
        sl = slice(k * n_theta, (k + 1) * n_theta)
        lat[:, sl, :2] = ring[None] * np.asarray(radii)[:, None, None]
        lat[:, sl, 2] = z
    offsets = [lat]
    if payload is not None:
        box = _box_surface(payload["size"], payload["offset"], payload_step)
        offsets.append(np.broadcast_to(box, (len(centers),) + box.shape))
    return np.asarray(centers)[:, None, :] + np.concatenate(offsets, axis=1)


def _box_surface(size, offset, step):
    size = np.asarray(size, float)
    grids = [np.linspace(-s / 2, s / 2, max(int(np.ceil(s / step)) + 1, 2)) for s in size]
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 3)
    on_face = np.any(np.isclose(np.abs(mesh), size / 2), axis=1)
    return mesh[on_face] + np.asarray(offset, float)


def slot_opening(raw, z):
    """Widest free interval along y, at height z, of the wall made of the
    scenario's boxes that overlap the start-goal line's mid x."""
    x_mid = 0.5 * (raw["start"]["position"][0] + raw["goal"]["position"][0])
    lo, hi = raw["map"]["bounds"]["min"][1], raw["map"]["bounds"]["max"][1]
    blocked = sorted((o["min"][1], o["max"][1]) for o in raw["map"]["obstacles"]
                     if o["type"] == "box" and o["min"][0] <= x_mid <= o["max"][0]
                     and o["min"][2] <= z <= o["max"][2])
    widest, edge = 0.0, lo
    for a, b in blocked:
        widest = max(widest, a - edge)
        edge = max(edge, b)
    return max(widest, hi - edge)


# ---------------------------------------------------------------------------
# planner output checks

def check_endpoints(durations, coeffs, start, goal, tol=ENDPOINT_TOL):
    """start/goal: (position (3,), radius); both ends must be at rest."""
    fails = []
    for name, spec, piece, t in (("start", start, coeffs[0], 0.0),
                                 ("goal", goal, coeffs[-1], durations[-1])):
        val = piece_eval(piece, t, 0)[0]
        vel = piece_eval(piece, t, 1)[0]
        err = max(np.max(np.abs(val[:3] - spec[0])), abs(val[3] - spec[1]), np.max(np.abs(vel)))
        if err > tol:
            fails.append(f"{name} state off by {err:.3g}")
    return fails


def check_continuity(durations, coeffs, tol=CONTINUITY_TOL):
    fails = []
    for i in range(len(durations) - 1):
        for order in range(3):
            left = piece_eval(coeffs[i], durations[i], order)[0]
            right = piece_eval(coeffs[i + 1], 0.0, order)[0]
            jump = np.max(np.abs(left - right))
            if jump > tol * max(1.0, np.max(np.abs(left))):
                fails.append(f"order-{order} jump {jump:.3g} at junction {i}")
    return fails


def check_limits(durations, coeffs, limits, tol=GATE_TOL, per_piece=200):
    """limits: v_max, a_max, radius_rate_max, radius_acc_max, r_min, r_max."""
    s = dense_samples(durations, coeffs, per_piece, orders=(0, 1, 2))
    excess = {
        "speed": np.max(np.linalg.norm(s[1][:, :3], axis=1)) - limits["v_max"],
        "acceleration": np.max(np.linalg.norm(s[2][:, :3], axis=1)) - limits["a_max"],
        "radius_rate": np.max(np.abs(s[1][:, 3])) - limits["radius_rate_max"],
        "radius_acc": np.max(np.abs(s[2][:, 3])) - limits["radius_acc_max"],
        "radius_max": np.max(s[0][:, 3]) - limits["r_max"],
        "radius_min": limits["r_min"] - np.min(s[0][:, 3]),
    }
    return [f"{k} limit exceeded by {v:.3g}" for k, v in excess.items() if v > tol]


def min_clearance(durations, coeffs, obstacles, height, payload=None, per_piece=50):
    """Smallest true distance from a body or payload sample to an obstacle."""
    s = dense_samples(durations, coeffs, per_piece, orders=(0,))[0]
    pts = body_points(s[:, :3], s[:, 3], height, payload)
    return float(signed_distance(pts.reshape(-1, 3), obstacles).min())


def check_collision(durations, coeffs, obstacles, height, payload=None):
    clearance = min_clearance(durations, coeffs, obstacles, height, payload)
    return ([] if clearance > 0.0 else [f"body inside an obstacle by {-clearance:.3g} m"]), clearance


def own_cost(durations, coeffs, r_max, sorr_weight, time_weight):
    """Jerk energy of all four channels + w_s * SORR + w_t * T, by 8-point
    Gauss-Legendre quadrature per piece (exact for quintic pieces)."""
    jerk = 0.0
    sorr = 0.0
    for ti, ci in zip(durations, coeffs):
        ts = 0.5 * ti * (_GL_X + 1.0)
        w = 0.5 * ti * _GL_W
        jerk += float(w @ (piece_eval(ci, ts, 3) ** 2).sum(axis=1))
        shrink = (piece_eval(ci, ts, 0)[:, 3] - r_max) / r_max
        sorr += float(w @ shrink**2)
    return jerk + sorr_weight * sorr + time_weight * float(np.sum(durations))


def check_cost(durations, coeffs, reported, r_max, sorr_weight, time_weight, rtol=COST_RTOL):
    mine = own_cost(durations, coeffs, r_max, sorr_weight, time_weight)
    if abs(reported - mine) > rtol * abs(mine):
        return [f"total_cost {reported:.10g} != quadrature {mine:.10g}"]
    return []


def check_no_path(outcome, raw, z):
    """The rigid r_max body cannot pass: the program must report no path, and
    the opening must be narrower than 2 (r_max + d_margin)."""
    fails = []
    need = 2.0 * (raw["body"]["r_max"] + raw["planning"]["d_margin"])
    opening = slot_opening(raw, z)
    if opening >= need:
        fails.append(f"opening {opening:.3f} m is not narrower than {need:.3f} m")
    if outcome != "NoPathError":
        fails.append(f"expected NoPathError, got {outcome}")
    return fails


# ---------------------------------------------------------------------------
# tracking output checks

def check_tracking(durations, coeffs, times, positions, radii, force_estimates, rmse,
                   applied_force):
    """Force estimate (last second) within 5% of the applied force (skipped
    when applied_force is None), final position within 5 cm of the
    reference's end, smallest radius within 1 cm of the reference's minimum,
    and the reported RMSE recomputed."""
    fails = []
    if applied_force is not None:
        force = np.asarray(applied_force, dtype=float)
        tail = times >= times[-1] - 1.0
        est = force_estimates[tail].mean(axis=0)
        err = np.linalg.norm(est - force)
        if err > FORCE_RTOL * np.linalg.norm(force):
            fails.append(f"force estimate {np.round(est, 4).tolist()} off by {err:.3g} N")
    end = eval_global(durations, coeffs, float(np.sum(durations)))
    miss = np.linalg.norm(positions[-1] - end[:3])
    if miss > FINAL_POS_TOL:
        fails.append(f"final position {miss:.3g} m from the reference end")
    r_ref_min = dense_samples(durations, coeffs, 200)[0][:, 3].min()
    if abs(radii.min() - r_ref_min) > RADIUS_MIN_TOL:
        fails.append(f"smallest radius {radii.min():.4f} vs reference {r_ref_min:.4f}")
    ref = np.array([eval_global(durations, coeffs, t)[:3] for t in times])
    mine = float(np.sqrt(np.mean(np.sum((positions - ref) ** 2, axis=1))))
    if abs(mine - rmse) > RMSE_RTOL * mine:
        fails.append(f"rmse {rmse:.12g} != recomputed {mine:.12g}")
    return fails
