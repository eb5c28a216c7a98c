"""Kinodynamic best-first search over the extended state [p, r, v, v_r].

The search solves the same `OptProblem` as the optimizer, as its front end.
From the problem it reads the map, the body (with any payload) and its
radius bounds, the start and goal (the value and velocity rows of `sigma0`
and `sigmaf`), the limits `v_max` and `radius_rate_max`, the clearance
margin `d_margin`, the weights `sorr_weight` and `time_weight`, and
`radius_frozen`.  `SearchConfig` holds only the search's own tuning.

Motion primitives are generated by sampling accelerations on the four flat
axes (three position axes plus the deformation radius) together with a
primitive duration; double-integrator propagation gives the successor
state.  Each primitive is charged its squared control effort, a penalty
for flying below the maximum radius, and a time cost.

A path ends only when a primitive lands within the goal tolerances; there
is no analytic shot to the goal.  One row-wise test, `_at_goal`, decides
this for the start and for each expansion's children.  A child it accepts
is a goal candidate: it takes no deduplication cell and is returned when
popped, so a node that has a cell is never at the goal.

Primitives are collision-checked at sub-sampled states: a bounding ball
around the body clears most of them cheaply, and the rest are checked at
every sample of `BodyGeometry.surface_points`.  A primitive is checked at
`n_sub` equal time steps, as many as keep each step within res/2 of arc
but at most MAX_SUBSAMPLES.  Where the cap binds, a step is at most
v_max * dt / MAX_SUBSAMPLES long: the speed is convex along a primitive and
is checked at both ends of every step.  So two consecutive checked centres
of any chain the search builds are at most
max(res/2, v_max * dt_max / MAX_SUBSAMPLES) apart.

With the radius frozen, that bound lets the search prove "no path" before
its first expansion, as the reachability heuristic of Hybrid A* (Dolgov et
al., IJRR 2010) does.  `_free_cells` marks every voxel that can hold the
centre of an accepted state, from booleans of the stored field alone, since
the interpolant never exceeds its largest corner (`esdf` docstring).
`_start_reaches_goal` grows the free voxels by half the step bound, in
whole voxels rounded down, and labels their 26-connected components.  If
no voxel near the goal ball lies in the start's component, no chain of
accepted states reaches the goal, and the search raises NoPathError at
once.  The test is sound, so it ends only searches that would exhaust their
open set or their budget; found paths are untouched.

An expansion handles each primitive duration as one batch: the children's
kinematic bounds, goal test and deduplication cells are arrays, only the
closed-set and best-cost lookups run per child, and the sub-sampled states
of every kept primitive are built by one broadcast and checked by one
`_states_valid` call.

Every state is a row [p, r, v, v_r] of 8 floats, from the endpoints on: a
`SearchResult` hands the chain on as arrays of its states, of the controls
and of the durations of the primitives between them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass, field as _field

import numpy as np

from .esdf import nodes_at_least, points_in_bounds, query_distance_many
from .fields import check_field_types
from .traj_opt import OptProblem

log = logging.getLogger(__name__)

# the most states one primitive's collision check samples
MAX_SUBSAMPLES = 32
# slack (m) on the reachability test's thresholds: it covers the rounding of
# the interpolation sums and of sample positions on cell faces
_ROUNDING_SLACK = 1e-9


class PlanningError(RuntimeError):
    pass


class NoPathError(PlanningError):
    pass


class NodeBudgetExceededError(PlanningError):
    pass


class InvalidStartError(PlanningError):
    pass


class InvalidGoalError(PlanningError):
    pass


@dataclass
class SearchConfig:
    """The search's own tuning: the primitive set (acceleration bounds u_max
    on [x, y, z, r] and the sampled durations), the deduplication cells, the
    expansion budget and the goal tolerances."""

    u_max: np.ndarray = _field(default_factory=lambda: np.array([2.0, 2.0, 2.0, 0.4]))
    dt_min: float = 0.4
    dt_max: float = 1.0
    accel_samples: int = 3
    duration_samples: int = 3
    pos_dedup: float = 0.15
    radius_dedup: float = 0.02
    node_budget: int = 100000
    goal_pos_tol: float = 0.2
    goal_radius_tol: float = 0.05

    def __post_init__(self):
        check_field_types(self)
        self.u_max = np.asarray(self.u_max, dtype=float).reshape(4)
        if not 0.0 < self.dt_min <= self.dt_max:
            raise ValueError("primitive durations need 0 < dt_min <= dt_max")
        if min(self.accel_samples, self.duration_samples, self.node_budget) < 1:
            raise ValueError("sample counts and the node budget must be at least 1")
        if min(self.pos_dedup, self.radius_dedup) <= 0.0:
            raise ValueError("the dedup cells must be positive")
        if min(self.goal_pos_tol, self.goal_radius_tol) < 0.0:
            raise ValueError("the goal tolerances must be non-negative")


@dataclass(eq=False)
class SearchResult:
    """A primitive chain from the start: the states (K, 8) [p, r, v, v_r] it
    passes, and the control (K-1, 4) and duration (K-1,) of the primitive
    that reaches each state after the first."""

    states: np.ndarray
    controls: np.ndarray
    durations: np.ndarray
    cost: float
    expansions: int


def _propagate_batch(x0: np.ndarray, us: np.ndarray, dt) -> np.ndarray:
    """Double-integrator step on all four flat axes: the states reached from
    x0 (8,) under controls us (..., 4) after durations dt, a scalar or an
    array that broadcasts against us[..., 0] -> (..., 8)."""
    dt = np.asarray(dt, dtype=float)[..., None]
    pos = x0[:4] + x0[4:] * dt + 0.5 * us * dt * dt
    vel = x0[4:] + us * dt
    return np.concatenate(np.broadcast_arrays(pos, vel), axis=-1)


def _primitive_cost_batch(us: np.ndarray, r_end: np.ndarray, dt: float, r_max: float,
                          sorr_weight: float, time_weight: float) -> np.ndarray:
    """Squared control effort plus radius regularization plus time cost of
    the primitives us (B, 4) ending at radii r_end (B,) after dt -> (B,)."""
    shrink = (r_end - r_max) / r_max
    return (us * us).sum(axis=1) * dt + sorr_weight * shrink * shrink * dt + time_weight * dt


def _states_valid(problem: OptProblem, pos: np.ndarray, radius: np.ndarray, vel: np.ndarray,
                  radius_rate: np.ndarray) -> np.ndarray:
    """Vectorized validity under the problem's limits: speed, radius rate,
    radius bounds, map bounds and whole-body clearance."""
    field, body = problem.field, problem.body
    ok = np.linalg.norm(vel, axis=1) <= problem.v_max
    ok &= np.abs(radius_rate) <= problem.radius_rate_max
    ok &= (radius >= body.r_min) & (radius <= body.r_max)
    ok &= points_in_bounds(field, pos)
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        return ok
    # cheap conservative pass: whole body ball inside the map and far from obstacles
    p = pos[idx]
    r = radius[idx]
    reach = body.max_reach(r)
    margin_lo = np.min(p - field.lower, axis=1)
    margin_hi = np.min(field.upper - p, axis=1)
    ball_inside = np.minimum(margin_lo, margin_hi) >= reach
    center_d = query_distance_many(field, p)
    easy = ball_inside & (center_d >= problem.d_margin + reach)
    hard = np.flatnonzero(~easy)
    if len(hard):
        hard_idx = idx[hard]
        # exact pass: every surface sample must be inside the map and clear
        pts, _ = body.surface_points(pos[hard_idx], radius[hard_idx])
        flat = pts.reshape(-1, 3)
        inb = points_in_bounds(field, flat).reshape(len(hard_idx), -1)
        d = query_distance_many(field, flat).reshape(len(hard_idx), -1)
        offsets_ok = inb.all(axis=1) & (d.min(axis=1) >= problem.d_margin)
        ok[hard_idx[~offsets_ok]] = False
    return ok


def _connect_cost(dp: np.ndarray, v0: np.ndarray, v1: np.ndarray, w_t: float):
    """Minimum over the horizon T of the optimal interpolating-cubic control
    energy plus w_t * T, per batch row.  Returns (cost (B,), T (B,))."""
    dp = np.atleast_2d(dp)
    v0 = np.atleast_2d(v0)
    v1 = np.atleast_2d(v1)
    n = dp.shape[0]
    d2 = np.einsum("ij,ij->i", dp, dp)
    sv = np.einsum("ij,ij->i", dp, v0 + v1)
    s = np.einsum("ij,ij->i", v0, v0) + np.einsum("ij,ij->i", v0, v1) + np.einsum("ij,ij->i", v1, v1)
    cost = np.zeros(n)
    t_opt = np.zeros(n)
    # already at the target state: zero-duration connection, zero cost
    static = (d2 == 0.0) & np.all(v0 == v1, axis=1)
    live = ~static & ((d2 > 0.0) | (s > 0.0))
    if w_t <= 0.0 or not live.any():
        return cost, t_opt
    # stationarity of J(T) = 12 d2/T^3 - 12 sv/T^2 + 4 s/T + w_t T is the
    # quartic w_t T^4 - 4 s T^2 + 24 sv T - 36 d2 = 0
    a2 = -4.0 * s[live] / w_t
    a1 = 24.0 * sv[live] / w_t
    a0 = -36.0 * d2[live] / w_t
    m = len(a0)
    comp = np.zeros((m, 4, 4))
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    comp[:, 0, 3] = -a0
    comp[:, 1, 3] = -a1
    comp[:, 2, 3] = -a2
    roots = np.linalg.eigvals(comp)  # (m, 4)
    real = np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots.real))
    t_cand = np.where(real & (roots.real > 1e-12), roots.real, np.nan)
    t_cand = np.sort(t_cand, axis=1)  # NaNs go last
    with np.errstate(invalid="ignore", divide="ignore"):
        j_cand = (12.0 * d2[live, None] / t_cand**3
                  - 12.0 * sv[live, None] / t_cand**2
                  + 4.0 * s[live, None] / t_cand
                  + w_t * t_cand)
    j_cand = np.where(np.isnan(j_cand), np.inf, j_cand)
    j_min = j_cand.min(axis=1)
    # ties within 1e-9 resolve to the smallest T (candidates are T-sorted)
    first = np.argmax(j_cand <= (j_min + 1e-9)[:, None], axis=1)
    rows = np.arange(m)
    cost[live] = np.maximum(j_cand[rows, first], 0.0)
    t_opt[live] = t_cand[rows, first]
    return cost, t_opt


def _axis_samples(limit: float, count: int) -> np.ndarray:
    return np.unique(np.linspace(-limit, limit, count))


def _arc_bound(x: np.ndarray, dt: float, u_max: np.ndarray) -> float:
    """Upper bound on the (position + radius) arc length of any primitive
    leaving state x within dt under the acceleration bounds u_max."""
    speed = float(np.linalg.norm(x[4:7])) + float(np.linalg.norm(u_max[:3])) * dt
    shrink = abs(float(x[7])) + float(u_max[3]) * dt
    return (speed + shrink) * dt


def _at_goal(xs: np.ndarray, goal: np.ndarray, config: SearchConfig) -> np.ndarray:
    """Rows of the states xs (B, 8) within the position and radius
    tolerances of the goal state (8,)."""
    near = np.linalg.norm(xs[:, :3] - goal[:3], axis=1) <= config.goal_pos_tol
    near &= np.abs(xs[:, 3] - goal[3]) <= config.goal_radius_tol
    return near


def _window_any(mask: np.ndarray, width: int) -> np.ndarray:
    """OR of `width` consecutive entries per axis: out[i, j, k] is any of
    mask[i:i+width, j:j+width, k:k+width]; each axis shrinks by width - 1.
    (scipy.ndimage.maximum_filter does the same about 10 times slower on
    booleans.)"""
    for axis in range(3):
        n = mask.shape[axis] - width + 1
        mask = functools.reduce(np.logical_or, [mask[(slice(None),) * axis + (slice(s, s + n),)]
                                                for s in range(width)])
    return mask


def _free_cells(problem: OptProblem) -> np.ndarray:
    """Boolean over the map's voxels: which can hold the centre of a state
    `_states_valid` accepts at the problem's frozen radius.

    A state passes the cheap pass or the exact one.  Its centre lies in a
    voxel, a box of one cell.  Shifted by a body sample's offset o, that box
    lies within one node, per axis, of the node nearest its centre, which is
    floor(o / res + 1/2) nodes from the voxel's own (the lattice of voxel
    centres, with the ghost layers of `nodes_at_least` at the map's faces).
    The interpolant there is at most the largest of those 27 values (`esdf`
    docstring).  So a voxel is free if the 27 nodes around its own reach
    `d_margin + max_reach`, or if for every surface sample the 27 nodes
    around the shifted one include one that reaches `d_margin`.  Nodes
    beyond the ghost layers stand for samples outside the map, which never
    pass.
    """
    field, body = problem.field, problem.body
    radius = problem.frozen_radius
    dims = field.distance.shape
    # entry p of a window over the ghost-padded nodes covers nodes p..p+2,
    # around the node of voxel p, and grown by `pad` layers, around voxel p - pad
    offsets = body.surface_points(np.zeros((1, 3)), np.array([radius]))[0][0]
    shifts = np.unique(np.floor(offsets / field.grid.resolution + 0.5).astype(np.int64), axis=0)
    pad = int(np.abs(shifts).max())
    near = _window_any(np.pad(nodes_at_least(field, problem.d_margin - _ROUNDING_SLACK), pad), 3)
    free = np.ones(dims, dtype=bool)
    for shift in shifts + pad:
        free &= near[tuple(slice(k, k + n) for k, n in zip(shift, dims))]
    far = problem.d_margin + float(body.max_reach(radius)) - _ROUNDING_SLACK
    return free | _window_any(nodes_at_least(field, far), 3)


def _start_reaches_goal(problem: OptProblem, config: SearchConfig, ends: np.ndarray) -> bool:
    """False only if no chain of states the search accepts at the frozen
    radius joins the start to a state within `goal_pos_tol` of the goal.

    Consecutive checked states of one chain are at most
    max(res/2, v_max * dt_max / MAX_SUBSAMPLES) apart (module docstring), so
    their voxels are at most m = ceil(step / res) apart on every axis.  Grown
    by floor(m / 2) voxels, two such voxels touch or overlap, so the free
    voxels of one chain fall into one 26-connected component.
    """
    t0 = time.perf_counter()
    free = _free_cells(problem)
    field = problem.field
    res = field.grid.resolution
    dims = np.array(free.shape)
    n_free = int(np.count_nonzero(free))
    reached = n_free == free.size
    if not reached:
        # imported on first use, as in `esdf`: only frozen searches need it
        from scipy.ndimage import label

        step = max(0.5 * res, problem.v_max * config.dt_max / MAX_SUBSAMPLES)
        grow = math.ceil(step / res) // 2
        region = _window_any(np.pad(free, grow), 2 * grow + 1)
        labels, _ = label(region, structure=np.ones((3, 3, 3)))
        start = np.clip(np.floor((ends[0, :3] - field.lower) / res).astype(np.int64), 0, dims - 1)
        # the voxels whose centre is within goal_pos_tol plus one voxel of the goal
        reach = config.goal_pos_tol + res
        lo = np.clip(np.floor((ends[1, :3] - reach - field.lower) / res).astype(np.int64), 0, dims)
        hi = np.clip(np.ceil((ends[1, :3] + reach - field.lower) / res).astype(np.int64), 0, dims)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        centres = np.meshgrid(*[field.lower[k] + (np.arange(lo[k], hi[k]) + 0.5) * res
                                for k in range(3)], indexing="ij")
        near_goal = np.linalg.norm(np.stack(centres, axis=-1) - ends[1, :3], axis=-1) <= reach
        reached = bool(np.any(labels[box][near_goal] == labels[tuple(start)]))
    log.debug("reachability test at radius %.4g m: %d of %d voxels free, %.1f ms",
              problem.frozen_radius, n_free, free.size, 1e3 * (time.perf_counter() - t0))
    return reached


def search(problem: OptProblem, config: SearchConfig) -> SearchResult:
    """Best-first search over sampled (acceleration, duration) primitives
    from the problem's start to its goal.

    The start and goal are the states [p, r, v, v_r] of the value and
    velocity rows of `problem.sigma0` and `problem.sigmaf`.  States must keep
    the problem's speed, radius-rate and radius bounds and its clearance
    margin; primitives are charged with its `sorr_weight` and `time_weight`.
    When `problem.radius_frozen` is set, the radius stays at its start value.

    Raises InvalidStartError / InvalidGoalError for bad endpoints (both are
    checked by one `_states_valid` call, the start's error first), NoPathError
    when the reachability test on the map proves that a frozen radius cannot
    reach the goal, or when the deduplicated state space is exhausted, and
    NodeBudgetExceededError when the expansion budget runs out.  A start
    already at the goal returns the start alone, with no controls and no
    durations.
    """
    ends = np.stack([problem.sigma0[:2].ravel(), problem.sigmaf[:2].ravel()])
    start_ok, goal_ok = _states_valid(problem, ends[:, :3], ends[:, 3], ends[:, 4:7], ends[:, 7])
    if not start_ok:
        raise InvalidStartError("start state is invalid")
    if not goal_ok:
        raise InvalidGoalError("goal state is invalid")

    if _at_goal(ends[:1], ends[1], config)[0]:
        return SearchResult(states=ends[:1], controls=np.zeros((0, 4)), durations=np.zeros(0),
                            cost=0.0, expansions=0)
    if problem.radius_frozen and not _start_reaches_goal(problem, config, ends):
        raise NoPathError(f"no connected free space joins the start to the goal at the frozen "
                          f"radius {problem.frozen_radius:.4g} m")
    return _best_first(problem, config, ends)


def _best_first(problem: OptProblem, config: SearchConfig, ends: np.ndarray) -> SearchResult:
    """The best-first loop of `search` from the endpoint rows ends (2, 8),
    which it takes as valid and apart."""
    u_max = config.u_max
    sorr_weight = problem.sorr_weight
    if problem.radius_frozen:
        # no radius acceleration, also in `_arc_bound`'s sub-sample count, and
        # no shrink regularizer.  On a frozen radius the regularizer is a
        # constant rate that adds to the time weight, so keeping it would
        # change the seed path (on slot, fixed-min: 28 expansions and cost
        # 11.52 instead of 9 and 9.0).
        u_max = u_max.copy()
        u_max[3] = 0.0
        sorr_weight = 0.0

    res = problem.field.grid.resolution
    origin = problem.field.lower
    r_min, r_max = problem.body.r_min, problem.body.r_max
    axes = [_axis_samples(limit, config.accel_samples) for limit in u_max]
    us = np.array(list(itertools.product(*axes)))
    dts = np.unique(np.linspace(config.dt_min, config.dt_max, config.duration_samples))

    def keys_of(xs: np.ndarray) -> list[tuple]:
        """Dedup cells (ix, iy, iz, ir) of the states xs (B, 8), as tuples of ints."""
        kp = np.floor((xs[:, :3] - origin) / config.pos_dedup)
        kr = np.floor((xs[:, 3:4] - r_min) / config.radius_dedup)
        return list(map(tuple, np.hstack([kp, kr]).astype(np.int64).tolist()))

    goal_v, goal_vel = ends[1, :4], ends[1, 4:]

    states: list[np.ndarray] = [ends[0]]
    parents: list[int] = [-1]
    controls: list[np.ndarray | None] = [None]
    durations: list[float] = [0.0]
    gs: list[float] = [0.0]
    node_keys: list = keys_of(states[0][None, :])

    best_g: dict = {node_keys[0]: (0.0, 0)}
    closed: set = set()

    cost0, _ = _connect_cost(goal_v[None, :] - ends[:1, :4], ends[:1, 4:], goal_vel[None, :],
                             problem.time_weight)
    h0 = float(cost0[0])
    heap: list = [(h0, h0, 0, 0)]
    seq = 1
    expansions = 0

    def reconstruct(idx: int) -> SearchResult:
        chain = [idx]
        while parents[chain[-1]] >= 0:
            chain.append(parents[chain[-1]])
        chain.reverse()
        return SearchResult(states=np.array([states[k] for k in chain]),
                            controls=np.array([controls[k] for k in chain[1:]]),
                            durations=np.array([durations[k] for k in chain[1:]]),
                            cost=gs[idx], expansions=expansions)

    while heap:
        f, h, _, idx = heapq.heappop(heap)
        x = states[idx]
        k = node_keys[idx]
        if k is None:
            # goal candidate: exempt from dedup, returned as soon as cheapest
            return reconstruct(idx)
        if k in closed:
            continue
        entry = best_g.get(k)
        if entry is not None and entry[1] != idx:
            continue  # stale heap entry superseded by a cheaper node
        closed.add(k)

        if expansions >= config.node_budget:
            raise NodeBudgetExceededError(f"node budget {config.node_budget} exhausted")
        expansions += 1

        for dt in dts:
            dt = float(dt)
            children = _propagate_batch(x, us, dt)
            ok = np.linalg.norm(children[:, 4:7], axis=1) <= problem.v_max
            ok &= np.abs(children[:, 7]) <= problem.radius_rate_max
            ok &= (children[:, 3] >= r_min) & (children[:, 3] <= r_max)
            # radius extremum inside the primitive (quadratic in t)
            ur = us[:, 3]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_ext = np.where(ur != 0.0, -x[7] / ur, -1.0)
            interior = (t_ext > 0.0) & (t_ext < dt)
            r_ext = x[3] + x[7] * t_ext + 0.5 * ur * t_ext * t_ext
            ok &= ~interior | ((r_ext >= r_min) & (r_ext <= r_max))
            if not ok.any():
                continue

            cand = np.flatnonzero(ok)
            g_new = (gs[idx] + _primitive_cost_batch(us[cand], children[cand, 3], dt, r_max,
                                                     sorr_weight, problem.time_weight)).tolist()
            at_goal = _at_goal(children[cand], ends[1], config).tolist()
            cand_keys = keys_of(children[cand])
            keep = []
            for j, ci in enumerate(cand.tolist()):
                if at_goal[j]:
                    keep.append((j, ci, None))  # goal candidates bypass dedup
                    continue
                ck = cand_keys[j]
                if ck in closed:
                    continue
                entry = best_g.get(ck)
                if entry is not None and entry[0] <= g_new[j]:
                    continue
                keep.append((j, ci, ck))
            if not keep:
                continue

            # collision check: sub-sample surviving primitives at arc steps of at
            # most res/2, or at MAX_SUBSAMPLES equal time steps where that takes
            # more; the count is a conservative bound from the parent state
            # alone, so it is identical for every child of one (node, dt)
            # expansion
            kept_ci = np.array([ci for _, ci, _ in keep])
            arc = _arc_bound(x, dt, u_max)
            n_sub = int(np.clip(np.ceil(arc / (0.5 * res)), 1, MAX_SUBSAMPLES))
            ts = dt * (np.arange(1, n_sub + 1) / n_sub)
            # (kept, n_sub, 8): each kept primitive at each sub-sample time
            flat = _propagate_batch(x, us[kept_ci][:, None, :], ts).reshape(-1, 8)
            mask = _states_valid(problem, flat[:, :3], flat[:, 3], flat[:, 4:7], flat[:, 7])
            valid_child = mask.reshape(len(keep), n_sub).all(axis=1)
            if not valid_child.any():
                continue

            new_rows = [row for row in range(len(keep)) if valid_child[row]]
            new_states = children[kept_ci[new_rows]]
            hvals, _ = _connect_cost(goal_v[None, :] - new_states[:, :4], new_states[:, 4:],
                                     np.tile(goal_vel, (len(new_rows), 1)), problem.time_weight)
            for out_i, row in enumerate(new_rows):
                j, ci, ck = keep[row]
                if ck is not None:
                    entry = best_g.get(ck)
                    if entry is not None and entry[0] <= g_new[j]:
                        continue  # a sibling from this expansion already owns the cell
                node_id = len(states)
                states.append(children[ci])
                parents.append(idx)
                controls.append(us[ci])
                durations.append(dt)
                gs.append(g_new[j])
                node_keys.append(ck)
                if ck is not None:
                    best_g[ck] = (g_new[j], node_id)
                    hval = float(hvals[out_i])
                else:
                    hval = 0.0  # a goal candidate has no remaining cost
                heapq.heappush(heap, (gs[node_id] + hval, hval, seq, node_id))
                seq += 1

    raise NoPathError("open set exhausted without reaching the goal")


def write_path_csv(result: SearchResult, path) -> None:
    """The primitive chain as CSV rows (t, p, r, v, v_r, u): the time at each
    state, the state, and the control of the primitive leaving it (zeros on
    the final row)."""
    t = np.cumsum([0.0, *result.durations])
    rows = np.hstack([t[:, None], result.states, np.vstack([result.controls, np.zeros((1, 4))])])
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,y,z,r,vx,vy,vz,vr,ux,uy,uz,ur\n")
        for row in rows.tolist():
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
