"""Kinodynamic best-first search over the extended state [p, r, v, v_r].

Motion primitives are generated by sampling accelerations on the four flat
axes (three position axes plus the deformation radius) together with a
primitive duration; double-integrator propagation gives the successor
state.  Each primitive is charged its squared control effort, a penalty
for flying below the maximum radius, and a time cost.

A path ends only when a primitive lands within the goal tolerances; there
is no analytic shot to the goal.  Primitives are collision-checked at
sub-sampled states: a bounding ball around the body clears most of them
cheaply, and the rest are checked at every sample of
`BodyGeometry.surface_points`.

An expansion handles each primitive duration as one batch: the children's
kinematic bounds, goal test and deduplication cells are arrays, only the
closed-set and best-cost lookups run per child, and the sub-sampled states
of every kept primitive are built by one broadcast and checked by one
`_states_valid` call.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass, field as _field

import numpy as np

from .esdf import BodyGeometry, EsdfField, points_in_bounds, query_distance_many

log = logging.getLogger(__name__)


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


@dataclass(eq=False)
class PlanState:
    position: np.ndarray
    radius: float
    velocity: np.ndarray
    radius_rate: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=float).reshape(3)
        self.radius = float(self.radius)
        self.radius_rate = float(self.radius_rate)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.position, [self.radius], self.velocity, [self.radius_rate]])

    @staticmethod
    def from_array(x) -> "PlanState":
        x = np.asarray(x, dtype=float).reshape(8)
        return PlanState(position=x[:3], radius=x[3], velocity=x[4:7], radius_rate=x[7])


@dataclass
class SearchConfig:
    u_max: np.ndarray = _field(default_factory=lambda: np.array([2.0, 2.0, 2.0, 0.4]))
    dt_min: float = 0.4
    dt_max: float = 1.0
    accel_samples: int = 3
    duration_samples: int = 3
    v_max: float = 2.0
    radius_rate_max: float = 0.4
    d_margin: float = 0.15
    sorr_weight: float = 8.0
    time_weight: float = 2.0
    r_min: float = 0.131
    r_max: float = 0.211
    pos_dedup: float = 0.15
    radius_dedup: float = 0.02
    node_budget: int = 100000
    goal_pos_tol: float = 0.2
    goal_radius_tol: float = 0.05
    use_heuristic: bool = True

    def __post_init__(self):
        self.u_max = np.asarray(self.u_max, dtype=float).reshape(4)


@dataclass(eq=False)
class PathNode:
    """One element of a primitive chain: the state reached, and the control
    and duration of the primitive that reached it (control None at the root)."""

    state: PlanState
    control: np.ndarray | None
    duration: float


@dataclass(eq=False)
class SearchResult:
    path: list[PathNode]
    cost: float
    expansions: int

    @property
    def states(self) -> list[PlanState]:
        return [n.state for n in self.path]


def propagate(state: PlanState, u, dt: float) -> PlanState:
    """Double-integrator step on all four flat axes."""
    if dt <= 0.0:
        raise ValueError("duration must be positive")
    u = np.asarray(u, dtype=float).reshape(4)
    x = state.as_array()
    out = x.copy()
    out[:4] = x[:4] + x[4:] * dt + 0.5 * u * dt * dt
    out[4:] = x[4:] + u * dt
    return PlanState.from_array(out)


def _propagate_batch(x0: np.ndarray, us: np.ndarray, dt) -> np.ndarray:
    """States reached from x0 (8,) under controls us (..., 4) after durations
    dt, a scalar or an array that broadcasts against us[..., 0] -> (..., 8)."""
    dt = np.asarray(dt, dtype=float)[..., None]
    pos = x0[:4] + x0[4:] * dt + 0.5 * us * dt * dt
    vel = x0[4:] + us * dt
    return np.concatenate(np.broadcast_arrays(pos, vel), axis=-1)


def primitive_cost(u, r_end: float, dt: float, config: SearchConfig) -> float:
    """Squared control effort plus radius regularization plus time cost."""
    u = np.asarray(u, dtype=float).reshape(4)
    shrink = (r_end - config.r_max) / config.r_max
    return float(u @ u * dt + config.sorr_weight * shrink * shrink * dt + config.time_weight * dt)


def _primitive_cost_batch(us: np.ndarray, r_end: np.ndarray, dt: float,
                          config: SearchConfig) -> np.ndarray:
    shrink = (r_end - config.r_max) / config.r_max
    return (us * us).sum(axis=1) * dt + config.sorr_weight * shrink * shrink * dt + config.time_weight * dt


def _states_valid(field: EsdfField, body: BodyGeometry, config: SearchConfig,
                  pos: np.ndarray, radius: np.ndarray, vel: np.ndarray,
                  radius_rate: np.ndarray) -> np.ndarray:
    """Vectorized validity: dynamic bounds, map bounds and whole-body clearance."""
    ok = np.linalg.norm(vel, axis=1) <= config.v_max
    ok &= np.abs(radius_rate) <= config.radius_rate_max
    ok &= (radius >= config.r_min) & (radius <= config.r_max)
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
    easy = ball_inside & (center_d >= config.d_margin + reach)
    hard = np.flatnonzero(~easy)
    if len(hard):
        hard_idx = idx[hard]
        # exact pass: every surface sample must be inside the map and clear
        pts, _ = body.surface_points(pos[hard_idx], radius[hard_idx])
        flat = pts.reshape(-1, 3)
        inb = points_in_bounds(field, flat).reshape(len(hard_idx), -1)
        d = query_distance_many(field, flat, extend=True).reshape(len(hard_idx), -1)
        offsets_ok = inb.all(axis=1) & (d.min(axis=1) >= config.d_margin)
        ok[hard_idx[~offsets_ok]] = False
    return ok


def is_valid(state: PlanState, field: EsdfField, body: BodyGeometry, config: SearchConfig) -> bool:
    """True iff the state respects velocity, deformation-rate and radius bounds
    and the whole body keeps at least the clearance margin (out of map counts
    as invalid)."""
    mask = _states_valid(
        field, body, config,
        state.position.reshape(1, 3), np.array([state.radius]),
        state.velocity.reshape(1, 3), np.array([state.radius_rate]),
    )
    return bool(mask[0])


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


def heuristic(state: PlanState, goal: PlanState, config: SearchConfig) -> float:
    """Optimal cubic-connection cost from state to goal over all four flat axes."""
    dp = np.concatenate([goal.position - state.position, [goal.radius - state.radius]])
    v0 = np.concatenate([state.velocity, [state.radius_rate]])
    v1 = np.concatenate([goal.velocity, [goal.radius_rate]])
    cost, _ = _connect_cost(dp[None, :], v0[None, :], v1[None, :], config.time_weight)
    return float(cost[0])


def _axis_samples(limit: float, count: int) -> np.ndarray:
    return np.unique(np.linspace(-limit, limit, count))


def _arc_bound(x: np.ndarray, dt: float, config: SearchConfig) -> float:
    """Upper bound on the (position + radius) arc length of any primitive
    leaving state x within dt."""
    speed = float(np.linalg.norm(x[4:7])) + float(np.linalg.norm(config.u_max[:3])) * dt
    shrink = abs(float(x[7])) + float(config.u_max[3]) * dt
    return (speed + shrink) * dt


def _goal_reached(x: np.ndarray, goal: PlanState, config: SearchConfig) -> bool:
    if np.linalg.norm(x[:3] - goal.position) > config.goal_pos_tol:
        return False
    return abs(x[3] - goal.radius) <= config.goal_radius_tol


def _may_reach_goal(xs: np.ndarray, goal: PlanState, config: SearchConfig) -> np.ndarray:
    """Rows of the states xs (B, 8) that `_goal_reached` may accept.

    The row-wise norm here rounds differently from `_goal_reached`'s norm of
    one vector (a BLAS dot, which may fuse multiply-adds) by a few units in
    the last place, so the position test is widened by a relative 1e-9 and
    `_goal_reached` decides the rows that pass.
    """
    near = np.linalg.norm(xs[:, :3] - goal.position, axis=1) <= config.goal_pos_tol * (1.0 + 1e-9)
    near &= np.abs(xs[:, 3] - goal.radius) <= config.goal_radius_tol
    return near


def search(start: PlanState, goal: PlanState, field: EsdfField, body: BodyGeometry,
           config: SearchConfig) -> SearchResult:
    """Best-first search over sampled (acceleration, duration) primitives.

    Raises InvalidStartError / InvalidGoalError for bad endpoints, NoPathError
    when the deduplicated state space is exhausted and NodeBudgetExceededError
    when the expansion budget runs out.
    """
    if not is_valid(start, field, body, config):
        raise InvalidStartError("start state is invalid")
    if not is_valid(goal, field, body, config):
        raise InvalidGoalError("goal state is invalid")

    if _goal_reached(start.as_array(), goal, config):
        return SearchResult(path=[PathNode(state=start, control=None, duration=0.0)],
                            cost=0.0, expansions=0)

    res = field.grid.resolution
    origin = field.lower
    axes = [
        _axis_samples(config.u_max[0], config.accel_samples),
        _axis_samples(config.u_max[1], config.accel_samples),
        _axis_samples(config.u_max[2], config.accel_samples),
        _axis_samples(config.u_max[3], config.accel_samples),
    ]
    us = np.array(list(itertools.product(*axes)))
    dts = np.unique(np.linspace(config.dt_min, config.dt_max, config.duration_samples))

    def keys_of(xs: np.ndarray) -> list[tuple]:
        """Dedup cells (ix, iy, iz, ir) of the states xs (B, 8), as tuples of ints."""
        kp = np.floor((xs[:, :3] - origin) / config.pos_dedup)
        kr = np.floor((xs[:, 3:4] - config.r_min) / config.radius_dedup)
        return list(map(tuple, np.hstack([kp, kr]).astype(np.int64).tolist()))

    goal_v = np.concatenate([goal.position, [goal.radius]])
    goal_vel = np.concatenate([goal.velocity, [goal.radius_rate]])

    states: list[np.ndarray] = [start.as_array()]
    parents: list[int] = [-1]
    controls: list[np.ndarray | None] = [None]
    durations: list[float] = [0.0]
    gs: list[float] = [0.0]
    node_keys: list = keys_of(states[0][None, :])

    best_g: dict = {node_keys[0]: (0.0, 0)}
    closed: set = set()

    h0 = heuristic(start, goal, config) if config.use_heuristic else 0.0
    heap: list = [(h0, h0, 0, 0)]
    seq = 1
    expansions = 0

    def reconstruct(idx: int) -> SearchResult:
        chain = []
        k = idx
        while k >= 0:
            chain.append(PathNode(
                state=PlanState.from_array(states[k]),
                control=None if controls[k] is None else controls[k].copy(),
                duration=durations[k],
            ))
            k = parents[k]
        chain.reverse()
        return SearchResult(path=chain, cost=gs[idx], expansions=expansions)

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

        if _goal_reached(x, goal, config):
            return reconstruct(idx)

        if expansions >= config.node_budget:
            raise NodeBudgetExceededError(f"node budget {config.node_budget} exhausted")
        expansions += 1

        for dt in dts:
            dt = float(dt)
            children = _propagate_batch(x, us, dt)
            ok = np.linalg.norm(children[:, 4:7], axis=1) <= config.v_max
            ok &= np.abs(children[:, 7]) <= config.radius_rate_max
            ok &= (children[:, 3] >= config.r_min) & (children[:, 3] <= config.r_max)
            # radius extremum inside the primitive (quadratic in t)
            ur = us[:, 3]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_ext = np.where(ur != 0.0, -x[7] / ur, -1.0)
            interior = (t_ext > 0.0) & (t_ext < dt)
            r_ext = x[3] + x[7] * t_ext + 0.5 * ur * t_ext * t_ext
            ok &= ~interior | ((r_ext >= config.r_min) & (r_ext <= config.r_max))
            if not ok.any():
                continue

            cand = np.flatnonzero(ok)
            g_new = (gs[idx] + _primitive_cost_batch(us[cand], children[cand, 3], dt, config)).tolist()
            near_goal = _may_reach_goal(children[cand], goal, config).tolist()
            cand_keys = keys_of(children[cand])
            keep = []
            for j, ci in enumerate(cand.tolist()):
                if near_goal[j] and _goal_reached(children[ci], goal, config):
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

            # collision check: sub-sample surviving primitives at <= res/2 arc steps;
            # the step count is a conservative bound from the parent state alone so
            # it is identical for every child of one (node, dt) expansion
            kept_ci = np.array([ci for _, ci, _ in keep])
            arc = _arc_bound(x, dt, config)
            n_sub = int(np.clip(np.ceil(arc / (0.5 * res)), 1, 32))
            ts = dt * (np.arange(1, n_sub + 1) / n_sub)
            # (kept, n_sub, 8): each kept primitive at each sub-sample time
            flat = _propagate_batch(x, us[kept_ci][:, None, :], ts).reshape(-1, 8)
            mask = _states_valid(field, body, config, flat[:, :3], flat[:, 3], flat[:, 4:7], flat[:, 7])
            valid_child = mask.reshape(len(keep), n_sub).all(axis=1)
            if not valid_child.any():
                continue

            new_rows = [row for row in range(len(keep)) if valid_child[row]]
            new_states = children[kept_ci[new_rows]]
            if config.use_heuristic:
                hvals, _ = _connect_cost(goal_v[None, :] - new_states[:, :4],
                                         new_states[:, 4:],
                                         np.tile(goal_vel, (len(new_rows), 1)),
                                         config.time_weight)
            else:
                hvals = np.zeros(len(new_rows))
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
    """Primitive chain as CSV rows (t, p, r, v, v_r, u), with u the control of
    the segment leaving each state (zeros on the final row)."""
    rows = []
    t = 0.0
    n = len(result.path)
    for i, node in enumerate(result.path):
        if i > 0:
            t += node.duration
        u_out = result.path[i + 1].control if i + 1 < n else None
        u_out = np.zeros(4) if u_out is None else u_out
        s = node.state
        rows.append([t, *s.position, s.radius, *s.velocity, s.radius_rate, *u_out])
    header = "t,x,y,z,r,vx,vy,vz,vr,ux,uy,uz,ur"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
