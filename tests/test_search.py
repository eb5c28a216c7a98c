import dataclasses
import functools
import heapq
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphplan import search as search_module
from morphplan.esdf import (
    BodyGeometry,
    BoxObstacle,
    SphereObstacle,
    build_grid,
    compute_esdf,
    points_in_bounds,
    query_distance_many,
)
from morphplan.search import (
    InvalidGoalError,
    InvalidStartError,
    NoPathError,
    PlanState,
    SearchConfig,
    _connect_cost,
    _primitive_cost_batch,
    _propagate_batch,
    _states_valid,
    search,
    write_path_csv,
)
from morphplan.scenario import parse_scenario


def empty_field(extent=(4.0, 4.0, 2.0), resolution=0.1):
    return compute_esdf(build_grid([], [0, 0, 0], list(extent), resolution), truncation=5.0)


def small_body():
    return BodyGeometry(height=0.12, n_theta=8, n_l=1)


def fast_config(**kw):
    base = dict(u_max=np.array([1.5, 1.5, 1.5, 0.3]), dt_min=0.4, dt_max=0.8,
                duration_samples=2, v_max=2.0, radius_rate_max=0.4, d_margin=0.08,
                sorr_weight=4.0, time_weight=2.0, pos_dedup=0.2, radius_dedup=0.02,
                node_budget=60000)
    base.update(kw)
    return SearchConfig(**base)


def propagate(state, u, dt):
    """The state one primitive reaches, as the search's batch propagation
    computes it."""
    return PlanState.from_array(_propagate_batch(state.as_array(), np.reshape(u, (1, 4)), dt)[0])


def primitive_cost(u, r_end, dt, cfg):
    """One primitive's cost, as the search's batch cost computes it."""
    return float(_primitive_cost_batch(np.reshape(u, (1, 4)), np.array([r_end]), dt, cfg)[0])


def is_valid(state, field, body, cfg):
    """One state's validity, as the search's batch check decides it."""
    return bool(_states_valid(field, body, cfg, state.position.reshape(1, 3),
                              np.array([state.radius]), state.velocity.reshape(1, 3),
                              np.array([state.radius_rate]))[0])


def heuristic(state, goal, cfg):
    """The search's cost-to-go bound from state to goal over all four flat
    axes, as its batch connection cost computes it."""
    x, g = state.as_array(), goal.as_array()
    cost, _ = _connect_cost((g[:4] - x[:4])[None, :], x[None, 4:], g[None, 4:], cfg.time_weight)
    return float(cost[0])


class TestPropagate:
    def test_zero_input(self):
        s = PlanState(position=[1, 2, 3], radius=0.2, velocity=[0.5, 0, -0.1], radius_rate=0.05)
        out = propagate(s, np.zeros(4), 0.7)
        assert np.allclose(out.position, s.position + 0.7 * s.velocity)
        assert np.allclose(out.velocity, s.velocity)
        assert out.radius == pytest.approx(0.2 + 0.7 * 0.05)
        assert out.radius_rate == pytest.approx(0.05)

    def test_position_axis_hand_case(self):
        s = PlanState(position=np.zeros(3), radius=0.3, velocity=np.zeros(3))
        out = propagate(s, [1.0, 0, 0, 0], 0.5)
        assert np.allclose(out.position, [0.125, 0, 0])
        assert np.allclose(out.velocity, [0.5, 0, 0])
        assert out.radius == pytest.approx(0.3)

    def test_radius_axis_hand_case(self):
        s = PlanState(position=np.zeros(3), radius=0.3, velocity=np.zeros(3), radius_rate=0.0)
        out = propagate(s, [0, 0, 0, -0.4], 0.5)
        assert out.radius == pytest.approx(0.25)
        assert out.radius_rate == pytest.approx(-0.2)


class TestPrimitiveCost:
    def test_zero_control_at_max_radius(self):
        cfg = fast_config(time_weight=1.5)
        assert primitive_cost(np.zeros(4), cfg.r_max, 2.0, cfg) == pytest.approx(3.0)

    def test_hand_case(self):
        cfg = fast_config(sorr_weight=10.0, time_weight=1.0, r_max=0.2)
        u = np.array([2.0, 0.0, 0.0, 0.0])  # ||u||^2 = 4
        got = primitive_cost(u, 0.5 * cfg.r_max, 1.0, cfg)
        assert got == pytest.approx(4.0 + 10.0 * 0.25 + 1.0)

    def test_degenerate_weights(self):
        cfg = fast_config(sorr_weight=0.0, time_weight=0.0)
        u = np.array([1.0, 1.0, 0.0, 0.0])
        assert primitive_cost(u, 0.15, 0.7, cfg) == pytest.approx(2.0 * 0.7)


class TestIsValid:
    def test_open_space_valid(self):
        field = empty_field()
        cfg = fast_config()
        s = PlanState(position=[2, 2, 1], radius=0.2, velocity=[1, 0, 0])
        assert is_valid(s, field, small_body(), cfg)

    def test_narrow_slot_invalid_at_r_max(self):
        # two walls leaving a slot of half-width < r_max + margin
        obstacles = [
            BoxObstacle(lo=np.array([1.8, 0.0, 0.0]), hi=np.array([2.2, 0.8, 2.0])),
            BoxObstacle(lo=np.array([1.8, 1.2, 0.0]), hi=np.array([2.2, 4.0, 2.0])),
        ]
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 4, 2], 0.1), truncation=5.0)
        cfg = fast_config(d_margin=0.1)
        s = PlanState(position=[2.0, 1.0, 1.0], radius=cfg.r_max, velocity=np.zeros(3))
        assert not is_valid(s, field, small_body(), cfg)

    def test_rate_bound_violation(self):
        field = empty_field()
        cfg = fast_config()
        s = PlanState(position=[2, 2, 1], radius=0.2, velocity=np.zeros(3),
                      radius_rate=1.01 * cfg.radius_rate_max)
        assert not is_valid(s, field, small_body(), cfg)

    def test_out_of_map_invalid_not_error(self):
        field = empty_field()
        cfg = fast_config()
        s = PlanState(position=[10, 2, 1], radius=0.2, velocity=np.zeros(3))
        assert not is_valid(s, field, small_body(), cfg)


@functools.cache
def cluttered_field():
    obstacles = [
        BoxObstacle(lo=np.array([1.0, 0.0, 0.0]), hi=np.array([1.3, 1.4, 2.0])),
        BoxObstacle(lo=np.array([2.2, 1.2, 0.0]), hi=np.array([2.6, 3.0, 1.1])),
        SphereObstacle(center=np.array([3.1, 0.9, 1.2]), radius=0.35),
    ]
    return compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 3, 2], 0.1), truncation=5.0)


_position = st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 3.0), st.floats(0.0, 2.0))
_velocity = st.tuples(*[st.floats(-1.5, 1.5)] * 3)


@settings(max_examples=300, deadline=None)
@given(states=st.lists(st.tuples(_position, st.floats(0.131, 0.211), _velocity,
                                 st.floats(-0.4, 0.4)), min_size=1, max_size=24),
       attached=st.booleans())
def test_cheap_pass_never_accepts_an_exact_reject(states, attached):
    """A state the bounding-ball pass accepts must clear at every surface sample."""
    field = cluttered_field()
    body = small_body()
    if attached:
        body = dataclasses.replace(body, attachments=np.array([[0.0, 0.0, -0.25], [0.1, 0.1, -0.2]]))
    cfg = fast_config(d_margin=0.1)
    pos = np.array([s[0] for s in states])
    radius = np.array([s[1] for s in states])
    vel = np.array([s[2] for s in states])
    rate = np.array([s[3] for s in states])
    ok = _states_valid(field, body, cfg, pos, radius, vel, rate)
    pts, _ = body.surface_points(pos, radius)
    flat = pts.reshape(-1, 3)
    inside = points_in_bounds(field, flat).reshape(len(states), -1).all(axis=1)
    clear = query_distance_many(field, flat).reshape(len(states), -1).min(axis=1)
    exact_ok = inside & (clear >= cfg.d_margin)
    assert not np.any(ok & ~exact_ok)


def connect_cost_grid_oracle(dp, v0, v1, w_t, t_max=100.0, step=1e-4):
    """Dense grid search over T for the optimal-cubic connection cost."""
    ts = np.arange(step, t_max + step, step)
    d2 = float(np.dot(dp, dp))
    sv = float(np.dot(dp, v0 + v1))
    s = float(np.dot(v0, v0) + np.dot(v0, v1) + np.dot(v1, v1))
    j = 12 * d2 / ts**3 - 12 * sv / ts**2 + 4 * s / ts + w_t * ts
    return float(j.min())


class TestHeuristic:
    def test_zero_at_goal(self):
        cfg = fast_config()
        g = PlanState(position=[1, 2, 1], radius=0.18, velocity=[0.3, 0, 0], radius_rate=0.01)
        assert heuristic(g, g, cfg) == 0.0

    def test_rest_to_rest_matches_grid_search(self):
        cfg = fast_config(time_weight=2.0)
        a = PlanState(position=np.zeros(3), radius=0.2, velocity=np.zeros(3))
        for d in (0.5, 1.7, 4.0):
            b = PlanState(position=[d, 0, 0], radius=0.2, velocity=np.zeros(3))
            oracle = connect_cost_grid_oracle(
                np.array([d, 0, 0, 0]), np.zeros(4), np.zeros(4), cfg.time_weight)
            assert heuristic(a, b, cfg) == pytest.approx(oracle, rel=1e-6)

    def test_moving_endpoints_match_grid_search(self):
        cfg = fast_config(time_weight=1.3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            dp = rng.normal(size=4)
            v0 = rng.normal(scale=0.5, size=4)
            v1 = rng.normal(scale=0.5, size=4)
            a = PlanState(position=np.zeros(3), radius=0.2, velocity=v0[:3], radius_rate=v0[3])
            b = PlanState(position=dp[:3], radius=0.2 + dp[3] * 0.05, velocity=v1[:3], radius_rate=v1[3])
            dpfull = np.concatenate([b.position - a.position, [b.radius - a.radius]])
            oracle = connect_cost_grid_oracle(dpfull, v0, v1, cfg.time_weight)
            assert heuristic(a, b, cfg) == pytest.approx(oracle, rel=1e-5)


def reference_3d_search(start_p, start_v, goal_p, goal_v, field, body, cfg):
    """Independent fixed-size 3-D kinodynamic A*, mirroring the production
    sampling, dedup and tie-break rules but written from scratch."""
    axes = [np.unique(np.linspace(-cfg.u_max[k], cfg.u_max[k], cfg.accel_samples)) for k in range(3)]
    us = np.array(list(itertools.product(*axes)))
    dts = np.unique(np.linspace(cfg.dt_min, cfg.dt_max, cfg.duration_samples))
    origin = field.lower
    res = field.grid.resolution
    r_fix = cfg.r_max

    def key(p):
        return tuple(np.floor((p - origin) / cfg.pos_dedup).astype(int))

    def h(p, v):
        dp = np.concatenate([goal_p - p, [0.0]])
        v0 = np.concatenate([v, [0.0]])
        v1 = np.concatenate([goal_v, [0.0]])
        return connect_cost_quartic(dp, v0, v1, cfg.time_weight)

    def valid(p, v):
        from morphplan.search import _states_valid

        return bool(_states_valid(field, body, cfg, p.reshape(1, 3), np.array([r_fix]),
                                  v.reshape(1, 3), np.zeros(1))[0])

    nodes = [(start_p.copy(), start_v.copy())]
    gs = [0.0]
    keys = [key(start_p)]
    best = {keys[0]: (0.0, 0)}
    closed = set()
    h0 = h(start_p, start_v)
    heap = [(h0, h0, 0, 0)]
    seq = 1
    while heap:
        f, hh, _, idx = heapq.heappop(heap)
        p, v = nodes[idx]
        k = keys[idx]
        if k is None:
            return gs[idx]
        if k in closed:
            continue
        ent = best.get(k)
        if ent is not None and ent[1] != idx:
            continue
        closed.add(k)
        if np.linalg.norm(p - goal_p) <= cfg.goal_pos_tol:
            return gs[idx]
        for dt in dts:
            arc = (np.linalg.norm(v) + np.linalg.norm(cfg.u_max[:3]) * dt + cfg.u_max[3] * dt) * dt
            n_sub = int(np.clip(np.ceil(arc / (0.5 * res)), 1, 32))
            for u in us:
                p1 = p + v * dt + 0.5 * u * dt * dt
                v1 = v + u * dt
                if np.linalg.norm(v1) > cfg.v_max:
                    continue
                g1 = gs[idx] + float(u @ u) * dt + cfg.time_weight * dt
                at_goal = np.linalg.norm(p1 - goal_p) <= cfg.goal_pos_tol
                ck = None if at_goal else key(p1)
                if ck is not None:
                    if ck in closed:
                        continue
                    ent = best.get(ck)
                    if ent is not None and ent[0] <= g1:
                        continue
                bad = False
                for tsub in dt * (np.arange(1, n_sub + 1) / n_sub):
                    ps = p + v * tsub + 0.5 * u * tsub * tsub
                    vs = v + u * tsub
                    if not valid(ps, vs):
                        bad = True
                        break
                if bad:
                    continue
                nodes.append((p1, v1))
                gs.append(g1)
                keys.append(ck)
                if ck is not None:
                    best[ck] = (g1, len(nodes) - 1)
                    hv = h(p1, v1)
                else:
                    hv = 0.0
                heapq.heappush(heap, (g1 + hv, hv, seq, len(nodes) - 1))
                seq += 1
    return None


def connect_cost_quartic(dp, v0, v1, w_t):
    from morphplan.search import _connect_cost

    c, _ = _connect_cost(dp[None, :], v0[None, :], v1[None, :], w_t)
    return float(c[0])


OPEN = [0.5, 2.5, 1.0]          # clear of every obstacle of cluttered_field
OBSTRUCTED = [1.15, 0.7, 1.0]   # inside its first box
OUTSIDE = [4.5, 1.5, 1.0]       # beyond the map's x bound


@pytest.mark.parametrize("start, goal, error", [
    (OUTSIDE, OPEN, InvalidStartError),
    (OBSTRUCTED, OPEN, InvalidStartError),
    (OBSTRUCTED, OUTSIDE, InvalidStartError),   # the start is checked first
    (OPEN, OUTSIDE, InvalidGoalError),
    (OPEN, OBSTRUCTED, InvalidGoalError),
])
def test_invalid_endpoints_raise(start, goal, error):
    cfg = fast_config(d_margin=0.1)
    ends = [PlanState(position=p, radius=cfg.r_max, velocity=np.zeros(3)) for p in (start, goal)]
    with pytest.raises(error):
        search(*ends, cluttered_field(), small_body(), cfg)


class TestSearch:
    def test_start_equals_goal(self):
        field = empty_field()
        cfg = fast_config()
        s = PlanState(position=[2, 2, 1], radius=cfg.r_max, velocity=np.zeros(3))
        result = search(s, s, field, small_body(), cfg)
        assert len(result.path) == 1
        assert result.cost == 0.0

    def test_free_corridor_keeps_max_radius(self):
        field = empty_field(extent=(6.0, 3.0, 2.0))
        cfg = fast_config()
        start = PlanState(position=[0.5, 1.5, 1.0], radius=cfg.r_max, velocity=np.zeros(3))
        goal = PlanState(position=[5.5, 1.5, 1.0], radius=cfg.r_max, velocity=np.zeros(3))
        result = search(start, goal, field, small_body(), cfg)
        radii = np.array([n.state.radius for n in result.path])
        assert np.all(radii == cfg.r_max)
        # forcing the same primitive sequence to r_min would cost strictly more
        shrink = ((cfg.r_min - cfg.r_max) / cfg.r_max) ** 2
        total_t = sum(n.duration for n in result.path)
        forced = result.cost + cfg.sorr_weight * shrink * total_t
        assert result.cost < forced

    def test_g_values_consistent(self):
        field = empty_field(extent=(6.0, 3.0, 2.0))
        cfg = fast_config()
        start = PlanState(position=[0.5, 1.5, 1.0], radius=cfg.r_max, velocity=np.zeros(3))
        goal = PlanState(position=[5.0, 2.0, 1.0], radius=cfg.r_max, velocity=np.zeros(3))
        result = search(start, goal, field, small_body(), cfg)
        total = 0.0
        for node in result.path[1:]:
            total += primitive_cost(node.control, node.state.radius, node.duration, cfg)
        assert total == pytest.approx(result.cost, abs=1e-9)

    def test_all_primitive_subsamples_valid(self):
        field = empty_field(extent=(6.0, 3.0, 2.0))
        cfg = fast_config()
        start = PlanState(position=[0.5, 1.5, 1.0], radius=cfg.r_max, velocity=np.zeros(3))
        goal = PlanState(position=[5.0, 1.5, 1.0], radius=cfg.r_max, velocity=np.zeros(3))
        result = search(start, goal, field, small_body(), cfg)
        for prev, node in zip(result.path, result.path[1:]):
            for frac in np.linspace(0.1, 1.0, 10):
                s = propagate(prev.state, node.control, frac * node.duration)
                assert is_valid(s, field, small_body(), cfg)

    def test_slot_forces_shrink_and_blocks_fixed_max(self):
        # vertical slit: interpolated half-gap 0.35 m, so with margin 0.15 the
        # radius must drop below r* = 0.2 < r_max to pass
        obstacles = [
            BoxObstacle(lo=np.array([2.3, 0.0, 0.0]), hi=np.array([2.7, 0.7, 1.6])),
            BoxObstacle(lo=np.array([2.3, 1.3, 0.0]), hi=np.array([2.7, 3.0, 1.6])),
        ]
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [5, 3, 1.6], 0.1), truncation=5.0)
        body = small_body()
        cfg = fast_config(d_margin=0.15, u_max=np.array([1.5, 1.5, 1.5, 0.3]),
                          sorr_weight=4.0, node_budget=200000)
        start = PlanState(position=[0.6, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
        goal = PlanState(position=[4.4, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
        result = search(start, goal, field, body, cfg)
        radii = np.array([n.state.radius for n in result.path])
        assert radii.min() < 0.2
        assert radii[0] == cfg.r_max and abs(radii[-1] - cfg.r_max) <= cfg.goal_radius_tol

        frozen = dataclasses.replace(cfg, u_max=np.array([1.5, 1.5, 1.5, 0.0]),
                                     r_min=cfg.r_max, node_budget=400000)
        with pytest.raises(NoPathError):
            search(start, goal, field, body, frozen)

    def test_dijkstra_not_worse_than_guided(self):
        field = empty_field(extent=(4.0, 2.0, 1.6))
        body = small_body()
        cfg = fast_config(pos_dedup=0.25)
        start = PlanState(position=[0.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
        goal = PlanState(position=[3.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
        guided = search(start, goal, field, body, cfg)
        blind = search(start, goal, field, body, dataclasses.replace(cfg, use_heuristic=False))
        assert blind.cost <= guided.cost + 1e-9

    def test_guided_within_5pct_of_exhaustive(self):
        body = small_body()
        rng = np.random.default_rng(9)
        for trial in range(3):
            obstacles = []
            for _ in range(2):
                c = rng.uniform([1.2, 0.4, 0.4], [2.8, 1.6, 1.2])
                obstacles.append(BoxObstacle(lo=c - 0.2, hi=c + 0.2))
            field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 2, 1.6], 0.1), truncation=5.0)
            cfg = fast_config(pos_dedup=0.25, node_budget=300000)
            start = PlanState(position=[0.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
            goal = PlanState(position=[3.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
            if not (is_valid(start, field, body, cfg) and is_valid(goal, field, body, cfg)):
                continue
            guided = search(start, goal, field, body, cfg)
            optimal = search(start, goal, field, body,
                             dataclasses.replace(cfg, use_heuristic=False))
            assert guided.cost <= 1.05 * optimal.cost + 1e-9

    def test_matches_reference_3d_with_frozen_radius(self):
        body = small_body()
        rng = np.random.default_rng(31)
        checked = 0
        for trial in range(30):
            obstacles = []
            for _ in range(rng.integers(0, 3)):
                c = rng.uniform([1.0, 0.5, 0.5], [3.0, 1.5, 1.1])
                obstacles.append(BoxObstacle(lo=c - rng.uniform(0.1, 0.3, 3), hi=c + rng.uniform(0.1, 0.3, 3)))
            field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 2, 1.6], 0.1), truncation=5.0)
            cfg = fast_config(sorr_weight=0.0, pos_dedup=0.25,
                              u_max=np.array([1.5, 1.5, 1.5, 0.0]), node_budget=300000)
            start = PlanState(position=[0.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
            goal = PlanState(position=[3.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
            if not (is_valid(start, field, body, cfg) and is_valid(goal, field, body, cfg)):
                continue
            try:
                mine = search(start, goal, field, body, cfg)
            except NoPathError:
                ref = reference_3d_search(start.position, start.velocity, goal.position,
                                          goal.velocity, field, body, cfg)
                assert ref is None
                continue
            ref = reference_3d_search(start.position, start.velocity, goal.position,
                                      goal.velocity, field, body, cfg)
            assert ref is not None
            assert mine.cost == pytest.approx(ref, abs=1e-9)
            checked += 1
            if checked >= 20:
                break
        assert checked >= 10

    def test_csv_export(self, tmp_path):
        field = empty_field(extent=(4.0, 2.0, 1.6))
        cfg = fast_config()
        start = PlanState(position=[0.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
        goal = PlanState(position=[3.5, 1.0, 0.8], radius=cfg.r_max, velocity=np.zeros(3))
        result = search(start, goal, field, small_body(), cfg)
        out = tmp_path / "path.csv"
        write_path_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z,r,vx,vy,vz,vr,ux,uy,uz,ur"
        assert len(lines) == len(result.path) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:4] == pytest.approx(list(start.position))


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (state, control, duration) of every path node
BENCHMARK_LEG_PATH = [
    ([1.2, 1.0, 0.8, 0.211, 0.0, 0.0, 0.0, 0.0], None, 0.0),
    ([1.3875, 1.0, 0.8, 0.211, 0.75, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0], 0.5),
    ([1.7625, 0.8125, 0.8, 0.211, 0.75, -0.75, 0.0, 0.0], [0.0, -1.5, 0.0, 0.0], 0.5),
    ([2.1375, 0.4375, 0.8, 0.211, 0.75, -0.75, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.5),
    ([2.5125, 0.25, 0.8, 0.211, 0.75, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0], 0.5),
    ([2.8875, 0.25, 0.8, 0.211, 0.75, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.5),
    ([3.6375, 1.0, 0.8, 0.211, 0.75, 1.5, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0], 1.0),
]
SLOT_FINE_PATH = [
    ([0.6, 1.0, 0.8, 0.211, 0.0, 0.0, 0.0, 0.0], None, 0.0),
    ([1.08, 1.0, 0.8, 0.211, 1.2000000000000002, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0], 0.8),
    ([1.56, 1.0, 0.8, 0.211, 1.2000000000000002, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.4),
    ([2.04, 1.0, 0.8, 0.187, 1.2000000000000002, 0.0, 0.0, -0.12], [0.0, 0.0, 0.0, -0.3], 0.4),
    ([3.0, 1.0, 0.8, 0.187, 1.2000000000000002, 0.0, 0.0, 0.12], [0.0, 0.0, 0.0, 0.3], 0.8),
    ([3.48, 1.0, 0.8, 0.211, 1.2000000000000002, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.3], 0.4),
    ([4.44, 1.0, 0.8, 0.211, 1.2000000000000002, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.8),
]


@pytest.mark.parametrize("name, resolution, map_seed, ends, expansions, cost, path, points", [
    # benchmark.json, map seed 0, x = 1.2 -> 3.8 m past the first sphere
    ("benchmark", None, 0, ([1.2, 1.0, 0.8], [3.8, 1.0, 0.8]), 73, 12.625, BENCHMARK_LEG_PATH, 422999),
    # slot at 0.05 m, shrinking through the gap
    ("slot", 0.05, None, None, 18, 9.268202061948294, SLOT_FINE_PATH, 196983),
])
def test_adaptive_search_golden(monkeypatch, name, resolution, map_seed, ends, expansions, cost,
                                path, points):
    """Expansions, cost and every path node pinned exactly, and the number of
    points the collision checks query, so that no wasted validity work creeps in."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    if resolution is not None:
        raw["map"]["resolution"] = resolution
    if ends is not None:
        raw["start"]["position"], raw["goal"]["position"] = ends
    scenario = parse_scenario(raw)
    field = scenario.build_field(map_seed=map_seed)
    body = scenario.opt_problem(field, "adaptive").body
    queried = []
    query = search_module.query_distance_many

    def counting_query(field, points, *args, **kwargs):
        queried.append(len(points))
        return query(field, points, *args, **kwargs)

    monkeypatch.setattr(search_module, "query_distance_many", counting_query)
    result = search(scenario.plan_state(scenario.start, "adaptive"),
                    scenario.plan_state(scenario.goal, "adaptive"),
                    field, body, scenario.search_config("adaptive"))
    assert result.expansions == expansions
    assert result.cost == cost
    assert len(result.path) == len(path)
    for node, (state, control, duration) in zip(result.path, path):
        assert node.state.as_array().tolist() == state
        assert (node.control is None and control is None) or node.control.tolist() == control
        assert node.duration == duration
    assert sum(queried) == points
