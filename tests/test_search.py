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
    SearchConfig,
    _connect_cost,
    _primitive_cost_batch,
    _propagate_batch,
    _states_valid,
    search,
    write_path_csv,
)
from morphplan.scenario import parse_scenario
from morphplan.traj_opt import OptProblem

from conftest import plan_rows


def empty_field(extent=(4.0, 4.0, 2.0), resolution=0.1):
    return compute_esdf(build_grid([], [0, 0, 0], list(extent), resolution), truncation=5.0)


def small_body():
    return BodyGeometry(height=0.12, n_theta=8, n_l=1)


def fast_config(**kw):
    base = dict(u_max=np.array([1.5, 1.5, 1.5, 0.3]), dt_min=0.4, dt_max=0.8,
                duration_samples=2, pos_dedup=0.2, radius_dedup=0.02, node_budget=60000)
    base.update(kw)
    return SearchConfig(**base)


R_MAX = small_body().r_max


def boundary(state):
    """The (3, 4) boundary rows of a state (8,) at rest in acceleration."""
    sigma = np.zeros((3, 4))
    sigma[:2] = state.reshape(2, 4)
    return sigma


def fast_problem(start, goal, field, body=None, **kw):
    """The planning problem from start to goal, with the limits and weights
    of these tests."""
    base = dict(v_max=2.0, radius_rate_max=0.4, d_margin=0.08, sorr_weight=4.0, time_weight=2.0)
    base.update(kw)
    return OptProblem(field=field, body=small_body() if body is None else body,
                      sigma0=boundary(start), sigmaf=boundary(goal), **base)


def propagate(state, u, dt):
    """The state one primitive reaches, as the search's batch propagation
    computes it."""
    return _propagate_batch(state, np.reshape(u, (1, 4)), dt)[0]


def primitive_cost(u, r_end, dt, problem):
    """One primitive's cost under the problem's weights, as the search's
    batch cost computes it for a radius that is not frozen."""
    return float(_primitive_cost_batch(np.reshape(u, (1, 4)), np.array([r_end]), dt,
                                       problem.body.r_max, problem.sorr_weight,
                                       problem.time_weight)[0])


def is_valid(state, problem):
    """One state's validity under the problem, as the search's batch check
    decides it."""
    return bool(_states_valid(problem, state[None, :3], state[None, 3], state[None, 4:7],
                              state[None, 7])[0])


def heuristic(state, goal, time_weight):
    """The search's cost-to-go bound from state to goal over all four flat
    axes, as its batch connection cost computes it."""
    cost, _ = _connect_cost((goal[:4] - state[:4])[None, :], state[None, 4:], goal[None, 4:],
                            time_weight)
    return float(cost[0])


def blind(monkeypatch):
    """Turn the search's cost-to-go bound off: a uniform-cost search."""
    def zero_cost(dp, v0, v1, w_t):
        n = len(np.atleast_2d(dp))
        return np.zeros(n), np.zeros(n)

    monkeypatch.setattr(search_module, "_connect_cost", zero_cost)


class TestPropagate:
    def test_zero_input(self):
        s = plan_rows([1, 2, 3], 0.2, [0.5, 0, -0.1], 0.05)
        out = propagate(s, np.zeros(4), 0.7)
        assert np.allclose(out[:3], s[:3] + 0.7 * s[4:7])
        assert np.allclose(out[4:7], s[4:7])
        assert out[3] == pytest.approx(0.2 + 0.7 * 0.05)
        assert out[7] == pytest.approx(0.05)

    def test_position_axis_hand_case(self):
        s = plan_rows(np.zeros(3), 0.3)
        out = propagate(s, [1.0, 0, 0, 0], 0.5)
        assert np.allclose(out[:3], [0.125, 0, 0])
        assert np.allclose(out[4:7], [0.5, 0, 0])
        assert out[3] == pytest.approx(0.3)

    def test_radius_axis_hand_case(self):
        s = plan_rows(np.zeros(3), 0.3, radius_rate=0.0)
        out = propagate(s, [0, 0, 0, -0.4], 0.5)
        assert out[3] == pytest.approx(0.25)
        assert out[7] == pytest.approx(-0.2)


AT_REST = plan_rows([2, 2, 1], R_MAX)


class TestPrimitiveCost:
    def test_zero_control_at_max_radius(self):
        prob = fast_problem(AT_REST, AT_REST, None, time_weight=1.5)
        assert primitive_cost(np.zeros(4), R_MAX, 2.0, prob) == pytest.approx(3.0)

    def test_hand_case(self):
        body = dataclasses.replace(small_body(), r_max=0.2)
        prob = fast_problem(AT_REST, AT_REST, None, body, sorr_weight=10.0, time_weight=1.0)
        u = np.array([2.0, 0.0, 0.0, 0.0])  # ||u||^2 = 4
        got = primitive_cost(u, 0.1, 1.0, prob)
        assert got == pytest.approx(4.0 + 10.0 * 0.25 + 1.0)

    def test_degenerate_weights(self):
        prob = fast_problem(AT_REST, AT_REST, None, sorr_weight=0.0, time_weight=0.0)
        u = np.array([1.0, 1.0, 0.0, 0.0])
        assert primitive_cost(u, 0.15, 0.7, prob) == pytest.approx(2.0 * 0.7)


class TestIsValid:
    def test_open_space_valid(self):
        s = plan_rows([2, 2, 1], 0.2, [1, 0, 0])
        assert is_valid(s, fast_problem(s, s, empty_field()))

    def test_narrow_slot_invalid_at_r_max(self):
        # two walls leaving a slot of half-width < r_max + margin
        obstacles = [
            BoxObstacle(lo=np.array([1.8, 0.0, 0.0]), hi=np.array([2.2, 0.8, 2.0])),
            BoxObstacle(lo=np.array([1.8, 1.2, 0.0]), hi=np.array([2.2, 4.0, 2.0])),
        ]
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 4, 2], 0.1), truncation=5.0)
        s = plan_rows([2.0, 1.0, 1.0], R_MAX)
        assert not is_valid(s, fast_problem(s, s, field, d_margin=0.1))

    def test_rate_bound_violation(self):
        s = plan_rows([2, 2, 1], 0.2, radius_rate=1.01 * 0.4)
        assert not is_valid(s, fast_problem(s, s, empty_field(), radius_rate_max=0.4))

    def test_out_of_map_invalid_not_error(self):
        s = plan_rows([10, 2, 1], 0.2)
        assert not is_valid(s, fast_problem(s, s, empty_field()))


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
    prob = fast_problem(AT_REST, AT_REST, field, body, d_margin=0.1)
    pos = np.array([s[0] for s in states])
    radius = np.array([s[1] for s in states])
    vel = np.array([s[2] for s in states])
    rate = np.array([s[3] for s in states])
    ok = _states_valid(prob, pos, radius, vel, rate)
    pts, _ = body.surface_points(pos, radius)
    flat = pts.reshape(-1, 3)
    inside = points_in_bounds(field, flat).reshape(len(states), -1).all(axis=1)
    clear = query_distance_many(field, flat).reshape(len(states), -1).min(axis=1)
    exact_ok = inside & (clear >= prob.d_margin)
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
        g = plan_rows([1, 2, 1], 0.18, [0.3, 0, 0], 0.01)
        assert heuristic(g, g, 2.0) == 0.0

    def test_rest_to_rest_matches_grid_search(self):
        a = plan_rows(np.zeros(3), 0.2)
        for d in (0.5, 1.7, 4.0):
            b = plan_rows([d, 0, 0], 0.2)
            oracle = connect_cost_grid_oracle(np.array([d, 0, 0, 0]), np.zeros(4), np.zeros(4), 2.0)
            assert heuristic(a, b, 2.0) == pytest.approx(oracle, rel=1e-6)

    def test_moving_endpoints_match_grid_search(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dp = rng.normal(size=4)
            v0 = rng.normal(scale=0.5, size=4)
            v1 = rng.normal(scale=0.5, size=4)
            a = plan_rows(np.zeros(3), 0.2, v0[:3], v0[3])
            b = plan_rows(dp[:3], 0.2 + dp[3] * 0.05, v1[:3], v1[3])
            oracle = connect_cost_grid_oracle(b[:4] - a[:4], v0, v1, 1.3)
            assert heuristic(a, b, 1.3) == pytest.approx(oracle, rel=1e-5)


def reference_3d_search(prob, cfg):
    """Independent fixed-size 3-D kinodynamic A* at the problem's start
    radius, mirroring the production sampling, dedup and tie-break rules but
    written from scratch: no radius control, no radius cost."""
    start_p, goal_p = prob.sigma0[0, :3], prob.sigmaf[0, :3]
    start_v, goal_v = prob.sigma0[1, :3], prob.sigmaf[1, :3]
    axes = [np.unique(np.linspace(-cfg.u_max[k], cfg.u_max[k], cfg.accel_samples)) for k in range(3)]
    us = np.array(list(itertools.product(*axes)))
    dts = np.unique(np.linspace(cfg.dt_min, cfg.dt_max, cfg.duration_samples))
    origin = prob.field.lower
    res = prob.field.grid.resolution
    r_fix = prob.frozen_radius

    def key(p):
        return tuple(np.floor((p - origin) / cfg.pos_dedup).astype(int))

    def h(p, v):
        dp = np.concatenate([goal_p - p, [0.0]])
        v0 = np.concatenate([v, [0.0]])
        v1 = np.concatenate([goal_v, [0.0]])
        return connect_cost_quartic(dp, v0, v1, prob.time_weight)

    def valid(p, v):
        return bool(_states_valid(prob, p.reshape(1, 3), np.array([r_fix]), v.reshape(1, 3),
                                  np.zeros(1))[0])

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
            arc = (np.linalg.norm(v) + np.linalg.norm(cfg.u_max[:3]) * dt) * dt
            n_sub = int(np.clip(np.ceil(arc / (0.5 * res)), 1, 32))
            for u in us:
                p1 = p + v * dt + 0.5 * u * dt * dt
                v1 = v + u * dt
                if np.linalg.norm(v1) > prob.v_max:
                    continue
                g1 = gs[idx] + float(u @ u) * dt + prob.time_weight * dt
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
    ends = [plan_rows(p, R_MAX) for p in (start, goal)]
    with pytest.raises(error):
        search(fast_problem(*ends, cluttered_field(), d_margin=0.1), fast_config())


def rest(position, radius=R_MAX):
    return plan_rows(position, radius)


class TestSearch:
    def test_start_equals_goal(self):
        s = rest([2, 2, 1])
        result = search(fast_problem(s, s, empty_field()), fast_config())
        assert result.states.tolist() == [s.tolist()]
        assert result.controls.shape == (0, 4) and result.durations.shape == (0,)
        assert result.cost == 0.0

    def test_free_corridor_keeps_max_radius(self):
        prob = fast_problem(rest([0.5, 1.5, 1.0]), rest([5.5, 1.5, 1.0]),
                            empty_field(extent=(6.0, 3.0, 2.0)))
        result = search(prob, fast_config())
        assert np.all(result.states[:, 3] == R_MAX)
        # forcing the same primitive sequence to r_min would cost strictly more
        shrink = ((prob.body.r_min - R_MAX) / R_MAX) ** 2
        total_t = result.durations.sum()
        forced = result.cost + prob.sorr_weight * shrink * total_t
        assert result.cost < forced

    def test_g_values_consistent(self):
        prob = fast_problem(rest([0.5, 1.5, 1.0]), rest([5.0, 2.0, 1.0]),
                            empty_field(extent=(6.0, 3.0, 2.0)))
        result = search(prob, fast_config())
        total = 0.0
        for u, state, dt in zip(result.controls, result.states[1:], result.durations):
            total += primitive_cost(u, state[3], dt, prob)
        assert total == pytest.approx(result.cost, abs=1e-9)

    def test_all_primitive_subsamples_valid(self):
        prob = fast_problem(rest([0.5, 1.5, 1.0]), rest([5.0, 1.5, 1.0]),
                            empty_field(extent=(6.0, 3.0, 2.0)))
        result = search(prob, fast_config())
        for prev, u, dt in zip(result.states, result.controls, result.durations):
            for frac in np.linspace(0.1, 1.0, 10):
                s = propagate(prev, u, frac * dt)
                assert is_valid(s, prob)

    def test_slot_forces_shrink_and_blocks_fixed_max(self):
        # vertical slit: interpolated half-gap 0.35 m, so with margin 0.15 the
        # radius must drop below r* = 0.2 < r_max to pass
        obstacles = [
            BoxObstacle(lo=np.array([2.3, 0.0, 0.0]), hi=np.array([2.7, 0.7, 1.6])),
            BoxObstacle(lo=np.array([2.3, 1.3, 0.0]), hi=np.array([2.7, 3.0, 1.6])),
        ]
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [5, 3, 1.6], 0.1), truncation=5.0)
        cfg = fast_config(u_max=np.array([1.5, 1.5, 1.5, 0.3]), node_budget=200000)
        prob = fast_problem(rest([0.6, 1.0, 0.8]), rest([4.4, 1.0, 0.8]), field, d_margin=0.15,
                            sorr_weight=4.0)
        result = search(prob, cfg)
        radii = result.states[:, 3]
        assert radii.min() < 0.2
        assert radii[0] == R_MAX and abs(radii[-1] - R_MAX) <= cfg.goal_radius_tol

        frozen = dataclasses.replace(prob, radius_frozen=True)
        with pytest.raises(NoPathError):
            search(frozen, dataclasses.replace(cfg, node_budget=400000))

    def test_dijkstra_not_worse_than_guided(self, monkeypatch):
        prob = fast_problem(rest([0.5, 1.0, 0.8]), rest([3.5, 1.0, 0.8]),
                            empty_field(extent=(4.0, 2.0, 1.6)))
        cfg = fast_config(pos_dedup=0.25)
        guided = search(prob, cfg)
        blind(monkeypatch)
        unguided = search(prob, cfg)
        assert unguided.cost <= guided.cost + 1e-9

    def test_guided_within_5pct_of_exhaustive(self, monkeypatch):
        rng = np.random.default_rng(9)
        cfg = fast_config(pos_dedup=0.25, node_budget=300000)
        problems = []
        for trial in range(3):
            obstacles = []
            for _ in range(2):
                c = rng.uniform([1.2, 0.4, 0.4], [2.8, 1.6, 1.2])
                obstacles.append(BoxObstacle(lo=c - 0.2, hi=c + 0.2))
            field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 2, 1.6], 0.1), truncation=5.0)
            start, goal = rest([0.5, 1.0, 0.8]), rest([3.5, 1.0, 0.8])
            prob = fast_problem(start, goal, field)
            if is_valid(start, prob) and is_valid(goal, prob):
                problems.append(prob)
        guided = [search(prob, cfg).cost for prob in problems]
        blind(monkeypatch)
        for prob, cost in zip(problems, guided):
            assert cost <= 1.05 * search(prob, cfg).cost + 1e-9

    def test_matches_reference_3d_with_frozen_radius(self):
        """A frozen search has no radius control and no radius cost, whatever
        the config's radius acceleration and the problem's sorr weight."""
        rng = np.random.default_rng(31)
        cfg = fast_config(pos_dedup=0.25, node_budget=300000)
        assert cfg.u_max[3] > 0.0
        checked = 0
        for trial in range(30):
            obstacles = []
            for _ in range(rng.integers(0, 3)):
                c = rng.uniform([1.0, 0.5, 0.5], [3.0, 1.5, 1.1])
                obstacles.append(BoxObstacle(lo=c - rng.uniform(0.1, 0.3, 3), hi=c + rng.uniform(0.1, 0.3, 3)))
            field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 2, 1.6], 0.1), truncation=5.0)
            start, goal = rest([0.5, 1.0, 0.8]), rest([3.5, 1.0, 0.8])
            prob = fast_problem(start, goal, field, radius_frozen=True)
            if not (is_valid(start, prob) and is_valid(goal, prob)):
                continue
            try:
                mine = search(prob, cfg)
            except NoPathError:
                assert reference_3d_search(prob, cfg) is None
                continue
            ref = reference_3d_search(prob, cfg)
            assert ref is not None
            assert mine.cost == pytest.approx(ref, abs=1e-9)
            checked += 1
            if checked >= 20:
                break
        assert checked >= 10

    def test_csv_export(self, tmp_path):
        start = rest([0.5, 1.0, 0.8])
        prob = fast_problem(start, rest([3.5, 1.0, 0.8]), empty_field(extent=(4.0, 2.0, 1.6)))
        result = search(prob, fast_config())
        out = tmp_path / "path.csv"
        write_path_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z,r,vx,vy,vz,vr,ux,uy,uz,ur"
        assert len(lines) == len(result.states) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:4] == pytest.approx(list(start[:3]))


def test_search_config_holds_only_the_search_tuning():
    """The limits, weights, radius bounds and endpoints are the problem's;
    the config repeats none of them."""
    own = {f.name for f in dataclasses.fields(SearchConfig)}
    assert own == {"u_max", "dt_min", "dt_max", "accel_samples", "duration_samples", "pos_dedup",
                   "radius_dedup", "node_budget", "goal_pos_tol", "goal_radius_tol"}
    shared = {f.name for cls in (OptProblem, BodyGeometry) for f in dataclasses.fields(cls)}
    assert not own & shared


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


# the two frozen cases fly straight through at their frozen radius
FROZEN_PATH = [
    ([0.6, 1.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0], None, 0.0),
    ([1.08, 1.0, 0.8, 0.0, 1.2000000000000002, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0], 0.8),
    ([2.04, 1.0, 0.8, 0.0, 1.2000000000000002, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.8),
    ([3.0, 1.0, 0.8, 0.0, 1.2000000000000002, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.8),
    ([3.48, 1.0, 0.8, 0.0, 1.2000000000000002, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.4),
    ([4.44, 1.0, 0.8, 0.0, 1.2000000000000002, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 0.8),
]


def frozen_path(radius):
    return [([*state[:3], radius, *state[4:]], control, duration)
            for state, control, duration in FROZEN_PATH]


@pytest.mark.parametrize("name, mode, resolution, map_seed, ends, expansions, cost, path, points", [
    # benchmark.json, map seed 0, x = 1.2 -> 3.8 m past the first sphere
    ("benchmark", "adaptive", None, 0, ([1.2, 1.0, 0.8], [3.8, 1.0, 0.8]), 73, 12.625,
     BENCHMARK_LEG_PATH, 422999),
    # slot at 0.05 m, shrinking through the gap
    ("slot", "adaptive", 0.05, None, None, 18, 9.268202061948294, SLOT_FINE_PATH, 196983),
    # slot at r_min: no radius control, no shrink cost
    ("slot", "fixed-min", None, None, None, 9, 9.0, frozen_path(0.131), 13639),
    # cross_gap's payload freezes the radius at the start's 0.15 m
    ("cross_gap", "adaptive", None, None, None, 9, 9.0, frozen_path(0.15), 253987),
], ids=["benchmark-adaptive", "slot-adaptive-0.05", "slot-fixed-min", "cross_gap-payload"])
def test_search_golden(monkeypatch, tmp_path, name, mode, resolution, map_seed, ends, expansions,
                       cost, path, points):
    """Expansions, cost, every path node and every row of the path's CSV
    export pinned exactly, and the number of points the collision checks
    query, so that no wasted validity work creeps in.  On the frozen cases
    the point count also pins the sub-sample count, which a radius
    acceleration left in `_arc_bound` would raise."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    if resolution is not None:
        raw["map"]["resolution"] = resolution
    if ends is not None:
        raw["start"]["position"], raw["goal"]["position"] = ends
    scenario = parse_scenario(raw)
    problem = scenario.opt_problem(scenario.build_field(map_seed=map_seed), mode)
    assert problem.radius_frozen == (mode != "adaptive" or scenario.payload is not None)
    queried = []
    query = search_module.query_distance_many

    def counting_query(field, points, *args, **kwargs):
        queried.append(len(points))
        return query(field, points, *args, **kwargs)

    monkeypatch.setattr(search_module, "query_distance_many", counting_query)
    result = search(problem, scenario.search_config())
    assert result.expansions == expansions
    assert result.cost == cost
    assert result.states.tolist() == [state for state, _, _ in path]
    assert result.controls.tolist() == [control for _, control, _ in path[1:]]
    assert result.durations.tolist() == [duration for _, _, duration in path[1:]]
    assert sum(queried) == points
    # each CSV row: the time at the state, the state, and the control of the
    # primitive leaving it (zeros on the last row)
    write_path_csv(result, tmp_path / "seed_path.csv")
    lines = (tmp_path / "seed_path.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z,r,vx,vy,vz,vr,ux,uy,uz,ur"
    t = 0.0
    expected = []
    for k, (state, _, duration) in enumerate(path):
        t += duration
        leaving = path[k + 1][1] if k + 1 < len(path) else [0.0] * 4
        expected.append([t, *state, *leaving])
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == expected
