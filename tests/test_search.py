import dataclasses
import functools
import heapq
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from morphplan import search as search_module
from morphplan.esdf import (
    BodyGeometry,
    BoxObstacle,
    SphereObstacle,
    build_grid,
    clearance_batch,
    compute_esdf,
    points_in_bounds,
    query_distance_many,
)
from morphplan.search import (
    MAX_SUBSAMPLES,
    InvalidGoalError,
    InvalidStartError,
    NoPathError,
    SearchConfig,
    _best_first,
    _connect_cost,
    _free_cells,
    _primitive_cost_batch,
    _propagate_batch,
    _start_reaches_goal,
    _states_valid,
    search,
    write_path_csv,
)
from morphplan.scenario import parse_scenario
from morphplan.traj_opt import OptProblem, distance_band

from conftest import plan_rows


def empty_field(extent=(4.0, 4.0, 2.0), resolution=0.1):
    return compute_esdf(build_grid([], [0, 0, 0], list(extent), resolution), band=5.0)


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
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 4, 2], 0.1), band=5.0)
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
    return compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 3, 2], 0.1), band=5.0)


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

    def valid_subsamples(p, v, tsubs):
        """Validity (len(us), len(tsubs)) of every primitive's sub-sampled
        states from (p, v), in one call: the check works row by row, so each
        boolean is the one a single-state call gives."""
        t = tsubs[None, :, None]
        ps = (p + v * t + 0.5 * us[:, None, :] * t * t).reshape(-1, 3)
        vs = (v + us[:, None, :] * t).reshape(-1, 3)
        n = len(ps)
        return _states_valid(prob, ps, np.full(n, r_fix), vs, np.zeros(n)).reshape(len(us), -1)

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
            tsubs = dt * (np.arange(1, n_sub + 1) / n_sub)
            checked = valid_subsamples(p, v, tsubs)
            for u, valid in zip(us, checked):
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
                if not valid.all():
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
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [5, 3, 1.6], 0.1), band=5.0)
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
            field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 2, 1.6], 0.1), band=5.0)
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
            field = compute_esdf(build_grid(obstacles, [0, 0, 0], [4, 2, 1.6], 0.1), band=5.0)
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


def fine_problem(name, mode, resolution):
    """The planning problem of a scenario file in a mode, at another map
    resolution, and the file's search tuning."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    raw["map"]["resolution"] = resolution
    scenario = parse_scenario(raw)
    return scenario.opt_problem(scenario.build_field(map_seed=None), mode), scenario.search_config()


def test_checked_states_are_at_most_one_step_apart(monkeypatch):
    """Along every sub-sampled primitive, from its parent on, consecutive
    checked centres are at most max(res/2, v_max * dt_max / MAX_SUBSAMPLES)
    apart, the step the reachability test allows.  On slot at 0.05 m the
    sub-sample cap binds, so steps exceed res/2."""
    problem, config = fine_problem("slot", "fixed-min", 0.05)
    res = problem.field.grid.resolution
    gaps = []

    def recording(x0, us, dt):
        out = _propagate_batch(x0, us, dt)
        if np.ndim(dt) == 1:  # the sub-sampled states of the kept primitives
            pos = np.concatenate([np.broadcast_to(x0[:3], (len(out), 1, 3)), out[..., :3]], axis=1)
            gaps.append(np.linalg.norm(np.diff(pos, axis=1), axis=-1).max())
        return out

    monkeypatch.setattr(search_module, "_propagate_batch", recording)
    search(problem, config)
    step = max(0.5 * res, problem.v_max * config.dt_max / MAX_SUBSAMPLES)
    assert step == pytest.approx(0.05)
    assert 0.5 * res < max(gaps) <= step


def test_fine_slot_fixed_max_is_refuted_before_the_first_query(monkeypatch):
    """At 0.025 m the reachability test proves that r_max cannot pass the
    slot, so the search raises NoPathError without querying the field."""
    problem, config = fine_problem("slot", "fixed-max", 0.025)
    queried = []
    query = search_module.query_distance_many

    def counting_query(field, points):
        queried.append(len(points))
        return query(field, points)

    monkeypatch.setattr(search_module, "query_distance_many", counting_query)
    with pytest.raises(NoPathError, match="at the frozen radius 0.211 m"):
        search(problem, config)
    # the endpoints' own check reads the interpolant; the test reads none
    assert sum(queried) == 2


def random_grid(draw, resolution):
    """A small map's occupancy, with up to three boxes and spheres, its
    corner anywhere."""
    lower = np.array(draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3)))
    extent = np.array([1.2, 1.0, 0.8])
    obstacles = []
    for _ in range(draw(st.integers(0, 3))):
        centre = lower + extent * np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
        if draw(st.booleans()):
            half = np.array(draw(st.tuples(*[st.floats(0.05, 0.3)] * 3)))
            obstacles.append(BoxObstacle(lo=centre - half, hi=centre + half))
        else:
            obstacles.append(SphereObstacle(center=centre, radius=draw(st.floats(0.05, 0.3))))
    return build_grid(obstacles, lower, lower + extent, resolution)


def random_map(draw, resolution):
    """The field of a `random_grid`, capped at 5 m on both sides."""
    return compute_esdf(random_grid(draw, resolution), band=5.0)


def frozen_body(draw):
    """A body of 3 to 12 angles and 1 or 2 rings, half the time with up to
    four attachments."""
    body = BodyGeometry(height=0.12, n_theta=draw(st.integers(3, 12)), n_l=draw(st.integers(1, 2)))
    if draw(st.booleans()):  # a payload's attachments
        body = dataclasses.replace(body, attachments=np.array(
            draw(st.lists(st.tuples(*[st.floats(-0.2, 0.2)] * 3), min_size=1, max_size=4))))
    return body


@st.composite
def marginal_problems(draw):
    """A frozen problem on a random map, and a centre whose body just keeps
    the problem's clearance margin: the margin is the centre's clearance."""
    resolution = draw(st.sampled_from([0.05, 0.075, 0.1]))
    field = random_map(draw, resolution)
    body = frozen_body(draw)
    radius = draw(st.floats(body.r_min, body.r_max))
    # anywhere its body's samples stay inside the map, up to its faces
    offsets = body.surface_points(np.zeros((1, 3)), np.array([radius]))[0][0]
    lo, hi = field.lower - offsets.min(axis=0), field.upper - offsets.max(axis=0)
    assume(np.all(lo <= hi))
    centre = lo + (hi - lo) * np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
    samples = body.surface_points(centre[None, :], np.array([radius]))[0][0]
    assume(points_in_bounds(field, samples).all())
    # a problem keeps a non-negative margin, so the centre's body is clear
    margin = float(query_distance_many(field, samples).min())
    assume(margin >= 0.0)
    state = plan_rows(field.lower, radius)
    problem = fast_problem(state, state, field, body, radius_frozen=True, d_margin=margin)
    return problem, centre


# fractions of a voxel: its faces, a rounding error either side of them, and
# its middle
_fraction = st.one_of(st.sampled_from([-1e-12, 0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
                      st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(marginal=marginal_problems(), fractions=st.tuples(*[_fraction] * 3))
def test_every_accepted_state_lies_in_a_free_voxel(marginal, fractions):
    """The marginal centre, and a centre at the same fractions of every
    voxel, on or beside its faces and the map's faces or inside it: each
    one `_states_valid` accepts at the frozen radius lies in a voxel
    `_free_cells` marks free."""
    problem, centre = marginal
    field = problem.field
    res = field.grid.resolution
    dims = field.distance.shape
    axes = [field.lower[k] + (np.arange(dims[k]) + fractions[k]) * res for k in range(3)]
    pos = np.vstack([centre, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)])
    n = len(pos)
    ok = _states_valid(problem, pos, np.full(n, problem.frozen_radius), np.zeros((n, 3)),
                       np.zeros(n))
    assert ok[0]
    cells = np.clip(np.floor((pos[ok] - field.lower) / res).astype(np.int64), 0,
                    np.array(dims) - 1)
    assert _free_cells(problem)[tuple(cells.T)].all()


@st.composite
def banded_problems(draw):
    """A frozen problem on a random map, capped at 5 m and at the problem's
    band on both sides, with a random margin and buffer, and random states
    across the map, half of them at r_max."""
    resolution = draw(st.sampled_from([0.025, 0.05, 0.1]))
    grid = random_grid(draw, resolution)
    body = frozen_body(draw)
    radius = draw(st.floats(body.r_min, body.r_max))
    state = plan_rows(grid.origin, radius)
    wide = fast_problem(state, state, compute_esdf(grid, band=5.0), body,
                        radius_frozen=True, d_margin=draw(st.floats(0.0, 0.2)),
                        clearance_buffer=draw(st.floats(0.0, 0.02)))
    banded = dataclasses.replace(wide, field=compute_esdf(grid, distance_band(wide, resolution)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 4000
    pos = rng.uniform(grid.origin, grid.upper, (n, 3))
    radii = np.where(rng.random(n) < 0.5, body.r_max, rng.uniform(body.r_min, body.r_max, n))
    return wide, banded, pos, radii


@settings(max_examples=60, deadline=None)
@given(problems=banded_problems())
def test_the_band_changes_no_answer_below_the_planners_levels(problems):
    """Between the field capped at the problem's band and the same map
    capped at 5 m, bit for bit: every centre distance below the cheap
    pass's level, `d_margin` plus the body's reach at the state's radius;
    every body clearance below the hinge's level, `d_margin` plus
    `clearance_buffer`, with its gradients, on poses whose samples lie in
    the map; `_states_valid`; and `_free_cells`.  A value that differs is
    at or above the level on both fields, or, deep inside an obstacle,
    below sqrt(3) voxels minus the band on both."""
    wide, banded, pos, radii = problems
    body = wide.body
    resolution = wide.field.grid.resolution
    deep = np.sqrt(3.0) * resolution - distance_band(wide, resolution) + 1e-9
    assert deep < 0.0

    def same_below(pair, level):
        """Where `pair`'s values differ, both are at or above `level` or
        both below `deep`; the mask of entries below `level` that agree."""
        low, high = np.minimum(*pair), np.maximum(*pair)
        differ = pair[0] != pair[1]
        assert np.all((low >= level) | (high < deep) | ~differ)
        return (low < level) & (high >= deep)

    centre = [query_distance_many(p.field, pos) for p in (wide, banded)]
    same_below(centre, wide.d_margin + body.max_reach(radii))
    inside = points_in_bounds(wide.field, body.surface_points(pos, radii)[0].reshape(-1, 3))
    inside = inside.reshape(len(pos), -1).all(axis=1)
    wide_c, banded_c = (clearance_batch(p.field, pos[inside], radii[inside], body)
                        for p in (wide, banded))
    low = same_below((wide_c[0], banded_c[0]), wide.d_margin + wide.clearance_buffer)
    for got, want in zip(banded_c, wide_c):
        assert np.array_equal(got[low], want[low])
    n = len(pos)
    valid = [_states_valid(p, pos, radii, np.zeros((n, 3)), np.zeros(n)) for p in (wide, banded)]
    assert np.array_equal(*valid)
    assert np.array_equal(_free_cells(wide), _free_cells(banded))


def walled_query(resolution, gap_lo, gap_hi, radius, start, goal, d_margin, dt_max):
    """A frozen query from start to goal across a wall, at x = 0.8 m, with
    one rectangular gap, from gap_lo to gap_hi in (y, z)."""
    wall = [BoxObstacle(lo=np.array([0.7, 0.0, 0.0]), hi=np.array([0.9, 1.2, gap_lo[1]])),
            BoxObstacle(lo=np.array([0.7, 0.0, gap_hi[1]]), hi=np.array([0.9, 1.2, 0.8])),
            BoxObstacle(lo=np.array([0.7, 0.0, 0.0]), hi=np.array([0.9, gap_lo[0], 0.8])),
            BoxObstacle(lo=np.array([0.7, gap_hi[0], 0.0]), hi=np.array([0.9, 1.2, 0.8]))]
    field = compute_esdf(build_grid(wall, [0, 0, 0], [1.6, 1.2, 0.8], resolution), band=5.0)
    ends = np.stack([plan_rows(start, radius), plan_rows(goal, radius)])
    problem = fast_problem(*ends, field, d_margin=d_margin, radius_frozen=True)
    return problem, fast_config(dt_max=dt_max, node_budget=200000), ends


@st.composite
def walled_queries(draw):
    """A walled query whose gap the body may or may not fit through."""
    gap_lo = np.array([draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 0.4))])
    gap_hi = gap_lo + np.array([draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))])
    start, goal = ([draw(st.floats(x, x + 0.1)), draw(st.floats(0.25, 0.95)),
                    draw(st.floats(0.1, 0.7))] for x in (0.25, 1.25))
    # 1 to 3 voxels between checked states at 0.05 m
    return walled_query(draw(st.sampled_from([0.05, 0.1])), gap_lo, gap_hi,
                        draw(st.floats(0.131, 0.211)), start, goal,
                        d_margin=draw(st.floats(0.0, 0.1)),
                        dt_max=draw(st.sampled_from([0.8, 1.6, 2.4])))


@settings(max_examples=40, deadline=None)
@given(query=walled_queries())
def test_unreachable_means_the_loop_finds_no_path(query):
    """Whenever the reachability test says the goal cannot be reached, the
    best-first loop on its own exhausts its open set."""
    problem, config, ends = query
    valid = _states_valid(problem, ends[:, :3], ends[:, 3], ends[:, 4:7], ends[:, 7])
    assume(valid.all())
    if not _start_reaches_goal(problem, config, ends):
        with pytest.raises(NoPathError, match="open set exhausted"):
            _best_first(problem, config, ends)


@pytest.mark.parametrize("dt_max", [0.8, 1.6, 2.4])
def test_a_closed_wall_is_unreachable_and_exhausts_the_loop(dt_max):
    """The walled query at 0.05 m with a gap of zero width, at steps of 1 to
    3 voxels: the reachability test says unreachable, and the best-first
    loop on its own exhausts its open set.  (At 0.1 m the wall is two voxels
    thick, narrower than the test's three-node window, so the test cannot
    close it.)"""
    problem, config, ends = walled_query(0.05, [0.5, 0.3], [0.5, 0.3], 0.131,
                                         [0.3, 0.6, 0.4], [1.3, 0.6, 0.4], d_margin=0.0,
                                         dt_max=dt_max)
    assert _states_valid(problem, ends[:, :3], ends[:, 3], ends[:, 4:7], ends[:, 7]).all()
    assert not _start_reaches_goal(problem, config, ends)
    with pytest.raises(NoPathError, match="open set exhausted"):
        _best_first(problem, config, ends)


@pytest.mark.parametrize("dt_max, goal_x, goal_pos_tol, reached", [
    (0.8, 1.7, 0.2, False),   # steps of 0.05 m: one voxel, no growth
    (1.6, 1.7, 0.2, True),    # steps of 0.1 m jump the blocked layer
    (0.8, 1.5 + 0.1, 0.2, True),  # the goal ball reaches across the layer
    (0.8, 1.5 + 0.1, 0.04, False),
])
def test_reachability_grows_by_the_step_and_reads_the_goal_ball(monkeypatch, dt_max, goal_x,
                                                               goal_pos_tol, reached):
    """With one layer of voxels blocked across the map, at x in [1.45, 1.5],
    the start's side reaches the goal only if a step of the search can jump
    the layer, or the goal ball reaches back across it."""
    field = empty_field(extent=(3.0, 1.0, 1.0), resolution=0.05)
    free = np.ones(field.distance.shape, dtype=bool)
    free[29] = False
    monkeypatch.setattr(search_module, "_free_cells", lambda problem: free)
    ends = np.stack([rest([0.5, 0.5, 0.5]), rest([goal_x, 0.5, 0.5])])
    problem = fast_problem(*ends, field, radius_frozen=True)
    config = fast_config(dt_max=dt_max, goal_pos_tol=goal_pos_tol)
    assert _start_reaches_goal(problem, config, ends) == reached
