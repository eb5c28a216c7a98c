import dataclasses

import numpy as np
import pytest

from morphplan.esdf import BodyGeometry, BoxObstacle, SphereObstacle, build_grid, compute_esdf
from morphplan import traj_opt
from morphplan.search import SearchResult
from morphplan.traj_opt import (
    MIN_PIECE_DURATION,
    OptProblem,
    SeedTooShortError,
    _coefficients,
    _hinge,
    attach_payload,
    objective_and_gradient,
    optimize,
    seed_to_pieces,
    trajectory_costs,
    verify_trajectory,
)
from morphplan.trajectory import MinJerkSystem, fit_min_jerk, jerk_energy

from conftest import plan_rows, poly_basis


def boundary(p, r, v=(0, 0, 0), vr=0.0):
    b = np.zeros((3, 4))
    b[0, :3] = p
    b[0, 3] = r
    b[1, :3] = v
    b[1, 3] = vr
    return b


def empty_problem(extent=(6.0, 3.0, 2.0), **kw):
    field = compute_esdf(build_grid([], [0, 0, 0], list(extent), 0.1), band=5.0)
    body = BodyGeometry(height=0.12, n_theta=8, n_l=1)
    defaults = dict(field=field, body=body,
                    sigma0=boundary([0.5, 1.5, 1.0], 0.211),
                    sigmaf=boundary([5.5, 1.5, 1.0], 0.211),
                    v_max=2.0, a_max=4.0, radius_rate_max=0.4, radius_acc_max=2.0,
                    d_margin=0.1, sorr_weight=8.0, time_weight=2.0, kappa=16)
    defaults.update(kw)
    return OptProblem(**defaults)


def seed(states, durations):
    """A search result holding the chain of states (K, 8) and the durations
    (K-1,) of the primitives between them."""
    durations = np.asarray(durations, dtype=float)
    return SearchResult(states=states, controls=np.zeros((len(durations), 4)),
                        durations=durations, cost=0.0, expansions=0)


def straight_seed(p0, p1, r, n=4, dt=1.0):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    k = np.arange(n + 1)[:, None]
    return seed(plan_rows(p0 + (p1 - p0) * k / n, r), np.full(n, dt))


class TestObjective:
    def test_straight_line_reduces_to_energy_plus_time(self):
        prob = empty_problem()
        wps = np.array([[2.0, 1.5, 1.0, 0.211], [3.5, 1.5, 1.0, 0.211]])
        durs = np.array([2.0, 2.0, 2.0])
        val, gq, gtau = objective_and_gradient(wps, durs, prob)
        from morphplan.trajectory import PiecewiseTrajectory

        traj = PiecewiseTrajectory(durations=durs,
                                   coeffs=_coefficients(MinJerkSystem(durs), wps, prob))
        expect = jerk_energy(traj, range(4)) + prob.time_weight * durs.sum()
        assert val == pytest.approx(expect, rel=1e-12)

    def test_single_piece_matches_closed_form(self):
        # rest-to-rest distance d over one piece: jerk energy 720 d^2 / T^5
        prob = empty_problem(sorr_weight=0.0, v_max=100.0, a_max=1000.0, w_clearance=0.0)
        d = 3.0
        prob = dataclasses.replace(prob, sigmaf=boundary([3.5, 1.5, 1.0], 0.211))
        for t in (1.5, 2.0, 3.0):
            val, _, _ = objective_and_gradient(np.zeros((0, 4)), np.array([t]), prob)
            assert val == pytest.approx(720 * d**2 / t**5 + prob.time_weight * t, rel=1e-10)

    def test_penalty_cubic_growth(self):
        for delta in (1e-3, 1e-2, 1e-1):
            pen, _ = _hinge(np.array([delta]))
            assert pen[0] == pytest.approx(delta**3)
        pen, dpen = _hinge(np.array([-0.5, 0.0]))
        assert pen.tolist() == [0.0, 0.0] and dpen.tolist() == [0.0, 0.0]

    def test_gradient_matches_finite_differences(self):
        # mix of empty and obstructed maps, active and inactive penalties
        rng = np.random.default_rng(42)
        obstacles = [SphereObstacle(center=np.array([3.0, 1.5, 1.0]), radius=0.35)]
        field_obs = compute_esdf(build_grid(obstacles, [0, 0, 0], [6, 3, 2], 0.1), band=5.0)
        worst = 0.0
        for trial in range(10):
            prob = empty_problem(v_max=1.0, radius_rate_max=0.2, a_max=2.0)
            if trial % 2 == 1:
                prob = dataclasses.replace(prob, field=field_obs)
            m = int(rng.integers(2, 5))
            wps = np.empty((m - 1, 4))
            wps[:, 0] = np.sort(rng.uniform(1.0, 5.0, m - 1))
            wps[:, 1] = rng.uniform(1.0, 2.0, m - 1)
            wps[:, 2] = rng.uniform(0.7, 1.3, m - 1)
            wps[:, 3] = rng.uniform(0.14, 0.21, m - 1)
            tau = rng.uniform(-0.3, 0.6, m)
            x0 = np.concatenate([wps.ravel(), tau])

            def fun(x):
                q = x[: (m - 1) * 4].reshape(m - 1, 4)
                t = np.exp(x[(m - 1) * 4:])
                val, gq, gtau = objective_and_gradient(q, t, prob)
                return val, np.concatenate([gq.ravel(), gtau])

            val, grad = fun(x0)
            h = 1e-6
            fd = np.empty_like(x0)
            for k in range(len(x0)):
                e = np.zeros_like(x0)
                e[k] = h
                fd[k] = (fun(x0 + e)[0] - fun(x0 - e)[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-9)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_frozen_radius_gradient_matches_fd(self):
        prob = empty_problem(radius_frozen=True)
        rng = np.random.default_rng(3)
        m = 3
        wps = np.empty((m - 1, 4))
        wps[:, 0] = [2.0, 4.0]
        wps[:, 1] = rng.uniform(1.2, 1.8, m - 1)
        wps[:, 2] = rng.uniform(0.8, 1.2, m - 1)
        wps[:, 3] = prob.frozen_radius
        tau = rng.uniform(0.0, 0.5, m)

        def fun(x):
            q = np.zeros((m - 1, 4))
            q[:, :3] = x[: (m - 1) * 3].reshape(m - 1, 3)
            q[:, 3] = prob.frozen_radius
            t = np.exp(x[(m - 1) * 3:])
            val, gq, gtau = objective_and_gradient(q, t, prob)
            return val, np.concatenate([gq[:, :3].ravel(), gtau])

        x0 = np.concatenate([wps[:, :3].ravel(), tau])
        val, grad = fun(x0)
        h = 1e-6
        fd = np.empty_like(x0)
        for k in range(len(x0)):
            e = np.zeros_like(x0)
            e[k] = h
            fd[k] = (fun(x0 + e)[0] - fun(x0 - e)[0]) / (2 * h)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-9) < 1e-4


def golden_problem():
    """Four pieces past a sphere, too fast, with waypoint radii outside [r_min,
    r_max]: the clearance, velocity and radius-box hinges are all active."""
    obstacles = [SphereObstacle(center=np.array([3.0, 1.5, 1.0]), radius=0.35)]
    prob = empty_problem(v_max=1.0, a_max=2.0, radius_rate_max=0.2)
    prob = dataclasses.replace(prob, field=compute_esdf(build_grid(obstacles, [0, 0, 0], [6, 3, 2], 0.1), band=5.0))
    wps = np.array([[2.0, 1.3, 1.0, 0.18], [3.0, 1.05, 1.0, 0.125], [4.0, 1.3, 1.0, 0.23]])
    return prob, wps, np.array([1.2, 1.0, 1.0, 1.3])


class TestGoldenObjective:
    """Value and gradients pinned bit for bit: the sampled terms, the one
    clearance batch per evaluation and the adjoint keep their arithmetic."""

    def test_adaptive_multi_piece(self):
        prob, wps, durs = golden_problem()
        val, gq, gtau = objective_and_gradient(wps, durs, prob)
        assert val == 95285.34904246301
        assert np.array_equal(gq, [
            [581025.5865215027, -66968.76101946742, 0.0, -15.963842570910726],
            [-58448.44106740906, 3547.9054854599094, 0.0, 456.56353166119914],
            [-115018.52866362117, -17663.841321097254, 0.0, 190.83243343722043]])
        assert np.array_equal(gtau, [-1358223.1961244126, 3511.216656761429,
                                     -20835.01726860142, -303091.85868775845])

    def test_frozen_radius_payload(self):
        prob, wps, durs = golden_problem()
        prob = attach_payload(prob, size=[0.1, 0.1, 0.05], offset=[0.0, 0.0, -0.1])
        wps[:, 3] = 0.211
        val, gq, gtau = objective_and_gradient(wps, durs, prob)
        assert val == 95374.97245561898
        assert np.array_equal(gq, [
            [581134.4813986777, -66823.18316351283, -0.9905308405747006, 0.0],
            [-58294.42283482465, 4099.775174273699, -38.216622363487694, 0.0],
            [-115036.95536079029, -17673.014855443445, 0.009051428347552097, 0.0]])
        assert np.array_equal(gtau, [-1358277.0654854185, 3594.468495233117,
                                     -20760.133751074987, -303102.0948056048])


class TestOptimize:
    def test_straight_line_reaches_analytic_optimum(self):
        prob = empty_problem(sorr_weight=8.0)
        seed = straight_seed([0.5, 1.5, 1.0], [5.5, 1.5, 1.0], 0.211, n=1, dt=2.5)
        traj, report = optimize(seed, prob)
        assert report.converged
        d = 5.0
        w = prob.time_weight
        t_star = (3600.0 * d * d / w) ** (1.0 / 6.0)
        j_star = 720.0 * d * d / t_star**5 + w * t_star
        val, _, _ = objective_and_gradient(np.zeros((0, 4)), traj.durations, prob)
        assert val == pytest.approx(j_star, abs=1e-6)
        assert report.sorr == 0.0
        assert report.rce == 0.0

    def test_monotone_improvement(self):
        # record the objective at each accepted L-BFGS iterate
        import scipy.optimize

        prob = empty_problem()
        seed = straight_seed([0.5, 1.5, 1.0], [5.5, 1.7, 1.0], 0.211, n=4, dt=1.2)
        values = []
        orig = scipy.optimize.minimize

        def capture(fun, x0, **kw):
            def wrapped(x):
                v, g = fun(x)
                return v, g

            kw["callback"] = lambda xk: values.append(wrapped(xk)[0])
            return orig(wrapped, x0, **kw)

        scipy.optimize.minimize = capture
        try:
            import morphplan.traj_opt as mod

            mod.minimize = capture
            optimize(seed, prob)
        finally:
            scipy.optimize.minimize = orig
            mod.minimize = orig
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)

    def test_slot_shrinks_radius_near_slot_only(self):
        obstacles = [
            BoxObstacle(lo=np.array([2.8, 0.0, 0.0]), hi=np.array([3.2, 0.7, 2.0])),
            BoxObstacle(lo=np.array([2.8, 1.3, 0.0]), hi=np.array([3.2, 3.0, 2.0])),
        ]
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [6, 3, 2], 0.1), band=5.0)
        prob = empty_problem(d_margin=0.15, sorr_weight=20.0)
        prob = dataclasses.replace(prob, field=field,
                                   sigma0=boundary([0.5, 1.0, 1.0], 0.211),
                                   sigmaf=boundary([5.5, 1.0, 1.0], 0.211))
        # seed passes through the slot already small
        knots = plan_rows([[0.5, 1.0, 1.0], [1.6, 1.0, 1.0], [2.6, 1.0, 1.0], [3.4, 1.0, 1.0],
                           [4.4, 1.0, 1.0], [5.5, 1.0, 1.0]],
                          np.array([0.211, 0.19, 0.15, 0.15, 0.19, 0.211]))
        traj, report = optimize(seed(knots, np.full(5, 1.2)), prob)
        residuals = verify_trajectory(traj, prob)
        assert residuals["clearance"] <= 1e-3
        ts = np.linspace(0, traj.total_time, 200)
        xs, rs = traj.sample(ts, (0,))[:, 0, [0, 3]].T
        assert rs[(xs > 2.85) & (xs < 3.15)].max() < 0.2  # shrunk through the slot
        assert rs[(xs < 1.0) | (xs > 5.0)].min() > 0.19  # large away from it

    def test_frozen_radius_constant_with_attachments(self):
        prob = empty_problem(sigma0=boundary([0.5, 1.5, 1.0], 0.15),
                             sigmaf=boundary([5.5, 1.5, 1.0], 0.15))
        prob = attach_payload(prob, size=[0.1, 0.1, 0.2], offset=[0.0, 0.0, -0.2])
        seed = straight_seed([0.5, 1.5, 1.0], [5.5, 1.5, 1.0], 0.15, n=3, dt=1.5)
        traj, report = optimize(seed, prob)
        ts = np.linspace(0, traj.total_time, 100)
        rs = traj.sample(ts, (0,))[:, 0, 3]
        assert np.all(np.abs(rs - 0.15) < 1e-12)
        assert report.rce == 0.0

    def test_iterations_sum_over_escalated_solves(self, monkeypatch):
        """A gate that fails once forces a second, escalated solve: the report
        counts the iterations of both, and its converged flag is the last
        solve's."""
        infos = []
        solve = traj_opt._solve

        def recording_solve(q, tau, problem):
            out = solve(q, tau, problem)
            infos.append(out[2])
            return out

        verify = traj_opt.verify_trajectory

        def failing_once(traj, problem):
            residuals = verify(traj, problem)
            return dict(residuals, clearance=1.0) if len(infos) == 1 else residuals

        monkeypatch.setattr(traj_opt, "_solve", recording_solve)
        monkeypatch.setattr(traj_opt, "verify_trajectory", failing_once)
        seed_path = straight_seed([0.5, 1.5, 1.0], [5.5, 1.5, 1.0], 0.211, n=4, dt=1.2)
        _, report = optimize(seed_path, empty_problem())
        assert len(infos) == 2 and infos[0]["iterations"] > 0
        assert report.iterations == infos[0]["iterations"] + infos[1]["iterations"]
        assert report.converged == infos[1]["converged"]

    def test_seed_too_short(self):
        prob = empty_problem()
        with pytest.raises(SeedTooShortError):
            optimize(seed(plan_rows([[0.5, 1.5, 1.0]], 0.211), []), prob)


class TestAttachPayload:
    def test_zero_size_box_only_freezes(self):
        prob = empty_problem()
        out = attach_payload(prob, size=[0, 0, 0], offset=[0, 0, -0.1])
        assert out.radius_frozen
        assert len(out.body.attachments) == len(prob.body.attachments)

    def test_paper_sized_box_extends_geometry(self):
        prob = empty_problem(sigma0=boundary([0.5, 1.5, 1.0], 0.15),
                             sigmaf=boundary([5.5, 1.5, 1.0], 0.15))
        out = attach_payload(prob, size=[0.20, 0.20, 0.40], offset=[0.0, 0.0, -0.26])
        pts = out.body.attachments
        assert len(pts) > 0
        assert pts[:, 2].min() == pytest.approx(-0.46)
        assert pts[:, 2].max() == pytest.approx(-0.06)
        assert pts[:, 0].max() == pytest.approx(0.10)

    def test_payload_clearance_never_larger(self):
        obstacles = [SphereObstacle(center=np.array([3.0, 1.5, 0.5]), radius=0.3)]
        field = compute_esdf(build_grid(obstacles, [0, 0, 0], [6, 3, 2], 0.1), band=5.0)
        prob = empty_problem()
        prob = dataclasses.replace(prob, field=field)
        loaded = attach_payload(prob, size=[0.2, 0.2, 0.4], offset=[0, 0, -0.26])
        from morphplan.esdf import clearance_batch

        for center in ([3.0, 1.5, 1.2], [2.5, 1.5, 1.0], [3.5, 1.8, 1.1]):
            d0 = clearance_batch(field, [center], [0.15], prob.body)[0][0]
            d1 = clearance_batch(field, [center], [0.15], loaded.body)[0][0]
            assert d1 <= d0 + 1e-15


class TestInvariantsAndCosts:
    def test_objective_identity_jerk_energy(self):
        prob = empty_problem(sorr_weight=0.0, time_weight=0.0,
                             v_max=100.0, a_max=100.0, radius_rate_max=100.0,
                             radius_acc_max=100.0, w_clearance=0.0)
        rng = np.random.default_rng(10)
        wps = np.array([[2.0, 1.6, 1.1, 0.18], [4.0, 1.4, 0.9, 0.2]])
        durs = np.array([1.3, 1.1, 1.7])
        val, _, _ = objective_and_gradient(wps, durs, prob)
        from morphplan.trajectory import PiecewiseTrajectory
        from scipy.integrate import simpson

        traj = PiecewiseTrajectory(durations=durs,
                                   coeffs=_coefficients(MinJerkSystem(durs), wps, prob))
        total = 0.0
        for i in range(traj.n_pieces):
            ts = np.linspace(0, durs[i], 1025)
            jerk = np.stack([poly_basis(t, 3) @ traj.coeffs[i] for t in ts])
            total += simpson((jerk**2).sum(axis=1), x=ts)
        assert val == pytest.approx(total, rel=1e-6)

    def test_sorr_scale_property(self):
        prob = empty_problem()
        r_max, r_min = prob.body.r_max, prob.body.r_min
        for r, expect_rate in ((r_max, 0.0), (r_min, ((r_min - r_max) / r_max) ** 2)):
            traj = fit_min_jerk(np.zeros((0, 4)), [2.5],
                                boundary([0.5, 1.5, 1.0], r), boundary([3.0, 1.5, 1.0], r))
            costs = trajectory_costs(traj, prob)
            assert costs["sorr"] == pytest.approx(expect_rate * 2.5, abs=1e-12)

    def test_total_cost_identity(self):
        prob = empty_problem()
        seed = straight_seed([0.5, 1.5, 1.0], [5.0, 1.8, 1.2], 0.211, n=3, dt=1.4)
        traj, report = optimize(seed, prob)
        recomputed = report.pce + report.rce + prob.sorr_weight * report.sorr \
            + prob.time_weight * report.time_cost
        assert report.total_cost == pytest.approx(recomputed, abs=1e-9)

    def test_verification_sweep_on_accepted_output(self):
        from morphplan.traj_opt import GATE_FAMILIES

        prob = empty_problem(v_max=1.2, a_max=2.5)
        seed = straight_seed([0.5, 1.5, 1.0], [5.5, 1.5, 1.0], 0.211, n=4, dt=1.2)
        traj, report = optimize(seed, prob)
        residuals = verify_trajectory(traj, prob)
        assert max(residuals[k] for k in GATE_FAMILIES) <= 1e-3


def test_seed_to_pieces_merges_short_primitives():
    states = plan_rows([[k, 0.0, 0.0] for k in range(6)], 0.2)
    wps, durs = seed_to_pieces(states, np.array([0.04, 0.05, 0.5, 0.03, 0.6]))
    assert MIN_PIECE_DURATION == 0.1
    assert np.all(durs >= 0.1)
    assert durs.sum() == pytest.approx(0.04 + 0.05 + 0.5 + 0.03 + 0.6)
    assert len(wps) == len(durs) - 1
