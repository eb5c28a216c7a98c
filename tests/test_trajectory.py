import numpy as np
import pytest

import scipy.linalg
from scipy.linalg import LinAlgWarning

from morphplan.trajectory import (
    MinJerkSystem,
    PiecewiseTrajectory,
    _lu_factor,
    _lu_solve,
    basis_rows,
    fit_min_jerk,
    jerk_energy,
    jerk_energy_matrices,
    read_coeff_dump,
    read_sample_csv,
    write_coeff_dump,
    write_numeric_csv,
    write_sample_csv,
)

from conftest import jerk_energy_matrix, poly_basis


def rest(value4):
    b = np.zeros((3, 4))
    b[0] = value4
    return b


def at(traj, t, order=0):
    """The order-th derivative of the four channels at global time t, as the
    program evaluates it (`PiecewiseTrajectory.sample`)."""
    return traj.sample([t], orders=(order,))[0, 0]


class TestEval:
    def test_constant_trajectory(self):
        coeffs = np.zeros((2, 6, 4))
        coeffs[:, 0, :] = [1.0, 2.0, 3.0, 0.2]
        traj = PiecewiseTrajectory(durations=[1.0, 1.5], coeffs=coeffs)
        for t in (0.0, 0.7, 1.0, 2.49):
            assert np.allclose(at(traj, t, 0), [1, 2, 3, 0.2])
            assert np.allclose(at(traj, t, 1), 0.0)

    def test_quadratic_second_derivative(self):
        coeffs = np.zeros((1, 6, 4))
        coeffs[0, 2, 0] = 1.0  # x(t) = t^2
        traj = PiecewiseTrajectory(durations=[2.0], coeffs=coeffs)
        for t in (0.0, 0.3, 1.9):
            assert at(traj, t, 2)[0] == pytest.approx(2.0)

    def test_domain_errors(self):
        coeffs = np.zeros((1, 6, 4))
        traj = PiecewiseTrajectory(durations=[1.0], coeffs=coeffs)
        with pytest.raises(ValueError):
            at(traj, -0.1)
        with pytest.raises(ValueError):
            at(traj, 1.2)

    def test_junction_selects_right_piece_and_total_time_last(self):
        coeffs = np.zeros((2, 6, 4))
        coeffs[0, 1, 0] = 1.0  # piece 1: x = tau
        coeffs[1, 0, 0] = 1.0  # piece 2: x = 1 + 2 tau
        coeffs[1, 1, 0] = 2.0
        traj = PiecewiseTrajectory(durations=[1.0, 1.0], coeffs=coeffs)
        assert at(traj, 1.0, 1)[0] == pytest.approx(2.0)  # right piece at junction
        assert at(traj, 2.0, 0)[0] == pytest.approx(3.0)  # last piece at t = T

    def test_sample_matches_eval(self):
        rng = np.random.default_rng(5)
        traj = fit_min_jerk(rng.normal(size=(3, 4)), rng.uniform(0.5, 2.0, size=4),
                            rest(np.zeros(4)), rest(np.ones(4)))
        times = np.concatenate([rng.uniform(0.0, traj.total_time, 30),
                                np.cumsum(traj.durations)[:-1], [0.0, traj.total_time]])
        got = traj.sample(times, orders=(0, 1, 2, 3))
        for j, t in enumerate(times):
            i, tau = traj.piece_index(t)
            for order in range(4):
                assert np.array_equal(got[j, order], poly_basis(tau, order) @ traj.coeffs[i])
        with pytest.raises(ValueError):
            traj.sample([0.5, -0.1], (0,))
        with pytest.raises(ValueError):
            traj.sample([traj.total_time + 0.1], (0,))

    def test_minco_junction_continuity(self):
        rng = np.random.default_rng(4)
        wps = rng.normal(size=(3, 4))
        durs = rng.uniform(0.5, 2.0, size=4)
        traj = fit_min_jerk(wps, durs, rest(np.zeros(4)), rest(np.ones(4)))
        t1 = durs[0]
        for order in range(3):
            before = at(traj, t1 - 1e-12, order)
            after = at(traj, t1 + 1e-12, order)
            assert np.all(np.abs(before - after) < 1e-6)


class TestExactForms:
    """The batched forms equal the per-piece and per-order formulas they
    replace bit for bit, sign bits included: the optimizer carries any
    last-bit change into the planned trajectory."""

    def test_basis_rows_equal_the_per_order_formula(self):
        rng = np.random.default_rng(11)
        edges = [0.0, -0.0, 1.0, 2.0, 1e-300, 5e-324, -1.5, 1e300, np.inf, np.nan]
        times = [np.concatenate([rng.uniform(1e-3, 1e2, 4000), 10.0 ** rng.uniform(-6, 3, 4000),
                                 edges]),
                 rng.uniform(0.0, 3.0, (7, 16)), 0.0, 1.37]
        with np.errstate(over="ignore", invalid="ignore"):
            for t in times:
                for orders in (range(6), range(4), (3,), (0, 2)):
                    rows = basis_rows(t, orders)
                    assert rows.shape == (len(orders),) + np.shape(t) + (6,)
                    for block, d in zip(rows, orders):
                        assert block.flags.c_contiguous
                        assert block.tobytes() == poly_basis(t, d).tobytes()

    def test_jerk_energy_matrices_equal_the_per_piece_closed_form(self):
        durations = 10.0 ** np.random.default_rng(12).uniform(-3, 2, 5000)
        durations[:2] = 1e-3, 1e2
        q = jerk_energy_matrices(durations)
        assert q.shape == (len(durations), 6, 6)
        for qi, t in zip(q, durations):
            assert qi.tobytes() == jerk_energy_matrix(t).tobytes()

    def test_lu_equals_scipy(self):
        """`_lu_factor` and `_lu_solve` run the LAPACK routines that
        scipy.linalg.lu_factor and lu_solve run, with their checks."""
        rng = np.random.default_rng(14)
        for m in (1, 3, 8):
            system = MinJerkSystem(rng.uniform(0.1, 3.0, m))
            mat = rng.normal(size=(6 * m, 6 * m))
            lu, piv = _lu_factor(mat)
            want_lu, want_piv = scipy.linalg.lu_factor(mat)
            assert lu.tobytes() == want_lu.tobytes() and np.array_equal(piv, want_piv)
            rhs = rng.normal(size=(6 * m, 4))
            for trans in (0, 1):
                want = scipy.linalg.lu_solve((want_lu, want_piv), rhs, trans=trans)
                assert _lu_solve((lu, piv), rhs, trans).tobytes() == want.tobytes()
            assert system.adjoint(rhs).tobytes() == scipy.linalg.lu_solve(
                system._lu, rhs, trans=1).tobytes()

    def test_lu_keeps_scipys_checks(self):
        with pytest.raises(ValueError):
            MinJerkSystem([1.0, np.inf])
        system = MinJerkSystem([1.0, 2.0])
        with pytest.raises(ValueError):
            system.solve(np.full((1, 4), np.nan), rest(np.zeros(4)), rest(np.ones(4)))
        with pytest.raises(ValueError):
            system.adjoint(np.full((12, 4), np.inf))
        with pytest.warns(LinAlgWarning, match="Singular matrix"):
            _lu_factor(np.zeros((3, 3)))


class TestFit:
    def test_single_piece_rest_to_rest_is_classic_quintic(self):
        b0 = rest(np.array([0.0, 0, 0, 0]))
        b1 = rest(np.array([1.0, 0, 0, 0]))
        traj = fit_min_jerk(np.zeros((0, 4)), [1.0], b0, b1)
        expect = np.zeros((6, 4))
        expect[3, 0], expect[4, 0], expect[5, 0] = 10.0, -15.0, 6.0
        assert np.allclose(traj.coeffs[0], expect, atol=1e-9)

    def test_constant_waypoints_zero_jerk(self):
        value = np.array([0.5, -1.0, 2.0, 0.2])
        wps = np.tile(value, (3, 1))
        traj = fit_min_jerk(wps, [1.0, 0.8, 1.2, 0.9], rest(value), rest(value))
        ts = np.linspace(0, traj.total_time, 40)
        for t in ts:
            assert np.allclose(at(traj, t, 0), value, atol=1e-9)
        assert jerk_energy(traj, range(4)) == pytest.approx(0.0, abs=1e-18)

    def test_boundary_conditions_satisfied(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = int(rng.integers(1, 6))
            wps = rng.normal(size=(m - 1, 4))
            durs = rng.uniform(0.4, 2.5, size=m)
            b0 = rng.normal(size=(3, 4))
            b1 = rng.normal(size=(3, 4))
            traj = fit_min_jerk(wps, durs, b0, b1)
            for d in range(3):
                assert np.allclose(at(traj, 0.0, d), b0[d], atol=1e-9)
                assert np.allclose(at(traj, traj.total_time, d), b1[d], atol=1e-9)
            for i in range(m - 1):
                t = float(np.sum(durs[: i + 1]))
                assert np.allclose(at(traj, t, 0), wps[i], atol=1e-9)

    def test_c2_continuity_at_junctions(self):
        rng = np.random.default_rng(13)
        wps = rng.normal(size=(4, 4))
        durs = rng.uniform(0.3, 2.0, size=5)
        traj = fit_min_jerk(wps, durs, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        ends = np.cumsum(durs)[:-1]
        for t in ends:
            for d in range(3):
                left = poly_basis(traj.piece_index(t - 1e-15)[1], d)
                i, tau = traj.piece_index(t)
                im1 = i - 1
                v_left = poly_basis(traj.durations[im1], d) @ traj.coeffs[im1]
                v_right = poly_basis(0.0, d) @ traj.coeffs[i]
                assert np.allclose(v_left, v_right, atol=1e-8)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            fit_min_jerk(np.zeros((1, 4)), [1.0, 0.0], rest(np.zeros(4)), rest(np.zeros(4)))

    def test_beats_naive_hermite_on_jerk_energy(self):
        # naive oracle: per-piece quintic Hermite with zero mid velocities/accels
        def hermite(wps, durs, b0, b1):
            pts = np.vstack([b0[0], wps, b1[0]])
            vels = np.vstack([b0[1], np.zeros_like(wps), b1[1]])
            accs = np.vstack([b0[2], np.zeros_like(wps), b1[2]])
            coeffs = np.empty((len(durs), 6, 4))
            for i, t in enumerate(durs):
                a_mat = np.vstack([poly_basis(0.0, d) for d in range(3)]
                                  + [poly_basis(t, d) for d in range(3)])
                rhs = np.vstack([pts[i], vels[i], accs[i], pts[i + 1], vels[i + 1], accs[i + 1]])
                coeffs[i] = np.linalg.solve(a_mat, rhs)
            return PiecewiseTrajectory(durations=durs, coeffs=coeffs)

        rng = np.random.default_rng(77)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            wps = rng.normal(size=(m - 1, 4))
            durs = rng.uniform(0.5, 2.0, size=m)
            b0 = rng.normal(size=(3, 4))
            b1 = rng.normal(size=(3, 4))
            optimal = fit_min_jerk(wps, durs, b0, b1)
            naive = hermite(wps, durs, b0, b1)
            assert jerk_energy(optimal, range(4)) <= jerk_energy(naive, range(4)) + 1e-9

    def test_jerk_energy_matches_quadrature(self):
        rng = np.random.default_rng(6)
        wps = rng.normal(size=(2, 4))
        durs = rng.uniform(0.5, 1.5, size=3)
        traj = fit_min_jerk(wps, durs, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        from scipy.integrate import simpson

        total = 0.0
        t_cursor = 0.0
        for i in range(traj.n_pieces):
            ts = np.linspace(0, traj.durations[i], 1025)
            jerk = np.stack([poly_basis(t, 3) @ traj.coeffs[i] for t in ts])
            total += simpson((jerk**2).sum(axis=1), x=ts)
            t_cursor += traj.durations[i]
        assert jerk_energy(traj, range(4)) == pytest.approx(total, rel=1e-8)


class TestIo:
    def test_coeff_dump_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        wps = rng.normal(size=(2, 4))
        durs = rng.uniform(0.5, 1.5, size=3)
        traj = fit_min_jerk(wps, durs, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        p = tmp_path / "coeffs.txt"
        write_coeff_dump(traj, p)
        back = read_coeff_dump(p)
        assert np.allclose(back.durations, traj.durations, rtol=0, atol=0)
        assert np.allclose(back.coeffs, traj.coeffs, rtol=1e-16, atol=1e-300)
        # the header holds the piece count and the minimum-jerk order, always 3
        lines = p.read_text().splitlines()
        assert lines[0].split() == [str(traj.n_pieces), "3"]
        p.write_text("\n".join([f"{traj.n_pieces} 5"] + lines[1:]))
        with pytest.raises(ValueError):
            read_coeff_dump(p)

    def test_numeric_csv_writes_each_value_at_17_digits(self, tmp_path):
        """The one CSV writer prints each value as format(v, ".17g") does, over
        600 decades and on signed zeros, a subnormal, infinities and NaN, and
        reads back exactly."""
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-300, 300, size=(200, 4))
        rows[0] = [0.0, -0.0, 5e-324, np.inf]
        rows[1, :2] = [-np.inf, np.nan]
        p = tmp_path / "rows.csv"
        write_numeric_csv(p, rows, "a,b,c,d")
        lines = ["a,b,c,d"] + [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]
        assert p.read_text() == "\n".join(lines) + "\n"
        back = np.loadtxt(p, delimiter=",", skiprows=1)
        assert np.array_equal(back, rows, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(rows))

    def test_sample_csv(self, tmp_path):
        traj = fit_min_jerk(np.zeros((0, 4)), [2.0], rest(np.zeros(4)), rest(np.array([1.0, 0, 0, 0.2])))
        p = tmp_path / "traj.csv"
        write_sample_csv(traj, p)
        times, data = read_sample_csv(p)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2.0)
        assert len(times) == 201
        assert data[-1, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert data[-1, 0, 3] == pytest.approx(0.2, abs=1e-12)
        assert data[50, 1, 0] == pytest.approx(at(traj, 0.5, 1)[0], abs=1e-12)
