"""Spatio-temporal refinement of a seed path into a smooth 4-D trajectory.

Decision variables are the interior waypoints of a minimum-jerk quintic
spline and the log of each piece duration (positivity by construction).
The objective is the jerk energy of all four channels, a radius
regularization that rewards flying large, a time cost, and cubic hinge
penalties for the sampled velocity/acceleration/deformation-rate/clearance
constraints.  Gradients are exact: the sampled terms chain through the
basis, and the spline coefficient map is differentiated with one adjoint
solve.  The outer loop is scipy's L-BFGS.

One evaluation visits all pieces in one pass: the sample times of every
piece form one (M, kappa) grid, each term is evaluated on it as (M, kappa)
arrays, and the whole-body clearance of all M * kappa samples is one
`clearance_batch` call.  The results are added into the total and the
gradients piece by piece, each piece's terms in a fixed order, so the
rounding of every sum, and with it the optimizer's path, does not depend on
how the work is batched.  The verification gate sweeps all pieces with one
clearance batch as well.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field as _field

import numpy as np
from scipy.optimize import minimize

from .esdf import BodyGeometry, EsdfField, clearance_batch
from .trajectory import (
    N_COEF,
    MinJerkSystem,
    PiecewiseTrajectory,
    jerk_energy,
    jerk_energy_matrix,
    poly_basis,
)

log = logging.getLogger(__name__)

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)  # exact to degree 15


class OptimizationError(RuntimeError):
    pass


class SeedTooShortError(OptimizationError):
    pass


class VerificationFailedError(OptimizationError):
    def __init__(self, residuals: dict):
        self.residuals = residuals
        worst = max(residuals, key=residuals.get)
        super().__init__(f"constraint verification failed, worst residual "
                         f"{residuals[worst]:.3e} ({worst})")


@dataclass
class OptProblem:
    field: EsdfField
    body: BodyGeometry
    sigma0: np.ndarray  # (3, 4): value / velocity / acceleration rows
    sigmaf: np.ndarray
    v_max: float = 2.0
    a_max: float = 4.0
    radius_rate_max: float = 0.4
    radius_acc_max: float = 2.0
    d_margin: float = 0.15
    sorr_weight: float = 8.0
    time_weight: float = 2.0
    w_clearance: float = 1e4
    w_dynamics: float = 1e3
    clearance_buffer: float = 0.005
    kappa: int = 16
    radius_frozen: bool = False

    def __post_init__(self):
        self.sigma0 = np.asarray(self.sigma0, dtype=float).reshape(3, 4)
        self.sigmaf = np.asarray(self.sigmaf, dtype=float).reshape(3, 4)
        if self.kappa < 4:
            raise ValueError("kappa must be at least 4")

    @property
    def frozen_radius(self) -> float:
        return float(self.sigma0[0, 3])


@dataclass
class OptReport:
    pce: float
    rce: float
    sorr: float
    sorr_weighted: float
    time_cost: float
    total_cost: float
    penalty_residuals: dict
    iterations: int
    converged: bool


def attach_payload(problem: OptProblem, size, offset) -> OptProblem:
    """Freeze the radius channel and append a surface sampling of the grasped
    box (dimensions `size`, centered at body-frame `offset`) to the body."""
    size = np.asarray(size, dtype=float).reshape(3)
    offset = np.asarray(offset, dtype=float).reshape(3)
    if np.any(size < 0.0):
        raise ValueError("box dimensions must be non-negative")
    body = problem.body
    if np.all(size == 0.0):
        new_body = body
    else:
        spacing_xy = 2.0 * np.pi * problem.frozen_radius / body.n_theta
        spacing_z = body.height / body.n_l
        pts = _box_surface(size, offset, spacing_xy, spacing_z)
        attachments = np.vstack([body.attachments, pts]) if len(body.attachments) else pts
        new_body = dataclasses.replace(body, attachments=attachments)
    return dataclasses.replace(problem, body=new_body, radius_frozen=True)


def _box_surface(size, offset, spacing_xy, spacing_z):
    half = 0.5 * size
    axes_spacing = np.array([spacing_xy, spacing_xy, spacing_z])
    grids = []
    for ax in range(3):
        n = max(int(np.ceil(size[ax] / axes_spacing[ax])) + 1, 2)
        grids.append(np.linspace(-half[ax], half[ax], n))
    pts = []
    for ax in range(3):
        others = [b for b in range(3) if b != ax]
        ga, gb = np.meshgrid(grids[others[0]], grids[others[1]], indexing="ij")
        for side in (-half[ax], half[ax]):
            face = np.empty((ga.size, 3))
            face[:, ax] = side
            face[:, others[0]] = ga.ravel()
            face[:, others[1]] = gb.ravel()
            pts.append(face)
    pts = np.unique(np.round(np.vstack(pts), 12), axis=0)
    return pts + offset


def seed_to_pieces(path, min_duration: float = 0.1):
    """Turn a primitive chain into (waypoints, durations); primitives shorter
    than min_duration merge into their successor."""
    if len(path) < 2:
        raise SeedTooShortError("seed path needs at least two states")
    waypoints = []
    durations = []
    acc = 0.0
    for node in path[1:]:
        acc += node.duration
        if acc >= min_duration:
            durations.append(acc)
            waypoints.append(np.concatenate([node.state.position, [node.state.radius]]))
            acc = 0.0
    if acc > 0.0:
        if durations:
            durations[-1] += acc
        else:
            durations.append(acc)
            waypoints.append(np.concatenate([path[-1].state.position, [path[-1].state.radius]]))
    waypoints = waypoints[:-1]  # last entry is the terminal state, not a waypoint
    return np.array(waypoints).reshape(-1, 4), np.array(durations)


_XYZ = slice(0, 3)
_R = slice(3, 4)
_XYZR = slice(0, 4)


def _coefficients(system: MinJerkSystem, q, problem: OptProblem) -> np.ndarray:
    """Coefficients (M, 6, 4) of the minimum-jerk spline through the interior
    waypoints q; with the radius frozen only x, y, z are solved and r is held."""
    if not problem.radius_frozen:
        return system.solve(q, problem.sigma0, problem.sigmaf)
    coeffs = np.zeros((system.n_pieces, N_COEF, 4))
    coeffs[:, :, :3] = system.solve(q[:, :3], problem.sigma0[:, :3], problem.sigmaf[:, :3])
    coeffs[:, 0, 3] = problem.frozen_radius
    return coeffs


def _hinge(g):
    """Cubic hinge max(0, g)^3 and its derivative, once differentiable at 0."""
    gp = np.maximum(g, 0.0)
    return gp**3, 3.0 * gp**2


def objective_and_gradient(waypoints, durations, problem: OptProblem):
    """Penalized objective and its exact gradients.

    Returns (J, dJ/dwaypoints (M-1, 4), dJ/dtau (M,)) with tau = log durations.
    In frozen-radius mode the radius column of the waypoint gradient is zero.
    """
    q = np.asarray(waypoints, dtype=float).reshape(-1, 4)
    t_vec = np.asarray(durations, dtype=float).reshape(-1)
    m = len(t_vec)
    system = MinJerkSystem(t_vec)
    coeffs = _coefficients(system, q, problem)

    grad_c = np.zeros_like(coeffs)
    grad_t = np.zeros(m)
    r_max = problem.body.r_max
    r_min = problem.body.r_min
    kappa = problem.kappa
    total = 0.0

    # jerk energy of all channels, closed form
    qms = np.stack([jerk_energy_matrix(t) for t in t_vec])
    for i in range(m):
        total += float(np.einsum("ac,ab,bc->", coeffs[i], qms[i], coeffs[i]))
    grad_c += 2.0 * qms @ coeffs
    jerk_end = system.end_rows[:, 3, None, :] @ coeffs  # (M, 1, 4)
    grad_t += (jerk_end @ jerk_end.transpose(0, 2, 1))[:, 0, 0]

    # time cost
    total += problem.time_weight * float(t_vec.sum())
    grad_t += problem.time_weight

    # sampled terms share one midpoint grid per piece; every term is evaluated
    # on all pieces at once, as (M, kappa) arrays
    frac = (np.arange(kappa) + 0.5) / kappa
    w_quad = t_vec / kappa
    ts = frac[None, :] * t_vec[:, None]
    b0, b1, b2, b3 = (poly_basis(ts, k) for k in range(4))  # (M, kappa, 6)
    sig0, sig1, sig2, sig3 = (b @ coeffs for b in (b0, b1, b2, b3))  # (M, kappa, 4)
    # per term, the pieces it is active on and each one's share of the total
    shares = []

    def add_term(active, val, dval_dsig, basis, chan, dval_dt_direct):
        """On the active pieces: sum of val_j * w_quad with dval/dsig chained
        through the basis; dval_dt_direct is dval/dt along the trajectory
        (coefficients fixed), covering the sample-position dependence on T_i."""
        idx = np.flatnonzero(active)
        if not idx.size:
            return
        wq = w_quad[idx]
        grad_c[idx, :, chan] += (wq[:, None, None] * basis[idx].transpose(0, 2, 1)) @ dval_dsig[idx]
        val_sum = val[idx].sum(axis=1)
        grad_t[idx] += val_sum / kappa
        grad_t[idx] += wq * (dval_dt_direct[idx][:, None, :] @ frac[:, None])[:, 0, 0]
        share = np.zeros(m)
        share[idx] = val_sum * wq
        shares.append((active, share))

    def hinge(g):
        pen, dpen = _hinge(g)
        return pen, dpen, pen.any(axis=1)

    w_dyn = problem.w_dynamics
    # radius regularization (integrated shrink cost)
    r = sig0[..., 3]
    rdot = sig1[..., 3]
    shrink = (r - r_max) / r_max
    val = problem.sorr_weight * shrink**2
    dval = problem.sorr_weight * 2.0 * shrink / r_max
    add_term(np.ones(m, dtype=bool), val, dval[..., None], b0, _R, dval * rdot)

    # velocity bound
    v = sig1[..., :3]
    a = sig2[..., :3]
    pen, dpen, active = hinge(np.einsum("mkj,mkj->mk", v, v) - problem.v_max**2)
    if active.any():
        gdot = 2.0 * np.einsum("mkj,mkj->mk", v, a)
        add_term(active, w_dyn * pen, w_dyn * dpen[..., None] * 2.0 * v, b1, _XYZ,
                 w_dyn * dpen * gdot)

    # acceleration bound
    pen, dpen, active = hinge(np.einsum("mkj,mkj->mk", a, a) - problem.a_max**2)
    if active.any():
        gdot = 2.0 * np.einsum("mkj,mkj->mk", a, sig3[..., :3])
        add_term(active, w_dyn * pen, w_dyn * dpen[..., None] * 2.0 * a, b2, _XYZ,
                 w_dyn * dpen * gdot)

    if not problem.radius_frozen:
        # deformation rate bound
        rdd = sig2[..., 3]
        pen, dpen, active = hinge(rdot**2 - problem.radius_rate_max**2)
        if active.any():
            add_term(active, w_dyn * pen, (w_dyn * dpen * 2.0 * rdot)[..., None], b1, _R,
                     w_dyn * dpen * 2.0 * rdot * rdd)
        # deformation acceleration bound
        pen, dpen, active = hinge(rdd**2 - problem.radius_acc_max**2)
        if active.any():
            rddd = sig3[..., 3]
            add_term(active, w_dyn * pen, (w_dyn * dpen * 2.0 * rdd)[..., None], b2, _R,
                     w_dyn * dpen * 2.0 * rdd * rddd)
        # radius box bounds
        for sign, bound in ((1.0, r_max), (-1.0, r_min)):
            pen, dpen, active = hinge(sign * (r - bound))
            if active.any():
                add_term(active, w_dyn * pen, (w_dyn * dpen * sign)[..., None], b0, _R,
                         w_dyn * dpen * sign * rdot)

    # whole-body clearance (raw radius; the box penalties own out-of-range r),
    # one batch over every sample of every piece.  The margin is buffered: an
    # exterior penalty settles slightly on the infeasible side of an active
    # constraint, and the buffer absorbs that so the true margin still verifies.
    dist, _, gpos, grad = clearance_batch(problem.field, sig0[..., :3].reshape(-1, 3),
                                          r.reshape(-1), problem.body, extend=True)
    dist = dist.reshape(m, kappa)
    gpos = gpos.reshape(m, kappa, 3)
    grad = grad.reshape(m, kappa)
    pen, dpen, active = hinge(problem.d_margin + problem.clearance_buffer - dist)
    if active.any():
        w_cl = problem.w_clearance
        dg_dr = -grad if not problem.radius_frozen else np.zeros_like(grad)
        gdot = -np.einsum("mkj,mkj->mk", gpos, v) + dg_dr * rdot
        dval_dsig = np.concatenate([
            w_cl * dpen[..., None] * -gpos,
            (w_cl * dpen * dg_dr)[..., None],
        ], axis=-1)
        add_term(active, w_cl * pen, dval_dsig, b0, _XYZR, w_cl * dpen * gdot)

    # the shares join the total piece by piece, each piece's terms in the
    # order above, so the total's rounding does not depend on the batching
    taken = np.stack([act for act, _ in shares], axis=1)
    for share in np.stack([sh for _, sh in shares], axis=1)[taken].tolist():
        total += share

    # backpropagate through the spline coefficient map
    chan = _XYZ if problem.radius_frozen else _XYZR
    lam = system.adjoint(grad_c[:, :, chan].reshape(m * N_COEF, -1))
    grad_q = np.zeros((m - 1, 4))
    grad_q[:, chan] = lam[system.waypoint_rows]

    # d(matrix)/dT_i: each duration row's entries are basis rows of order d
    # at T_i, so their derivative is the order d + 1 row at the piece's end
    sig_end = (system.end_rows[:, :, None, :] @ coeffs[:, None, :, chan])[:, :, 0]  # (M, 6, C)
    for i in range(m):
        acc = 0.0
        for row, d, sign in system.duration_rows(i):
            acc += sign * float(lam[row] @ sig_end[i, d + 1])
        grad_t[i] -= acc

    grad_tau = grad_t * t_vec
    return float(total), grad_q, grad_tau, coeffs


def _exact_sorr(traj: PiecewiseTrajectory, r_max: float) -> float:
    """Exact integral of ((r - r_max)/r_max)^2 via Gauss-Legendre per piece."""
    total = 0.0
    for i in range(traj.n_pieces):
        ti = traj.durations[i]
        ts = 0.5 * ti * (_GAUSS_X + 1.0)
        r = poly_basis(ts, 0) @ traj.coeffs[i][:, 3]
        shrink = (r - r_max) / r_max
        total += 0.5 * ti * float(_GAUSS_W @ shrink**2)
    return total


def trajectory_costs(traj: PiecewiseTrajectory, problem: OptProblem) -> dict:
    """Penalty-free cost decomposition of a trajectory."""
    pce = jerk_energy(traj, channels=range(3))
    rce = jerk_energy(traj, channels=(3,))
    sorr = _exact_sorr(traj, problem.body.r_max)
    time_cost = traj.total_time
    total = pce + rce + problem.sorr_weight * sorr + problem.time_weight * time_cost
    return {"pce": pce, "rce": rce, "sorr": sorr, "time_cost": time_cost, "total_cost": total}


def verify_trajectory(traj: PiecewiseTrajectory, problem: OptProblem,
                      samples_per_piece: int | None = None) -> dict:
    """Max violation per constraint family over a dense sample sweep, in
    natural units (m/s, m/s^2, m).  The sweep covers all pieces at once, with
    one clearance batch; each residual is a max, so its value does not depend
    on how the samples are grouped."""
    n = samples_per_piece if samples_per_piece is not None else 4 * problem.kappa
    ts = np.linspace(0.0, traj.durations, n, axis=1)  # (M, n)
    sig0, sig1, sig2 = (poly_basis(ts, k) @ traj.coeffs for k in range(3))  # (M, n, 4)
    r = sig0[..., 3]
    dist, _, _, _ = clearance_batch(problem.field, sig0[..., :3].reshape(-1, 3), r.reshape(-1),
                                    problem.body, extend=True)
    res = {
        "velocity": np.linalg.norm(sig1[..., :3], axis=-1).max() - problem.v_max,
        "acceleration": np.linalg.norm(sig2[..., :3], axis=-1).max() - problem.a_max,
        "radius_rate": np.abs(sig1[..., 3]).max() - problem.radius_rate_max,
        "radius_acc": np.abs(sig2[..., 3]).max() - problem.radius_acc_max,
        "radius_box": max(r.max() - problem.body.r_max, problem.body.r_min - r.min()),
        "clearance": problem.d_margin - dist.min(),
    }
    return {k: max(float(v), 0.0) for k, v in res.items()}


# families gating acceptance of an optimized trajectory; the radius box is a
# pragmatic extra hinge (kept in the report, not in the gate)
GATE_FAMILIES = ("velocity", "acceleration", "radius_rate", "radius_acc", "clearance")


def optimize(seed_path, problem: OptProblem, max_iters: int = 300,
             grad_tol: float = 1e-5, min_piece_duration: float = 0.1,
             verify_tol: float = 1e-3, max_escalations: int = 3):
    """Refine a seed primitive chain; returns (PiecewiseTrajectory, OptReport).

    If the dense verification sweep finds violations above verify_tol the
    penalty weights escalate tenfold and the solve restarts warm, up to
    max_escalations times (a cubic hinge leaves ~sqrt(price/3w) slack, so a
    single escalation cannot always reach the tolerance); persistent
    violations raise VerificationFailedError.
    """
    q0, t0 = seed_to_pieces(seed_path, min_duration=min_piece_duration)
    prob = problem
    x_q, x_tau = q0, np.log(t0)

    for attempt in range(1 + max_escalations):
        x_q, x_tau, info = _solve(x_q, x_tau, prob, max_iters, grad_tol)
        traj = _build(x_q, np.exp(x_tau), prob)
        residuals = verify_trajectory(traj, prob)
        if max(residuals[k] for k in GATE_FAMILIES) <= verify_tol:
            costs = trajectory_costs(traj, prob)
            report = OptReport(
                pce=costs["pce"], rce=costs["rce"], sorr=costs["sorr"],
                sorr_weighted=prob.sorr_weight * costs["sorr"],
                time_cost=costs["time_cost"], total_cost=costs["total_cost"],
                penalty_residuals=residuals, iterations=info["iterations"],
                converged=info["converged"],
            )
            return traj, report
        log.info("verification residuals %s; escalating penalty weights", residuals)
        prob = dataclasses.replace(prob, w_clearance=prob.w_clearance * 10.0,
                                   w_dynamics=prob.w_dynamics * 10.0)
    raise VerificationFailedError(residuals)


def _build(q, t_vec, problem) -> PiecewiseTrajectory:
    return PiecewiseTrajectory(durations=t_vec,
                               coeffs=_coefficients(MinJerkSystem(t_vec), q, problem))


def _solve(q0, tau0, problem, max_iters, grad_tol):
    m = len(tau0)
    n_wp = q0.shape[0]
    n_ch = 3 if problem.radius_frozen else 4

    def pack(q, tau):
        return np.concatenate([q[:, :n_ch].ravel(), tau])

    def unpack(x):
        q = np.zeros((n_wp, 4))
        q[:, :n_ch] = x[: n_wp * n_ch].reshape(n_wp, n_ch)
        if problem.radius_frozen:
            q[:, 3] = problem.frozen_radius
        return q, x[n_wp * n_ch:]

    def fun(x):
        q, tau = unpack(x)
        val, gq, gtau, _ = objective_and_gradient(q, np.exp(tau), problem)
        return val, np.concatenate([gq[:, :n_ch].ravel(), gtau])

    # keep exp(tau) in a sane range so line-search probes stay finite
    bounds = [(None, None)] * (n_wp * n_ch) + [(-5.0, 5.0)] * m
    res = minimize(fun, pack(q0, tau0), jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": max_iters, "gtol": grad_tol,
                            "ftol": 1e-14, "maxcor": 20})
    q, tau = unpack(res.x)
    return q, tau, {"iterations": int(res.nit), "converged": bool(res.success)}
