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
from .fields import check_field_types
from .trajectory import (
    N_COEF,
    MinJerkSystem,
    PiecewiseTrajectory,
    basis_rows,
    jerk_energy,
    jerk_energy_matrices,
)

log = logging.getLogger(__name__)

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)  # exact to degree 15

MAX_ITERS = 300             # L-BFGS iterations per solve
GRAD_TOL = 1e-5             # L-BFGS projected-gradient tolerance
MIN_PIECE_DURATION = 0.1    # s; shorter seed primitives merge into their successor
VERIFY_TOL = 1e-3           # the gate's largest accepted residual, natural units
MAX_ESCALATIONS = 3         # tenfold penalty escalations before the gate gives up


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
        check_field_types(self)
        self.sigma0 = np.asarray(self.sigma0, dtype=float).reshape(3, 4)
        self.sigmaf = np.asarray(self.sigmaf, dtype=float).reshape(3, 4)
        if self.kappa < 4:
            raise ValueError("kappa must be at least 4")
        if min(self.v_max, self.a_max, self.radius_rate_max, self.radius_acc_max) <= 0.0:
            raise ValueError("the dynamic limits must be positive")
        if min(self.d_margin, self.clearance_buffer, self.sorr_weight, self.time_weight,
               self.w_clearance, self.w_dynamics) < 0.0:
            raise ValueError("the clearance margin, buffer and weights must be non-negative")

    @property
    def frozen_radius(self) -> float:
        return float(self.sigma0[0, 3])


@dataclass
class OptReport:
    pce: float
    rce: float
    sorr: float
    time_cost: float
    total_cost: float
    iterations: int   # L-BFGS iterations summed over every solve of the escalation loop
    converged: bool   # whether the last solve converged


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


def distance_band(problem: OptProblem, resolution: float) -> float:
    """The free-side cap of a field at `resolution` that answers the
    problem's queries as an uncapped field would: `d_margin` plus
    `clearance_buffer` plus the body's reach at `r_max`, attachments
    included, plus two voxels.  That is two voxels above every level the
    search and the optimizer compare a distance with (`esdf` docstring).
    A payload's box is sampled at its corners whatever the radius, so its
    reach does not depend on the mode."""
    body = problem.body
    return (problem.d_margin + problem.clearance_buffer + float(body.max_reach(body.r_max))
            + 2.0 * resolution)


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


def seed_to_pieces(states, durations):
    """Turn a primitive chain, its states (K, 8) [p, r, v, v_r] and the
    durations (K-1,) of the primitives between them, into (waypoints,
    durations); primitives shorter than `MIN_PIECE_DURATION` merge into
    their successor."""
    if len(states) < 2:
        raise SeedTooShortError("seed path needs at least two states")
    waypoints = []
    pieces = []
    acc = 0.0
    for state, dt in zip(states[1:], durations):
        acc += dt
        if acc >= MIN_PIECE_DURATION:
            pieces.append(acc)
            waypoints.append(state[:4])
            acc = 0.0
    if acc > 0.0:
        if pieces:
            pieces[-1] += acc
        else:
            pieces.append(acc)
            waypoints.append(states[-1][:4])
    waypoints = waypoints[:-1]  # last entry is the terminal state, not a waypoint
    return np.array(waypoints).reshape(-1, 4), np.array(pieces)


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


# the derivative order of the end row that each of a junction's duration rows
# (its waypoint row, then continuity of orders 0..4) differentiates to
_JUNCTION_ORDERS = [1, 1, 2, 3, 4, 5]


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
    qms = jerk_energy_matrices(t_vec)
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
    basis = basis_rows(ts, range(4))  # (4, M, kappa, 6)
    b0, b1, b2, b3 = basis
    sig0, sig1, sig2, sig3 = basis @ coeffs  # (M, kappa, 4) each
    # per term, the pieces it is active on and each one's share of the total
    shares = []

    def hinge(g):
        """The cubic hinge on g (M, kappa), its derivative and the pieces
        where it is positive; None where it is zero everywhere, which adds
        no term.  g <= 0 everywhere is told by one pass over g."""
        if g.max() <= 0.0:
            return None
        pen, dpen = _hinge(g)
        active = pen.any(axis=1)
        return (pen, dpen, active) if active.any() else None

    def add_term(active, val, dval_dsig, basis, chan, dval_dt_direct):
        """On the active pieces: sum of val_j * w_quad with dval/dsig chained
        through the basis; dval_dt_direct is dval/dt along the trajectory
        (coefficients fixed), covering the sample-position dependence on T_i."""
        idx = slice(None) if active.all() else np.flatnonzero(active)
        wq = w_quad[idx]
        grad_c[idx, :, chan] += (wq[:, None, None] * basis[idx].transpose(0, 2, 1)) @ dval_dsig[idx]
        val_sum = val[idx].sum(axis=1)
        grad_t[idx] += val_sum / kappa
        grad_t[idx] += wq * (dval_dt_direct[idx][:, None, :] @ frac[:, None])[:, 0, 0]
        share = np.zeros(m)
        share[idx] = val_sum * wq
        shares.append((active, share))

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
    term = hinge(np.einsum("mkj,mkj->mk", v, v) - problem.v_max**2)
    if term:
        pen, dpen, active = term
        gdot = 2.0 * np.einsum("mkj,mkj->mk", v, a)
        add_term(active, w_dyn * pen, w_dyn * dpen[..., None] * 2.0 * v, b1, _XYZ,
                 w_dyn * dpen * gdot)

    # acceleration bound
    term = hinge(np.einsum("mkj,mkj->mk", a, a) - problem.a_max**2)
    if term:
        pen, dpen, active = term
        gdot = 2.0 * np.einsum("mkj,mkj->mk", a, sig3[..., :3])
        add_term(active, w_dyn * pen, w_dyn * dpen[..., None] * 2.0 * a, b2, _XYZ,
                 w_dyn * dpen * gdot)

    if not problem.radius_frozen:
        # deformation rate bound
        rdd = sig2[..., 3]
        term = hinge(rdot**2 - problem.radius_rate_max**2)
        if term:
            pen, dpen, active = term
            add_term(active, w_dyn * pen, (w_dyn * dpen * 2.0 * rdot)[..., None], b1, _R,
                     w_dyn * dpen * 2.0 * rdot * rdd)
        # deformation acceleration bound
        term = hinge(rdd**2 - problem.radius_acc_max**2)
        if term:
            pen, dpen, active = term
            rddd = sig3[..., 3]
            add_term(active, w_dyn * pen, (w_dyn * dpen * 2.0 * rdd)[..., None], b2, _R,
                     w_dyn * dpen * 2.0 * rdd * rddd)
        # radius box bounds
        for sign, bound in ((1.0, r_max), (-1.0, r_min)):
            term = hinge(sign * (r - bound))
            if term:
                pen, dpen, active = term
                add_term(active, w_dyn * pen, (w_dyn * dpen * sign)[..., None], b0, _R,
                         w_dyn * dpen * sign * rdot)

    # whole-body clearance (raw radius; the box penalties own out-of-range r),
    # one batch over every sample of every piece.  The margin is buffered: an
    # exterior penalty settles slightly on the infeasible side of an active
    # constraint, and the buffer absorbs that so the true margin still verifies.
    dist, gpos, grad = clearance_batch(problem.field, sig0[..., :3].reshape(-1, 3),
                                       r.reshape(-1), problem.body)
    term = hinge(problem.d_margin + problem.clearance_buffer - dist.reshape(m, kappa))
    if term:
        pen, dpen, active = term
        gpos = gpos.reshape(m, kappa, 3)
        wd = problem.w_clearance * dpen
        dg_dr = -grad.reshape(m, kappa) if not problem.radius_frozen else np.zeros((m, kappa))
        gdot = -np.einsum("mkj,mkj->mk", gpos, v) + dg_dr * rdot
        dval_dsig = np.concatenate([wd[..., None] * -gpos, (wd * dg_dr)[..., None]], axis=-1)
        add_term(active, problem.w_clearance * pen, dval_dsig, b0, _XYZR, wd * gdot)

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
    # at T_i, so their derivative is the order d + 1 row at the piece's end.
    # Junction i owns rows 3 + 6i .. 8 + 6i (signs +, -, -, -, -, -) and the
    # last piece the final 3 rows (signs +).  Each dot product reads a row
    # of lam in place: BLAS rounds a strided row differently than a
    # contiguous copy.  The rows' terms add in row order.
    sig_end = (system.end_rows[:, :, None, :] @ coeffs[:, None, :, chan])[:, :, 0]  # (M, 6, C)
    n = m * N_COEF
    rows = lam[3:n - 3].reshape(m - 1, N_COEF, 1, lam.shape[1])
    dots = (rows @ sig_end[:-1, _JUNCTION_ORDERS, :, None])[..., 0, 0]  # (M - 1, 6)
    acc = 0.0 + dots[:, 0]
    for k in range(1, N_COEF):
        acc -= dots[:, k]
    grad_t[:-1] -= acc
    end = (lam[n - 3:, None, :] @ sig_end[-1, 1:4, :, None])[:, 0, 0].tolist()
    grad_t[-1] -= ((0.0 + end[0]) + end[1]) + end[2]

    grad_tau = grad_t * t_vec
    return float(total), grad_q, grad_tau


def _exact_sorr(traj: PiecewiseTrajectory, r_max: float) -> float:
    """Exact integral of ((r - r_max)/r_max)^2 via Gauss-Legendre per piece."""
    total = 0.0
    for i in range(traj.n_pieces):
        ti = traj.durations[i]
        ts = 0.5 * ti * (_GAUSS_X + 1.0)
        r = basis_rows(ts, (0,))[0] @ traj.coeffs[i][:, 3]
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


def verify_trajectory(traj: PiecewiseTrajectory, problem: OptProblem) -> dict:
    """Max violation per constraint family over a dense sample sweep, in
    natural units (m/s, m/s^2, m): 4 * kappa samples per piece, both piece
    ends included.  The sweep covers all pieces at once, with one clearance
    batch; each residual is a max, so its value does not depend on how the
    samples are grouped."""
    ts = np.linspace(0.0, traj.durations, 4 * problem.kappa, axis=1)  # (M, 4 kappa)
    sig0, sig1, sig2 = basis_rows(ts, range(3)) @ traj.coeffs  # (M, 4 kappa, 4) each
    r = sig0[..., 3]
    dist, _, _ = clearance_batch(problem.field, sig0[..., :3].reshape(-1, 3), r.reshape(-1),
                                 problem.body)
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


def optimize(seed, problem: OptProblem):
    """Refine a seed primitive chain, the `states` and `durations` of a search
    result; returns (PiecewiseTrajectory, OptReport).

    Each solve is L-BFGS with at most `MAX_ITERS` iterations and gradient
    tolerance `GRAD_TOL`, from the seed's pieces (`seed_to_pieces`).  If the
    dense verification sweep finds violations above `VERIFY_TOL` the penalty
    weights escalate tenfold and the solve restarts warm, up to
    `MAX_ESCALATIONS` times (a cubic hinge leaves ~sqrt(price/3w) slack, so a
    single escalation cannot always reach the tolerance); persistent
    violations raise VerificationFailedError.  The report's `iterations` sums
    the iterations of every solve; `converged` is the last solve's.
    """
    q0, t0 = seed_to_pieces(seed.states, seed.durations)
    prob = problem
    x_q, x_tau = q0, np.log(t0)
    iterations = 0

    for attempt in range(1 + MAX_ESCALATIONS):
        x_q, x_tau, info = _solve(x_q, x_tau, prob)
        iterations += info["iterations"]
        traj = _build(x_q, np.exp(x_tau), prob)
        residuals = verify_trajectory(traj, prob)
        if max(residuals[k] for k in GATE_FAMILIES) <= VERIFY_TOL:
            costs = trajectory_costs(traj, prob)
            report = OptReport(
                pce=costs["pce"], rce=costs["rce"], sorr=costs["sorr"],
                time_cost=costs["time_cost"], total_cost=costs["total_cost"],
                iterations=iterations, converged=info["converged"],
            )
            return traj, report
        log.info("verification residuals %s; escalating penalty weights", residuals)
        prob = dataclasses.replace(prob, w_clearance=prob.w_clearance * 10.0,
                                   w_dynamics=prob.w_dynamics * 10.0)
    raise VerificationFailedError(residuals)


def _build(q, t_vec, problem) -> PiecewiseTrajectory:
    return PiecewiseTrajectory(durations=t_vec,
                               coeffs=_coefficients(MinJerkSystem(t_vec), q, problem))


def _solve(q0, tau0, problem):
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
        val, gq, gtau = objective_and_gradient(q, np.exp(tau), problem)
        return val, np.concatenate([gq[:, :n_ch].ravel(), gtau])

    # keep exp(tau) in a sane range so line-search probes stay finite
    bounds = [(None, None)] * (n_wp * n_ch) + [(-5.0, 5.0)] * m
    res = minimize(fun, pack(q0, tau0), jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": MAX_ITERS, "gtol": GRAD_TOL,
                            "ftol": 1e-14, "maxcor": 20})
    q, tau = unpack(res.x)
    return q, tau, {"iterations": int(res.nit), "converged": bool(res.success)}
