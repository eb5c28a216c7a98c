"""Scenario files: a versioned JSON schema describing the map, endpoints,
body, mode and all planning/control parameters.  Unknown keys are rejected
so benchmark definitions stay reproducible."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field as _field

import numpy as np

from .controller import NmpcConfig, TrackingConfig
from .dynamics import VehicleParams, constant_wrench, noise_wrench, ramp_wrench
from .esdf import BodyGeometry, BoxObstacle, SphereObstacle, build_grid, compute_esdf
from .search import PlanState, SearchConfig
from .traj_opt import OptProblem

MODES = ("adaptive", "fixed-max", "fixed-min")


class ScenarioError(ValueError):
    pass


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _vec(x, n, where):
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise ScenarioError(f"{where} must be a {n}-vector")
    return arr


@dataclass(eq=False)
class ObstacleSpec:
    kind: str
    data: dict
    jitter: float = 0.0

    def build(self, rng: np.random.Generator | None):
        shift = np.zeros(3)
        if self.jitter > 0.0 and rng is not None:
            shift = rng.uniform(-self.jitter, self.jitter, size=3)
        if self.kind == "box":
            return BoxObstacle(lo=np.asarray(self.data["min"]) + shift,
                               hi=np.asarray(self.data["max"]) + shift)
        return SphereObstacle(center=np.asarray(self.data["center"]) + shift,
                              radius=float(self.data["radius"]))


@dataclass(eq=False)
class EndpointSpec:
    position: np.ndarray
    radius: float | None
    velocity: np.ndarray
    radius_rate: float


@dataclass(eq=False)
class Scenario:
    version: int
    name: str
    seed: int
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray
    resolution: float
    truncation: float
    obstacles: list
    body: BodyGeometry
    start: EndpointSpec
    goal: EndpointSpec
    mode: str
    payload: dict | None
    planning: dict
    search_extra: dict
    opt_extra: dict
    control: dict
    sim: dict
    benchmark_seeds: list

    # ---- builders ----------------------------------------------------

    def build_field(self, map_seed: int | None = None):
        rng = np.random.default_rng(map_seed) if map_seed is not None else None
        obstacles = [o.build(rng) for o in self.obstacles]
        grid = build_grid(obstacles, self.bounds_lo, self.bounds_hi, self.resolution)
        return compute_esdf(grid, truncation=self.truncation)

    def mode_radius(self, mode: str | None = None) -> float | None:
        mode = mode or self.mode
        if mode == "fixed-max":
            return self.body.r_max
        if mode == "fixed-min":
            return self.body.r_min
        if self.payload is not None:
            # post-grasp: the deformation is locked at the start radius
            return self.start.radius if self.start.radius is not None else self.body.r_max
        return None

    def plan_state(self, spec: EndpointSpec, mode: str | None = None) -> PlanState:
        fixed = self.mode_radius(mode)
        radius = fixed if fixed is not None else (
            spec.radius if spec.radius is not None else self.body.r_max)
        rate = 0.0 if fixed is not None else spec.radius_rate
        return PlanState(position=spec.position, radius=radius,
                         velocity=spec.velocity, radius_rate=rate)

    def search_config(self, mode: str | None = None) -> SearchConfig:
        mode = mode or self.mode
        cfg = SearchConfig(
            v_max=self.planning["v_max"],
            radius_rate_max=self.planning["radius_rate_max"],
            d_margin=self.planning["d_margin"],
            sorr_weight=self.planning["sorr_weight"],
            time_weight=self.planning["time_weight"],
            r_min=self.body.r_min,
            r_max=self.body.r_max,
            **self.search_extra,
        )
        fixed = self.mode_radius(mode)
        if fixed is not None:
            # radius frozen: the shrink regularizer is constant per unit time, so
            # it cannot change the argmin; drop it and pin the bounds
            u = cfg.u_max.copy()
            u[3] = 0.0
            cfg = dataclasses.replace(cfg, u_max=u, r_min=fixed, r_max=fixed,
                                      sorr_weight=0.0)
        return cfg

    def opt_problem(self, field, mode: str | None = None) -> OptProblem:
        mode = mode or self.mode
        start = self.plan_state(self.start, mode)
        goal = self.plan_state(self.goal, mode)
        sigma0 = np.zeros((3, 4))
        sigma0[0] = np.concatenate([start.position, [start.radius]])
        sigma0[1] = np.concatenate([start.velocity, [start.radius_rate]])
        sigmaf = np.zeros((3, 4))
        sigmaf[0] = np.concatenate([goal.position, [goal.radius]])
        sigmaf[1] = np.concatenate([goal.velocity, [goal.radius_rate]])
        prob = OptProblem(
            field=field, body=self.body, sigma0=sigma0, sigmaf=sigmaf,
            v_max=self.planning["v_max"], a_max=self.planning["a_max"],
            radius_rate_max=self.planning["radius_rate_max"],
            radius_acc_max=self.planning["radius_acc_max"],
            d_margin=self.planning["d_margin"],
            sorr_weight=self.planning["sorr_weight"],
            time_weight=self.planning["time_weight"],
            radius_frozen=(mode != "adaptive"),
            **self.opt_extra,
        )
        if self.payload is not None:
            from .traj_opt import attach_payload

            prob = attach_payload(prob, self.payload["size"], self.payload["offset"])
        return prob

    def vehicle_params(self) -> VehicleParams:
        sim = self.sim
        return VehicleParams(
            mass=sim["mass"], central_mass_fraction=sim["central_mass_fraction"],
            central_radius=sim["central_radius"], height=self.body.height,
            thrust_coeff=sim["thrust_coeff"], torque_coeff=sim["torque_coeff"],
            r_min=self.body.r_min, r_max=self.body.r_max,
            thrust_min=sim["thrust_min"], thrust_max=sim["thrust_max"],
            servo_tau=sim["servo_tau"],
        )

    def nmpc_config(self) -> NmpcConfig:
        c = self.control
        return NmpcConfig(
            horizon=c["horizon"], dt=c["dt"], q_pos=c["q_pos"], q_vel=c["q_vel"],
            q_att=c["q_att"], q_omega=c["q_omega"], terminal_scale=c["terminal_scale"],
            w_input=np.asarray(c["w_input"], dtype=float),
            u_min=np.asarray(c["u_min"], dtype=float),
            u_max=np.asarray(c["u_max"], dtype=float),
            max_iters=c["max_iters"], tol=c["tol"],
        )

    def tracking_config(self) -> TrackingConfig:
        c = self.control
        s = self.sim
        return TrackingConfig(
            sim_dt=s["dt"], control_dt=c["control_dt"],
            force_compensation=c["force_compensation"], indi=c["indi"],
            force_cutoff_hz=c["force_cutoff_hz"], omega_cutoff_hz=c["omega_cutoff_hz"],
            servo_rate_limit=c["servo_rate_limit"],
            accel_noise_std=s["accel_noise_std"], duration_pad=s["duration_pad"],
            seed=self.seed,
        )

    def disturbance(self, duration: float):
        d = self.sim["disturbance"]
        profile = d["profile"]
        if profile == "none":
            return None
        if profile == "constant":
            return constant_wrench(d["force"], d["torque"])
        if profile == "ramp":
            return ramp_wrench(d["force"], d["torque"], d["t_ramp"])
        return noise_wrench(d["force_std"], d["torque_std"], d["cutoff_hz"],
                            self.sim["dt"], duration, seed=self.seed)


_PLANNING_DEFAULTS = {
    "v_max": 2.0, "a_max": 4.0, "radius_rate_max": 0.4, "radius_acc_max": 2.0,
    "d_margin": 0.15, "sorr_weight": 8.0, "time_weight": 2.0,
}

_SEARCH_KEYS = {"u_max", "dt_min", "dt_max", "accel_samples", "duration_samples",
                "pos_dedup", "radius_dedup", "node_budget", "goal_pos_tol",
                "goal_radius_tol", "goal_vel_tol", "use_heuristic"}

_OPT_KEYS = {"w_clearance", "w_dynamics", "clearance_buffer", "kappa"}

_CONTROL_DEFAULTS = {
    "horizon": 20, "dt": 0.05, "control_dt": 0.01, "q_pos": 40.0, "q_vel": 8.0,
    "q_att": 16.0, "q_omega": 1.0, "terminal_scale": 2.0,
    "w_input": [0.02, 0.4, 0.4, 0.4], "u_min": [0.0, -1.5, -1.5, -0.5],
    "u_max": [32.0, 1.5, 1.5, 0.5], "max_iters": 30, "tol": 1e-6,
    "force_compensation": True, "indi": True, "force_cutoff_hz": 5.0,
    "omega_cutoff_hz": 20.0, "servo_rate_limit": 6.0,
}

_SIM_DEFAULTS = {
    "dt": 0.005, "mass": 1.0, "central_mass_fraction": 0.6, "central_radius": 0.06,
    "thrust_coeff": 1.0e-5, "torque_coeff": 1.6e-7, "thrust_min": 0.0,
    "thrust_max": 8.0, "servo_tau": 0.1, "accel_noise_std": 0.0,
    "duration_pad": 0.5, "energy_c1": 1.0, "energy_c2": 1.0,
    "disturbance": {"profile": "none"},
}


def _endpoint(section: dict, where: str) -> EndpointSpec:
    _check_keys(section, {"position", "radius", "velocity", "radius_rate"}, where)
    return EndpointSpec(
        position=_vec(section["position"], 3, f"{where}.position"),
        radius=float(section["radius"]) if "radius" in section else None,
        velocity=_vec(section.get("velocity", [0, 0, 0]), 3, f"{where}.velocity"),
        radius_rate=float(section.get("radius_rate", 0.0)),
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError(f"cannot parse scenario file {path}: {err}") from err
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> Scenario:
    top = {"version", "name", "seed", "map", "body", "start", "goal", "mode",
           "payload", "planning", "search", "opt", "control", "sim", "benchmark"}
    _check_keys(raw, top, "scenario")
    if raw.get("version") != 1:
        raise ScenarioError("scenario version must be 1")
    for req in ("map", "body", "start", "goal", "mode"):
        if req not in raw:
            raise ScenarioError(f"missing required section '{req}'")

    m = raw["map"]
    _check_keys(m, {"bounds", "resolution", "truncation", "obstacles"}, "map")
    _check_keys(m["bounds"], {"min", "max"}, "map.bounds")
    lo = _vec(m["bounds"]["min"], 3, "map.bounds.min")
    hi = _vec(m["bounds"]["max"], 3, "map.bounds.max")
    resolution = float(m["resolution"])
    if resolution <= 0.0 or np.any(hi <= lo):
        raise ScenarioError("map must have positive resolution and extent")
    obstacles = []
    for i, o in enumerate(m.get("obstacles", [])):
        where = f"map.obstacles[{i}]"
        kind = o.get("type")
        if kind == "box":
            _check_keys(o, {"type", "min", "max", "jitter"}, where)
            data = {"min": _vec(o["min"], 3, where), "max": _vec(o["max"], 3, where)}
        elif kind == "sphere":
            _check_keys(o, {"type", "center", "radius", "jitter"}, where)
            data = {"center": _vec(o["center"], 3, where), "radius": float(o["radius"])}
        else:
            raise ScenarioError(f"{where}: unknown obstacle type {kind!r}")
        obstacles.append(ObstacleSpec(kind=kind, data=data, jitter=float(o.get("jitter", 0.0))))

    b = raw["body"]
    _check_keys(b, {"height", "n_theta", "n_l", "r_min", "r_max"}, "body")
    body = BodyGeometry(height=float(b["height"]),
                        n_theta=int(b.get("n_theta", 16)), n_l=int(b.get("n_l", 2)),
                        r_min=float(b["r_min"]), r_max=float(b["r_max"]))

    mode = raw["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {MODES}")

    payload = raw.get("payload")
    if payload is not None:
        _check_keys(payload, {"size", "offset"}, "payload")
        payload = {"size": _vec(payload["size"], 3, "payload.size"),
                   "offset": _vec(payload["offset"], 3, "payload.offset")}

    planning = dict(_PLANNING_DEFAULTS)
    _check_keys(raw.get("planning", {}), set(_PLANNING_DEFAULTS), "planning")
    planning.update(raw.get("planning", {}))

    search_extra = dict(raw.get("search", {}))
    _check_keys(search_extra, _SEARCH_KEYS, "search")
    if "u_max" in search_extra:
        search_extra["u_max"] = _vec(search_extra["u_max"], 4, "search.u_max")

    opt_extra = dict(raw.get("opt", {}))
    _check_keys(opt_extra, _OPT_KEYS, "opt")

    control = dict(_CONTROL_DEFAULTS)
    _check_keys(raw.get("control", {}), set(_CONTROL_DEFAULTS), "control")
    control.update(raw.get("control", {}))

    sim = dict(_SIM_DEFAULTS)
    _check_keys(raw.get("sim", {}), set(_SIM_DEFAULTS), "sim")
    sim.update(raw.get("sim", {}))
    dist = dict(sim["disturbance"])
    allowed_dist = {"profile", "force", "torque", "t_ramp", "force_std",
                    "torque_std", "cutoff_hz"}
    _check_keys(dist, allowed_dist, "sim.disturbance")
    if dist.get("profile", "none") not in ("none", "constant", "ramp", "noise"):
        raise ScenarioError("sim.disturbance.profile must be none|constant|ramp|noise")
    sim["disturbance"] = dist

    bench = raw.get("benchmark", {})
    _check_keys(bench, {"seeds", "n_seeds"}, "benchmark")
    if "seeds" in bench:
        seeds = [int(s) for s in bench["seeds"]]
    else:
        seeds = list(range(int(bench.get("n_seeds", 20))))

    scenario = Scenario(
        version=1, name=str(raw.get("name", "scenario")), seed=int(raw.get("seed", 0)),
        bounds_lo=lo, bounds_hi=hi, resolution=resolution,
        truncation=float(m.get("truncation", 5.0)), obstacles=obstacles, body=body,
        start=_endpoint(raw["start"], "start"), goal=_endpoint(raw["goal"], "goal"),
        mode=mode, payload=payload, planning=planning, search_extra=search_extra,
        opt_extra=opt_extra, control=control, sim=sim, benchmark_seeds=seeds,
    )
    _validate_endpoints(scenario)
    return scenario


def _validate_endpoints(scenario: Scenario) -> None:
    for name, spec in (("start", scenario.start), ("goal", scenario.goal)):
        if np.any(spec.position < scenario.bounds_lo) or np.any(spec.position > scenario.bounds_hi):
            raise ScenarioError(f"{name} position outside the map bounds")
        if spec.radius is not None and not (scenario.body.r_min <= spec.radius <= scenario.body.r_max):
            raise ScenarioError(f"{name} radius outside [r_min, r_max]")
