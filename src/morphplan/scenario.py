"""Scenario files: a versioned JSON schema describing the map, endpoints,
body, mode and all planning/control parameters.

The schema here is only the set of keys each section may set; unknown keys
are rejected so benchmark definitions stay reproducible.  Every parameter's
default lives in the config class it feeds (`SearchConfig`, `OptProblem`,
`VehicleParams`, `NmpcConfig`, `TrackingConfig`), and a section's entries are
passed to those classes by field name.  `parse_scenario` builds each config
once, so a missing key, a wrong type or a value a config rejects fails at
load as a `ScenarioError`, before any map is built."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .controller import NmpcConfig, TrackingConfig
from .dynamics import VehicleParams, constant_wrench, noise_wrench, ramp_wrench
from .esdf import BodyGeometry, BoxObstacle, SphereObstacle, build_grid, compute_esdf
from .search import PlanState, SearchConfig
from .traj_opt import OptProblem, attach_payload

MODES = ("adaptive", "fixed-max", "fixed-min")

# the keys each parameter section may set
SCHEMA = {
    "planning": {"v_max", "a_max", "radius_rate_max", "radius_acc_max", "d_margin",
                 "sorr_weight", "time_weight"},
    "search": {"u_max", "dt_min", "dt_max", "accel_samples", "duration_samples",
               "pos_dedup", "radius_dedup", "node_budget", "goal_pos_tol",
               "goal_radius_tol", "use_heuristic"},
    "opt": {"w_clearance", "w_dynamics", "clearance_buffer", "kappa"},
    "control": {f.name for f in dataclasses.fields(NmpcConfig)} | {
        "control_dt", "force_compensation", "indi", "force_cutoff_hz",
        "omega_cutoff_hz", "servo_rate_limit"},
    # sim.dt is TrackingConfig.sim_dt; energy_c1/c2 are `power`'s c1/c2
    "sim": {"dt", "mass", "central_mass_fraction", "central_radius", "thrust_coeff",
            "torque_coeff", "thrust_min", "thrust_max", "servo_tau", "accel_noise_std",
            "duration_pad", "energy_c1", "energy_c2", "disturbance"},
}

_DISTURBANCE_KEYS = {"profile", "force", "torque", "t_ramp", "force_std", "torque_std",
                     "cutoff_hz"}


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


def _pick(section: dict, cls) -> dict:
    """The entries of a scenario section that are fields of the config class."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in section.items() if k in names}


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
    # the parameter sections as the file sets them (keys from SCHEMA)
    planning: dict
    search: dict
    opt: dict
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
        cfg = SearchConfig(**_pick(self.planning, SearchConfig), **self.search,
                           r_min=self.body.r_min, r_max=self.body.r_max)
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
        prob = OptProblem(field=field, body=self.body, sigma0=sigma0, sigmaf=sigmaf,
                          **_pick(self.planning, OptProblem), **self.opt,
                          radius_frozen=(mode != "adaptive"))
        if self.payload is not None:
            prob = attach_payload(prob, self.payload["size"], self.payload["offset"])
        return prob

    def vehicle_params(self) -> VehicleParams:
        return VehicleParams(**_pick(self.sim, VehicleParams), height=self.body.height,
                             r_min=self.body.r_min, r_max=self.body.r_max)

    def nmpc_config(self) -> NmpcConfig:
        return NmpcConfig(**_pick(self.control, NmpcConfig))

    def tracking_config(self) -> TrackingConfig:
        sim_dt = {"sim_dt": self.sim["dt"]} if "dt" in self.sim else {}
        return TrackingConfig(**_pick(self.control, TrackingConfig),
                              **_pick(self.sim, TrackingConfig), **sim_dt, seed=self.seed)

    def energy_coeffs(self) -> dict:
        """The power model's coefficients the scenario sets, as `power`'s c1, c2."""
        return {k[-2:]: float(v) for k, v in self.sim.items() if k in ("energy_c1", "energy_c2")}

    def disturbance(self, duration: float):
        d = self.sim.get("disturbance", {})
        profile = d.get("profile", "none")
        if profile == "none":
            return None
        if profile == "constant":
            return constant_wrench(d["force"], d["torque"])
        if profile == "ramp":
            return ramp_wrench(d["force"], d["torque"], d["t_ramp"])
        if profile == "noise":
            return noise_wrench(d["force_std"], d["torque_std"], d["cutoff_hz"],
                                self.tracking_config().sim_dt, duration, seed=self.seed)
        raise ScenarioError("sim.disturbance.profile must be none|constant|ramp|noise")


def _endpoint(section: dict, where: str) -> EndpointSpec:
    _check_keys(section, {"position", "radius", "velocity", "radius_rate"}, where)
    return EndpointSpec(
        position=_vec(section["position"], 3, f"{where}.position"),
        radius=float(section["radius"]) if "radius" in section else None,
        velocity=_vec(section.get("velocity", [0, 0, 0]), 3, f"{where}.velocity"),
        radius_rate=float(section.get("radius_rate", 0.0)),
    )


def _int(x, where) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ScenarioError(f"{where} must be an integer")
    return x


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError(f"cannot parse scenario file {path}: {err}") from err
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> Scenario:
    """Parse a scenario and build each of its configs once, so that a
    malformed part, or a value a config rejects, raises ScenarioError here."""
    try:
        scenario = _parse(raw)
        scenario.search_config()
        scenario.opt_problem(field=None)
        scenario.vehicle_params()
        scenario.nmpc_config()
        scenario.energy_coeffs()
        scenario.disturbance(scenario.tracking_config().duration_pad)
    except ScenarioError:
        raise
    except KeyError as err:
        raise ScenarioError(f"missing key {err}") from err
    except (AttributeError, TypeError, ValueError) as err:
        raise ScenarioError(str(err)) from err
    return scenario


def _parse(raw: dict) -> Scenario:
    top = {"version", "name", "seed", "map", "body", "start", "goal", "mode",
           "payload", "benchmark"} | set(SCHEMA)
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
    body = BodyGeometry(**b)

    mode = raw["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {MODES}")

    payload = raw.get("payload")
    if payload is not None:
        _check_keys(payload, {"size", "offset"}, "payload")
        payload = {"size": _vec(payload["size"], 3, "payload.size"),
                   "offset": _vec(payload["offset"], 3, "payload.offset")}

    sections = {}
    for name, keys in SCHEMA.items():
        sections[name] = dict(raw.get(name, {}))
        _check_keys(sections[name], keys, name)
    _check_keys(sections["sim"].get("disturbance", {}), _DISTURBANCE_KEYS, "sim.disturbance")

    bench = raw.get("benchmark", {})
    _check_keys(bench, {"seeds", "n_seeds"}, "benchmark")
    if "seeds" in bench:
        seeds = [_int(s, "benchmark.seeds[]") for s in bench["seeds"]]
    else:
        seeds = list(range(_int(bench.get("n_seeds", 20), "benchmark.n_seeds")))

    scenario = Scenario(
        version=1, name=str(raw.get("name", "scenario")), seed=_int(raw.get("seed", 0), "seed"),
        bounds_lo=lo, bounds_hi=hi, resolution=resolution,
        truncation=float(m.get("truncation", 5.0)), obstacles=obstacles, body=body,
        start=_endpoint(raw["start"], "start"), goal=_endpoint(raw["goal"], "goal"),
        mode=mode, payload=payload, benchmark_seeds=seeds, **sections,
    )
    _validate_endpoints(scenario)
    return scenario


def _validate_endpoints(scenario: Scenario) -> None:
    for name, spec in (("start", scenario.start), ("goal", scenario.goal)):
        if np.any(spec.position < scenario.bounds_lo) or np.any(spec.position > scenario.bounds_hi):
            raise ScenarioError(f"{name} position outside the map bounds")
        if spec.radius is not None and not (scenario.body.r_min <= spec.radius <= scenario.body.r_max):
            raise ScenarioError(f"{name} radius outside [r_min, r_max]")
