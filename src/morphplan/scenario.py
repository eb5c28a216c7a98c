"""Scenario files: a versioned JSON schema describing the map, endpoints,
body, mode and all planning/control parameters.

The schema here is only the set of keys each section may set; unknown keys
are rejected so benchmark definitions stay reproducible.  Every parameter's
default lives in the config class it feeds, and a section's entries are
passed to those classes by field name.  The `planning` section (limits,
clearance margin and cost weights) and the `opt` section feed only the
`OptProblem`, which the search and the optimizer both solve; the `search`
section feeds only the search's own tuning, `SearchConfig`.  The `body`
section is the one hull and radius range of `OptProblem` and `VehicleParams`.
The map's field has one cap, derived from the planning problem and not
set by the file: it is exact within plus or minus the problem's band
(`traj_opt.distance_band`), which lies two voxels above every distance the
planner compares, and reads plus or minus the band beyond it.  Beyond the
map's faces a query reads the capped boundary value minus its excursion
(`esdf` docstring).
`parse_scenario` builds each config once, so a missing key, a wrong type or
a value a config rejects fails at load as a `ScenarioError`, before any map
is built."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .controller import NmpcConfig, TrackingConfig
from .dynamics import VehicleParams, constant_wrench, noise_wrench, ramp_wrench
from .esdf import BodyGeometry, BoxObstacle, SphereObstacle, build_grid, compute_esdf
from .search import SearchConfig
from .traj_opt import OptProblem, attach_payload, distance_band

MODES = ("adaptive", "fixed-max", "fixed-min")

# the keys each parameter section may set
SCHEMA = {
    "planning": {"v_max", "a_max", "radius_rate_max", "radius_acc_max", "d_margin",
                 "sorr_weight", "time_weight"},
    "search": {"u_max", "dt_min", "dt_max", "accel_samples", "duration_samples",
               "pos_dedup", "radius_dedup", "node_budget", "goal_pos_tol",
               "goal_radius_tol"},
    "opt": {"w_clearance", "w_dynamics", "clearance_buffer", "kappa"},
    "control": {f.name for f in dataclasses.fields(NmpcConfig)} | {
        "control_dt", "force_compensation", "force_cutoff_hz", "omega_cutoff_hz",
        "servo_rate_limit"},
    # VehicleParams but its body (the `body` section); sim.dt is TrackingConfig.sim_dt
    "sim": {f.name for f in dataclasses.fields(VehicleParams)} - {"body"} | {
        "dt", "accel_noise_std", "duration_pad", "disturbance"},
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
    seed: int
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray
    resolution: float
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

    def build_field(self, map_seed: int | None):
        """The map of the seed (None: the obstacles unjittered), capped on
        both sides at the band of the scenario's planning problem
        (`traj_opt.distance_band`)."""
        rng = np.random.default_rng(map_seed) if map_seed is not None else None
        obstacles = [o.build(rng) for o in self.obstacles]
        grid = build_grid(obstacles, self.bounds_lo, self.bounds_hi, self.resolution)
        band = distance_band(self.opt_problem(field=None), self.resolution)
        return compute_esdf(grid, band)

    def boundary(self, spec: EndpointSpec, mode: str) -> np.ndarray:
        """The endpoint's boundary rows [p, r], [v, v_r] and [a, a_r] (at rest
        in acceleration) in the mode.  A fixed mode holds the radius at r_max
        or r_min, and a payload at the start radius (the deformation is
        locked after the grasp), both with no radius rate; an unset radius
        is r_max."""
        held = mode != "adaptive" or self.payload is not None
        if mode == "fixed-max":
            radius = self.body.r_max
        elif mode == "fixed-min":
            radius = self.body.r_min
        else:
            radius = (self.start if self.payload is not None else spec).radius
            radius = self.body.r_max if radius is None else radius
        rate = 0.0 if held else spec.radius_rate
        return np.array([[*spec.position, radius], [*spec.velocity, rate], [0.0] * 4])

    def search_config(self) -> SearchConfig:
        return SearchConfig(**self.search)

    def opt_problem(self, field, mode: str | None = None) -> OptProblem:
        """The planning problem of the mode (None: the scenario's), which the
        search and the optimizer both solve."""
        mode = mode or self.mode
        prob = OptProblem(field=field, body=self.body, sigma0=self.boundary(self.start, mode),
                          sigmaf=self.boundary(self.goal, mode),
                          **self.planning, **self.opt, radius_frozen=(mode != "adaptive"))
        if self.payload is not None:
            prob = attach_payload(prob, self.payload["size"], self.payload["offset"])
        return prob

    def vehicle_params(self) -> VehicleParams:
        return VehicleParams(body=self.body, **_pick(self.sim, VehicleParams))

    def nmpc_config(self) -> NmpcConfig:
        return NmpcConfig(**_pick(self.control, NmpcConfig))

    def tracking_config(self) -> TrackingConfig:
        sim_dt = {"sim_dt": self.sim["dt"]} if "dt" in self.sim else {}
        return TrackingConfig(**_pick(self.control, TrackingConfig),
                              **_pick(self.sim, TrackingConfig), **sim_dt, seed=self.seed)

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
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise ScenarioError(f"{where} must be a non-negative integer")
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
    _check_keys(m, {"bounds", "resolution", "obstacles"}, "map")
    _check_keys(m["bounds"], {"min", "max"}, "map.bounds")
    lo = _vec(m["bounds"]["min"], 3, "map.bounds.min")
    hi = _vec(m["bounds"]["max"], 3, "map.bounds.max")
    resolution = float(m["resolution"])
    if not resolution > 0.0 or np.any(hi <= lo):
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
    _check_keys(b, {f.name for f in dataclasses.fields(BodyGeometry)} - {"attachments"}, "body")
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
    if not seeds:
        raise ScenarioError("benchmark needs at least one seed")

    scenario = Scenario(
        seed=_int(raw.get("seed", 0), "seed"), bounds_lo=lo, bounds_hi=hi, resolution=resolution,
        obstacles=obstacles, body=body, start=_endpoint(raw["start"], "start"),
        goal=_endpoint(raw["goal"], "goal"), mode=mode, payload=payload,
        benchmark_seeds=seeds, **sections,
    )
    _validate_endpoints(scenario)
    return scenario


def _validate_endpoints(scenario: Scenario) -> None:
    for name, spec in (("start", scenario.start), ("goal", scenario.goal)):
        if np.any(spec.position < scenario.bounds_lo) or np.any(spec.position > scenario.bounds_hi):
            raise ScenarioError(f"{name} position outside the map bounds")
        if spec.radius is not None and not (scenario.body.r_min <= spec.radius <= scenario.body.r_max):
            raise ScenarioError(f"{name} radius outside [r_min, r_max]")
