"""Scenario file ingestion, mounting, trajectory export and run metrics.

A scenario file is YAML with named sections (see docs/scenario_format.md for
the full grammar): the kinematic chain, the link capsules, the workpiece
scene in its construction frame, the weld path, the mounting placement
(translation ``l`` along world x after rotation ``alpha`` about world y),
planner parameters and the initial joint configuration. Lengths are meters,
angles radians. Loading validates every domain-type invariant and reports all
failing fields at once, then checks that the start is within the joint
limits and clear of the mounted scene; load -> serialize -> load is the
identity.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from warnings import warn

import numpy as np
import yaml

from . import geometry, planner
from .geometry import Capsule, CapsuleSet, Scene
from .kinematics import NUM_JOINTS, JointParams, RobotChain, forward_kinematics
from .transforms import homogeneous

FORMAT_VERSION = 3

# PyYAML's libyaml-backed loader when it was built with libyaml: it builds the same
# Python objects as the pure loader, about seven times faster on the bundled scenarios.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ScenarioError(ValueError):
    """Structured scenario failure: file path plus one message per failing field."""

    def __init__(self, path, failures: list[str]):
        self.path = str(path)
        self.failures = list(failures)
        detail = "\n  ".join(self.failures)
        super().__init__(f"invalid scenario {self.path}:\n  {detail}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one planning run consumes, before mounting is applied."""

    name: str
    chain: RobotChain
    capsules: CapsuleSet
    scene: Scene
    weld_path: np.ndarray  # (T, 3), construction frame
    mounting_l: float
    mounting_alpha: float
    params: planner.PlannerParams
    initial_config: np.ndarray
    description: str = ""


@dataclass(frozen=True)
class MetricsReport:
    """Per-run summary mirroring the benchmark table columns."""

    scenario: str
    horizon: int
    xi: float
    mean_tcp_error: float
    mean_safe_distance: float
    total_time: float
    total_inner_iters: int
    per_step_inner_iters: tuple[int, ...]


def mounting_transform(l: float, alpha: float) -> np.ndarray:
    """Rotation ``alpha`` about world y, then translation ``l`` along world x."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, 0.0, s, l], [0.0, 1.0, 0.0, 0.0], [-s, 0.0, c, 0.0], [0.0, 0.0, 0.0, 1.0]])


def mounted_scene_and_path(scenario: Scenario) -> tuple[Scene, np.ndarray]:
    """The scene and weld path in the world frame the planner operates in."""
    T = mounting_transform(scenario.mounting_l, scenario.mounting_alpha)
    scene = geometry.transform_scene(scenario.scene, T)
    products = scenario.weld_path[:, None, :] * T[:3, :3]  # [t, i, j] = R[i, j] * p_t[j], summed over j left to right
    path = products[..., 0] + products[..., 1] + products[..., 2] + T[:3, 3]
    return scene, path


# ---------------------------------------------------------------------------
# parsing helpers

_MISSING = object()


class _FieldReader:
    """Reads typed values out of the parsed YAML tree, recording every failure with its field path.

    Each accessor takes the mapping that holds the field and the field's full
    path, whose last dotted component is the key. A missing key is a failure
    unless a default is given; a parent that failed to read (None) yields None
    with no second failure. A bool is never a number or an integer, every
    number must be finite, and no string is converted to anything else.
    Every key looked up is recorded against the mapping that holds it, so
    ``unread`` can name the keys that no accessor asked for.
    """

    def __init__(self):
        self.failures: list[str] = []
        self._keys_read: dict[int, tuple[dict, str, set]] = {}  # id -> (mapping, its path, keys looked up)

    def fail(self, field: str, message: str) -> None:
        self.failures.append(f"{field}: {message}")

    def _get(self, node, field: str, default):
        if node is None:
            return _MISSING
        parent, _, key = field.rpartition(".")
        self._keys_read.setdefault(id(node), (node, parent, set()))[2].add(key)
        if key not in node:
            if default is _MISSING:
                self.fail(field, "missing")
            return default
        return node[key]

    def _typed(self, node, field: str, default, kinds: tuple[type, ...], expected: str):
        value = self._get(node, field, default)
        if value is _MISSING:
            return None
        if type(value) not in kinds:
            self.fail(field, f"expected {expected}, got {type(value).__name__}")
            return None
        return value

    def integer(self, node, field: str, default=_MISSING) -> int | None:
        return self._typed(node, field, default, (int,), "an integer")

    def string(self, node, field: str, default=_MISSING) -> str | None:
        return self._typed(node, field, default, (str,), "a string")

    def mapping(self, node, field: str) -> dict | None:
        return self._typed(node, field, _MISSING, (dict,), "a mapping")

    def mappings(self, node, field: str, count: int | None = None) -> list[dict]:
        """A non-empty list of mappings, of exactly ``count`` if given; [] when it fails."""
        items = self._typed(node, field, _MISSING, (list,), "a list")
        if items is None:
            return []
        if not items or (count is not None and len(items) != count):
            self.fail(field, f"expected {count} entries, got {len(items)}" if count else "expected a non-empty list")
            return []
        bad = [i for i, item in enumerate(items) if type(item) is not dict]
        for i in bad:
            self.fail(f"{field}[{i}]", "expected a mapping")
        return [] if bad else items

    def number(self, node, field: str, default=_MISSING) -> float | None:
        value = self._typed(node, field, default, (int, float), "a number")
        if value is not None and not abs(value) <= sys.float_info.max:  # NaN, infinite, or an integer too large
            self.fail(field, f"expected a finite number, got {value}")
            return None
        return None if value is None else float(value)

    def array(self, node, field: str, shape: tuple[int, ...]) -> np.ndarray | None:
        """A finite float array of ``shape``, in which -1 matches any length >= 1."""
        value = self._get(node, field, _MISSING)
        if value is _MISSING:
            return None
        try:
            arr = np.array(value, dtype=object)
        except ValueError:  # nested lists of uneven depth
            arr = np.empty(0, dtype=object)
        fits = arr.ndim == len(shape) and all(n == s or (s < 0 and n > 0) for n, s in zip(arr.shape, shape))
        if not fits or not set(map(type, arr.flat)) <= {int, float}:
            self.fail(field, f"expected numbers of shape ({', '.join('n' if n < 0 else str(n) for n in shape)})")
            return None
        try:
            arr = arr.astype(float)
        except OverflowError:  # an integer beyond the float range
            arr = np.full(arr.shape, np.inf)
        finite = np.isfinite(arr)
        if not finite.all():
            bad = np.argwhere(~finite)[0]
            self.fail(field, f"expected finite numbers, got {arr[tuple(bad)]} at {bad.tolist()}")
            return None
        return arr

    def unread(self) -> list[tuple[str, object]]:
        """(path of the mapping, key) for each key of a mapping read from that was never looked up."""
        return [(path, key) for node, path, read in self._keys_read.values() for key in node if key not in read]

    def build(self, field: str, make, **kwargs):
        """``make(**kwargs)``; None when an argument failed to read or ``make`` rejects them."""
        if any(value is None for value in kwargs.values()):
            return None
        try:
            return make(**kwargs)
        except ValueError as err:
            self.fail(field, str(err))
            return None


def _all_read(items: list) -> tuple | None:
    return tuple(items) if items and all(item is not None for item in items) else None


def _parse_chain(reader: _FieldReader, data) -> RobotChain | None:
    node = reader.mapping(data, "chain")
    joints = []
    for i, jn in enumerate(reader.mappings(node, "chain.joints", count=NUM_JOINTS)):
        field = f"chain.joints[{i}]"
        joints.append(
            reader.build(
                field,
                JointParams,
                a=reader.number(jn, f"{field}.a"),
                alpha=reader.number(jn, f"{field}.alpha"),
                d=reader.number(jn, f"{field}.d"),
                theta_offset=reader.number(jn, f"{field}.theta_offset", 0.0),
            )
        )
    tool_offset = _parse_pose(reader, node, "chain.tool_offset")
    return reader.build("chain", RobotChain, joints=_all_read(joints), tool_offset=tool_offset)


def _parse_pose(reader: _FieldReader, data, field: str) -> np.ndarray | None:
    """The 4x4 transform of the ``{rotation: mat3, translation: vec3}`` mapping at ``field``; its owner checks it is rigid."""
    node = reader.mapping(data, field)
    rotation = reader.array(node, f"{field}.rotation", (3, 3))
    translation = reader.array(node, f"{field}.translation", (3,))
    return None if rotation is None or translation is None else homogeneous(rotation, translation)


def _parse_capsules(reader: _FieldReader, data) -> CapsuleSet | None:
    caps = []
    for i, cn in enumerate(reader.mappings(data, "capsules")):
        field = f"capsules[{i}]"
        caps.append(
            reader.build(
                field,
                Capsule,
                link_index=reader.integer(cn, f"{field}.link_index"),
                endpoint_a=reader.array(cn, f"{field}.endpoint_a", (3,)),
                endpoint_b=reader.array(cn, f"{field}.endpoint_b", (3,)),
                radius=reader.number(cn, f"{field}.radius"),
            )
        )
    return reader.build("capsules", CapsuleSet, capsules=_all_read(caps))


def _parse_scene(reader: _FieldReader, data) -> Scene | None:
    node = reader.mapping(data, "scene")
    return reader.build(
        "scene",
        Scene,
        section=reader.array(node, "scene.section", (-1, 2)),
        depth=reader.number(node, "scene.depth"),
        pose=_parse_pose(reader, node, "scene.pose"),
    )


def _parse_params(reader: _FieldReader, data) -> planner.PlannerParams | None:
    node = reader.mapping(data, "params")
    default = {f.name: f.default for f in fields(planner.PlannerParams)}
    return reader.build(
        "params",
        planner.PlannerParams,
        q_diag=reader.array(node, "params.q_diag", (NUM_JOINTS,)),
        joint_lower=reader.array(node, "params.joint_lower", (NUM_JOINTS,)),
        joint_upper=reader.array(node, "params.joint_upper", (NUM_JOINTS,)),
        xi=reader.number(node, "params.xi"),
        max_inner=reader.integer(node, "params.max_inner", default["max_inner"]),
        step_max=reader.number(node, "params.step_max", default["step_max"]),
    )


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError with every failure."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(path, [f"cannot read file: {err}"]) from err
    except UnicodeDecodeError as err:
        reason = f"not UTF-8 (byte {err.object[err.start]:#04x} at offset {err.start})"
        raise ScenarioError(path, [f"cannot read file: {reason}"]) from err
    return parse_scenario(text, source=str(path))


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as err:  # ValueError: int()'s digit limit, or libyaml given a lone surrogate
        raise ScenarioError(source, [f"YAML parse error: {err}"]) from err
    if not isinstance(data, dict):
        raise ScenarioError(source, ["top level must be a mapping"])

    reader = _FieldReader()
    version = reader.integer(data, "format_version")
    if version is not None and version != FORMAT_VERSION:
        reader.fail("format_version", f"expected {FORMAT_VERSION}, got {version}")
    name = reader.string(data, "name")
    if name == "":
        reader.fail("name", "expected a non-empty string")
    elif name is not None and any(c in name for c in "/\\\0"):
        reader.fail("name", "must not contain '/', '\\' or NUL; output file names are built from it")
    description = reader.string(data, "description", "")

    chain = _parse_chain(reader, data)
    capsules = _parse_capsules(reader, data)
    scene = _parse_scene(reader, data)
    weld_path = reader.array(data, "weld_path", (-1, 3))
    mounting = reader.mapping(data, "mounting")
    mount_l = reader.number(mounting, "mounting.l")
    mount_alpha = reader.number(mounting, "mounting.alpha")
    params = _parse_params(reader, data)
    initial = reader.array(data, "initial_config", (NUM_JOINTS,))

    for parent, key in reader.unread():
        warn(f"ignoring unknown key {key!r} in {parent or 'the top level'}")
    if reader.failures:
        raise ScenarioError(source, reader.failures)
    if np.any(initial < params.joint_lower) or np.any(initial > params.joint_upper):
        raise ScenarioError(source, ["initial_config: violates the joint limits"])
    # the robot is not mounted, so the start's clearance is measured in the mounted scene
    mounted = geometry.transform_scene(scene, mounting_transform(mount_l, mount_alpha))
    clearance = geometry.world_state(initial, chain, capsules, mounted).witness.value
    if not clearance > 0.0:
        raise ScenarioError(source, [f"initial_config: clearance {clearance:.3e} m in the mounted scene is not positive"])

    scenario = Scenario(
        name=name,
        chain=chain,
        capsules=capsules,
        scene=scene,
        weld_path=weld_path,
        mounting_l=mount_l,
        mounting_alpha=mount_alpha,
        params=params,
        initial_config=initial,
        description=description,
    )

    # a rigid mounting moves the path and the scene together, so the construction frame gives the same clearance
    for t in np.flatnonzero(geometry.point_tunnel_clearance(weld_path, scene) <= 0.0).tolist():
        warn(f"weld point {t} lies outside the mounted tunnel region")
    return scenario


# ---------------------------------------------------------------------------
# serialization


def _float_representer(dumper, value):
    return dumper.represent_scalar("tag:yaml.org,2002:float", repr(float(value)))


class _ScenarioDumper(yaml.SafeDumper):
    pass


_ScenarioDumper.add_representer(float, _float_representer)


def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _pose_dict(T: np.ndarray) -> dict:
    return {"rotation": _listify(T[:3, :3]), "translation": _listify(T[:3, 3])}


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "name": s.name,
        "description": s.description,
        "chain": {
            "joints": [
                {"a": jp.a, "alpha": jp.alpha, "d": jp.d, "theta_offset": jp.theta_offset}
                for jp in s.chain.joints
            ],
            "tool_offset": _pose_dict(s.chain.tool_offset),
        },
        "capsules": [
            {
                "link_index": c.link_index,
                "endpoint_a": _listify(c.endpoint_a),
                "endpoint_b": _listify(c.endpoint_b),
                "radius": c.radius,
            }
            for c in s.capsules
        ],
        "scene": {
            "section": _listify(s.scene.section),
            "depth": s.scene.depth,
            "pose": _pose_dict(s.scene.pose),
        },
        "weld_path": _listify(s.weld_path),
        "mounting": {"l": s.mounting_l, "alpha": s.mounting_alpha},
        "params": {
            "q_diag": _listify(s.params.q_diag),
            "xi": s.params.xi,
            "max_inner": s.params.max_inner,
            "step_max": s.params.step_max,
            "joint_lower": _listify(s.params.joint_lower),
            "joint_upper": _listify(s.params.joint_upper),
        },
        "initial_config": _listify(s.initial_config),
    }


def serialize_scenario(s: Scenario, path) -> None:
    text = yaml.dump(scenario_to_dict(s), Dumper=_ScenarioDumper, sort_keys=False, default_flow_style=None)
    Path(path).write_text(text, encoding="utf-8")


def bundled_scenario_path(name: str) -> Path:
    """Path to a scenario shipped with the package (c1..c4)."""
    candidate = resources.files("icop").joinpath("assets", f"{name}.scenario")
    with resources.as_file(candidate) as p:
        return Path(p)


def load_bundled(name: str) -> Scenario:
    text = resources.files("icop").joinpath("assets", f"{name}.scenario").read_text(encoding="utf-8")
    return parse_scenario(text, source=f"bundled:{name}")


# ---------------------------------------------------------------------------
# trajectory export and metrics


def export_trajectory(traj: planner.Trajectory, path, *, scenario: Scenario) -> None:
    """Write one record per step; joint angles carry 12 significant digits."""
    chain = scenario.chain
    lines = [
        f"# scenario={scenario.name} xi={scenario.params.xi:.6e} horizon={len(traj)}",
        "index,q1,q2,q3,q4,q5,q6,tool_x,tool_y,tool_z,tcp_error,min_distance,inner_iterations",
    ]
    for t in range(len(traj)):
        q = traj.states[t]
        tool = forward_kinematics(q, chain)[-1][:3, 3]
        fields = [str(t)]
        fields += [f"{v:.11e}" for v in q]
        fields += [f"{v:.11e}" for v in tool]
        fields += [f"{traj.tcp_error[t]:.6e}", f"{traj.min_distance[t]:.6e}", str(int(traj.inner_iterations[t]))]
        lines.append(",".join(fields))
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as err:
        raise OSError(f"cannot write trajectory to {path}: {err}") from err


def compute_metrics(traj: planner.Trajectory, *, scenario_name: str, xi: float, total_time: float) -> MetricsReport:
    """Arithmetic means over the horizon plus the measured planning wall time."""
    return MetricsReport(
        scenario=scenario_name,
        horizon=len(traj),
        xi=xi,
        mean_tcp_error=float(np.mean(traj.tcp_error)),
        mean_safe_distance=float(np.mean(traj.min_distance)),
        total_time=total_time,
        total_inner_iters=int(np.sum(traj.inner_iterations)),
        per_step_inner_iters=tuple(int(v) for v in traj.inner_iterations),
    )


def write_metrics(report: MetricsReport, path) -> None:
    lines = [
        f"scenario              {report.scenario}",
        f"planning_horizon      {report.horizon}",
        f"equality_threshold_m  {report.xi:.6e}",
        f"tcp_distance_m        {report.mean_tcp_error:.6e}",
        f"safe_distance_m       {report.mean_safe_distance:.6e}",
        f"computation_time_s    {report.total_time:.4f}",
        f"total_inner_iters     {report.total_inner_iters}",
        "per_step_inner_iters  " + " ".join(str(v) for v in report.per_step_inner_iters),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def plan_scenario(scenario: Scenario, params: planner.PlannerParams | None = None):
    """Mount the scene, run the planner, time it: (trajectory, metrics)."""
    p = params or scenario.params
    scene, path = mounted_scene_and_path(scenario)
    start = time.perf_counter()
    traj = planner.plan(path, scenario.initial_config, scenario.chain, scenario.capsules, scene, p)
    elapsed = time.perf_counter() - start
    metrics = compute_metrics(traj, scenario_name=scenario.name, xi=p.xi, total_time=elapsed)
    return traj, metrics


def resample_path(path: np.ndarray, horizon: int) -> np.ndarray:
    """Arc-length resampling of a polyline to ``horizon`` points (linear interpolation)."""
    pts = np.asarray(path, dtype=float)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if pts.shape[0] == 1 or horizon == 1:
        return np.repeat(pts[:1], horizon, axis=0)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], horizon)
    out = np.empty((horizon, 3))
    for k in range(3):
        out[:, k] = np.interp(targets, s, pts[:, k])
    return out
