"""Scenario file ingestion, mounting, trajectory export and run metrics.

A scenario file is YAML with named sections (see docs/scenario_format.md for
the full grammar): the kinematic chain, the link capsules, the workpiece
scene in its construction frame, the weld path, the mounting placement
(translation ``l`` along world x after rotation ``alpha`` about world y),
planner parameters and the initial joint configuration. Lengths are meters,
angles radians. Loading validates every domain-type invariant and reports all
failing fields at once; load -> serialize -> load is the identity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from warnings import warn

import numpy as np
import yaml

from . import geometry, planner
from .geometry import Capsule, CapsuleSet, Scene
from .kinematics import NUM_JOINTS, JointParams, RobotChain, forward_kinematics
from .transforms import homogeneous, rot_y

FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """Structured scenario failure: file path plus one message per failing field."""

    def __init__(self, path, failures: list[str]):
        self.path = str(path)
        self.failures = list(failures)
        detail = "\n  ".join(self.failures)
        super().__init__(f"invalid scenario {self.path}:\n  {detail}")


@dataclass(frozen=True)
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

    @property
    def horizon(self) -> int:
        return self.weld_path.shape[0]


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
    T = homogeneous(rotation=rot_y(alpha))
    T[0, 3] = l
    return T


def mounted_scene_and_path(scenario: Scenario) -> tuple[Scene, np.ndarray]:
    """The scene and weld path in the world frame the planner operates in."""
    T = mounting_transform(scenario.mounting_l, scenario.mounting_alpha)
    scene = geometry.transform_scene(scenario.scene, T)
    path = scenario.weld_path @ T[:3, :3].T + T[:3, 3]
    return scene, path


# ---------------------------------------------------------------------------
# parsing helpers


class _FieldReader:
    """Walks the parsed YAML tree, recording every failure with its field path."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, field: str, message: str) -> None:
        self.failures.append(f"{field}: {message}")

    def require(self, mapping, field: str, kind=None):
        parts = field.split(".")
        node = mapping
        for p in parts:
            if not isinstance(node, dict) or p not in node:
                self.fail(field, "missing")
                return None
            node = node[p]
        if kind is not None and not isinstance(node, kind):
            self.fail(field, f"expected {getattr(kind, '__name__', kind)}")
            return None
        return node

    def vector(self, node, field: str, length: int) -> np.ndarray | None:
        try:
            arr = np.array(node, dtype=float)
        except (TypeError, ValueError):
            self.fail(field, "not numeric")
            return None
        if arr.shape != (length,):
            self.fail(field, f"expected {length} numbers, got shape {arr.shape}")
            return None
        if not np.all(np.isfinite(arr)):
            self.fail(field, "contains non-finite values")
            return None
        return arr

    def scalar(self, node, field: str) -> float | None:
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            self.fail(field, "expected a number")
            return None
        return float(node)


def _parse_chain(reader: _FieldReader, data) -> RobotChain | None:
    joints_node = reader.require(data, "chain.joints", list)
    tool_node = reader.require(data, "chain.tool_offset", dict)
    if joints_node is None or tool_node is None:
        return None
    if len(joints_node) != NUM_JOINTS:
        reader.fail("chain.joints", f"expected {NUM_JOINTS} joints, got {len(joints_node)}")
        return None
    joints = []
    for i, jn in enumerate(joints_node):
        field = f"chain.joints[{i}]"
        if not isinstance(jn, dict):
            reader.fail(field, "expected a mapping")
            return None
        try:
            joints.append(
                JointParams(
                    a=float(jn.get("a", np.nan)),
                    alpha=float(jn.get("alpha", np.nan)),
                    d=float(jn.get("d", np.nan)),
                    theta_offset=float(jn.get("theta_offset", 0.0)),
                )
            )
        except (TypeError, ValueError) as err:
            reader.fail(field, str(err))
            return None
    rot = reader.require(tool_node, "rotation")
    trans = reader.vector(tool_node.get("translation"), "chain.tool_offset.translation", 3)
    if rot is None or trans is None:
        return None
    try:
        R = np.array(rot, dtype=float).reshape(3, 3)
    except (TypeError, ValueError):
        reader.fail("chain.tool_offset.rotation", "expected a 3x3 matrix")
        return None
    try:
        return RobotChain(joints=tuple(joints), tool_offset=homogeneous(R, trans))
    except ValueError as err:
        reader.fail("chain", str(err))
        return None


def _parse_capsules(reader: _FieldReader, data) -> CapsuleSet | None:
    node = reader.require(data, "capsules", list)
    if node is None:
        return None
    caps = []
    for i, cn in enumerate(node):
        field = f"capsules[{i}]"
        if not isinstance(cn, dict):
            reader.fail(field, "expected a mapping")
            return None
        a = reader.vector(cn.get("endpoint_a"), f"{field}.endpoint_a", 3)
        b = reader.vector(cn.get("endpoint_b"), f"{field}.endpoint_b", 3)
        r = reader.scalar(cn.get("radius"), f"{field}.radius")
        link = cn.get("link_index")
        if a is None or b is None or r is None or link is None:
            continue
        try:
            caps.append(Capsule(link_index=int(link), endpoint_a=a, endpoint_b=b, radius=r))
        except ValueError as err:
            reader.fail(field, str(err))
    if reader.failures or not caps:
        return None
    return tuple(caps)


def _parse_scene(reader: _FieldReader, data) -> Scene | None:
    node = reader.require(data, "scene", dict)
    if node is None:
        return None
    planes_node = reader.require(node, "planes", list)
    fringe_node = reader.require(node, "fringe_segments", list)
    entrance = node.get("entrance_plane_index")
    if planes_node is None or fringe_node is None or entrance is None:
        if entrance is None:
            reader.fail("scene.entrance_plane_index", "missing")
        return None
    rows, normals, offsets, boundaries = [], [], [], []
    for i, pn in enumerate(planes_node):
        field = f"scene.planes[{i}]"
        if not isinstance(pn, dict):
            reader.fail(field, "expected a mapping")
            return None
        normal = reader.vector(pn.get("normal"), f"{field}.normal", 3)
        offset = reader.scalar(pn.get("offset"), f"{field}.offset")
        verts = pn.get("vertices")
        if normal is None or offset is None or verts is None:
            continue
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            reader.fail(field + ".normal", "normal has zero length")
            continue
        if abs(norm - 1.0) > 1e-12:
            if abs(norm - 1.0) > 1e-9:
                warn(f"renormalizing plane {i} normal (off by {abs(norm - 1.0):.2e})")
            normal = normal / norm
        try:
            verts = np.array(verts, dtype=float)
        except (TypeError, ValueError) as err:
            reader.fail(field, str(err))
            continue
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 3:
            reader.fail(field, "plane boundary needs at least 3 vertices of dimension 3")
            continue
        rows.append(i)
        normals.append(normal)
        offsets.append(offset)
        boundaries.append(verts)
    counts = np.array([len(v) for v in boundaries], dtype=int)
    vertices = np.zeros((len(boundaries), max(counts, default=3), 3))
    for row, verts in enumerate(boundaries):
        vertices[row, : len(verts)] = verts
    normals = np.array(normals).reshape(-1, 3)
    offsets = np.array(offsets)
    # The constructor's own plane check, run here to name each plane by its index in the file.
    for row, reason in geometry._plane_failures(normals, offsets, vertices, counts):
        reader.fail(f"scene.planes[{rows[row]}]", reason)
    if reader.failures:
        return None
    try:
        return Scene(
            normals=normals,
            offsets=offsets,
            vertices=vertices,
            vertex_counts=counts,
            fringe_segments=np.array(fringe_node, dtype=float),
            entrance_plane_index=int(entrance),
        )
    except (TypeError, ValueError) as err:
        reader.fail("scene", str(err))
        return None


_PARAMS_KEYS = ("q_diag", "xi", "max_inner", "step_max", "joint_lower", "joint_upper", "per_capsule_rows")


def _parse_params(reader: _FieldReader, data) -> planner.PlannerParams | None:
    node = reader.require(data, "params", dict)
    if node is None:
        return None
    for key in node:
        if key not in _PARAMS_KEYS:
            warn(f"ignoring unknown params key {key!r}")
    q_diag = reader.vector(node.get("q_diag"), "params.q_diag", NUM_JOINTS)
    lower = reader.vector(node.get("joint_lower"), "params.joint_lower", NUM_JOINTS)
    upper = reader.vector(node.get("joint_upper"), "params.joint_upper", NUM_JOINTS)
    xi = reader.scalar(node.get("xi"), "params.xi")
    if q_diag is None or lower is None or upper is None or xi is None:
        return None
    try:
        return planner.PlannerParams(
            q_diag=q_diag,
            joint_lower=lower,
            joint_upper=upper,
            xi=xi,
            max_inner=int(node.get("max_inner", 50)),
            step_max=float(node.get("step_max", 0.05)),
            per_capsule_rows=bool(node.get("per_capsule_rows", False)),
        )
    except (TypeError, ValueError) as err:
        reader.fail("params", str(err))
        return None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError with every failure."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(path, [f"cannot read file: {err}"]) from err
    return parse_scenario(text, source=str(path))


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ScenarioError(source, [f"YAML parse error: {err}"]) from err
    if not isinstance(data, dict):
        raise ScenarioError(source, ["top level must be a mapping"])

    reader = _FieldReader()
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        reader.fail("format_version", f"expected {FORMAT_VERSION}, got {version!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        reader.fail("name", "expected a non-empty string")

    chain = _parse_chain(reader, data)
    capsules = _parse_capsules(reader, data)
    scene = _parse_scene(reader, data)

    weld_node = reader.require(data, "weld_path", list)
    weld_path = None
    if weld_node is not None:
        try:
            weld_path = np.array(weld_node, dtype=float)
            if weld_path.ndim != 2 or weld_path.shape[1] != 3 or weld_path.shape[0] == 0:
                reader.fail("weld_path", f"expected a non-empty list of 3-vectors, got shape {weld_path.shape}")
                weld_path = None
        except (TypeError, ValueError):
            reader.fail("weld_path", "not numeric")

    mount_node = reader.require(data, "mounting", dict)
    mount_l = mount_alpha = None
    if mount_node is not None:
        mount_l = reader.scalar(mount_node.get("l"), "mounting.l")
        mount_alpha = reader.scalar(mount_node.get("alpha"), "mounting.alpha")

    params = _parse_params(reader, data)
    initial = reader.vector(data.get("initial_config"), "initial_config", NUM_JOINTS)

    if reader.failures:
        raise ScenarioError(source, reader.failures)

    if params is not None and initial is not None:
        if np.any(initial < params.joint_lower) or np.any(initial > params.joint_upper):
            raise ScenarioError(source, ["initial_config: violates the joint limits"])

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
        description=str(data.get("description", "")),
    )

    mounted_scene, mounted_path = mounted_scene_and_path(scenario)
    for t, point in enumerate(mounted_path):
        if geometry.point_tunnel_clearance(point, mounted_scene) <= 0.0:
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
            "tool_offset": {
                "rotation": _listify(s.chain.tool_offset[:3, :3]),
                "translation": _listify(s.chain.tool_offset[:3, 3]),
            },
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
            "entrance_plane_index": s.scene.entrance_plane_index,
            "planes": [
                {"normal": _listify(normal), "offset": offset, "vertices": _listify(verts[:count])}
                for normal, offset, verts, count in zip(
                    s.scene.normals, s.scene.offsets.tolist(), s.scene.vertices, s.scene.vertex_counts
                )
            ],
            "fringe_segments": _listify(s.scene.fringe_segments),
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
            "per_capsule_rows": s.params.per_capsule_rows,
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
