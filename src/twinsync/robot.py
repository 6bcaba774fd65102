"""URDF-subset parsing and forward kinematics over the kinematic tree.

Only the elements needed to mirror joint states are read: link names, and
joints with origin, axis, limits and the parent/child wiring. Visual,
collision, transmission and vendor extensions are ignored.

Each ``RobotModel`` compiles its tree into a ``Chain`` when it is built
(``model.chain``): the joints in traversal order with their parent link's
index, origin pose, axis as a float tuple, the axis's norm and each
movable joint's position index, and whether its origin has a zero offset
or no rotation; ``Chain.path`` gives a link's root-to-link joints, found
once per link. ``Chain.frames`` is the one kinematics walk: one loop that,
at each joint, composes parent o origin and then that o motion on local
floats, each operation in the order ``Pose.compose``,
``quat_from_axis_angle`` and ``Pose``'s renormalization take, less the
products that cannot change a bit, so forward kinematics is bit-identical
to composing ``Pose`` objects joint by joint. ``forward_kinematics`` reads
the link frames off a walk of the whole tree, and ``jacobian`` the joint
frames off a walk of one link's path. A path walk builds and returns only
its end link's pose, which is all the twin's merge tick and ``jacobian``
read.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import ZERO3, Pose, _rotate, norm

MOVABLE_KINDS = ("revolute", "prismatic")
SUPPORTED_KINDS = MOVABLE_KINDS + ("fixed",)


class UrdfError(ValueError):
    """Raised for malformed or structurally invalid robot descriptions."""


@dataclass(frozen=True)
class Joint:
    name: str
    kind: str
    parent: str
    child: str
    origin: Pose
    axis: tuple | None = None  # unit vector, None for fixed joints
    lower: float = 0.0
    upper: float = 0.0


@dataclass(frozen=True)
class RobotModel:
    name: str
    links: tuple[str, ...]  # link names, in document order
    joints: tuple[Joint, ...]
    root: str
    movable_joints: tuple[Joint, ...] = field(init=False, repr=False, compare=False)
    chain: Chain = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "movable_joints",
                           tuple([j for j in self.joints if j.kind in MOVABLE_KINDS]))
        object.__setattr__(self, "chain", Chain(self))

    @property
    def dof(self) -> int:
        return len(self.movable_joints)


def _parse_floats(text: str, n: int, what: str) -> tuple:
    parts = text.split()
    if len(parts) != n:
        raise UrdfError(f"expected {n} values in {what}, got {text!r}")
    return tuple(float(p) for p in parts)


def _origin_pose(elem) -> Pose:
    origin = elem.find("origin")
    xyz = rpy = ZERO3
    if origin is not None:
        if origin.get("xyz"):
            xyz = _parse_floats(origin.get("xyz"), 3, "origin xyz")
        if origin.get("rpy"):
            rpy = _parse_floats(origin.get("rpy"), 3, "origin rpy")
    return Pose.from_rpy(xyz, rpy)


def parse_urdf(xml_text: str) -> RobotModel:
    """Parse the supported URDF subset into a validated kinematic tree."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as e:
        raise UrdfError(f"malformed XML: {e}") from e
    if root.tag != "robot":
        raise UrdfError(f"expected <robot> root element, got <{root.tag}>")

    links: list[str] = []
    seen_links: set[str] = set()
    for el in root.findall("link"):
        name = el.get("name")
        if not name:
            raise UrdfError("link without name")
        if name in seen_links:
            raise UrdfError(f"duplicate link name {name!r}")
        seen_links.add(name)
        links.append(name)
    if not links:
        raise UrdfError("robot has no links")

    joints: list[Joint] = []
    seen_joints: set[str] = set()
    child_of: dict[str, str] = {}
    for el in root.findall("joint"):
        name = el.get("name")
        kind = el.get("type")
        if not name:
            raise UrdfError("joint without name")
        if name in seen_joints:
            raise UrdfError(f"duplicate joint name {name!r}")
        seen_joints.add(name)
        if kind not in SUPPORTED_KINDS:
            # continuous etc. are outside the supported subset
            raise UrdfError(f"unsupported joint type {kind!r} on {name!r}")
        parent_el = el.find("parent")
        child_el = el.find("child")
        if parent_el is None or child_el is None:
            raise UrdfError(f"joint {name!r} missing parent or child")
        parent, child = parent_el.get("link"), child_el.get("link")
        if parent not in seen_links:
            raise UrdfError(f"joint {name!r} references unknown parent link {parent!r}")
        if child not in seen_links:
            raise UrdfError(f"joint {name!r} references unknown child link {child!r}")
        if child in child_of:
            raise UrdfError(f"link {child!r} has multiple parent joints")
        child_of[child] = name

        axis = None
        lower = upper = 0.0
        if kind in MOVABLE_KINDS:
            axis_el = el.find("axis")
            axis = _parse_floats(axis_el.get("xyz"), 3, "axis") if axis_el is not None \
                else (1.0, 0.0, 0.0)
            n = norm(axis)
            if n < 1e-12:
                raise UrdfError(f"zero-length axis on joint {name!r}")
            axis = tuple(a / n for a in axis)
            limit_el = el.find("limit")
            if limit_el is not None:
                lower = float(limit_el.get("lower", 0.0))
                upper = float(limit_el.get("upper", 0.0))
            if lower > upper:
                raise UrdfError(f"joint {name!r} has lower > upper limit")
        joints.append(Joint(name, kind, parent, child, _origin_pose(el), axis, lower, upper))

    roots = [name for name in links if name not in child_of]
    if len(roots) != 1:
        raise UrdfError(f"expected exactly one root link, found {roots}")

    # reachability check catches disconnected subtrees and cycles
    children: dict[str, list[str]] = {}
    for j in joints:
        children.setdefault(j.parent, []).append(j.child)
    reached = set()
    stack = [roots[0]]
    while stack:
        n = stack.pop()
        if n in reached:
            raise UrdfError("cycle in joint graph")
        reached.add(n)
        stack.extend(children.get(n, []))
    if reached != seen_links:
        raise UrdfError(f"links unreachable from root: {sorted(seen_links - reached)}")

    return RobotModel(root.get("name", ""), tuple(links), tuple(joints), roots[0])


IDENTITY = Pose()


class ChainJoint(NamedTuple):
    """One joint of a compiled chain, held as plain floats."""

    parent: int  # index of the parent link in Chain.links
    kind: str
    origin: Pose
    axis: tuple[float, float, float]  # zeros for a fixed joint
    axis_norm: float  # norm(axis), as quat_from_axis_angle takes it
    dof: int  # index of the joint's position, -1 for a fixed joint
    zero_offset: bool  # the origin's translation is zeros of either sign
    identity_origin: bool  # the origin's rotation is 1.0 and zeros of either sign


class Chain:
    """A robot's kinematic tree, compiled once for repeated evaluation.

    ``links[0]`` is the root and ``joints[i]`` moves ``links[i + 1]``. The
    joints are in depth-first order from the root, so every parent precedes
    its children; ``forward_kinematics`` returns its poses in this order.
    ``index`` maps a link's name to its place in ``links``.
    """

    def __init__(self, model: RobotModel):
        movable = {j.name: i for i, j in enumerate(model.movable_joints)}
        self.dof = len(movable)
        joints_of: dict[str, list[Joint]] = {}
        for j in model.joints:
            joints_of.setdefault(j.parent, []).append(j)
        links = [model.root]
        index = {model.root: 0}
        joints = []
        stack = [model.root]
        while stack:
            parent = stack.pop()
            for j in joints_of.get(parent, []):
                index[j.child] = len(links)
                links.append(j.child)
                axis = j.axis or ZERO3
                (vx, vy, vz), (bw, bx, by, bz) = j.origin
                joints.append(ChainJoint(index[parent], j.kind, j.origin, axis,
                                         norm(axis), movable.get(j.name, -1),
                                         not (vx or vy or vz),
                                         bw == 1.0 and not (bx or by or bz)))
                stack.append(j.child)
        self.links: tuple[str, ...] = tuple(links)
        self.joints: tuple[ChainJoint, ...] = tuple(joints)
        self.index = index
        self._paths: dict[str, tuple[int, ...]] = {}

    def path(self, link: str) -> tuple[int, ...]:
        """The indices of the joints from the root down to ``link``, for
        ``frames``; computed on the first call for each link. KeyError for
        an unknown link."""
        path = self._paths.get(link)
        if path is None:
            steps = []
            i = self.index[link]
            while i:
                steps.append(i - 1)
                i = self.joints[i - 1].parent
            path = self._paths[link] = tuple(reversed(steps))
        return path

    def check(self, positions) -> list[float]:
        """Validated movable-joint positions as a list of floats."""
        positions = list(map(float, positions))
        if len(positions) != self.dof:
            raise ValueError(f"expected {self.dof} positions, got {len(positions)}")
        # a finite sum has only finite terms, as ``teleop.pd_step`` relies on
        if not math.isfinite(sum(positions)) and not all(map(math.isfinite, positions)):
            raise ValueError("non-finite joint position")
        return positions

    def frames(self, positions, base: Pose = IDENTITY, path: tuple | None = None,
               joint_frames: list | None = None) -> list:
        """The pose of every link, in ``links`` order; with ``path``, joint
        indices from the root down as ``path(link)`` gives them, only those
        joints are walked and only the end link's entry is filled, the root's
        for an empty path: every other entry, the path's inner links too, is
        None. A path that is not such a chain, one whose joint does not hang
        off the link the joint before it moves, raises ``ValueError``. With
        a list for ``joint_frames``, each walked joint's frame, parent o
        origin, is appended to it as a pair.

        ``Pose.compose`` is written out twice per joint, for parent o origin
        and then for that o motion, where the motion is a revolute joint's
        ``quat_from_axis_angle`` renormalized as ``Pose`` does, a prismatic
        joint's shift along its axis, or the identity for a fixed joint.
        Rotating a zero offset, and multiplying by the identity rotation
        (whose product a walked rotation renormalizes to itself), add
        ``±0.0`` to each term, which keeps a non-zero one but can flip the
        sign of a zero, so each is skipped only when all the components it
        adds to are non-zero. That holds for finite rotations of norm within
        1e-12 of 1, as ``Pose`` keeps them; any other base is walked in full.
        """
        sin, cos, sqrt, new = math.sin, math.cos, math.sqrt, tuple.__new__
        joints = self.joints
        (tx, ty, tz), (w, x, y, z) = base
        exact = abs(sqrt(w * w + x * x + y * y + z * z) - 1.0) <= 1e-12
        full = path is None
        links = [base if full else None] + [None] * len(joints)
        built = 0  # the link whose frame the locals hold
        for i in range(len(joints)) if full else path:
            (parent, kind, ((vx, vy, vz), (bw, bx, by, bz)), (ax, ay, az), axis_norm,
             dof, zero_offset, identity_origin) = joints[i]
            if parent != built:
                if not full:
                    raise ValueError(f"path joint {i} hangs off {self.links[parent]!r}, "
                                     f"not {self.links[built]!r}: not a root-to-link chain")
                (tx, ty, tz), (w, x, y, z) = links[parent]  # a branch of the tree
            # parent o origin
            if not (zero_offset and tx and ty and tz and exact):
                rw = w * 0.0 - x * vx - y * vy - z * vz
                rx = w * vx + x * 0.0 + y * vz - z * vy
                ry = w * vy - x * vz + y * 0.0 + z * vx
                rz = w * vz + x * vy - y * vx + z * 0.0
                tx += rw * -x + rx * w + ry * -z - rz * -y
                ty += rw * -y - rx * -z + ry * w + rz * -x
                tz += rw * -z + rx * -y - ry * -x + rz * w
            if identity_origin and w and x and y and z and exact:
                qw, qx, qy, qz = w, x, y, z
            else:
                qw = w * bw - x * bx - y * by - z * bz
                qx = w * bx + x * bw + y * bz - z * by
                qy = w * by - x * bz + y * bw + z * bx
                qz = w * bz + x * by - y * bx + z * bw
                n = sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
                if abs(n - 1.0) > 1e-12:
                    if n == 0.0:
                        raise ValueError("zero quaternion")
                    qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
            if joint_frames is not None:
                joint_frames.append(((tx, ty, tz), (qw, qx, qy, qz)))
            # the joint's motion
            vx = vy = vz = 0.0
            if kind == "revolute":
                half = 0.5 * positions[dof]
                s = sin(half) / axis_norm
                bw, bx, by, bz = cos(half), ax * s, ay * s, az * s
                n = sqrt(bw * bw + bx * bx + by * by + bz * bz)
                if abs(n - 1.0) > 1e-12:
                    bw, bx, by, bz = bw / n, bx / n, by / n, bz / n
            else:
                if kind == "prismatic":
                    p = positions[dof]
                    vx, vy, vz = ax * p, ay * p, az * p
                bw, bx, by, bz = 1.0, 0.0, 0.0, 0.0
            # (parent o origin) o motion
            if vx or vy or vz or not (tx and ty and tz and exact):
                rw = qw * 0.0 - qx * vx - qy * vy - qz * vz
                rx = qw * vx + qx * 0.0 + qy * vz - qz * vy
                ry = qw * vy - qx * vz + qy * 0.0 + qz * vx
                rz = qw * vz + qx * vy - qy * vx + qz * 0.0
                tx += rw * -qx + rx * qw + ry * -qz - rz * -qy
                ty += rw * -qy - rx * -qz + ry * qw + rz * -qx
                tz += rw * -qz + rx * -qy - ry * -qx + rz * qw
            if kind != "revolute" and qw and qx and qy and qz and exact:
                w, x, y, z = qw, qx, qy, qz
            else:
                w = qw * bw - qx * bx - qy * by - qz * bz
                x = qw * bx + qx * bw + qy * bz - qz * by
                y = qw * by - qx * bz + qy * bw + qz * bx
                z = qw * bz + qx * by - qy * bx + qz * bw
                n = sqrt(w * w + x * x + y * y + z * z)
                if abs(n - 1.0) > 1e-12:
                    if n == 0.0:
                        raise ValueError("zero quaternion")
                    w, x, y, z = w / n, x / n, y / n, z / n
            built = i + 1
            if full:
                links[built] = new(Pose, ((tx, ty, tz), (w, x, y, z)))
        if not full:
            links[built] = new(Pose, ((tx, ty, tz), (w, x, y, z)))
        return links


def forward_kinematics(model: RobotModel, positions,
                       base_pose: Pose | None = None) -> dict[str, Pose]:
    """Link poses for the given movable-joint positions.

    Child pose = parent pose o joint origin o joint motion. The root link
    takes ``base_pose`` (identity by default).
    """
    chain = model.chain
    return dict(zip(chain.links, chain.frames(chain.check(positions),
                                              base_pose or IDENTITY)))


def jacobian(model: RobotModel, positions, link: str,
             base: Pose = IDENTITY) -> list[tuple]:
    """World-frame position Jacobian of ``link``'s origin, with the root at
    ``base``: one 3-tuple column per movable joint, ``(0.0, 0.0, 0.0)`` for
    a joint off the link's path. KeyError for an unknown link.

    Read off one ``Chain.frames`` walk of the link's path only: for each
    joint on it, its frame is parent o origin, and its axis in the world is
    ``a``. A revolute joint's column is ``a x (p_link - p_joint)``, a
    prismatic joint's is ``a`` (Lynch & Park, *Modern Robotics*, 5.1).
    """
    chain = model.chain
    path = chain.path(link)
    joint_frames = []
    px, py, pz = chain.frames(chain.check(positions), base, path,
                              joint_frames)[chain.index[link]].translation
    columns = [ZERO3] * chain.dof
    for k, ((jx, jy, jz), rotation) in zip(path, joint_frames):
        j = chain.joints[k]
        if j.dof >= 0:
            ax, ay, az = _rotate(rotation, *j.axis)
            if j.kind == "prismatic":
                columns[j.dof] = (ax, ay, az)
            else:
                dx, dy, dz = px - jx, py - jy, pz - jz
                columns[j.dof] = (ay * dz - az * dy, az * dx - ax * dz, ax * dy - ay * dx)
    return columns


@dataclass(frozen=True)
class LimitViolation:
    joint: str
    value: float
    lower: float
    upper: float


def apply_joint_state(model: RobotModel,
                      positions) -> tuple[list[float], list[LimitViolation]]:
    """Map one sample's joint positions onto the model, checking limits.

    No interpolation between frames is performed; the sample is applied
    as-is. Out-of-limit joints are clamped to their limits and reported.
    """
    movable = model.movable_joints
    out = model.chain.check(positions)
    report: list[LimitViolation] = []
    for i, j in enumerate(movable):
        if out[i] < j.lower or out[i] > j.upper:
            report.append(LimitViolation(j.name, out[i], j.lower, j.upper))
            out[i] = min(max(out[i], j.lower), j.upper)
    return out, report
