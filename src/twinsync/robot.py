"""URDF-subset parsing and forward kinematics over the kinematic tree.

Only the elements needed to mirror joint states are read: link names, and
joints with origin, axis, limits and the parent/child wiring. Visual,
collision, transmission and vendor extensions are ignored.

Each ``RobotModel`` compiles its tree once into a ``Chain``
(``model.chain``): the joints in traversal order with their parent link's
index, origin pose, axis as a float tuple, the axis's norm and each
movable joint's position index. ``ChainJoint.motion`` gives a joint's
motion at the given positions as a raw (translation, rotation) pair, built
as ``quat_from_axis_angle`` and ``Pose``'s renormalization build it, and
each child link's pose is parent o origin o motion by ``Pose.compose``, so
forward kinematics is bit-identical to composing ``Pose`` objects joint by
joint. ``jacobian`` walks one root-to-link path the same way and reads the
geometric Jacobian off that single walk.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .geometry import IDENTITY_QUAT, ZERO3, Pose, _rotate, floats, norm, unit_quat

MOVABLE_KINDS = ("revolute", "prismatic")
SUPPORTED_KINDS = MOVABLE_KINDS + ("fixed",)


class UrdfError(ValueError):
    """Raised for malformed or structurally invalid robot descriptions."""


@dataclass(frozen=True)
class Link:
    name: str


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
    links: tuple[Link, ...]
    joints: tuple[Joint, ...]
    root: str

    @property
    def movable_joints(self) -> list[Joint]:
        return [j for j in self.joints if j.kind in MOVABLE_KINDS]

    @property
    def dof(self) -> int:
        return len(self.movable_joints)

    @cached_property
    def chain(self) -> "Chain":
        return Chain(self)


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

    links: list[Link] = []
    seen_links: set[str] = set()
    for el in root.findall("link"):
        name = el.get("name")
        if not name:
            raise UrdfError("link without name")
        if name in seen_links:
            raise UrdfError(f"duplicate link name {name!r}")
        seen_links.add(name)
        links.append(Link(name))
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

    roots = [l.name for l in links if l.name not in child_of]
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

    def motion(self, positions) -> tuple:
        """The joint's motion at ``positions`` as a (translation, rotation)
        pair: a revolute joint's ``quat_from_axis_angle`` after ``Pose``'s
        renormalization, a prismatic joint's shift along its axis, or the
        identity for a fixed joint."""
        if self.kind == "revolute":
            half = 0.5 * positions[self.dof]
            s = math.sin(half) / self.axis_norm
            ax, ay, az = self.axis
            return ZERO3, unit_quat((math.cos(half), ax * s, ay * s, az * s))
        if self.kind == "prismatic":
            p = positions[self.dof]
            ax, ay, az = self.axis
            return (ax * p, ay * p, az * p), IDENTITY_QUAT
        return IDENTITY


class Chain:
    """A robot's kinematic tree, compiled once for repeated evaluation.

    ``links[0]`` is the root and ``joints[i]`` moves ``links[i + 1]``. The
    joints are in depth-first order from the root, so every parent precedes
    its children; ``forward_kinematics`` returns its poses in this order.
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
                joints.append(ChainJoint(index[parent], j.kind, j.origin, axis,
                                         norm(axis), movable.get(j.name, -1)))
                stack.append(j.child)
        self.links: tuple[str, ...] = tuple(links)
        self.joints: tuple[ChainJoint, ...] = tuple(joints)
        self._index = index

    def check(self, positions) -> list[float]:
        """Validated movable-joint positions as a list of floats."""
        positions = list(floats(positions))
        if len(positions) != self.dof:
            raise ValueError(f"expected {self.dof} positions, got {len(positions)}")
        if not all(map(math.isfinite, positions)):
            raise ValueError("non-finite joint position")
        return positions

    def frames(self, positions, base: Pose = IDENTITY) -> list[Pose]:
        """Pose of every link, in ``links`` order."""
        out = [base]
        for j in self.joints:
            out.append(out[j.parent].compose(j.origin).compose(j.motion(positions)))
        return out

    def path(self, link: str) -> tuple[ChainJoint, ...]:
        """The joints from the root down to ``link``; KeyError if unknown."""
        i = self._index[link]
        path = []
        while i:
            j = self.joints[i - 1]
            path.append(j)
            i = j.parent
        return tuple(reversed(path))


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

    One walk of the link's path, as ``Chain.frames`` composes it: at each
    joint the joint frame is parent o origin, and its axis in the world is
    ``a``. A revolute joint's column is ``a x (p_link - p_joint)``, a
    prismatic joint's is ``a`` (Lynch & Park, *Modern Robotics*, 5.1).
    """
    chain = model.chain
    positions = chain.check(positions)
    frame = base
    moved = []
    for j in chain.path(link):
        joint_frame = frame.compose(j.origin)
        frame = joint_frame.compose(j.motion(positions))
        if j.dof >= 0:
            moved.append((j, _rotate(joint_frame.rotation, *j.axis),
                          joint_frame.translation))
    columns = [ZERO3] * chain.dof
    px, py, pz = frame.translation
    for j, (ax, ay, az), (jx, jy, jz) in moved:
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
