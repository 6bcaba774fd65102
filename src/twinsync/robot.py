"""URDF-subset parsing and forward kinematics over the kinematic tree.

Only the elements needed to mirror joint states are read: link names, and
joints with origin, axis, limits and the parent/child wiring. Visual,
collision, transmission and vendor extensions are ignored.

Each ``RobotModel`` compiles its tree into a ``Chain`` when it is built
(``model.chain``): the joints in traversal order with their parent link's
index, origin pose, axis as a float tuple, the axis's norm, each movable
joint's position index, and which components of its origin and its axis
are exact zeros; ``Chain.path`` gives a link's root-to-link joints, found
once per link. ``Chain.frames`` is the one kinematics walk: one loop that,
at each joint, composes parent o origin and then that o motion on local
floats, each operation in the order ``Pose.compose``,
``quat_from_axis_angle`` and ``Pose``'s renormalization take, less the
terms that an exact zero of the joint's constants makes zero. Every
component it returns is canonical, ``+ 0.0`` added, so a zero is ``0.0``:
forward kinematics is bit for bit a chain of ``Pose.compose`` calls with
its zeros made canonical. What the walk cannot take is rejected:
``parse_urdf`` a non-finite value or an axis whose norm overflows,
``Chain`` a joint with a non-finite constant or an origin rotation off the
unit sphere (both ``UrdfError``), and ``frames`` a base off the unit
sphere (``ValueError``). ``forward_kinematics`` reads the link frames off
a walk of the whole tree, and ``jacobian`` the joint frames off a walk of
one link's path. A path walk builds and returns only its end link's pose,
which is all the twin's merge tick and ``jacobian`` read.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import ZERO3, Pose, norm

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


def _parse_floats(text: str, n: int, what: str, joint: str) -> tuple:
    """``n`` finite floats from ``text``, the ``what`` of ``joint``."""
    parts = text.split()
    if len(parts) != n:
        raise UrdfError(f"expected {n} values in {what} of joint {joint!r}, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not all(map(math.isfinite, values)):
        raise UrdfError(f"non-finite {what} on joint {joint!r}: {text!r}")
    return values


def _origin_pose(elem, joint: str) -> Pose:
    origin = elem.find("origin")
    xyz = rpy = ZERO3
    if origin is not None:
        if origin.get("xyz"):
            xyz = _parse_floats(origin.get("xyz"), 3, "origin xyz", joint)
        if origin.get("rpy"):
            rpy = _parse_floats(origin.get("rpy"), 3, "origin rpy", joint)
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
            axis = _parse_floats(axis_el.get("xyz"), 3, "axis", name) if axis_el is not None \
                else (1.0, 0.0, 0.0)
            n = norm(axis)
            if n < 1e-12:
                raise UrdfError(f"zero-length axis on joint {name!r}")
            if n == math.inf:
                raise UrdfError(f"the norm of the axis of joint {name!r} overflows")
            axis = tuple(a / n for a in axis)
            limit_el = el.find("limit")
            if limit_el is not None:
                lower, = _parse_floats(limit_el.get("lower", "0"), 1, "limit lower", name)
                upper, = _parse_floats(limit_el.get("upper", "0"), 1, "limit upper", name)
            if lower > upper:
                raise UrdfError(f"joint {name!r} has lower > upper limit")
        joints.append(Joint(name, kind, parent, child, _origin_pose(el, name), axis,
                            lower, upper))

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
    """One joint of a compiled chain, held as plain floats.

    The four classes say which components of the joint's constant factors
    are zeros of either sign, for ``Chain.frames`` to keep only the terms
    they do not multiply, returning each component canonical: ``0``, ``1``
    or ``2`` for a vector along x, y or z alone, or a rotation of ``w`` and
    that vector component alone; ``-1`` for a zero vector, or the identity
    rotation ``(1.0, 0, 0, 0)``; ``3`` for any other. A revolute joint's
    motion rotation has its axis's zeros, and a prismatic joint's shift too.
    """

    parent: int  # index of the parent link in Chain.links
    kind: str
    origin: Pose
    axis: tuple[float, float, float]  # zeros for a fixed joint
    axis_norm: float  # norm(axis), as quat_from_axis_angle takes it
    dof: int  # index of the joint's position, -1 for a fixed joint
    offset: int  # the class of the origin's translation
    turn: int  # the class of the origin's rotation
    shift: int  # the class of the motion's translation, -1 unless prismatic
    spin: int  # the class of the motion's rotation, -1 unless revolute
    unit_axis: bool  # revolute about a coordinate axis, of length exactly 1.0


def _zeros(v) -> int:
    """A vector's class for ``ChainJoint``: the index of its one non-zero
    component, -1 when it has none and 3 when it has more."""
    nonzero = [k for k, c in enumerate(v) if c]
    return -1 if not nonzero else nonzero[0] if len(nonzero) == 1 else 3


def _classes(j: Joint, axis: tuple) -> tuple[int, int, int, int, bool]:
    """``j``'s ``ChainJoint`` classes and whether it has a unit axis."""
    v, (w, *u) = j.origin
    turn = _zeros(u)
    if turn == -1 and w != 1.0:
        turn = 0  # (-1, 0, 0, 0) turns nothing but negates, as a turn about x
    shift = spin = -1
    if j.kind == "prismatic":
        shift = _zeros(axis)
    elif j.kind == "revolute":
        spin = _zeros(axis)
    return _zeros(v), turn, shift, spin, 0 <= spin < 3 and abs(axis[spin]) == 1.0


class Chain:
    """A robot's kinematic tree, compiled once for repeated evaluation.

    ``links[0]`` is the root and ``joints[i]`` moves ``links[i + 1]``. The
    joints are in depth-first order from the root, so every parent precedes
    its children; ``forward_kinematics`` returns its poses in this order.
    ``index`` maps a link's name to its place in ``links``.

    ``joints`` holds each joint's classes, for ``frames`` to drop the terms
    that are zero. A joint whose offset or axis is not finite, or whose
    origin rotation is more than 1e-12 off the unit sphere, where ``Pose``
    keeps it, raises ``UrdfError`` naming it.
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
                if not (abs(norm(j.origin.rotation) - 1.0) <= 1e-12
                        and all(map(math.isfinite, (*j.origin.translation, *axis)))):
                    raise UrdfError(f"joint {j.name!r}: non-finite constant or non-unit rotation")
                joints.append(ChainJoint(index[parent], j.kind, j.origin, axis, norm(axis),
                                         movable.get(j.name, -1), *_classes(j, axis)))
                stack.append(j.child)
        self.joints: tuple[ChainJoint, ...] = tuple(joints)
        self.links: tuple[str, ...] = tuple(links)
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
        origin, is appended to it as a pair. ``positions`` are finite, as
        ``check`` returns them; a base whose rotation is more than 1e-12 off
        the unit sphere, where ``Pose`` keeps it, raises ``ValueError``.

        ``Pose.compose`` is written out twice per joint, for parent o origin
        and then for that o motion, where the motion is a revolute joint's
        ``quat_from_axis_angle`` renormalized as ``Pose`` does, a prismatic
        joint's shift along its axis, or the identity for a fixed joint.
        Each compose multiplies by a factor of the joint twice: ``q * (0,
        v)`` for the offset and ``q * b`` for the rotation. A revolute
        joint's ``b`` has its axis's zeros, times ``sin``, and a prismatic
        joint's ``v`` its axis's, times the position.

        The zero-term rule: each component of such a product is a sum of
        four terms, added left to right. The walk keeps, in their order, the
        terms whose constant factor ``ChainJoint``'s classes do not name a
        zero. The running rotation is finite, from a unit base along a
        ``Chain`` of finite constants, so a dropped term is a zero. Adding a
        zero to a non-zero value leaves it as it is, and a sum of zeros is a
        zero, so each partial sum of the full product equals that of the
        kept terms, or both are zeros: a non-zero component is the full
        sum's. The sign of a zero changes no non-zero value further on, and
        squaring a zero drops it, so every norm, renormalization and error
        is the full walk's too. Two shortcuts follow: a product with the
        identity rotation keeps ``q`` and skips the renormalization, which
        ``q`` has passed; a zero offset or shift leaves the translation as
        it is. Each component is returned canonical, ``+ 0.0`` added, so a
        zero is ``0.0``: the walk's bytes are those of the ``Pose.compose``
        walk with its zeros made canonical.

        Unit axes: a revolute joint about a coordinate axis of length
        exactly 1.0 skips its ``b``'s renormalization. That ``b`` is
        ``c = cos(h)``, ``s = +-sin(h)`` (divided by the norm 1.0, which is
        exact) and two zeros. For any ``sin`` and ``cos`` within 1000 ulps
        of the true values, ``c * c + s * s``, its roundings included, is
        within 4.5e-13 of 1 and its square root within 2.3e-13, inside
        ``Pose``'s 1e-12: ``Pose`` would keep ``b`` as it is. Every other
        axis is renormalized as ``Pose`` does.
        """
        sin, cos, sqrt, new = math.sin, math.cos, math.sqrt, tuple.__new__
        (tx, ty, tz), (w, x, y, z) = base
        if not abs(sqrt(w * w + x * x + y * y + z * z) - 1.0) <= 1e-12:
            raise ValueError(f"base rotation {base.rotation} is off the unit sphere")
        joints = self.joints
        full = path is None
        links = [None] * (len(joints) + 1)
        if full:
            links[0] = new(Pose, ((tx + 0.0, ty + 0.0, tz + 0.0),
                                  (w + 0.0, x + 0.0, y + 0.0, z + 0.0)))
        built = 0  # the link whose frame the locals hold
        for i in range(len(joints)) if full else path:
            (parent, kind, ((vx, vy, vz), (bw, bx, by, bz)), (ax, ay, az), axis_norm,
             dof, offset, turn, shift, spin, unit_axis) = joints[i]
            if parent != built:
                if not full:
                    raise ValueError(f"path joint {i} hangs off {self.links[parent]!r}, "
                                     f"not {self.links[built]!r}: not a root-to-link chain")
                (tx, ty, tz), (w, x, y, z) = links[parent]  # a branch of the tree
            # parent o origin: the offset's q * (0, v), then that times conj(q)
            if offset >= 0:
                nx, ny, nz = -x, -y, -z
                if offset == 2:
                    rw = nz * vz
                    rx = y * vz
                    ry = nx * vz
                    rz = w * vz
                elif offset == 0:
                    rw = nx * vx
                    rx = w * vx
                    ry = z * vx
                    rz = ny * vx
                elif offset == 1:
                    rw = ny * vy
                    rx = nz * vy
                    ry = w * vy
                    rz = x * vy
                else:
                    rw = w * 0.0 - x * vx - y * vy - z * vz
                    rx = w * vx + x * 0.0 + y * vz - z * vy
                    ry = w * vy - x * vz + y * 0.0 + z * vx
                    rz = w * vz + x * vy - y * vx + z * 0.0
                tx += rw * nx + rx * w + ry * nz - rz * ny
                ty += rw * ny - rx * nz + ry * w + rz * nx
                tz += rw * nz + rx * ny - ry * nx + rz * w
            # and the rotation's q * b
            if turn == 0:
                qw = w * bw - x * bx
                qx = w * bx + x * bw
                qy = y * bw + z * bx
                qz = z * bw - y * bx
            elif turn < 0:
                qw = w
                qx = x
                qy = y
                qz = z
            elif turn == 2:
                qw = w * bw - z * bz
                qx = x * bw + y * bz
                qy = y * bw - x * bz
                qz = w * bz + z * bw
            elif turn == 1:
                qw = w * bw - y * by
                qx = x * bw - z * by
                qy = w * by + y * bw
                qz = x * by + z * bw
            else:
                qw = w * bw - x * bx - y * by - z * bz
                qx = w * bx + x * bw + y * bz - z * by
                qy = w * by - x * bz + y * bw + z * bx
                qz = w * bz + x * by - y * bx + z * bw
            if turn >= 0:
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
                bw = cos(half)
                bx = ax * s
                by = ay * s
                bz = az * s
                if not unit_axis:
                    n = sqrt(bw * bw + bx * bx + by * by + bz * bz)
                    if abs(n - 1.0) > 1e-12:
                        bw, bx, by, bz = bw / n, bx / n, by / n, bz / n
            else:
                if kind == "prismatic":
                    p = positions[dof]
                    vx, vy, vz = ax * p, ay * p, az * p
                bw = 1.0
                bx = 0.0
                by = 0.0
                bz = 0.0
            # (parent o origin) o motion, by the same rule
            if shift >= 0:
                dx, dy, dz = _turned((qw, qx, qy, qz), shift, vx, vy, vz)
                tx += dx
                ty += dy
                tz += dz
            if spin == 2:
                w = qw * bw - qz * bz
                x = qx * bw + qy * bz
                y = qy * bw - qx * bz
                z = qw * bz + qz * bw
            elif spin < 0:
                w = qw
                x = qx
                y = qy
                z = qz
            elif spin == 0:
                w = qw * bw - qx * bx
                x = qw * bx + qx * bw
                y = qy * bw + qz * bx
                z = qz * bw - qy * bx
            elif spin == 1:
                w = qw * bw - qy * by
                x = qx * bw - qz * by
                y = qw * by + qy * bw
                z = qx * by + qz * bw
            else:
                w = qw * bw - qx * bx - qy * by - qz * bz
                x = qw * bx + qx * bw + qy * bz - qz * by
                y = qw * by - qx * bz + qy * bw + qz * bx
                z = qw * bz + qx * by - qy * bx + qz * bw
            if spin >= 0:
                n = sqrt(w * w + x * x + y * y + z * z)
                if abs(n - 1.0) > 1e-12:
                    if n == 0.0:
                        raise ValueError("zero quaternion")
                    w, x, y, z = w / n, x / n, y / n, z / n
            built = i + 1
            if full:
                links[built] = new(Pose, ((tx + 0.0, ty + 0.0, tz + 0.0),
                                          (w + 0.0, x + 0.0, y + 0.0, z + 0.0)))
        if not full:
            links[built] = new(Pose, ((tx + 0.0, ty + 0.0, tz + 0.0),
                                      (w + 0.0, x + 0.0, y + 0.0, z + 0.0)))
        return links


def _turned(q: tuple, along: int, vx: float, vy: float, vz: float) -> tuple:
    """``geometry._rotate(q, vx, vy, vz)`` for a finite ``q``, with ``q * (0,
    v)`` taken by the zero-term rule of ``Chain.frames`` for a vector of
    class ``along`` (``ChainJoint``): every non-zero component bit for bit."""
    w, x, y, z = q
    nx, ny, nz = -x, -y, -z
    if along == 2:
        rw = nz * vz
        rx = y * vz
        ry = nx * vz
        rz = w * vz
    elif along == 1:
        rw = ny * vy
        rx = nz * vy
        ry = w * vy
        rz = x * vy
    elif along == 0:
        rw = nx * vx
        rx = w * vx
        ry = z * vx
        rz = ny * vx
    else:
        rw = w * 0.0 - x * vx - y * vy - z * vz
        rx = w * vx + x * 0.0 + y * vz - z * vy
        ry = w * vy - x * vz + y * 0.0 + z * vx
        rz = w * vz + x * vy - y * vx + z * 0.0
    return (rw * nx + rx * w + ry * nz - rz * ny,
            rw * ny - rx * nz + ry * w + rz * nx,
            rw * nz + rx * ny - ry * nx + rz * w)


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
    ``a``, the joint's axis rotated by ``_turned`` as ``frames`` classes it.
    A revolute joint's column is ``a x (p_link - p_joint)``, a prismatic
    joint's is ``a`` (Lynch & Park, *Modern Robotics*, 5.1). As in
    ``frames``, only kept terms are summed and each component is returned
    canonical; a base off the unit sphere raises ``ValueError``.
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
            ax, ay, az = _turned(rotation, j.spin if j.kind == "revolute" else j.shift,
                                 *j.axis)
            if j.kind == "prismatic":
                columns[j.dof] = (ax + 0.0, ay + 0.0, az + 0.0)
            else:
                dx, dy, dz = px - jx, py - jy, pz - jz
                columns[j.dof] = (ay * dz - az * dy + 0.0, az * dx - ax * dz + 0.0,
                                  ax * dy - ay * dx + 0.0)
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
