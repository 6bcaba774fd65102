"""URDF-subset parsing and forward kinematics over the kinematic tree.

Only the elements needed to mirror joint states are read: link names, and
joints with origin, axis, limits and the parent/child wiring. Visual,
collision, transmission and vendor extensions are ignored.

A ``RobotModel`` compiles its tree when it is built: ``steps``, one
``ChainJoint`` per joint, holding its origin pose, axis as a float tuple,
the axis's norm, its position index, and which components of its origin
and its axis are exact zeros; and ``paths``, each link's root-to-link
indices into ``joints``, from one walk of the tree. ``RobotModel.pose`` is
the one kinematics walk: it walks one link's path and, at each joint,
composes parent o origin and then that o motion on local floats, each
operation in the order ``Pose.compose``, ``quat_from_axis_angle`` and
``Pose``'s renormalization take, less the terms that an exact zero of the
joint's constants makes zero. Every component it returns is canonical,
``+ 0.0`` added, so a zero is ``0.0``: a link's pose is bit for bit a chain
of ``Pose.compose`` calls with its zeros made canonical. What the walk
cannot take is rejected: ``parse_urdf`` a value that is not a finite number
or an axis whose norm overflows, ``RobotModel`` a link the root does not
reach or reaches twice, a joint with a non-finite constant or an origin
rotation off the unit sphere (all ``UrdfError``), and ``pose`` a base off
the unit sphere (``ValueError``). ``forward_kinematics`` walks every link's
path, ``jacobian`` reads the joint frames off one walk, and the twin's
merge tick walks its end-effector's path alone.
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


def _parse_floats(text: str, n: int, what: str, joint: str) -> tuple:
    """``n`` finite floats from ``text``, the ``what`` of ``joint``."""
    parts = text.split()
    if len(parts) != n:
        raise UrdfError(f"expected {n} values in {what} of joint {joint!r}, got {text!r}")
    try:
        values = tuple(map(float, parts))
    except ValueError:
        raise UrdfError(f"non-numeric {what} on joint {joint!r}: {text!r}") from None
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
    children: set[str] = set()
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
        if child in children:
            raise UrdfError(f"link {child!r} has multiple parent joints")
        children.add(child)

        axis = None
        lower = upper = 0.0
        if kind in MOVABLE_KINDS:
            axis_el = el.find("axis")
            axis = _parse_floats(axis_el.get("xyz", ""), 3, "axis", name) if axis_el is not None \
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

    roots = [name for name in links if name not in children]
    if len(roots) != 1:
        raise UrdfError(f"expected exactly one root link, found {roots}")

    # the model's walk from the root rejects links it does not reach
    return RobotModel(root.get("name", ""), tuple(links), tuple(joints), roots[0])


IDENTITY = Pose()


class ChainJoint(NamedTuple):
    """One joint of a ``RobotModel``, held as plain floats for ``pose``.

    The three classes say which components of the joint's constant factors
    are zeros of either sign, for ``pose`` to keep only the terms they do
    not multiply, returning each component canonical: ``0``, ``1`` or ``2``
    for a vector along x, y or z alone, or a rotation of ``w`` and that
    vector component alone; ``-1`` for a zero vector, or the identity
    rotation ``(1.0, 0, 0, 0)``; ``3`` for any other. A revolute joint's
    motion rotation has its axis's zeros.
    """

    kind: str
    origin: Pose
    axis: tuple[float, float, float]  # zeros for a fixed joint
    axis_norm: float  # norm(axis), as quat_from_axis_angle takes it
    dof: int  # index of the joint's position, -1 for a fixed joint
    offset: int  # the class of the origin's translation
    turn: int  # the class of the origin's rotation
    spin: int  # the class of the motion's rotation, -1 unless revolute
    unit_axis: bool  # revolute about a coordinate axis, of length exactly 1.0


def _zeros(v) -> int:
    """A vector's class for ``ChainJoint``: the index of its one non-zero
    component, -1 when it has none and 3 when it has more."""
    nonzero = [k for k, c in enumerate(v) if c]
    return -1 if not nonzero else nonzero[0] if len(nonzero) == 1 else 3


def _step(j: Joint, dof: int) -> ChainJoint:
    """``j``, moved by position ``dof``, as ``pose`` takes it. A joint whose
    offset or axis is not finite, or whose origin rotation is more than
    1e-12 off the unit sphere, where ``Pose`` keeps it, raises ``UrdfError``
    naming it."""
    axis = j.axis or ZERO3
    if not (abs(norm(j.origin.rotation) - 1.0) <= 1e-12
            and all(map(math.isfinite, (*j.origin.translation, *axis)))):
        raise UrdfError(f"joint {j.name!r}: non-finite constant or non-unit rotation")
    v, (w, *u) = j.origin
    turn = _zeros(u)
    if turn == -1 and w != 1.0:
        turn = 0  # (-1, 0, 0, 0) turns nothing but negates, as a turn about x
    spin = _zeros(axis) if j.kind == "revolute" else -1
    return ChainJoint(j.kind, j.origin, axis, norm(axis), dof, _zeros(v), turn, spin,
                      0 <= spin < 3 and abs(axis[spin]) == 1.0)


@dataclass(frozen=True)
class RobotModel:
    """A kinematic tree, compiled once for repeated evaluation.

    ``links`` and ``joints`` are in document order and ``root`` is the link
    no joint moves. Built, the model holds ``steps[i]``, ``joints[i]`` as
    ``pose`` takes it, and ``paths``, which maps each link's name to the
    indices into ``joints`` from the root down to it, ``()`` for the root,
    from one walk of the tree. A link the walk does not reach, or reaches
    twice, raises ``UrdfError`` naming it, as does a joint ``pose`` cannot
    take (``_step``).
    """

    name: str
    links: tuple[str, ...]  # link names, in document order
    joints: tuple[Joint, ...]
    root: str
    movable_joints: tuple[Joint, ...] = field(init=False, repr=False, compare=False)
    dof: int = field(init=False, repr=False, compare=False)
    steps: tuple[ChainJoint, ...] = field(init=False, repr=False, compare=False)
    paths: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        movable = [j for j in self.joints if j.kind in MOVABLE_KINDS]
        dof_of = {j.name: i for i, j in enumerate(movable)}
        joints_of: dict[str, list[int]] = {}
        for i, j in enumerate(self.joints):
            joints_of.setdefault(j.parent, []).append(i)
        paths = {self.root: ()}
        stack = [self.root]
        while stack:
            parent = stack.pop()
            for i in joints_of.get(parent, ()):
                child = self.joints[i].child
                if child in paths:
                    raise UrdfError(f"link {child!r} is reached twice from the root")
                paths[child] = paths[parent] + (i,)
                stack.append(child)
        unreached = [link for link in self.links if link not in paths]
        if unreached:
            raise UrdfError(f"links unreachable from root: {unreached}")
        init = object.__setattr__
        init(self, "movable_joints", tuple(movable))
        init(self, "dof", len(movable))
        init(self, "steps", tuple([_step(j, dof_of.get(j.name, -1)) for j in self.joints]))
        init(self, "paths", paths)

    def check(self, positions) -> list[float]:
        """Validated movable-joint positions as a list of floats."""
        positions = list(map(float, positions))
        if len(positions) != self.dof:
            raise ValueError(f"expected {self.dof} positions, got {len(positions)}")
        # a finite sum has only finite terms, as ``teleop.pd_step`` relies on
        if not math.isfinite(sum(positions)) and not all(map(math.isfinite, positions)):
            raise ValueError("non-finite joint position")
        return positions

    def pose(self, positions, base: Pose, link: str,
             joint_frames: list | None = None) -> Pose:
        """The pose of ``link``: a walk of its ``paths`` entry from the root
        at ``base``, which the root's empty path returns as it is, made
        canonical. KeyError for an unknown link. With a list for
        ``joint_frames``, each walked joint's frame, parent o origin, is
        appended to it as a pair. ``positions`` are finite, as ``check``
        returns them; a base whose rotation is more than 1e-12 off the unit
        sphere, where ``Pose`` keeps it, raises ``ValueError``.

        ``Pose.compose`` is written out twice per joint, for parent o origin
        and then for that o motion, where the motion is a revolute joint's
        ``quat_from_axis_angle`` renormalized as ``Pose`` does, a prismatic
        joint's shift along its axis, or the identity for a fixed joint.
        Each compose multiplies by a factor of the joint twice: ``q * (0,
        v)`` for the offset and ``q * b`` for the rotation. A revolute
        joint's ``b`` has its axis's zeros, times ``sin``. A prismatic
        joint's shift, its axis times the position, is rotated by
        ``geometry._rotate``, every term kept.

        The zero-term rule: each component of such a product is a sum of
        four terms, added left to right. The walk keeps, in their order, the
        terms whose constant factor ``ChainJoint``'s classes do not name a
        zero. The running rotation is finite, from a unit base along
        ``steps`` of finite constants, so a dropped term is a zero. Adding a
        zero to a non-zero value leaves it as it is, and a sum of zeros is a
        zero, so each partial sum of the full product equals that of the
        kept terms, or both are zeros: a non-zero component is the full
        sum's. The sign of a zero changes no non-zero value further on, and
        squaring a zero drops it, so every norm, renormalization and error
        is the full walk's too. Two shortcuts follow: a product with the
        identity rotation keeps ``q`` and skips the renormalization, which
        ``q`` has passed; a zero offset leaves the translation as it is.
        Each component is returned canonical, ``+ 0.0`` added, so a zero is
        ``0.0``: the walk's bytes are those of the ``Pose.compose`` walk
        with its zeros made canonical, the kept terms' and the full
        products' alike.

        Unit axes: a revolute joint about a coordinate axis of length
        exactly 1.0 skips its ``b``'s renormalization. That ``b`` is
        ``c = cos(h)``, ``s = +-sin(h)`` (divided by the norm 1.0, which is
        exact) and two zeros. For any ``sin`` and ``cos`` within 1000 ulps
        of the true values, ``c * c + s * s``, its roundings included, is
        within 4.5e-13 of 1 and its square root within 2.3e-13, inside
        ``Pose``'s 1e-12: ``Pose`` would keep ``b`` as it is. Every other
        axis is renormalized as ``Pose`` does.
        """
        sin, cos, sqrt = math.sin, math.cos, math.sqrt
        (tx, ty, tz), (w, x, y, z) = base
        if not abs(sqrt(w * w + x * x + y * y + z * z) - 1.0) <= 1e-12:
            raise ValueError(f"base rotation {base.rotation} is off the unit sphere")
        steps = self.steps
        for i in self.paths[link]:
            (kind, ((vx, vy, vz), (bw, bx, by, bz)), (ax, ay, az), axis_norm, dof, offset,
             turn, spin, unit_axis) = steps[i]
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
            # (parent o origin) o motion: a revolute joint's rotation b, by
            # the same rule, or a prismatic joint's shift
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
            elif kind == "prismatic":
                p = positions[dof]
                dx, dy, dz = _rotate((qw, qx, qy, qz), ax * p, ay * p, az * p)
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
        return tuple.__new__(Pose, ((tx + 0.0, ty + 0.0, tz + 0.0),
                                    (w + 0.0, x + 0.0, y + 0.0, z + 0.0)))


def forward_kinematics(model: RobotModel, positions,
                       base_pose: Pose | None = None) -> dict[str, Pose]:
    """Link poses for the given movable-joint positions, in ``model.links``
    order: one ``RobotModel.pose`` walk per link.

    Child pose = parent pose o joint origin o joint motion. The root link
    takes ``base_pose`` (identity by default).
    """
    positions, base = model.check(positions), base_pose or IDENTITY
    return {link: model.pose(positions, base, link) for link in model.links}


def jacobian(model: RobotModel, positions, link: str,
             base: Pose = IDENTITY) -> list[tuple]:
    """World-frame position Jacobian of ``link``'s origin, with the root at
    ``base``: one 3-tuple column per movable joint, ``(0.0, 0.0, 0.0)`` for
    a joint off the link's path. KeyError for an unknown link.

    Read off one ``RobotModel.pose`` walk of the link's path: for each joint
    on it, its frame is parent o origin, and its axis in the world is ``a``,
    the joint's axis rotated by ``geometry._rotate``. A revolute joint's
    column is ``a x (p_link - p_joint)``, a prismatic joint's is ``a``
    (Lynch & Park, *Modern Robotics*, 5.1). As in ``pose``, each component
    is returned canonical; a base off the unit sphere raises ``ValueError``.
    """
    joint_frames = []
    px, py, pz = model.pose(model.check(positions), base, link, joint_frames).translation
    columns = [ZERO3] * model.dof
    steps = model.steps
    for k, ((jx, jy, jz), rotation) in zip(model.paths[link], joint_frames):
        j = steps[k]
        if j.dof >= 0:
            ax, ay, az = _rotate(rotation, *j.axis)
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
    out = model.check(positions)
    report: list[LimitViolation] = []
    for i, j in enumerate(movable):
        if out[i] < j.lower or out[i] > j.upper:
            report.append(LimitViolation(j.name, out[i], j.lower, j.upper))
            out[i] = min(max(out[i], j.lower), j.upper)
    return out, report
