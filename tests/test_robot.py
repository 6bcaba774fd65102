import math
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import numpy_oracle as oracle
from twinsync.geometry import (IDENTITY_QUAT, ZERO3, Pose, _rotate, dot, quat_from_axis_angle,
                               unit_quat)
from twinsync.robot import (Joint, LimitViolation, RobotModel, UrdfError,
                            apply_joint_state, forward_kinematics, jacobian, parse_urdf)
from twinsync.scenario import load_config
from twinsync.twin import TwinEngine, load_model
from twinsync.zones import ProhibitedZone, counterforce, query

ASSETS = Path(__file__).parent.parent / "assets"
CONFIGS = Path(__file__).parent.parent / "configs"

ONE_LINK = "<robot name='r'><link name='base'/></robot>"

TWO_LINK = """
<robot name='r'>
  <link name='base'/><link name='tip'/>
  <joint name='j1' type='revolute'>
    <origin xyz='0.5 0 0'/>
    <parent link='base'/><child link='tip'/>
    <axis xyz='0 0 1'/>
    <limit lower='-3.14' upper='3.14'/>
  </joint>
</robot>
"""

# standard 2R planar arm, both segments 0.5 m, z-axis joints
PLANAR_2LINK = """
<robot name='planar'>
  <link name='base'/><link name='l1'/><link name='l2'/><link name='tip'/>
  <joint name='j1' type='revolute'>
    <parent link='base'/><child link='l1'/>
    <axis xyz='0 0 1'/><limit lower='-6.3' upper='6.3'/>
  </joint>
  <joint name='j2' type='revolute'>
    <origin xyz='0.5 0 0'/>
    <parent link='l1'/><child link='l2'/>
    <axis xyz='0 0 1'/><limit lower='-6.3' upper='6.3'/>
  </joint>
  <joint name='jtip' type='fixed'>
    <origin xyz='0.5 0 0'/>
    <parent link='l2'/><child link='tip'/>
  </joint>
</robot>
"""


def planar_tip_oracle(q1, q2):
    return np.array([0.5 * np.cos(q1) + 0.5 * np.cos(q1 + q2),
                     0.5 * np.sin(q1) + 0.5 * np.sin(q1 + q2), 0.0])

FIXED_ONLY = """
<robot name='f'>
  <link name='a'/><link name='b'/><link name='c'/>
  <joint name='j1' type='fixed'>
    <origin xyz='1 0 0' rpy='0 0 1.5707963267948966'/>
    <parent link='a'/><child link='b'/>
  </joint>
  <joint name='j2' type='fixed'>
    <origin xyz='1 0 0'/>
    <parent link='b'/><child link='c'/>
  </joint>
</robot>
"""


def one_joint(origin="", axis="<axis xyz='0 0 1'/>", limit=""):
    """A robot of one revolute joint 'j' with the given child elements."""
    return ("<robot name='r'><link name='a'/><link name='b'/>"
            f"<joint name='j' type='revolute'>{origin}<parent link='a'/><child link='b'/>"
            f"{axis}{limit}</joint></robot>")


class TestParse:
    def test_one_link(self):
        m = parse_urdf(ONE_LINK)
        assert m.links == ("base",) and len(m.joints) == 0
        assert m.root == "base"

    def test_two_link_echo(self):
        m = parse_urdf(TWO_LINK)
        j = m.joints[0]
        assert j.kind == "revolute"
        assert np.allclose(j.axis, [0, 0, 1])
        assert np.allclose(j.origin.translation, [0.5, 0, 0])
        assert m.root == "base"

    def test_panda_joint_counts_vs_xml_oracle(self):
        # independent generic XML query over the same description
        text = (ASSETS / "panda.urdf").read_text()
        tree = ET.fromstring(text)
        by_type = {}
        for j in tree.findall("joint"):
            by_type[j.get("type")] = by_type.get(j.get("type"), 0) + 1
        m = parse_urdf(text)
        revolute = sum(1 for j in m.joints if j.kind == "revolute")
        prismatic = sum(1 for j in m.joints if j.kind == "prismatic")
        assert revolute == by_type["revolute"] == 7
        assert prismatic == by_type["prismatic"] == 2

    @pytest.mark.parametrize("xml,err", [
        ("<robot name='r'><link name='a'/><link name='a'/></robot>", "duplicate"),
        ("<robot", "malformed"),
        ("<robot name='r'><link name='a'/>"
         "<joint name='j' type='revolute'><parent link='a'/><child link='x'/>"
         "<axis xyz='0 0 1'/></joint></robot>", "unknown"),
        ("<robot name='r'><link name='a'/><link name='b'/>"
         "<joint name='j' type='revolute'><parent link='a'/><child link='b'/>"
         "<axis xyz='0 0 0'/></joint></robot>", "zero-length"),
        pytest.param(one_joint(origin="<origin xyz='0 nan 0'/>"),
                     "non-finite origin xyz on joint 'j'", id="nan-origin-xyz"),
        pytest.param(one_joint(origin="<origin rpy='0 0 inf'/>"),
                     "non-finite origin rpy on joint 'j'", id="inf-origin-rpy"),
        pytest.param(one_joint(axis="<axis xyz='0 nan 1'/>"),
                     "non-finite axis on joint 'j'", id="nan-axis"),
        pytest.param(one_joint(axis="<axis xyz='1e308 1e308 0'/>"),
                     "axis of joint 'j' overflows", id="overflowing-axis"),
        pytest.param(one_joint(limit="<limit lower='nan' upper='1'/>"),
                     "non-finite limit lower on joint 'j'", id="nan-limit-lower"),
        pytest.param(one_joint(limit="<limit lower='-1' upper='inf'/>"),
                     "non-finite limit upper on joint 'j'", id="inf-limit-upper"),
        pytest.param(one_joint(origin="<origin xyz='0 0 q'/>"),
                     "non-numeric origin xyz on joint 'j'", id="text-origin-xyz"),
        pytest.param(one_joint(axis="<axis xyz='0 x 1'/>"),
                     "non-numeric axis on joint 'j'", id="text-axis"),
        pytest.param(one_joint(limit="<limit lower='x' upper='1'/>"),
                     "non-numeric limit lower on joint 'j'", id="text-limit-lower"),
        pytest.param(one_joint(axis="<axis/>"),
                     "expected 3 values in axis of joint 'j'", id="axis-without-xyz"),
    ])
    def test_rejects(self, xml, err):
        with pytest.raises(UrdfError, match=err):
            parse_urdf(xml)

    def test_rejects_cycle_and_multi_root(self):
        two_roots = ("<robot name='r'><link name='a'/><link name='b'/></robot>")
        with pytest.raises(UrdfError, match="root"):
            parse_urdf(two_roots)
        # a loop c <-> d beside the tree: one root, r, that reaches neither
        loop = ("<robot name='r'><link name='r'/><link name='c'/><link name='d'/>"
                "<joint name='cd' type='fixed'><parent link='c'/><child link='d'/></joint>"
                "<joint name='dc' type='fixed'><parent link='d'/><child link='c'/></joint>"
                "</robot>")
        with pytest.raises(UrdfError, match=r"links unreachable from root: \['c', 'd'\]"):
            parse_urdf(loop)


class TestForwardKinematics:
    def test_planar_zero(self):
        m = parse_urdf(PLANAR_2LINK)
        poses = forward_kinematics(m, [0.0, 0.0])
        assert np.allclose(poses["tip"].translation, [1.0, 0, 0], atol=1e-12)

    def test_planar_elbow_bent(self):
        m = parse_urdf(PLANAR_2LINK)
        poses = forward_kinematics(m, [0.0, np.pi / 2])
        assert np.allclose(poses["tip"].translation, [0.5, 0.5, 0], atol=1e-9)

    def test_planar_analytic_random(self):
        m = parse_urdf(PLANAR_2LINK)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            q1, q2 = rng.uniform(-np.pi, np.pi, 2)
            got = forward_kinematics(m, [q1, q2])["tip"].translation
            assert np.allclose(got, planar_tip_oracle(q1, q2), atol=1e-9)

    def test_fixed_only_composition(self):
        m = parse_urdf(FIXED_ONLY)
        poses = forward_kinematics(m, [])
        assert np.allclose(poses["b"].translation, [1, 0, 0], atol=1e-12)
        # second offset is rotated by the first joint's 90 degree yaw
        assert np.allclose(poses["c"].translation, [1, 1, 0], atol=1e-12)

    def test_base_pose_applied(self):
        m = parse_urdf(TWO_LINK)
        base = Pose([0, 0, 1.0], quat_from_axis_angle([0, 0, 1], np.pi / 2))
        poses = forward_kinematics(m, [0.0], base_pose=base)
        assert np.allclose(poses["tip"].translation, [0, 0.5, 1.0], atol=1e-12)

    def test_determinism_bit_identical(self):
        m = parse_urdf(PLANAR_2LINK)
        a = forward_kinematics(m, [0.3, -0.7])
        b = forward_kinematics(m, [0.3, -0.7])
        for name in a:
            assert np.asarray(a[name].translation).tobytes() == \
                np.asarray(b[name].translation).tobytes()
            assert np.asarray(a[name].rotation).tobytes() == \
                np.asarray(b[name].rotation).tobytes()

    def test_zero_config_equals_origin_composition(self):
        m = parse_urdf((ASSETS / "panda.urdf").read_text())
        poses = forward_kinematics(m, np.zeros(m.dof))
        by_child = {j.child: j for j in m.joints}
        for link in m.links:
            expected = Pose()
            chain = []
            name = link
            while name in by_child:
                chain.append(by_child[name])
                name = by_child[name].parent
            for j in reversed(chain):
                expected = expected.compose(j.origin)
            assert np.allclose(poses[link].translation,
                               expected.translation, atol=1e-12)

    def test_quaternion_hygiene_many_compositions(self):
        m = parse_urdf(PLANAR_2LINK)
        rng = np.random.default_rng(5)
        pose = Pose()
        for _ in range(10_000):
            q = rng.uniform(-np.pi, np.pi, 2)
            link_pose = forward_kinematics(m, q)["l2"]
            pose = pose.compose(link_pose)
            assert abs(np.linalg.norm(pose.rotation) - 1.0) < 1e-9

    def test_errors(self):
        m = parse_urdf(PLANAR_2LINK)
        with pytest.raises(ValueError):
            forward_kinematics(m, [0.0])
        with pytest.raises(ValueError):
            forward_kinematics(m, [np.nan, 0.0])


def reference_fk(model, positions, base_pose=None):
    """Forward kinematics as a walk of the numpy oracle's ``Pose.compose``
    over the tree, depth first: the oracle it must match bit for bit."""
    positions = np.asarray(positions, dtype=float)
    pos_of = {j.name: positions[i] for i, j in enumerate(model.movable_joints)}
    joints_of = {}
    for j in model.joints:
        joints_of.setdefault(j.parent, []).append(j)
    base = base_pose or Pose()
    poses = {model.root: oracle.Pose(base.translation, base.rotation)}
    stack = [model.root]
    while stack:
        parent = stack.pop()
        for j in joints_of.get(parent, []):
            if j.kind == "revolute":
                motion = oracle.Pose(np.zeros(3),
                                     oracle.quat_from_axis_angle(j.axis, pos_of[j.name]))
            elif j.kind == "prismatic":
                motion = oracle.Pose(np.asarray(j.axis) * pos_of[j.name])
            else:
                motion = oracle.Pose()
            origin = oracle.Pose(j.origin.translation, j.origin.rotation)
            poses[j.child] = poses[parent].compose(origin).compose(motion)
            stack.append(j.child)
    return poses


def reference_jacobian(model, q, link, base_pose=None, h=1e-6):
    """Central differences of ``reference_fk`` over every joint."""
    q = np.asarray(q, dtype=float)
    J = np.zeros((3, len(q)))
    for i in range(len(q)):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        J[:, i] = (reference_fk(model, qp, base_pose)[link].translation
                   - reference_fk(model, qm, base_pose)[link].translation) / (2 * h)
    return J


# oblique axes, full rpy origins, a branch, and a revolute joint below a
# prismatic and a fixed one: no term of a product is zero by construction
SKEW = """
<robot name='skew'>
  <link name='base'/><link name='a'/><link name='b'/><link name='c'/>
  <link name='d'/><link name='e'/>
  <joint name='ja' type='revolute'>
    <origin xyz='0.1 -0.2 0.3' rpy='0.3 -0.7 1.1'/>
    <parent link='base'/><child link='a'/>
    <axis xyz='0.3 -0.5 0.8'/><limit lower='-3' upper='3'/>
  </joint>
  <joint name='jb' type='prismatic'>
    <origin xyz='0.25 0.05 -0.1' rpy='-1.2 0.4 0.2'/>
    <parent link='a'/><child link='b'/>
    <axis xyz='1 2 -2'/><limit lower='-1' upper='1'/>
  </joint>
  <joint name='jc' type='fixed'>
    <origin xyz='-0.3 0.2 0.15' rpy='0.5 0.5 -0.5'/>
    <parent link='b'/><child link='c'/>
  </joint>
  <joint name='jd' type='revolute'>
    <origin xyz='0 0.4 0' rpy='2.0 -0.3 0.9'/>
    <parent link='a'/><child link='d'/>
    <axis xyz='-0.6 0.1 0.2'/><limit lower='-3' upper='3'/>
  </joint>
  <joint name='je' type='revolute'>
    <origin xyz='0.2 0.2 -0.4' rpy='-0.4 1.3 0.6'/>
    <parent link='c'/><child link='e'/>
    <axis xyz='0.7 0.7 0.1'/><limit lower='-3' upper='3'/>
  </joint>
</robot>
"""

# a joint for each of the chain walk's skips: below the root, whose
# rotation has zeros (identity or yawed), a zero-offset revolute
# joint, a zero-offset prismatic joint under an identity origin and a fixed
# joint with only an offset; below those, a fixed joint with neither offset
# nor rotation, a prismatic joint with only an offset and a revolute joint
# with neither
SHORTCUTS = """
<robot name='shortcuts'>
  <link name='base'/><link name='a'/><link name='b'/><link name='c'/>
  <link name='d'/><link name='e'/><link name='f'/>
  <joint name='ja' type='revolute'>
    <origin rpy='0.3 -0.2 0.5'/>
    <parent link='base'/><child link='a'/>
    <axis xyz='0.2 0.3 0.9'/><limit lower='-3' upper='3'/>
  </joint>
  <joint name='jb' type='fixed'>
    <parent link='a'/><child link='b'/>
  </joint>
  <joint name='jc' type='prismatic'>
    <origin xyz='0.1 0.2 -0.3'/>
    <parent link='b'/><child link='c'/>
    <axis xyz='0.2 0.9 -0.4'/><limit lower='-1' upper='1'/>
  </joint>
  <joint name='jd' type='revolute'>
    <parent link='c'/><child link='d'/>
    <axis xyz='1 0 0'/><limit lower='-3' upper='3'/>
  </joint>
  <joint name='je' type='prismatic'>
    <parent link='base'/><child link='e'/>
    <axis xyz='0 0 1'/><limit lower='-1' upper='1'/>
  </joint>
  <joint name='jf' type='fixed'>
    <origin xyz='0.1 0 -0.2'/>
    <parent link='base'/><child link='f'/>
  </joint>
</robot>
"""

MODELS = {"panda": parse_urdf((ASSETS / "panda.urdf").read_text()),
          "planar": parse_urdf(PLANAR_2LINK), "skew": parse_urdf(SKEW),
          "shortcuts": parse_urdf(SHORTCUTS)}

# the robot and end-effector of each config in configs/, as the twin runs
# them: (robot file, ee_link) -> (model, the twin's end-effector)
PINNED = {}
for path in sorted(CONFIGS.glob("*.yaml")):
    cfg = load_config(path)
    key = (Path(cfg.robot_path).name, cfg.ee_link)
    if key not in PINNED:
        model = load_model(cfg)
        PINNED[key] = model, TwinEngine(model, cfg).ee_link

# a station yawed about z and offset, as TwinEngine's base pose is; yaws
# beyond pi give quaternions with a negative scalar part
BASES = st.none() | st.builds(
    lambda yaw, xyz: Pose(list(xyz), quat_from_axis_angle([0.0, 0.0, 1.0], yaw)),
    st.floats(-2 * np.pi, 2 * np.pi), st.tuples(*[st.floats(-2.0, 2.0)] * 3))


def draw_positions(data, model):
    return np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=model.dof,
                                       max_size=model.dof)))

# stations whose translations, yaws and so rotations hold zeros of both signs
SIGNED_ZERO_BASES = st.builds(
    lambda yaw, xyz: Pose(list(xyz), quat_from_axis_angle([0.0, 0.0, 1.0], yaw)),
    st.sampled_from([0.0, -0.0]) | st.floats(-2 * np.pi, 2 * np.pi),
    st.tuples(*[st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)] * 3))


def draw_signed_zero_positions(data, model):
    return data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0),
                              min_size=model.dof, max_size=model.dof))


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
# right angles, whose rotations hold exact zeros, and angles whose sign
# leaves a -0.0 in the rotation that ``Pose.from_rpy`` builds
ANGLES = st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]) | \
    st.floats(-7.0, 7.0)


@st.composite
def vectors(draw, lengths, zero=True):
    """A vector of each class ``ChainJoint`` names: zeros of either sign,
    one non-zero component along a coordinate axis, or three drawn ones."""
    v = [draw(SIGNED_ZERO) for _ in range(3)]
    shape = draw(st.sampled_from(["zero", "along", "general"] if zero else ["along", "general"]))
    if shape == "along":
        v[draw(st.integers(0, 2))] = draw(lengths)
    elif shape == "general":
        v = [draw(lengths) for _ in range(3)]
    return tuple(v)


@st.composite
def classed_chains(draw):
    """A tree of up to five joints whose constants fall in every class the
    walk tells apart: offsets of zeros, along one axis or general; origin
    rotations of no angle, one rpy angle or three; axes along a coordinate
    axis, of length 1.0 or another, or general. The joints are built as
    they are, without ``parse_urdf``'s normalizing of the axis."""
    links, joints = ["l0"], []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["revolute", "prismatic", "fixed"]))
        rpy = [draw(SIGNED_ZERO) for _ in range(3)]
        turn = draw(st.sampled_from(["none", "one", "general"]))
        if turn == "one":
            rpy[draw(st.integers(0, 2))] = draw(ANGLES)
        elif turn == "general":
            rpy = [draw(ANGLES) for _ in range(3)]
        axis = None
        if kind != "fixed":
            lengths = st.sampled_from([1.0, -1.0]) | st.floats(-3.0, 3.0).filter(
                lambda a: abs(a) > 0.1)
            axis = draw(vectors(lengths, zero=False))
        origin = Pose.from_rpy(draw(vectors(st.floats(-1.0, 1.0))), rpy)
        links.append(f"l{i + 1}")
        joints.append(Joint(f"j{i}", kind, draw(st.sampled_from(links[:-1])), links[-1],
                            origin, axis, -3.0, 3.0))
    return RobotModel("classed", tuple(links), tuple(joints), "l0")


def canonical(values) -> list:
    """``values`` with ``+ 0.0`` added to each, as the walk returns them: a
    zero of either sign becomes ``0.0`` and every other value stays."""
    return [v + 0.0 for v in values]


def assert_fk_bytes(model, q, base):
    # the walk returns canonical zeros, so the oracle's are made canonical
    got = forward_kinematics(model, q, base)
    want = reference_fk(model, q, base)
    assert list(got) == list(model.links) and len(want) == len(got)
    for link, pose in want.items():
        assert np.asarray(got[link].translation).tobytes() == \
            (pose.translation + 0.0).tobytes()
        assert np.asarray(got[link].rotation).tobytes() == (pose.rotation + 0.0).tobytes()


def assert_jacobian_bytes(model, q, link, base):
    assert [struct.pack("<3d", *c) for c in jacobian(model, q, link, base)] == \
        [struct.pack("<3d", *canonical(c)) for c in compose_jacobian(model, q, link, base)]


def assert_path_walk_bytes(model, q, link, base):
    got = model.pose(q, base, link)
    want = compose_path(model, q, link, base)[0]
    assert struct.pack("<3d4d", *got.translation, *got.rotation) == \
        struct.pack("<3d4d", *canonical((*want.translation, *want.rotation)))


def compose_path(model, q, link, base):
    """A ``Pose.compose`` walk of ``link``'s path: its frame, and for each
    movable joint on the path the joint, its axis in the world and its
    origin's place, the joint frame being parent o origin."""
    movable = [j.name for j in model.movable_joints]
    joint_of = {j.child: j for j in model.joints}
    path = []
    while link in joint_of:
        path.append(joint_of[link])
        link = path[-1].parent
    frame, moved = base, []
    for j in reversed(path):
        joint_frame = frame.compose(j.origin)
        if j.kind == "revolute":
            angle = q[movable.index(j.name)]
            motion = ZERO3, unit_quat(quat_from_axis_angle(j.axis, angle))
        elif j.kind == "prismatic":
            shift = q[movable.index(j.name)]
            motion = tuple(a * shift for a in j.axis), IDENTITY_QUAT
        else:
            motion = Pose()
        frame = joint_frame.compose(motion)
        if j.kind != "fixed":
            moved.append((j, _rotate(joint_frame.rotation, *j.axis),
                          joint_frame.translation))
    return frame, moved


def compose_jacobian(model, q, link, base):
    """The world-frame Jacobian of ``link`` from ``compose_path``, its
    columns read as ``jacobian`` documents them. ``jacobian`` must match it
    byte for byte."""
    movable = [j.name for j in model.movable_joints]
    frame, moved = compose_path(model, q, link, base)
    columns = [ZERO3] * model.dof
    for j, (ax, ay, az), origin in moved:
        dx, dy, dz = (p - o for p, o in zip(frame.translation, origin))
        columns[movable.index(j.name)] = (
            (ax, ay, az) if j.kind == "prismatic"
            else (ay * dz - az * dy, az * dx - ax * dz, ax * dy - ay * dx))
    return columns


class TestCompiledChain:
    """The compiled chain against the ``Pose.compose`` walk with its zeros
    made canonical, byte for byte."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(data=st.data(), base=BASES | SIGNED_ZERO_BASES)
    @settings(max_examples=60, deadline=None)
    def test_fk_matches_compose_walk(self, name, data, base):
        # zeros of both signs reach the products whose terms the walk drops
        model = MODELS[name]
        assert_fk_bytes(model, draw_signed_zero_positions(data, model), base)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(data=st.data(), base=BASES)
    @settings(max_examples=30, deadline=None)
    def test_jacobian_matches_central_differences(self, name, data, base):
        # the central differences' truncation error is O(h^2) ~ 1e-12 and
        # their rounding error ~ eps * |p| / h ~ 1e-9 at h = 1e-6
        model = MODELS[name]
        q = draw_positions(data, model)
        link = data.draw(st.sampled_from(model.links))
        got = np.array(jacobian(model, q, link, base or Pose())).T
        assert got.shape == (3, model.dof)
        assert np.allclose(got, reference_jacobian(model, q, link, base), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(data=st.data(), base=SIGNED_ZERO_BASES)
    @settings(max_examples=40, deadline=None)
    def test_jacobian_matches_compose_walk(self, name, data, base):
        model = MODELS[name]
        q = draw_signed_zero_positions(data, model)
        link = data.draw(st.sampled_from(model.links))
        assert_jacobian_bytes(model, q, link, base)

    # bases turned about a coordinate axis, on which the kept terms give a
    # zero of the other sign than the full sum somewhere, as a random search
    # found: the draws above reach such inputs too rarely to count on
    @pytest.mark.parametrize("name, q, axis, angle, xyz", [
        ("planar", [0.0, -0.0], (0.0, 0.0, 1.0), -5.7, [-0.0, -0.0, -0.0]),
        ("shortcuts", [0.0] * 4, (0.0, -1.0, 0.0), -3.3, [0.5, -0.0, 0.0]),
        ("panda", [0.0] * 5 + [-0.0] * 4, (0.0, 0.0, -1.0), 7.0, [0.0, -0.0, 0.0]),
    ])
    def test_zero_signs_kept_through_the_skips(self, name, q, axis, angle, xyz):
        model = MODELS[name]
        base = Pose(xyz, quat_from_axis_angle(axis, angle))
        assert_fk_bytes(model, q, base)
        for link in model.links:
            assert_jacobian_bytes(model, q, link, base)

    # inputs on which the kept terms of a product give a zero of the other
    # sign than its full sum, each named for the components where they do:
    # the offset's q * (0, v) ("offset"), the origin rotation's q * b
    # ("turn"), the motion's ("spin") and the axis rotated for a Jacobian
    # column ("axis"); a zero offset or shift left unrotated on a
    # translation with a zero ("guard"); and the path walk's end pose
    # ("end"). A search over stations turned about a coordinate axis found
    # them. The walk, its path walk and ``jacobian`` return those zeros as
    # ``0.0``, the canonical compose walk's bytes
    @pytest.mark.parametrize("name, q, rotation, xyz", [
        pytest.param("panda", [0.0] * 9, quat_from_axis_angle((0.0, 0.0, 1.0), 7.0),
                     [0.0] * 3, id="station-yaw:turn-xy,axis-y,end"),
        pytest.param("panda", [0.0] * 9, quat_from_axis_angle((-1.0, 0.0, 0.0), 7.0),
                     [0.0] * 3, id="roll:spin-y,turn-z,axis-w"),
        pytest.param("panda", [-0.0] * 9, quat_from_axis_angle((0.0, 0.0, -1.0), 7.0),
                     [-0.0] * 3, id="negative-zeros:shift-guard,spin-x"),
        pytest.param("panda", [0.0] * 9, quat_from_axis_angle((0.0, -1.0, 0.0), 7.0),
                     [0.0] * 3, id="pitch:spin-z"),
        pytest.param("panda", [0.0] * 9, quat_from_axis_angle((-1.0, 0.0, 0.0), 2 * np.pi),
                     [0.0] * 3, id="full-roll:axis-x"),
        pytest.param("panda", [2 * np.pi] + [0.0] * 8, (0.0, 0.0, -1.0, 0.0), [0.0] * 3,
                     id="upside-down:spin-w"),
        pytest.param("planar", [0.0, 0.0], quat_from_axis_angle((0.0, 0.0, 1.0), 7.0),
                     [-0.0] * 3, id="planar:offset-guard"),
        pytest.param("shortcuts", [0.0] * 4, IDENTITY_QUAT, [0.0] * 3, id="identity:axis-z"),
    ])
    def test_flipped_zeros_canonical(self, name, q, rotation, xyz):
        model = MODELS[name]
        base = Pose(xyz, rotation)
        assert_fk_bytes(model, q, base)
        for link in model.links:
            assert_jacobian_bytes(model, q, link, base)
            assert_path_walk_bytes(model, q, link, base)

    @given(model=classed_chains(), data=st.data(), base=BASES | SIGNED_ZERO_BASES)
    @settings(max_examples=150, deadline=None)
    def test_classed_chains_match_compose_walk(self, model, data, base):
        q = draw_signed_zero_positions(data, model)
        assert_fk_bytes(model, q, base)
        for link in model.links:
            assert_jacobian_bytes(model, q, link, base or Pose())

    def test_panda_joints_are_classed(self):
        # by ChainJoint's classes: 0, 1, 2 along x, y, z alone; -1 none; 3 general
        want = {  # joint: offset, turn, spin, unit_axis
            "panda_joint1": (2, -1, 2, True),
            "panda_joint2": (-1, 0, 2, True),
            "panda_joint3": (1, 0, 2, True),
            "panda_joint4": (0, 0, 2, True),
            "panda_joint5": (3, 0, 2, True),
            "panda_joint6": (-1, 0, 2, True),
            "panda_joint7": (0, 0, 2, True),
            "panda_joint8": (2, -1, -1, False),
            "panda_hand_joint": (-1, 2, -1, False),
            "panda_finger_joint1": (2, -1, -1, False),
            "panda_finger_joint2": (2, -1, -1, False),
        }
        model = MODELS["panda"]
        got = {j.name: (s.offset, s.turn, s.spin, s.unit_axis)
               for j, s in zip(model.joints, model.steps)}
        assert got == want

    # chains the walk cannot take: a constant that is not finite, or an
    # origin rotation that ``Pose.of`` left off the unit sphere
    @pytest.mark.parametrize("origin, axis", [
        (Pose.of((math.inf, 0.0, 0.0), IDENTITY_QUAT), (0.0, 0.0, 1.0)),
        (Pose.of((0.0, 0.0, 0.1), IDENTITY_QUAT), (0.0, math.nan, 1.0)),
        (Pose.of((0.0, 0.0, 0.1), (0.5, 0.5, 0.0, 0.0)), (0.0, 0.0, 1.0)),
        (Pose.of((0.0, 0.0, 0.1), (math.nan, 0.0, 0.0, 0.0)), (0.0, 0.0, 1.0)),
    ])
    def test_unsound_joint_rejected(self, origin, axis):
        joints = (Joint("a", "revolute", "l0", "l1", origin, axis, -3.0, 3.0),
                  Joint("b", "revolute", "l1", "l2", Pose((0.0, 0.0, 0.2)), (0.0, 0.0, 1.0),
                        -3.0, 3.0))
        with pytest.raises(UrdfError, match="joint 'a'"):
            RobotModel("unsound", ("l0", "l1", "l2"), joints, "l0")

    # trees the walk from the root cannot take, built without ``parse_urdf``:
    # a link with two parent joints, one of them in a loop below the root,
    # and links the root does not reach
    @pytest.mark.parametrize("links, wiring, err", [
        (("r", "a", "b"), [("r", "a"), ("a", "b"), ("b", "a")], "link 'a' is reached twice"),
        (("r", "a", "b"), [("r", "a"), ("r", "b"), ("a", "b")], "link 'b' is reached twice"),
        (("r", "a", "b"), [("r", "a"), ("a", "r")], "link 'r' is reached twice"),
        (("r", "a", "c", "d"), [("r", "a"), ("c", "d"), ("d", "c")],
         r"links unreachable from root: \['c', 'd'\]"),
        (("r", "a"), [], r"links unreachable from root: \['a'\]"),
    ])
    def test_unwalkable_tree_rejected(self, links, wiring, err):
        joints = tuple(Joint(f"j{i}", "fixed", parent, child, Pose((0.1, 0.0, 0.0)))
                       for i, (parent, child) in enumerate(wiring))
        with pytest.raises(UrdfError, match=err):
            RobotModel("unwalkable", links, joints, "r")

    # the same robot with its <link> and <joint> elements in another order:
    # paths index the joints in document order, and the poses and the
    # Jacobian's columns, matched by name, keep every byte
    @pytest.mark.parametrize("order", [
        pytest.param(lambda n: list(reversed(range(n))), id="reversed"),
        pytest.param(lambda n: list(np.random.default_rng(3).permutation(n)), id="shuffled-3"),
        pytest.param(lambda n: list(np.random.default_rng(7).permutation(n)), id="shuffled-7"),
    ])
    @given(data=st.data(), base=BASES | SIGNED_ZERO_BASES)
    @settings(max_examples=20, deadline=None)
    def test_document_order_does_not_matter(self, order, data, base):
        model, base = MODELS["panda"], base or Pose()
        robot = ET.fromstring((ASSETS / "panda.urdf").read_text())
        elements = list(robot)
        for el in elements:
            robot.remove(el)
        robot.extend([elements[k] for k in order(len(elements))])
        shuffled = parse_urdf(ET.tostring(robot, encoding="unicode"))
        assert shuffled.links != model.links and shuffled.joints != model.joints
        q = model.check(draw_signed_zero_positions(data, model))
        named = dict(zip([j.name for j in model.movable_joints], q))
        q_shuffled = [named[j.name] for j in shuffled.movable_joints]

        def pose_bytes(pose):
            return struct.pack("<3d4d", *pose.translation, *pose.rotation)

        def fk_bytes(m, positions):
            return {link: pose_bytes(p)
                    for link, p in forward_kinematics(m, positions, base).items()}

        def columns(m, positions):
            return dict(zip([j.name for j in m.movable_joints],
                            [struct.pack("<3d", *c) for c in
                             jacobian(m, positions, "panda_leftfinger", base)]))

        assert fk_bytes(shuffled, q_shuffled) == fk_bytes(model, q)
        for link in model.links:
            assert pose_bytes(shuffled.pose(q_shuffled, base, link)) == \
                pose_bytes(model.pose(q, base, link))
        assert columns(shuffled, q_shuffled) == columns(model, q)

    # a revolute joint about a coordinate axis of length 1.0 keeps its
    # motion quaternion unrenormalized: its norm, taken as the walk takes
    # it, must be within 1e-12 of 1 for every finite position
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(math.pi)
    @example(1e300)
    @example(5e-324)
    @settings(max_examples=2000)
    def test_unit_axis_motion_needs_no_renormalizing(self, position):
        half = 0.5 * position
        s = math.sin(half) / 1.0
        for a in (1.0, -1.0):
            bw, bx, by, bz = math.cos(half), 0.0 * s, 0.0 * s, a * s
            n = math.sqrt(bw * bw + bx * bx + by * by + bz * bz)
            assert abs(n - 1.0) <= 1e-12

    # any other axis is renormalized as ``Pose`` does: these norms overflow,
    # so the motion quaternion is (cos, 0, 0, 0), which renormalizes to +-1
    @pytest.mark.parametrize("axis", [(1e200, 1e200, 0.0), (0.0, 0.0, 1e200)])
    def test_other_axes_renormalized(self, axis):
        joint = Joint("a", "revolute", "l0", "l1", Pose((0.1, 0.0, 0.0)), axis, -3.0, 3.0)
        model = RobotModel("wide", ("l0", "l1"), (joint,), "l0")
        for q in (1.0, 4.0):
            assert abs(forward_kinematics(model, [q])["l1"].rotation[0]) == 1.0
            # the oracle's norm overflows, as the walk's does, on purpose
            with np.errstate(over="ignore"):
                assert_fk_bytes(model, [q], yawed_station(0.3, (0.5, 0.2, 0.0)))

    def test_negated_identity_origin_not_skipped(self):
        # (-1, 0, 0, 0) turns nothing but negates a product; no URDF rpy gives it
        origin = Pose(rotation=(-1.0, 0.0, 0.0, 0.0))
        model = RobotModel("r", ("a", "b"),
                           (Joint("j", "fixed", "a", "b", origin),), "a")
        assert_fk_bytes(model, [], Pose((0.1, 0.2, 0.3),
                                        quat_from_axis_angle((0.3, 0.4, 0.5), 0.7)))

    # the skips take a rotation that renormalizes to itself; a base that
    # ``Pose.of`` took off the unit sphere, or a NaN one, is rejected
    @pytest.mark.parametrize("rotation", [(0.9, 0.1, 0.2, 0.3), (math.nan, 0.5, 0.5, 0.5)])
    def test_base_off_the_unit_sphere_rejected(self, rotation):
        base = Pose.of((0.1, -0.2, 0.3), rotation)
        for model in MODELS.values():
            q = [0.3] * model.dof
            with pytest.raises(ValueError, match="unit sphere"):
                forward_kinematics(model, q, base)
            for link in model.links:
                with pytest.raises(ValueError, match="unit sphere"):
                    jacobian(model, q, link, base)
                with pytest.raises(ValueError, match="unit sphere"):
                    model.pose(q, base, link)

    @given(model=st.sampled_from(sorted(MODELS)).map(MODELS.get) | classed_chains(),
           data=st.data(), base=SIGNED_ZERO_BASES)
    @settings(max_examples=150, deadline=None)
    def test_no_negative_zero_returned(self, model, data, base):
        q = model.check(draw_signed_zero_positions(data, model))
        values = [c for pose in forward_kinematics(model, q, base).values()
                  for c in (*pose.translation, *pose.rotation)]
        for link in model.links:
            end = model.pose(q, base, link)
            values += [*end.translation, *end.rotation]
            values += [c for column in jacobian(model, q, link, base) for c in column]
        assert not [v for v in values if v == 0.0 and math.copysign(1.0, v) < 0.0]

    def test_jacobian_planar_closed_form(self):
        # the standard 2R formula for the tip
        q = np.array([0.4, -0.9])
        J = np.array(jacobian(MODELS["planar"], q, "tip")).T
        s1, s12 = np.sin(q[0]), np.sin(q[0] + q[1])
        c1, c12 = np.cos(q[0]), np.cos(q[0] + q[1])
        expected = np.array([[-0.5 * s1 - 0.5 * s12, -0.5 * s12],
                             [0.5 * c1 + 0.5 * c12, 0.5 * c12],
                             [0.0, 0.0]])
        assert np.allclose(J, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["panda", "skew"])
    @given(data=st.data(), base=BASES)
    @settings(max_examples=30, deadline=None)
    def test_prismatic_column_is_world_axis(self, name, data, base):
        # the prismatic joint's child link turns with the joint frame, so
        # the axis in the world is the child's rotation applied to it
        model = MODELS[name]
        q = draw_positions(data, model)
        link = data.draw(st.sampled_from(model.links))
        columns = jacobian(model, q, link, base or Pose())
        poses = forward_kinematics(model, q, base)
        movable = model.movable_joints
        joint_of = {j.child: j for j in model.joints}
        child = link
        while child in joint_of:
            j = joint_of[child]
            if j.kind == "prismatic":
                want = _rotate(poses[j.child].rotation, *j.axis)
                assert np.allclose(columns[movable.index(j)], want, rtol=0, atol=1e-15)
            child = j.parent

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_off_path_column_exactly_zero(self, data):
        model = MODELS["panda"]
        q = draw_positions(data, model)
        col = [j.name for j in model.movable_joints].index("panda_finger_joint2")
        J = jacobian(model, q, "panda_leftfinger")
        assert J[col] == (0.0, 0.0, 0.0)
        assert any(c != (0.0, 0.0, 0.0) for c in J[:col])

    def test_chain_order_and_parents(self):
        model = MODELS["panda"]
        assert list(forward_kinematics(model, np.zeros(model.dof))) == list(model.links)
        assert len(model.steps) == len(model.joints)
        for i, j in enumerate(model.joints):
            # joints[i] moves its child, below its parent's path
            assert model.paths[j.child] == model.paths[j.parent] + (i,)
            assert model.steps[i].kind == j.kind and model.steps[i].origin == j.origin

    @given(model=st.sampled_from(sorted(MODELS)).map(MODELS.get) | classed_chains())
    @settings(max_examples=100, deadline=None)
    def test_paths_follow_the_model_parents(self, model):
        # each joint of a link's path hangs off the link the joint before it
        # moves, the first off the root, and the last moves the link
        assert set(model.paths) == set(model.links)
        for link, path in model.paths.items():
            child = model.root
            for k in path:
                assert model.joints[k].parent == child
                child = model.joints[k].child
            assert child == link

    def test_path_of_unknown_link(self):
        with pytest.raises(KeyError):
            jacobian(MODELS["planar"], [0.0, 0.0], "nowhere")
        with pytest.raises(KeyError):
            MODELS["planar"].pose([0.0, 0.0], Pose(), "nowhere")

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_path_is_the_parent_walk_computed_once(self, name):
        model = MODELS[name]
        joint_of = {j.child: j for j in model.joints}
        for link in model.links:
            want, child = [], link
            while child in joint_of:
                want.append(model.joints.index(joint_of[child]))
                child = joint_of[child].parent
            assert model.paths[link] == tuple(reversed(want))
        assert model.paths[model.root] == ()

    @pytest.mark.parametrize("pinned", sorted(PINNED), ids=lambda key: f"{key[0]}-{key[1]}")
    @given(data=st.data(), base=BASES | SIGNED_ZERO_BASES)
    @settings(max_examples=40, deadline=None)
    def test_path_walk_matches_fk(self, pinned, data, base):
        # the twin's walk for its end-effector, the root and a link halfway
        # along the end-effector's path each give the canonical compose walk
        model, ee_link = PINNED[pinned]
        ee_path = model.paths[ee_link]
        links = [ee_link, model.root, model.joints[ee_path[len(ee_path) // 2]].child]
        assert len(set(links)) == 3
        q = model.check(draw_signed_zero_positions(data, model))
        for link in links:
            assert_path_walk_bytes(model, q, link, base or Pose())

    # finite values whose sum overflows, and non-finite ones at either end
    @given(st.lists(st.floats(), min_size=9, max_size=9))
    @example([1e308] * 9)
    @example([-1e308, -1e308] + [0.5] * 7)
    @example([math.nan] + [0.5] * 8)
    @example([0.5] * 8 + [math.nan])
    @example([math.inf] + [1e308] * 8)
    @example([1e308] * 8 + [math.inf])
    @example([-math.inf] + [0.5] * 8)
    @example([0.5] * 8 + [-math.inf])
    def test_check_rejects_exactly_the_non_finite(self, positions):
        model = MODELS["panda"]
        if all(map(math.isfinite, positions)):
            for given_as in (positions, np.array(positions)):
                got = model.check(given_as)
                assert got == positions and all(type(v) is float for v in got)
        else:
            with pytest.raises(ValueError, match="non-finite joint position"):
                model.check(positions)

    def test_check_tests_the_length_first(self):
        with pytest.raises(ValueError, match="expected 9 positions, got 8"):
            MODELS["panda"].check([math.nan] * 8)


def yawed_station(yaw, xyz):
    return Pose(list(xyz), quat_from_axis_angle([0.0, 0.0, 1.0], yaw))


# a zone around a point, given in the zone's own frame: the point sits at
# ``inside``, at least 1e-3 off each mid-plane, and the box reaches past it
# by the three ``margins``, which differ by at least 1e-3, so neither the
# nearest face nor its side is ever a near tie. The depth, the smallest
# margin, is at least 1 cm: world positions carry ~1e-15 m of rounding, a
# share of ~1e-15 / depth of the force
OFF_MID_PLANE = st.floats(1e-3, 0.05) | st.floats(-0.05, -1e-3)
ZONE_SHAPES = st.fixed_dictionaries({
    "inside": st.tuples(*[OFF_MID_PLANE] * 3),
    "margins": st.tuples(st.floats(0.01, 0.05), st.floats(1e-3, 0.05),
                         st.floats(1e-3, 0.05)).map(
        lambda m: (m[0], m[0] + m[1], m[0] + m[1] + m[2])),
    "order": st.permutations([0, 1, 2]),
    "axis": st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda a: np.linalg.norm(a) > 0.1),
    "angle": st.floats(-np.pi, np.pi),
    "stiffness": st.floats(10.0, 1000.0),
})

EE = "panda_leftfinger"  # the twin's default end-effector on the Panda


def zone_around(point, shape, station):
    """The zone of ``shape`` around ``point``, both given in the station's
    frame, placed in the world by ``station``."""
    rotation = quat_from_axis_angle(shape["axis"], shape["angle"])
    margins = [shape["margins"][i] for i in shape["order"]]
    half = [abs(u) + m for u, m in zip(shape["inside"], margins)]
    offset = _rotate(rotation, *shape["inside"])
    local = Pose([p - o for p, o in zip(point, offset)], rotation)
    world = station.compose(local)
    return ProhibitedZone("z", world.translation, half, world.rotation,
                          shape["stiffness"])


def contact_torque(model, q, station, zone):
    """The follower's joint torque for ``zone``, as ``simulate`` computes it:
    the twin queries the end-effector's world position, and the repulsion's
    world force goes through the world-frame Jacobian."""
    ee = forward_kinematics(model, q, station)[EE].translation
    hit = query(zone, ee, zone.pose.inverse())
    force = counterforce(*hit, zone.stiffness)
    return hit, force, [dot(c, force) for c in jacobian(model, q, EE, station)]


class TestContactTorque:
    """Properties of zone feedback through ``jacobian`` on the Panda."""

    @given(data=st.data(), shape=ZONE_SHAPES,
           yaws=st.tuples(st.floats(-2 * np.pi, 2 * np.pi), st.floats(-2 * np.pi, 2 * np.pi)),
           offsets=st.tuples(*[st.tuples(*[st.floats(-2.0, 2.0)] * 3)] * 2))
    @settings(max_examples=60, deadline=None)
    def test_yawing_station_and_zone_together_keeps_torque(self, data, shape, yaws,
                                                           offsets):
        model = MODELS["panda"]
        q = draw_positions(data, model)
        ee_local = forward_kinematics(model, q)[EE].translation
        torques = []
        for yaw, xyz in zip(yaws, offsets):
            station = yawed_station(yaw, xyz)
            _, force, tau = contact_torque(model, q, station,
                                           zone_around(ee_local, shape, station))
            torques.append(tau)
        bound = 1e-12 * float(np.linalg.norm(force))
        assert max(abs(a - b) for a, b in zip(*torques)) <= bound

    @given(data=st.data(), shape=ZONE_SHAPES, yaw=st.floats(-2 * np.pi, 2 * np.pi),
           xyz=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_torque_moves_end_effector_out_of_zone(self, data, shape, yaw, xyz):
        # J tau = J J^T F, whose component along F is |J^T F|^2 >= 0
        model = MODELS["panda"]
        q = draw_positions(data, model)
        station = yawed_station(yaw, xyz)
        zone = zone_around(forward_kinematics(model, q)[EE].translation, shape, station)
        (direction, depth), force, tau = contact_torque(model, q, station, zone)
        assert depth > 0.0
        J = np.array(jacobian(model, q, EE, station)).T
        push = float(np.dot(J @ np.array(tau), direction))
        # J^T F vanishes only where F lies in J's left null space
        assert push > 0.0 or np.linalg.norm(tau) <= 1e-9 * np.linalg.norm(force)


class TestApplyJointState:
    def test_inside_limits_unchanged(self):
        m = parse_urdf(TWO_LINK)
        out, report = apply_joint_state(m, [1.0])
        assert out[0] == 1.0 and report == []

    def test_clamp_above_upper(self):
        m = parse_urdf(TWO_LINK)
        positions = np.array([5.0])
        out, report = apply_joint_state(m, positions)
        assert out[0] == 3.14
        assert report == [LimitViolation("j1", 5.0, -3.14, 3.14)]
        assert positions[0] == 5.0  # the caller's sample is not clamped in place

    def test_panda_joint1_clamped_to_parsed_limit(self):
        text = (ASSETS / "panda.urdf").read_text()
        # independent XML inspection of the same description
        tree = ET.fromstring(text)
        j1 = next(j for j in tree.findall("joint") if j.get("name") == "panda_joint1")
        upper = float(j1.find("limit").get("upper"))
        m = parse_urdf(text)
        positions = np.zeros(m.dof)
        positions[0] = 3.0
        positions[3] = -1.5  # joint4 cannot reach 0
        out, report = apply_joint_state(m, positions)
        assert out[0] == upper == 2.8973
        assert any(v.joint == "panda_joint1" for v in report)

    def test_dimension_mismatch(self):
        m = parse_urdf(TWO_LINK)
        with pytest.raises(ValueError):
            apply_joint_state(m, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            apply_joint_state(parse_urdf(TWO_LINK), [bad])
