import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import numpy_oracle as oracle
from twinsync.geometry import Pose, dot, quat_from_axis_angle, quat_rotate
from twinsync.robot import (LimitViolation, UrdfError, apply_joint_state,
                            forward_kinematics, jacobian, parse_urdf)
from twinsync.zones import ProhibitedZone, counterforce, query

ASSETS = Path(__file__).parent.parent / "assets"

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


class TestParse:
    def test_one_link(self):
        m = parse_urdf(ONE_LINK)
        assert len(m.links) == 1 and len(m.joints) == 0
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
    ])
    def test_rejects(self, xml, err):
        with pytest.raises(UrdfError, match=err):
            parse_urdf(xml)

    def test_rejects_cycle_and_multi_root(self):
        two_roots = ("<robot name='r'><link name='a'/><link name='b'/></robot>")
        with pytest.raises(UrdfError, match="root"):
            parse_urdf(two_roots)


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
            expected = Pose.identity()
            chain = []
            name = link.name
            while name in by_child:
                chain.append(by_child[name])
                name = by_child[name].parent
            for j in reversed(chain):
                expected = expected.compose(j.origin)
            assert np.allclose(poses[link.name].translation,
                               expected.translation, atol=1e-12)

    def test_quaternion_hygiene_many_compositions(self):
        m = parse_urdf(PLANAR_2LINK)
        rng = np.random.default_rng(5)
        pose = Pose.identity()
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
    over the tree, in the order the compiled chain keeps: the oracle it must
    match bit for bit."""
    positions = np.asarray(positions, dtype=float)
    pos_of = {j.name: positions[i] for i, j in enumerate(model.movable_joints)}
    joints_of = {}
    for j in model.joints:
        joints_of.setdefault(j.parent, []).append(j)
    base = base_pose or Pose.identity()
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

MODELS = {"panda": parse_urdf((ASSETS / "panda.urdf").read_text()),
          "planar": parse_urdf(PLANAR_2LINK), "skew": parse_urdf(SKEW)}

# a station yawed about z and offset, as TwinEngine's base pose is; yaws
# beyond pi give quaternions with a negative scalar part
BASES = st.none() | st.builds(
    lambda yaw, xyz: Pose(list(xyz), quat_from_axis_angle([0.0, 0.0, 1.0], yaw)),
    st.floats(-2 * np.pi, 2 * np.pi), st.tuples(*[st.floats(-2.0, 2.0)] * 3))


def draw_positions(data, model):
    return np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=model.dof,
                                       max_size=model.dof)))


class TestCompiledChain:
    """The compiled chain against the ``Pose.compose`` walk, byte for byte."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(data=st.data(), base=BASES)
    @settings(max_examples=60, deadline=None)
    def test_fk_matches_compose_walk(self, name, data, base):
        model = MODELS[name]
        q = draw_positions(data, model)
        got = forward_kinematics(model, q, base)
        want = reference_fk(model, q, base)
        assert list(got) == list(want)
        for link, pose in want.items():
            assert np.asarray(got[link].translation).tobytes() == pose.translation.tobytes()
            assert np.asarray(got[link].rotation).tobytes() == pose.rotation.tobytes()

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(data=st.data(), base=BASES)
    @settings(max_examples=30, deadline=None)
    def test_jacobian_matches_central_differences(self, name, data, base):
        # the central differences' truncation error is O(h^2) ~ 1e-12 and
        # their rounding error ~ eps * |p| / h ~ 1e-9 at h = 1e-6
        model = MODELS[name]
        q = draw_positions(data, model)
        link = data.draw(st.sampled_from([l.name for l in model.links]))
        got = np.array(jacobian(model, q, link, base or Pose())).T
        assert got.shape == (3, model.dof)
        assert np.allclose(got, reference_jacobian(model, q, link, base), rtol=0, atol=1e-8)

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
        link = data.draw(st.sampled_from([l.name for l in model.links]))
        columns = jacobian(model, q, link, base or Pose())
        poses = forward_kinematics(model, q, base)
        movable = model.movable_joints
        joint_of = {j.child: j for j in model.joints}
        child = link
        while child in joint_of:
            j = joint_of[child]
            if j.kind == "prismatic":
                want = quat_rotate(poses[j.child].rotation, j.axis)
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
        chain = model.chain
        assert chain is model.chain  # compiled once per model
        assert list(chain.links) == list(forward_kinematics(model, np.zeros(model.dof)))
        by_child = {j.child: j for j in model.joints}
        for i, cj in enumerate(chain.joints):
            joint = by_child[chain.links[i + 1]]
            assert chain.links[cj.parent] == joint.parent
            assert cj.parent <= i

    def test_path_of_unknown_link(self):
        with pytest.raises(KeyError):
            jacobian(MODELS["planar"], [0.0, 0.0], "nowhere")


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
    offset = quat_rotate(rotation, shape["inside"])
    local = Pose([p - o for p, o in zip(point, offset)], rotation)
    world = station.compose(local)
    return ProhibitedZone("z", world.translation, half, world.rotation,
                          shape["stiffness"])


def contact_torque(model, q, station, zone):
    """The follower's joint torque for ``zone``, as ``simulate`` computes it:
    the twin queries the end-effector's world position, and the repulsion's
    world force goes through the world-frame Jacobian."""
    ee = forward_kinematics(model, q, station)[EE].translation
    rep = query(zone, ee)
    force = counterforce(rep, zone.stiffness)
    return rep, force, [dot(c, force) for c in jacobian(model, q, EE, station)]


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
        rep, force, tau = contact_torque(model, q, station, zone)
        assert rep.depth > 0.0
        J = np.array(jacobian(model, q, EE, station)).T
        push = float(np.dot(J @ np.array(tau), rep.direction))
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
