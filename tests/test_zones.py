import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import numpy_oracle as oracle
from twinsync.geometry import ZERO3, Pose, _rotate, floats, quat_conjugate, quat_from_axis_angle
from twinsync.harness import simulate
from twinsync.robot import parse_urdf
from twinsync.scenario import AssetConfig, ScenarioConfig, load_config
from twinsync.twin import TwinEngine, replay
from twinsync.wire import decode_command, encode_command
from twinsync.zones import ProhibitedZone, counterforce, query

IDENT = np.array([1.0, 0.0, 0.0, 0.0])
CONFIGS = Path(__file__).parent.parent / "configs"


def unit_cube(**kw):
    args = dict(zone_id="z", center=[0.0, 0, 0], half_extents=[0.5, 0.5, 0.5])
    args.update(kw)
    return ProhibitedZone(**args)


def hit(zone, point):
    """``query`` of a zone placed where its config puts it."""
    return query(zone, point, zone.pose.inverse())


def nearest_face_oracle(half, local):
    """Analytic nearest-face search, independent of the axis arithmetic."""
    best = None
    for i in range(3):
        for sign in (1.0, -1.0):
            # distance from the point to the plane coord_i = sign * half_i,
            # measured inward along the face normal
            d = half[i] - sign * local[i]
            normal = np.zeros(3)
            normal[i] = sign
            if best is None or d < best[0] - 1e-15:
                best = (d, normal)
    return best


class TestQueryExamples:
    def test_inside_near_plus_x(self):
        direction, depth = hit(unit_cube(), [0.4, 0.0, 0.0])
        assert np.allclose(direction, [1, 0, 0])
        assert abs(depth - 0.1) < 1e-12

    def test_outside_none(self):
        assert hit(unit_cube(), [0.6, 0.0, 0.0]) is None
        assert hit(unit_cube(), [10.0, 10.0, 10.0]) is None

    def test_center_tie_breaks_plus_x(self):
        direction, depth = hit(unit_cube(), [0.0, 0.0, 0.0])
        assert np.allclose(direction, [1, 0, 0])
        assert abs(depth - 0.5) < 1e-12

    def test_boundary_depth_zero(self):
        direction, depth = hit(unit_cube(), [0.0, 0.5, 0.0])
        assert depth == 0.0
        assert np.allclose(direction, [0, 1, 0])

    def test_negative_face(self):
        direction, depth = hit(unit_cube(), [0.0, 0.0, -0.45])
        assert np.allclose(direction, [0, 0, -1])
        assert abs(depth - 0.05) < 1e-12

    def test_translated_zone(self):
        z = unit_cube(center=[2.0, 0, 0])
        assert hit(z, [0.4, 0, 0]) is None
        direction, _ = hit(z, [2.4, 0, 0])
        assert np.allclose(direction, [1, 0, 0])

    def test_rotated_zone_direction_in_world(self):
        yaw = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        z = ProhibitedZone("z", [0, 0, 0], [0.5, 0.1, 0.5], orientation=yaw)
        # the box's local +x axis points along world +y after the yaw
        direction, depth = hit(z, [0.0, 0.45, 0.0])
        assert np.allclose(direction, [0, 1, 0], atol=1e-12)
        assert abs(depth - 0.05) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hit(unit_cube(), [np.inf, 0, 0])


class TestQueryProperties:
    def test_matches_nearest_face_oracle_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            half = rng.uniform(0.1, 1.0, 3)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            z = ProhibitedZone("z", rng.uniform(-1, 1, 3), half, orientation=q)
            for _ in range(50):
                local = rng.uniform(-half, half)
                point = z.pose.compose(Pose(local)).translation
                direction, depth = hit(z, point)
                d, _ = nearest_face_oracle(half, local)
                assert abs(depth - d) < 1e-9
                # the direction must be a minimizing face normal (any one
                # of the tied faces is geometrically valid): pulling it
                # back into the box frame, the face it names must sit at
                # the oracle distance
                conj = np.array([q[0], -q[1], -q[2], -q[3]])
                got_local = _rotate(conj, *direction)
                i = int(np.argmax(np.abs(got_local)))
                s = 1.0 if got_local[i] > 0 else -1.0
                assert abs(np.abs(got_local[i]) - 1.0) < 1e-9
                assert abs((half[i] - s * local[i]) - d) < 1e-9

    def test_rigid_transform_equivariance(self):
        rng = np.random.default_rng(13)
        base = unit_cube(half_extents=[0.4, 0.3, 0.2])
        for _ in range(300):
            point = rng.uniform(-0.6, 0.6, 3)
            hit0 = hit(base, point)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            xf = Pose(rng.uniform(-2, 2, 3), q)
            moved = ProhibitedZone("z", xf.translation, base.half_extents,
                                   orientation=xf.rotation)
            hit1 = hit(moved, xf.compose(Pose(point)).translation)
            if hit0 is None:
                assert hit1 is None
            else:
                (direction0, depth0), (direction1, depth1) = hit0, hit1
                assert abs(depth0 - depth1) < 1e-9
                assert np.allclose(_rotate(q, *direction0), direction1, atol=1e-9)

    def test_depth_bounded_by_min_half_extent(self):
        rng = np.random.default_rng(14)
        z = unit_cube(half_extents=[0.5, 0.2, 0.9])
        for _ in range(2000):
            found = hit(z, rng.uniform(-1, 1, 3))
            if found is not None:
                assert found[1] <= 0.2 + 1e-12

    def test_stepping_outward_decreases_depth(self):
        rng = np.random.default_rng(15)
        z = unit_cube(half_extents=[0.4, 0.3, 0.2])
        for _ in range(500):
            point = rng.uniform(-0.15, 0.15, 3)
            direction, depth = hit(z, point)
            eps = 1e-4
            stepped = hit(z, point + np.multiply(eps, direction))
            assert stepped is not None
            assert stepped[1] <= depth - eps + 1e-9


class TestCounterforce:
    def test_linear_spring(self):
        f = counterforce((0.0, 1.0, 0.0), 0.1, 500.0)
        assert np.allclose(f, [0.0, 50.0, 0.0])

    def test_vanishes_at_surface(self):
        assert np.allclose(counterforce(*hit(unit_cube(), [0.5, 0.0, 0.0]), 500.0),
                           np.zeros(3))


# a robot of one link: the engine's zone placement needs no joints
ONE_LINK = parse_urdf("<robot name='r'><link name='base'/></robot>")


def engine_with(*zones, robot_id=0):
    config = ScenarioConfig(robot_id=robot_id, zones=zones,
                            assets=(AssetConfig("vase", 1, [0.0, 0.0, 0.0]),))
    return TwinEngine(ONE_LINK, config)


def test_engine_frame_roundtrip():
    # the one-link robot's end-effector sits at the origin, 0.1 inside the
    # zone's +x face
    z = unit_cube(center=[-0.4, 0.0, 0.0])
    engine = engine_with(z, robot_id=3)
    [frame] = engine.merge_tick(777, [], [])
    # the tick keeps the frame it sends, with its zone's id
    assert engine.active_repulsions == [("z", frame)]
    assert (frame.robot_id, frame.time_ns, frame.stiffness) == (3, 777, 500.0)
    assert (frame.direction, frame.depth) == hit(z, [0.0, 0.0, 0.0])
    out = decode_command(encode_command(frame))
    assert out == frame
    # the follower pushes with the decoded frame as the twin's repulsion
    assert counterforce(out.direction, out.depth, out.stiffness) == \
        counterforce(*hit(z, [0.0, 0.0, 0.0]), 500.0)


def place_vase(engine, pose):
    """Re-pose the engine's zones with the vase's tracker at ``pose``."""
    engine.asset_trackers[1].pose = pose
    engine.place_zones()


class TestEnginePlacement:
    """``TwinEngine.to_zone`` is each zone's world-to-zone pose: the
    inverse of its configured pose for a static zone, and of its asset's
    pose composed with it for an attached one."""

    def test_detached_zone_stays_put(self):
        z = unit_cube(center=[0.2, 0.0, 0.0])
        engine = engine_with(z)
        placed = engine.to_zone[0]
        assert placed == z.pose.inverse()
        place_vase(engine, Pose([5.0, 0, 0], IDENT))
        assert engine.to_zone[0] is placed
        assert engine.zones == (z,)

    def test_translation_follows_asset(self):
        z = unit_cube(center=[0.0, 0, 0.1], attached_asset="vase")
        engine = engine_with(z)
        place_vase(engine, Pose([1.0, 2.0, 0.5], IDENT))
        assert np.allclose(engine.to_zone[0].inverse().translation, [1.0, 2.0, 0.6])
        assert query(z, [1.0, 2.0, 0.6], engine.to_zone[0]) is not None
        assert query(z, [0.0, 0.0, 0.1], engine.to_zone[0]) is None
        # the configured zone is not touched
        assert engine.zones == (z,) and z.center == (0.0, 0.0, 0.1)

    def test_rotation_carries_offset(self):
        z = unit_cube(center=[1.0, 0, 0], attached_asset="vase")
        engine = engine_with(z)
        yaw = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        place_vase(engine, Pose([0, 0, 0], yaw))
        assert np.allclose(engine.to_zone[0].inverse().translation, [0.0, 1.0, 0.0],
                           atol=1e-12)
        # interior query behaves identically in the zone's moving frame
        direction, depth = query(z, [0.0, 1.4, 0.0], engine.to_zone[0])
        local_dir = _rotate(quat_conjugate(yaw), *direction)
        assert abs(depth - 0.1) < 1e-12
        assert np.allclose(np.abs(local_dir), [1, 0, 0], atol=1e-12) or \
            np.allclose(np.abs(local_dir), [0, 1, 0], atol=1e-12)


UNIT = st.floats(-1.0, 1.0)
QUATS = st.tuples(UNIT, UNIT, UNIT, UNIT).filter(
    lambda q: sum(x * x for x in q) > 1e-3)
VECS = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


@given(asset=st.tuples(VECS, QUATS), center=VECS, orientation=QUATS,
       half=st.tuples(*[st.floats(0.05, 1.0)] * 3),
       locals_=st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 3), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_engine_placement_matches_a_zone_built_there(asset, center, orientation, half,
                                                     locals_):
    # the old semantics: a new zone built at the asset's pose composed with
    # the configured one, queried at its own placement, gives the same
    # repulsion bit for bit
    z = ProhibitedZone("z", center, half, orientation, attached_asset="vase")
    engine = engine_with(z)
    asset_pose = Pose(*asset)
    place_vase(engine, asset_pose)
    world = asset_pose.compose(z.pose)
    there = ProhibitedZone("z", world.translation, half, world.rotation)
    assert quat_conjugate(engine.to_zone[0].rotation) == there.orientation
    for local in locals_:
        point = world.compose(Pose([u * h for u, h in zip(local, half)])).translation
        assert query(z, point, engine.to_zone[0]) == hit(there, point)


def transform_query(zone, point, to_local):
    """``query`` written with numpy's quaternion products (``numpy_oracle``)
    to move the point, a list of margins, ``min``, and the products again
    to turn the face normal back; ``query`` must match it byte for byte."""
    point = floats(point)
    if not all(map(math.isfinite, point)):
        raise ValueError("non-finite query point")
    local = np.add(to_local.translation, oracle.quat_rotate(to_local.rotation, point))
    margins = [h - abs(c) for h, c in zip(zone.half_extents, local)]
    if any(m < 0 for m in margins):
        return None
    i = margins.index(min(margins))
    axis = [0.0, 0.0, 0.0]
    axis[i] = 1.0 if local[i] >= 0 else -1.0
    return oracle.quat_rotate(oracle.quat_conjugate(to_local.rotation), axis), margins[i]


def hit_bytes(found):
    return None if found is None else struct.pack("<3dd", *found[0], found[1])


SIGNED = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
SIGNED_VECS = st.tuples(SIGNED, SIGNED, SIGNED)


@given(half=st.tuples(*[st.sampled_from([0.5, 1.0]) | st.floats(0.05, 2.0)] * 3),
       to_local=st.builds(Pose, SIGNED_VECS, QUATS | st.sampled_from(
           [(1.0, 0.0, 0.0, 0.0), (1.0, -0.0, -0.0, -0.0), (-1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 1.0)])),
       points=st.lists(SIGNED_VECS, min_size=1, max_size=8))
@example(half=(0.5, 0.5, 0.5), to_local=Pose(),  # ties, signed zeros, faces
         points=[(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.5, 0.0, 0.0), (0.2, -0.2, 0.2)])
@settings(max_examples=200, deadline=None)
def test_query_matches_the_transform_point_formulation(half, to_local, points):
    # each point is tried as a world point and as a point in the zone's frame
    zone = ProhibitedZone("z", ZERO3, half)
    to_world = to_local.inverse()
    for p in points:
        for point in (p, to_world.compose(Pose(p)).translation):
            found = query(zone, point, to_local)
            assert hit_bytes(found) == hit_bytes(transform_query(zone, point, to_local))
            # the invariant a hit's depth keeps: never negative
            assert found is None or found[1] >= 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_non_finite_point_rejected_on_every_axis(bad, at):
    point = [0.1, 0.2, 0.3]
    point[at] = bad
    zone = unit_cube()
    with pytest.raises(ValueError, match="non-finite query point"):
        query(zone, point, zone.pose.inverse())


def test_no_zone_is_built_after_load(tmp_path, monkeypatch):
    # contact_overlap's vase_guard rides the vase; re-posing it each merge
    # tick builds a pose, never a new ProhibitedZone
    cfg = dataclasses.replace(load_config(CONFIGS / "contact_overlap.yaml"),
                              log_path=str(tmp_path / "run.dtrl"), trace_path=None,
                              stats_path=None)
    assert any(z.attached_asset for z in cfg.zones)
    built = []
    check = ProhibitedZone.__post_init__

    def counting(self):
        built.append(self.zone_id)
        check(self)

    monkeypatch.setattr(ProhibitedZone, "__post_init__", counting)
    res = simulate(cfg)
    assert res.commands_sent > 0
    assert replay(cfg.log_path, cfg).state_hash == res.state_hash
    assert built == []


def test_zone_validation():
    with pytest.raises(ValueError):
        ProhibitedZone("z", [0, 0, 0], [0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        ProhibitedZone("z", [0, 0, 0], [0.5, 0.5, 0.5], orientation=[0, 0, 0, 0])
    with pytest.raises(ValueError):
        ProhibitedZone("z", [0, 0, 0], [0.5, 0.5, 0.5], stiffness=-1.0)
