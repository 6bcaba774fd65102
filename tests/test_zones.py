import numpy as np
import pytest

from twinsync.geometry import Pose, quat_from_axis_angle, quat_rotate
from twinsync.wire import CMD_KIND_ZONE_REPULSION, decode_command, encode_command
from twinsync.zones import (ProhibitedZone, Repulsion, counterforce,
                            make_command, query, update_dynamic)

IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def unit_cube(**kw):
    args = dict(zone_id="z", center=[0.0, 0, 0], half_extents=[0.5, 0.5, 0.5])
    args.update(kw)
    return ProhibitedZone(**args)


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
        rep = query(unit_cube(), [0.4, 0.0, 0.0])
        assert np.allclose(rep.direction, [1, 0, 0])
        assert abs(rep.depth - 0.1) < 1e-12

    def test_outside_none(self):
        assert query(unit_cube(), [0.6, 0.0, 0.0]) is None
        assert query(unit_cube(), [10.0, 10.0, 10.0]) is None

    def test_center_tie_breaks_plus_x(self):
        rep = query(unit_cube(), [0.0, 0.0, 0.0])
        assert np.allclose(rep.direction, [1, 0, 0])
        assert abs(rep.depth - 0.5) < 1e-12

    def test_boundary_depth_zero(self):
        rep = query(unit_cube(), [0.0, 0.5, 0.0])
        assert rep.depth == 0.0
        assert np.allclose(rep.direction, [0, 1, 0])

    def test_negative_face(self):
        rep = query(unit_cube(), [0.0, 0.0, -0.45])
        assert np.allclose(rep.direction, [0, 0, -1])
        assert abs(rep.depth - 0.05) < 1e-12

    def test_translated_zone(self):
        z = unit_cube(center=[2.0, 0, 0])
        assert query(z, [0.4, 0, 0]) is None
        rep = query(z, [2.4, 0, 0])
        assert np.allclose(rep.direction, [1, 0, 0])

    def test_rotated_zone_direction_in_world(self):
        yaw = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        z = ProhibitedZone("z", [0, 0, 0], [0.5, 0.1, 0.5], orientation=yaw)
        # the box's local +x axis points along world +y after the yaw
        rep = query(z, [0.0, 0.45, 0.0])
        assert np.allclose(rep.direction, [0, 1, 0], atol=1e-12)
        assert abs(rep.depth - 0.05) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            query(unit_cube(), [np.inf, 0, 0])


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
                point = z.pose.transform_point(local)
                rep = query(z, point)
                d, _ = nearest_face_oracle(half, local)
                assert abs(rep.depth - d) < 1e-9
                # the direction must be a minimizing face normal (any one
                # of the tied faces is geometrically valid): pulling it
                # back into the box frame, the face it names must sit at
                # the oracle distance
                conj = np.array([q[0], -q[1], -q[2], -q[3]])
                got_local = quat_rotate(conj, rep.direction)
                i = int(np.argmax(np.abs(got_local)))
                s = 1.0 if got_local[i] > 0 else -1.0
                assert abs(np.abs(got_local[i]) - 1.0) < 1e-9
                assert abs((half[i] - s * local[i]) - d) < 1e-9

    def test_rigid_transform_equivariance(self):
        rng = np.random.default_rng(13)
        base = unit_cube(half_extents=[0.4, 0.3, 0.2])
        for _ in range(300):
            point = rng.uniform(-0.6, 0.6, 3)
            rep0 = query(base, point)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            xf = Pose(rng.uniform(-2, 2, 3), q)
            moved = ProhibitedZone("z", xf.translation, base.half_extents,
                                   orientation=xf.rotation)
            rep1 = query(moved, xf.transform_point(point))
            if rep0 is None:
                assert rep1 is None
            else:
                assert abs(rep0.depth - rep1.depth) < 1e-9
                assert np.allclose(quat_rotate(q, rep0.direction),
                                   rep1.direction, atol=1e-9)

    def test_depth_bounded_by_min_half_extent(self):
        rng = np.random.default_rng(14)
        z = unit_cube(half_extents=[0.5, 0.2, 0.9])
        for _ in range(2000):
            rep = query(z, rng.uniform(-1, 1, 3))
            if rep is not None:
                assert rep.depth <= 0.2 + 1e-12

    def test_stepping_outward_decreases_depth(self):
        rng = np.random.default_rng(15)
        z = unit_cube(half_extents=[0.4, 0.3, 0.2])
        for _ in range(500):
            point = rng.uniform(-0.15, 0.15, 3)
            rep = query(z, point)
            eps = 1e-4
            rep2 = query(z, point + np.multiply(eps, rep.direction))
            assert rep2 is not None
            assert rep2.depth <= rep.depth - eps + 1e-9


class TestCounterforce:
    def test_linear_spring(self):
        rep = Repulsion(np.array([0.0, 1.0, 0.0]), 0.1)
        f = counterforce(rep, 500.0)
        assert np.allclose(f, [0.0, 50.0, 0.0])

    def test_vanishes_at_surface(self):
        rep = query(unit_cube(), [0.5, 0.0, 0.0])
        assert np.allclose(counterforce(rep, 500.0), np.zeros(3))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            Repulsion(np.array([1.0, 0, 0]), -0.1)


def test_make_command_roundtrip():
    rep = query(unit_cube(), [0.4, 0.0, 0.0])
    frame = make_command(3, rep, 500.0, 777)
    assert frame.kind == CMD_KIND_ZONE_REPULSION
    out = decode_command(encode_command(frame))
    assert out.robot_id == 3 and out.time_ns == 777
    assert np.allclose(out.direction, rep.direction)
    assert out.depth == rep.depth and out.stiffness == 500.0


class TestUpdateDynamic:
    def test_detached_zone_unchanged(self):
        z = unit_cube()
        moved = update_dynamic(z, Pose([5.0, 0, 0], IDENT))
        assert moved is z

    def test_translation_follows_asset(self):
        z = unit_cube(attached_asset="vase")
        asset = Pose([1.0, 2.0, 0.5], IDENT)
        moved = update_dynamic(z, asset, Pose([0.0, 0, 0.1]))
        assert np.allclose(moved.center, [1.0, 2.0, 0.6])
        assert moved.zone_id == z.zone_id
        assert moved.attached_asset == "vase"

    def test_rotation_carries_offset(self):
        z = unit_cube(attached_asset="vase")
        yaw = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        moved = update_dynamic(z, Pose([0, 0, 0], yaw), Pose([1.0, 0, 0]))
        assert np.allclose(moved.center, [0.0, 1.0, 0.0], atol=1e-12)
        # interior query behaves identically in the zone's moving frame
        rep = query(moved, [0.0, 1.4, 0.0])
        local_dir = quat_rotate(
            np.array([yaw[0], -yaw[1], -yaw[2], -yaw[3]]), rep.direction)
        assert abs(rep.depth - 0.1) < 1e-12
        assert np.allclose(np.abs(local_dir), [1, 0, 0], atol=1e-12) or \
            np.allclose(np.abs(local_dir), [0, 1, 0], atol=1e-12)


def test_zone_validation():
    with pytest.raises(ValueError):
        ProhibitedZone("z", [0, 0, 0], [0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        ProhibitedZone("z", [0, 0, 0], [0.5, 0.5, 0.5], orientation=[0, 0, 0, 0])
    with pytest.raises(ValueError):
        ProhibitedZone("z", [0, 0, 0], [0.5, 0.5, 0.5], stiffness=-1.0)
