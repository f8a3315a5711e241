import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bev_iou_matrix, coaxial_slerp, mc_bev_iou, numpy_gate, quat_close
from streameval import geom
from streameval.geom import (
    BevRect,
    Quaternion,
    Vec3,
    ValidationError,
    _gated_pairs,
    bev_iou,
    bev_iou_reaches,
    center_distance,
    lerp_translation,
    slerp,
    wrap_angle,
)

angles = st.floats(-math.pi, math.pi, allow_nan=False)
coords = st.floats(-50.0, 50.0, allow_nan=False)


class TestQuaternion:
    def test_normalizes_on_construction(self):
        q = Quaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0 and q.norm() == pytest.approx(1.0, abs=1e-9)

    def test_canonical_sign(self):
        q = Quaternion(-1.0, 0.0, 0.0, 0.5)
        assert q.w > 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0.0, 0.0, 0.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(float("nan"), 0.0, 0.0, 0.0)

    def test_rot_z_yaw_roundtrip(self):
        for yaw in (-3.0, -1.0, 0.0, 0.3, 2.9):
            assert Quaternion.rot_z(yaw).yaw() == pytest.approx(yaw, abs=1e-12)

    def test_unit_quaternion_bits_preserved(self):
        q = Quaternion.rot_z(0.7)
        q2 = Quaternion(q.w, q.x, q.y, q.z)
        assert (q2.w, q2.x, q2.y, q2.z) == (q.w, q.x, q.y, q.z)


# components as a library caller may build them: from a detector's arrays,
# or from literals; each kind's values are exact in that kind
FLOAT_COMPONENTS = ((0.1, -2.5, 1e3), (0.5, -0.5, 0.5, 0.5), (0.3, 0.1, -0.2, 0.9))
COMPONENTS = {
    np.float64: FLOAT_COMPONENTS,
    np.float32: FLOAT_COMPONENTS,
    int: ((3, -7, 0), (0, 0, 0, 1), (2, 0, 0, -2)),
}
component_kinds = pytest.mark.parametrize("kind", list(COMPONENTS), ids=lambda k: k.__name__)


class TestFloatComponents:
    """Vec3 and Quaternion hold plain floats, whatever real numbers built them."""

    @component_kinds
    def test_vec3_converts_each_component(self, kind):
        given = [kind(v) for v in COMPONENTS[kind][0]]
        v = Vec3(*given)
        assert [type(c) for c in (v.x, v.y, v.z)] == [float] * 3
        assert (v.x, v.y, v.z) == tuple(float(c) for c in given)
        assert repr(v) == repr(Vec3(*map(float, given)))

    @component_kinds
    def test_unit_quaternion_converts_each_component(self, kind):
        given = [kind(v) for v in COMPONENTS[kind][1]]
        q = Quaternion(*given)
        assert [type(c) for c in (q.w, q.x, q.y, q.z)] == [float] * 4
        assert (q.w, q.x, q.y, q.z) == tuple(float(c) for c in given)

    @component_kinds
    def test_quaternion_normalizes_what_floats_would(self, kind):
        given = [kind(v) for v in COMPONENTS[kind][2]]
        q, want = Quaternion(*given), Quaternion(*map(float, given))
        assert [type(c) for c in (q.w, q.x, q.y, q.z)] == [float] * 4
        assert repr(q) == repr(want)

    def test_strings_are_not_parsed(self):
        with pytest.raises(TypeError):
            Vec3("1.5", 0.0, 0.0)
        with pytest.raises(TypeError):
            Quaternion(1.0, 0.0, 0.0, "0")


class TestSlerp:
    def test_identity_case(self):
        q = slerp(Quaternion.identity(), Quaternion.identity(), 0.7)
        assert quat_close(q, Quaternion.identity(), 1e-15)

    def test_midpoint_geodesic(self):
        q = slerp(Quaternion.identity(), Quaternion.rot_z(math.pi / 2), 0.5)
        assert quat_close(q, Quaternion.rot_z(math.pi / 4), 1e-12)

    def test_coaxial_derived_case(self):
        # interpolating rot_z(0.3) -> rot_z(1.1) a quarter of the way lands on rot_z(0.5)
        q = slerp(Quaternion.rot_z(0.3), Quaternion.rot_z(1.1), 0.25)
        assert quat_close(q, Quaternion.rot_z(0.5), 1e-12)

    def test_endpoints_exact(self):
        a, b = Quaternion.rot_z(0.4), Quaternion.rot_z(-1.2)
        assert slerp(a, b, 0.0) == a
        assert slerp(a, b, 1.0) == b

    def test_unnormalized_input_rejected(self):
        bad = object.__new__(Quaternion)
        object.__setattr__(bad, "w", 2.0)
        object.__setattr__(bad, "x", 0.0)
        object.__setattr__(bad, "y", 0.0)
        object.__setattr__(bad, "z", 0.0)
        with pytest.raises(ValueError, match="unnormalized quaternion"):
            slerp(bad, Quaternion.identity(), 0.5)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            slerp(Quaternion.identity(), Quaternion.identity(), 1.5)

    @given(angles, angles, st.floats(0.0, 1.0))
    def test_unit_norm_invariant(self, a, b, u):
        q = slerp(Quaternion.rot_z(a), Quaternion.rot_z(b), u)
        assert abs(q.norm() - 1.0) < 1e-9

    @given(angles, angles, st.floats(0.0, 1.0))
    def test_reversal_symmetry(self, a, b, u):
        qa, qb = Quaternion.rot_z(a), Quaternion.rot_z(b)
        assert quat_close(slerp(qa, qb, u), slerp(qb, qa, 1.0 - u), 1e-9)

    def test_against_coaxial_oracle(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(500):
            ys, ye = rng.uniform(-math.pi, math.pi, 2)
            u = float(rng.uniform(0.0, 1.0))
            got = slerp(Quaternion.rot_z(ys), Quaternion.rot_z(ye), u)
            assert quat_close(got, coaxial_slerp(ys, ye, u), 1e-9)


class TestLerpTranslation:
    def test_endpoint_recovery(self):
        got = lerp_translation(Vec3(0, 0, 0), Vec3(4, 0, 0), 0, 1, 0)
        assert got == Vec3(0.0, 0.0, 0.0)

    def test_midpoint_symmetry(self):
        got = lerp_translation(Vec3(0, 0, 0), Vec3(4, 0, 0), 0, 1_000_000, 500_000)
        assert got == Vec3(2.0, 0.0, 0.0)

    def test_hand_checked_case(self):
        # weights 0.25/0.75 at t=11.5 over [10, 12]
        got = lerp_translation(
            Vec3(1, 2, 3), Vec3(3, -2, 3), 10_000_000, 12_000_000, 11_500_000
        )
        assert got.x == pytest.approx(2.5, abs=1e-12)
        assert got.y == pytest.approx(-1.0, abs=1e-12)
        assert got.z == pytest.approx(3.0, abs=1e-12)

    def test_zero_length_interval(self):
        with pytest.raises(ValueError, match="zero-length interval"):
            lerp_translation(Vec3(0, 0, 0), Vec3(1, 0, 0), 5, 5, 5)

    def test_extrapolation_refused(self):
        with pytest.raises(ValueError, match="extrapolation refused"):
            lerp_translation(Vec3(0, 0, 0), Vec3(1, 0, 0), 0, 10, 11)

    @given(coords, coords, coords, coords)
    def test_endpoints_bit_exact(self, xs, ys, xe, ye):
        s, e = Vec3(xs, ys, 0.0), Vec3(xe, ye, 0.0)
        assert lerp_translation(s, e, 0, 777, 0) == s
        assert lerp_translation(s, e, 0, 777, 777) == e


class TestBevIou:
    def test_self_iou_is_one(self):
        r = BevRect(1.0, 2.0, 2.0, 4.0, 0.7)
        assert bev_iou(r, r) == 1.0

    def test_analytic_overlap_one_third(self):
        a = BevRect(0.0, 0.0, 2.0, 2.0, 0.0)
        b = BevRect(1.0, 0.0, 2.0, 2.0, 0.0)
        assert bev_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_disjoint_exactly_zero(self):
        a = BevRect(0.0, 0.0, 2.0, 4.0, 0.3)
        b = BevRect(100.0, 0.0, 2.0, 4.0, -0.4)
        assert bev_iou(a, b) == 0.0

    def test_rotated_against_monte_carlo(self):
        a = BevRect(0.0, 0.0, 2.0, 4.0, 0.0)
        b = BevRect(0.0, 0.0, 2.0, 4.0, math.pi / 4)
        assert abs(bev_iou(a, b) - mc_bev_iou(a, b, seed=11)) < 2e-3

    def test_yaw_normalized(self):
        assert BevRect(0, 0, 1, 1, 3 * math.pi).yaw == pytest.approx(math.pi)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BevRect(0, 0, -1.0, 1.0, 0.0)

    def test_nan_yaw_rejected(self):
        # it used to build, and then read IoU 0.0 against its own twin at yaw
        # 0 while `bev_iou_reaches` said the pair reached 0.1
        with pytest.raises(ValidationError, match="non-finite rectangle value"):
            BevRect(0.0, 0.0, 2.0, 4.0, math.nan)

    def test_infinite_yaw_rejected(self):
        # it used to end in a bare "math domain error" from wrapping the yaw
        with pytest.raises(ValidationError, match="non-finite rectangle value"):
            BevRect(0.0, 0.0, 2.0, 4.0, math.inf)

    def test_infinite_width_rejected(self):
        with pytest.raises(ValidationError, match="non-finite rectangle value"):
            BevRect(0.0, 0.0, math.inf, 4.0, 0.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (-math.inf, 0.0)])
    def test_non_finite_center_rejected(self, x, y):
        with pytest.raises(ValidationError, match="non-finite rectangle value"):
            BevRect(x, y, 2.0, 4.0, 0.0)

    def test_one_ulp_shift_is_identical(self):
        # clipping by an edge one ulp away meets segments that rounding
        # makes exactly parallel to it while their ends straddle it
        a = BevRect(-2.2990223447283, 36.530992777164, 1.6722153967638174, 9.757820010649757,
                    0.30598675032964895)
        b = BevRect(math.nextafter(a.center_x, math.inf), a.center_y, a.width, a.length, a.yaw)
        assert bev_iou(a, b) == pytest.approx(1.0, abs=1e-9)

    @given(coords, coords, st.floats(0.5, 5.0), st.floats(0.5, 12.0), angles,
           st.sampled_from(["x", "y", "yaw"]))
    @settings(max_examples=300)
    def test_ulp_shifted_rectangles_never_raise(self, x, y, w, l, yaw, which):
        a = BevRect(x, y, w, l, yaw)
        shifted = {"x": x, "y": y, "yaw": yaw}
        shifted[which] = math.nextafter(shifted[which], math.inf)
        b = BevRect(shifted["x"], shifted["y"], w, l, shifted["yaw"])
        assert bev_iou(a, b) == pytest.approx(1.0, abs=1e-9)
        assert bev_iou(b, a) == pytest.approx(1.0, abs=1e-9)

    def test_tiny_rectangles_far_from_origin_stay_in_range(self):
        # corner rounding at 10^6 m made the clipped area exceed both
        # rectangles' areas, and the IoU read -1.59
        a = BevRect(-5308357.45, 5372052.26, 0.008, 0.051, 0.1566)
        b = BevRect(-5308357.43, 5372052.24, 0.0205, 0.0506, -1.2997)
        assert 0.0 <= bev_iou(a, b) <= 1.0
        assert 0.0 <= bev_iou(b, a) <= 1.0

    @given(st.floats(-6e6, 6e6), st.floats(-6e6, 6e6), st.floats(1e-4, 0.1),
           st.floats(1e-4, 0.1), angles, st.floats(-0.05, 0.05), st.floats(-0.05, 0.05),
           st.floats(1e-4, 0.1), st.floats(1e-4, 0.1), angles)
    @settings(max_examples=300)
    def test_range_for_sub_decimetre_rectangles_at_1e6_m(self, x, y, wa, la, yaw_a, dx, dy,
                                                         wb, lb, yaw_b):
        a = BevRect(x, y, wa, la, yaw_a)
        b = BevRect(x + dx, y + dy, wb, lb, yaw_b)
        assert 0.0 <= bev_iou(a, b) <= 1.0

    @given(coords, coords, angles, st.floats(0.5, 5.0), st.floats(0.5, 5.0), angles)
    @settings(max_examples=60)
    def test_symmetry_and_range(self, x, y, yaw_a, w, l, yaw_b):
        a = BevRect(x, y, w, l, yaw_a)
        b = BevRect(x + 1.0, y - 0.5, l, w, yaw_b)
        ab, ba = bev_iou(a, b), bev_iou(b, a)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert 0.0 <= ab <= 1.0

    @given(
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), angles, angles,
        coords, coords, angles,
    )
    @settings(max_examples=60)
    def test_rigid_transform_invariance(self, bx, by, yaw_a, yaw_b, tx, ty, rot):
        a = BevRect(0.0, 0.0, 2.0, 4.0, yaw_a)
        b = BevRect(bx, by, 3.0, 1.5, yaw_b)
        c, s = math.cos(rot), math.sin(rot)

        def moved(r: BevRect) -> BevRect:
            x = c * r.center_x - s * r.center_y + tx
            y = s * r.center_x + c * r.center_y + ty
            return BevRect(x, y, r.width, r.length, r.yaw + rot)

        assert bev_iou(moved(a), moved(b)) == pytest.approx(bev_iou(a, b), abs=1e-9)


rects = st.builds(
    BevRect,
    st.floats(-8.0, 8.0),
    st.floats(-8.0, 8.0),
    st.floats(0.3, 5.0),
    st.floats(0.3, 10.0),
    angles,
)


def scalar_matrix(a, b) -> np.ndarray:
    return np.array([[bev_iou(x, y) for y in b] for x in a], dtype=np.float64).reshape(
        len(a), len(b)
    )


def sweep_matrix(a, b) -> np.ndarray:
    """`bev_iou` of the pairs `_gated_pairs` yields, 0.0 elsewhere."""
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    for i, j, _ in _gated_pairs(a, b):
        out[i, j] = bev_iou(a[i], b[j])
    return out


def assert_bit_identical(a, b) -> None:
    """The oracle matrix and the sweep's pairs both equal `bev_iou` on every
    pair: neither gate stops a pair that overlaps, rounding included."""
    want = scalar_matrix(a, b)
    for got in (bev_iou_matrix(a, b), sweep_matrix(a, b)):
        assert got.dtype == np.float64 and got.shape == (len(a), len(b))
        assert got.tobytes() == want.tobytes()


def corner_to_corner(x, y, theta, wa, la, wb, lb, rel) -> tuple[BevRect, BevRect]:
    """Two rectangles whose far corners face each other along `theta`, with
    centers (1 + rel) times the sum of their circumradii apart: rel = 0 makes
    the circumcircles tangent and the corners touch."""
    reach = 0.5 * math.hypot(wa, la) + 0.5 * math.hypot(wb, lb)
    d = reach * (1.0 + rel)
    a = BevRect(x, y, wa, la, theta - math.atan2(wa, la))
    b = BevRect(x + d * math.cos(theta), y + d * math.sin(theta), wb, lb,
                theta + math.pi - math.atan2(wb, lb))
    return a, b


class TestBevIouMatrix:
    @given(st.lists(rects, max_size=7), st.lists(rects, max_size=7))
    @settings(max_examples=150)
    def test_equals_scalar_calls(self, a, b):
        assert_bit_identical(a, b)

    @given(
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), angles,
        st.floats(0.1, 5.0), st.floats(0.1, 12.0), st.floats(0.1, 5.0), st.floats(0.1, 12.0),
        st.one_of(st.sampled_from([0.0, 1e-6, -1e-6, 2e-6, 1e-9]), st.floats(-1e-4, 1e-4)),
    )
    @settings(max_examples=300)
    def test_near_tangent_circumcircles(self, x, y, theta, wa, la, wb, lb, rel):
        a, b = corner_to_corner(x, y, theta, wa, la, wb, lb, rel)
        assert_bit_identical([a], [b])
        assert_bit_identical([b], [a])

    @pytest.mark.parametrize("a, b", [
        # 1 cm boxes 10 km out: circumcircles apart by 2e-11 of their radii,
        # yet rounding in the clipper gives IoU 5e-4
        (BevRect(-10666.349562020128, -10666.349562020128, 0.014253962474943253,
                 0.0018989945821013207, -3.0025647415168732),
         BevRect(-10666.349502749077, -10666.35856676973, 0.0036046120289019994,
                 0.0004284492504262204, 0.12488844698486057)),
        # km-sized boxes apart by 1e-16 of their radii: IoU 2e-17
        (BevRect(31.721308981886136, 31.721308981886136, 366.8131617907973,
                 2185.9349802445176, -1.0091972380917835),
         BevRect(2339.554938441136, -2558.2534386807183, 414.2750907913212,
                 4703.322288242363, 2.210797857153162)),
        # 0.1 mm boxes 4,600 km out: the clipper's rounding exceeds the
        # relative gap, so only the coordinate term keeps them ungated
        (BevRect(-4627245.355293842, -4627245.355293842, 0.00010508808300586777,
                 0.00019922009960069649, -0.16310889400779374),
         BevRect(-4627245.355033706, -4627245.355206973, 0.00031767011499347675,
                 5.994001803258129e-05, 2.079583974894117)),
    ])
    def test_rounding_overlap_past_tangency_is_clipped(self, a, b):
        assert bev_iou(a, b) != 0.0
        assert_bit_identical([a], [b])

    @given(coords, coords, st.floats(0.5, 5.0), st.floats(0.5, 12.0), angles,
           st.sampled_from(["x", "y", "yaw"]))
    @settings(max_examples=100)
    def test_ulp_shifted_twins(self, x, y, w, l, yaw, which):
        a = BevRect(x, y, w, l, yaw)
        shifted = {"x": x, "y": y, "yaw": yaw}
        shifted[which] = math.nextafter(shifted[which], math.inf)
        b = BevRect(shifted["x"], shifted["y"], w, l, shifted["yaw"])
        assert_bit_identical([a, b], [b, a])

    @pytest.mark.parametrize("n_a, n_b", [(0, 0), (0, 3), (3, 0)])
    def test_empty_sides(self, n_a, n_b):
        r = BevRect(0.0, 0.0, 2.0, 4.0, 0.0)
        m = bev_iou_matrix([r] * n_a, [r] * n_b)
        assert m.shape == (n_a, n_b) and m.dtype == np.float64

    def test_clips_only_pairs_with_overlapping_circumcircles(self):
        # the oracle matrix and the sweep both leave the far pair unclipped
        near = BevRect(0.0, 0.0, 2.0, 4.0, 0.3)
        far = BevRect(50.0, 0.0, 2.0, 4.0, 0.0)
        assert _gated_pairs([near, far], [near]) == [(0, 0, 0.0)]
        assert bev_iou_matrix([near, far], [near]).tolist() == [[bev_iou(near, near)], [0.0]]


# footprints of cars and pedestrians, so that one side's reach varies
SIZES = [(1.9, 4.6), (2.0, 4.0), (0.6, 0.7), (0.5, 0.8), (2.9, 11.0)]


@st.composite
def crowds(draw):
    """Two sets of 0-60 rectangles about an offset, some sharing a center or
    an x with an earlier one, with car, bus and pedestrian sizes."""
    x0 = draw(st.sampled_from([0.0, 1e6, -1e6 + 0.5, 999_999.75]))
    y0 = draw(st.sampled_from([0.0, -1e6, 1e6 - 0.25]))
    spread = draw(st.sampled_from([3.0, 20.0, 200.0]))
    sides = []
    for _ in range(2):
        n = draw(st.integers(0, 60))
        side = []
        for _ in range(n):
            w, l = draw(st.sampled_from(SIZES))
            kind = draw(st.sampled_from(["fresh", "fresh", "twin", "same_x"]))
            pool = sides[0] + side if sides else side
            if kind != "fresh" and pool:
                other = draw(st.sampled_from(pool))
                x = other.center_x
                y = other.center_y if kind == "twin" else y0 + draw(st.floats(-spread, spread))
            else:
                x = x0 + draw(st.floats(-spread, spread))
                y = y0 + draw(st.floats(-spread, spread))
            side.append(BevRect(x, y, w, l, draw(angles)))
        sides.append(side)
    return sides


class TestGatedPairs:
    @given(crowds())
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_gate(self, sides):
        """The same pairs in the same row-major order as the all-pairs gate,
        each with the exact `math.hypot` of its center offset, which
        differs from numpy's by at most an ulp."""
        a, b = sides
        pairs = _gated_pairs(a, b)
        gate = numpy_gate(a, b)
        rows, cols = np.nonzero(~np.isnan(gate))
        assert [(i, j) for i, j, _ in pairs] == list(zip(rows.tolist(), cols.tolist()))
        for i, j, d in pairs:
            assert d == math.hypot(a[i].center_x - b[j].center_x, a[i].center_y - b[j].center_y)
            assert abs(d - gate[i, j]) <= math.ulp(d)

    @given(crowds(), st.sampled_from([0.0, 1e-3, 0.1, 0.5, 0.9, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_reaches_equals_oracle_matrix_rule(self, sides, threshold):
        a, b = sides
        rule = bev_iou_matrix(a, b).max(axis=1, initial=0.0) < threshold
        assert bev_iou_reaches(a, b, threshold) == [not r for r in rule.tolist()]

    def test_empty_sides(self):
        r = BevRect(0.0, 0.0, 2.0, 4.0, 0.0)
        assert _gated_pairs([], []) == _gated_pairs([r], []) == _gated_pairs([], [r]) == []

    def test_coordinate_margin_widens_both_sides(self):
        # 1e9 m out each rectangle's reach grows by 1e-3 m, far above its
        # relative margin: a gap of 1.5e-3 m between the circumcircles is
        # let through only with both sides' terms, one of 2.5e-3 m never
        radius = 0.5 * (1.0 + geom._GATE_REL_MARGIN) * math.hypot(0.1, 0.2)
        a = BevRect(1e9, 0.0, 0.1, 0.2, 0.0)
        for gap, through in ((1.5e-3, True), (2.5e-3, False)):
            b = BevRect(1e9 + 2.0 * radius + gap, 0.0, 0.1, 0.2, 0.0)
            assert [(i, j) for i, j, _ in _gated_pairs([a], [b])] == ([(0, 0)] if through else [])
            assert not np.isnan(numpy_gate([a], [b])[0, 0]) == through

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_reach_takes_every_pair(self):
        # a circumradius past the float range reaches everything, as in the
        # gate, and the window then spans every x
        huge = BevRect(0.0, 0.0, 1.7e308, 1.7e308, 0.0)
        far = BevRect(1e300, -1e300, 2.0, 4.0, 0.0)
        a, b = [far, huge], [BevRect(-1e300, 0.0, 2.0, 4.0, 0.0), far, huge]
        got = [(i, j) for i, j, _ in _gated_pairs(a, b)]
        assert got == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert got == list(zip(*np.nonzero(~np.isnan(numpy_gate(a, b)))))


# far from the origin `bev_iou`'s rounding swamps small boxes: the bound
# must then leave every pair to the clipper
offsets = st.one_of(st.just(0.0), st.floats(-1e3, 1e3),
                    st.sampled_from([1e5, -1e6, 1.4e6, -1e7, 1e9]), st.floats(-1e9, 1e9))


def disk_bound(a: BevRect, b: BevRect) -> float:
    """The IoU lower bound of `bev_iou_reaches` before its margins: the disk
    of radius min(r_a, r_b, (r_a + r_b - d) / 2) lies in both rectangles."""
    r_a, r_b = 0.5 * min(a.width, a.length), 0.5 * min(b.width, b.length)
    s = min(r_a, r_b, 0.5 * (r_a + r_b - math.hypot(a.center_x - b.center_x,
                                                     a.center_y - b.center_y)))
    disk = math.pi * s * s
    return disk / (a.area + b.area - disk) if s > 0.0 else 0.0


@st.composite
def overlapping_pairs(draw):
    """Two rectangles about an offset center, from concentric twins to
    barely touching, with independent or nearly equal sizes."""
    x0, y0 = draw(offsets), draw(offsets)
    w, l = draw(st.floats(0.05, 6.0)), draw(st.floats(0.05, 12.0))
    a = BevRect(x0, y0, w, l, draw(angles))
    if draw(st.booleans()):
        wb, lb = w * draw(st.floats(0.9, 1.1)), l * draw(st.floats(0.9, 1.1))
    else:
        wb, lb = draw(st.floats(0.05, 6.0)), draw(st.floats(0.05, 12.0))
    reach = max(w, l, wb, lb)
    dx, dy = draw(st.floats(-reach, reach)), draw(st.floats(-reach, reach))
    b = BevRect(x0 + dx, y0 + dy, wb, lb, a.yaw + draw(st.floats(-0.3, 0.3)))
    return a, b


class TestBevIouReaches:
    @given(st.lists(rects, max_size=6), st.lists(rects, max_size=6),
           st.sampled_from([0.0, 1e-3, 0.1, 0.5, 0.9, 1.0]))
    @settings(max_examples=150)
    def test_equals_max_of_scalar_calls(self, a, b, threshold):
        want = [not row.max(initial=0.0) < threshold for row in scalar_matrix(a, b)]
        assert bev_iou_reaches(a, b, threshold) == want

    @given(overlapping_pairs(), st.floats(0.5, 1.0), st.floats(-1e-9, 1e-9), st.booleans())
    @settings(max_examples=400)
    def test_bound_never_says_yes_below_bev_iou(self, pair, fraction, delta, near_bound):
        """With the clipper stubbed out, a yes can only come from the bound;
        it must then hold for `bev_iou` too. Thresholds up to the bound
        itself are the strongest it can certify; thresholds within 1e-9 of
        the pair's IoU test the decisions next to it."""
        a, b = pair
        iou = bev_iou(a, b)
        threshold = fraction * disk_bound(a, b) if near_bound else iou + delta
        threshold = min(1.0, max(1e-12, threshold))
        with mock.patch.object(geom, "bev_iou", lambda *_: 0.0):
            certified = bev_iou_reaches([a], [b], threshold) == [True]
        if certified:
            assert iou >= threshold
        assert bev_iou_reaches([a], [b], threshold) == [not iou < threshold]

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    def test_empty_sides(self, threshold):
        r = BevRect(0.0, 0.0, 2.0, 4.0, 0.0)
        assert bev_iou_reaches([], [], threshold) == []
        assert bev_iou_reaches([], [r], threshold) == []
        assert bev_iou_reaches([r, r], [], threshold) == [threshold == 0.0] * 2

    def test_clips_only_pairs_the_bound_cannot_settle(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return bev_iou(a, b)

        monkeypatch.setattr(geom, "bev_iou", counting)
        box = BevRect(0.0, 0.0, 2.0, 4.0, 0.3)
        twin = BevRect(0.1, 0.0, 2.0, 4.0, 0.3)
        corner = BevRect(2.5, 2.5, 2.0, 4.0, 0.0)
        far = BevRect(50.0, 0.0, 2.0, 4.0, 0.0)
        other = BevRect(-50.0, 0.0, 2.0, 4.0, 0.0)
        # the twin is certified, so its row clips nothing; the corner's
        # overlapping pair is clipped; the gate stops every pair of the far box
        assert bev_iou_reaches([twin, corner, far], [other, box], 0.1) == [True, False, False]
        assert calls == [(corner, box)]

    def test_far_from_origin_every_pair_is_clipped(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geom, "bev_iou", lambda a, b: calls.append((a, b)) or 1.0)
        box = BevRect(1e9, -1e9, 2.0, 4.0, 0.3)
        assert bev_iou_reaches([box], [box], 0.1) == [True]
        assert calls == [(box, box)]


class TestCenterDistance:
    def test_zero(self):
        p = Vec3(1.0, 2.0, 3.0)
        assert center_distance(p, p) == 0.0

    def test_z_ignored(self):
        assert center_distance(Vec3(0, 0, 0), Vec3(3, 4, 7)) == 5.0

    def test_diagonal(self):
        assert center_distance(Vec3(1, 1, 0), Vec3(2, 2, 0)) == pytest.approx(
            math.sqrt(2), abs=1e-9
        )


def test_wrap_angle_range():
    for a in (-10.0, -math.pi, 0.0, math.pi, 10.0, 3 * math.pi):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
