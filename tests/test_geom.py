"""Geometry primitives: angular measurements, cones, tubes, ray hits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracvis.fractals import koch_generalized
from fracvis.geom import (
    Annulus,
    Cone,
    ParallelTube,
    Point,
    RadialTube,
    Segment,
    _convex_hull,
    _octagon_interior,
    angle_ratio,
    angle_ratio_upper,
    arc_diam,
    check_angle_ratio_bounds,
    diameter,
    hit_t_elementwise,
    intercone_bound,
    intercone_holds,
    log_polar,
    log_polar_inverse,
    min_angle_slope,
    point_segments_dist,
    ray_segment_hit,
)

finite_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Basic types
# ---------------------------------------------------------------------------


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)


def test_segment_rejects_degenerate():
    with pytest.raises(ValueError):
        Segment(Point(1.0, 2.0), Point(1.0, 2.0))


def test_annulus_membership_half_open():
    ann = Annulus(Point(0.0, 0.0), 1.0, 2.0)
    assert not ann.contains((1.0, 0.0))
    assert ann.contains((2.0, 0.0))
    assert ann.contains((0.0, 1.5))
    with pytest.raises(ValueError):
        Annulus(Point(0.0, 0.0), 2.0, 1.0)


def test_cone_membership_is_strict():
    cone = Cone(Point(0.0, 0.0), (1.0, 0.0), 1.0)
    assert cone.contains((1.0, 0.5))
    assert not cone.contains((-1.0, 0.0))
    assert not cone.contains((0.0, 0.0))
    assert not cone.contains((1.0, 1.0))  # on the boundary


def test_radial_tube_sides():
    plus = RadialTube(Point(0.0, 0.0), Point(1.0, 0.0), 0.1, "plus")
    minus = RadialTube(Point(0.0, 0.0), Point(1.0, 0.0), 0.1, "minus")
    assert plus.contains((2.0, 0.0))
    assert not plus.contains((0.5, 0.0))
    assert minus.contains((0.5, 0.0))
    assert not minus.contains((2.0, 0.0))


@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(0.05, 0.8),
)
def test_radial_tube_sides_disjoint_and_miss_circle(px, py, r):
    plus = RadialTube(Point(0.0, 0.0), Point(1.0, 0.0), r, "plus")
    minus = RadialTube(Point(0.0, 0.0), Point(1.0, 0.0), r, "minus")
    p = (px, py)
    assert not (plus.contains(p) and minus.contains(p))
    on_circle = (1.0 * math.cos(px), 1.0 * math.sin(px))
    assert not plus.contains(on_circle)
    assert not minus.contains(on_circle)


def test_parallel_tube_mask():
    tube = ParallelTube(Point(0.5, 0.0), 0.1, "plus")
    pts = np.array([[0.55, 1.0], [0.55, -1.0], [0.7, 1.0]])
    assert tube.mask(pts).tolist() == [True, False, False]


# ---------------------------------------------------------------------------
# arc_diam
# ---------------------------------------------------------------------------


def test_arc_diam_known_values():
    x = (0.0, 0.0)
    assert arc_diam(x, [(1.0, 0.0)]) == 0.0
    assert arc_diam(x, [(1.0, 0.0), (-1.0, 0.0)]) == pytest.approx(math.pi)
    assert arc_diam(x, [(1.0, 0.0), (0.0, 1.0)]) == pytest.approx(math.pi / 2)
    assert arc_diam((1.0, 0.0), [(1.0, 0.0), (2.0, 0.0)]) == pytest.approx(
        2 * math.pi
    )


@given(
    st.lists(st.tuples(finite_coord, finite_coord), min_size=2, max_size=12),
    st.integers(1, 11),
)
def test_arc_diam_monotone_in_points(pts, k):
    x = (60.0, 60.0)  # outside the sampling box
    sub = pts[: max(1, min(k, len(pts) - 1))]
    assert arc_diam(x, sub) <= arc_diam(x, pts) + 1e-12


@given(
    st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=10),
    st.floats(-math.pi, math.pi),
    st.floats(0.1, 10.0),
)
def test_arc_diam_rotation_and_scale_invariant(pts, rot, scale):
    x = np.array([60.0, 60.0])
    p = np.asarray(pts, dtype=float)
    base = arc_diam(x, p)
    c, s = math.cos(rot), math.sin(rot)
    rel = (p - x) * scale
    rotated = np.column_stack(
        [rel[:, 0] * c - rel[:, 1] * s, rel[:, 0] * s + rel[:, 1] * c]
    )
    assert arc_diam(x, x + rotated) == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# angle_ratio and its two-sided bound
# ---------------------------------------------------------------------------


def test_angle_ratio_values():
    assert angle_ratio((1.0, 0.0), (0.1, 0.0)) == pytest.approx(1.0)
    assert angle_ratio((1.0, 0.0), (0.0, 0.1)) == pytest.approx(0.99 / 1.01)
    assert angle_ratio((1.0, 0.0), (0.0, 0.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        angle_ratio((0.5, 0.5), (0.5, 0.5))
    with pytest.raises(ValueError):
        angle_ratio((0.5, 0.5), (-0.5, -0.5))


def test_min_angle_slope_and_upper_bound():
    pts = np.array([[1.0, 0.5], [2.0, 0.0]])
    assert min_angle_slope((1.0, 0.0), pts) == pytest.approx(0.0)
    assert angle_ratio_upper(0.1, 0.5, 1.0) == pytest.approx(
        1.0 - (9.0 / 17.0) * 0.05**2
    )


def test_check_angle_ratio_bounds_rejects_bad_configs():
    pts = np.array([[0.5, 0.1]])
    with pytest.raises(ValueError):
        check_angle_ratio_bounds((0.3, 0.0), pts, 0.4, 1.0)  # |a| > d-/2
    with pytest.raises(ValueError):
        check_angle_ratio_bounds((0.1, 0.0), pts, 0.6, 1.0)  # p inside d-
    with pytest.raises(ValueError):
        check_angle_ratio_bounds((0.1, 0.0), np.array([[0.0, 0.5]]), 0.4, 1.0)


@given(
    st.floats(0.1, 0.99),
    st.floats(1.05, 4.0),
    st.floats(0.01, 0.99),
    st.floats(-math.pi, math.pi),
    st.lists(st.tuples(st.floats(0.001, 0.999), st.floats(-0.77, 0.77)),
             min_size=1, max_size=6),
)
def test_angle_ratio_bound_random_configs(d_minus, ratio, a_frac, phi, raw):
    d_plus = d_minus * ratio
    a_norm = a_frac * d_minus / 2.0
    a = (a_norm * math.cos(phi), a_norm * math.sin(phi))
    pts = []
    for r_frac, dpsi in raw:
        r = d_minus + r_frac * (d_plus - d_minus) + 1e-9
        psi = phi + dpsi
        pts.append((r * math.cos(psi), r * math.sin(psi)))
    assert check_angle_ratio_bounds(a, np.asarray(pts), d_minus, d_plus)


# ---------------------------------------------------------------------------
# intercone bound
# ---------------------------------------------------------------------------


def test_intercone_bound_values():
    assert intercone_bound((1.0, 0.0), 0.5, 0.5) == pytest.approx(-0.5)
    assert intercone_bound((0.0, 2.0), 0.1, 0.3) == pytest.approx(-0.5)
    assert intercone_bound((1.0, 0.0), 1e-9, 1.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        intercone_bound((0.0, 0.0), 0.5, 0.5)
    with pytest.raises(ValueError):
        intercone_bound((1.0, 0.0), -0.1, 0.5)


def test_intercone_holds_validates_u():
    p = (1.0, 0.0)
    assert intercone_holds(p, 0.5, 0.5, (2.0, 0.5))
    with pytest.raises(ValueError):
        intercone_holds(p, 0.5, 0.5, (-1.0, 0.0))  # behind the vertex
    with pytest.raises(ValueError):
        intercone_holds(p, 0.5, 2.0, (0.99, 0.0))  # inside the reverse cone


@given(
    st.floats(0.1, 10.0),
    st.floats(-math.pi, math.pi),
    st.floats(0.05, 2.0),
    st.floats(0.05, 2.0),
    st.floats(1e-3, 3.0),
    st.floats(-0.999, 0.999),
)
def test_intercone_random_configs(pn, ang, sigma, tau, t_frac, c_frac):
    p = np.array([pn * math.cos(ang), pn * math.sin(ang)])
    phat = p / pn
    perp_v = np.array([-phat[1], phat[0]])
    t = pn * t_frac
    u = t * phat + c_frac * sigma * t * perp_v
    w = u - p
    along_b = -float(w @ phat)
    cross_b = abs(float(w @ perp_v))
    if along_b > 0 and cross_b < tau * along_b * (1 + 1e-6):
        return  # landed in the reverse cone; not a valid sample
    assert intercone_holds(p, sigma, tau, u)


# ---------------------------------------------------------------------------
# log-polar chart
# ---------------------------------------------------------------------------


def test_log_polar_values():
    assert log_polar((0.0, 0.0), (1.0, 0.0)) == pytest.approx((1.0, 0.0))
    r, th = log_polar((0.0, 0.0), (0.0, 2.0))
    assert (r, th) == pytest.approx((2.0, math.pi / 2))
    with pytest.raises(ValueError):
        log_polar((1.0, 1.0), (1.0, 1.0))


@given(finite_coord, finite_coord, finite_coord, finite_coord)
def test_log_polar_round_trip(x1, x2, u1, u2):
    if math.hypot(u1 - x1, u2 - x2) < 1e-6:
        return
    r, th = log_polar((x1, x2), (u1, u2))
    back = log_polar_inverse((x1, x2), r, th)
    assert back == pytest.approx((u1, u2), abs=1e-9)


# ---------------------------------------------------------------------------
# ray hits
# ---------------------------------------------------------------------------


def test_ray_segment_hit_examples():
    seg = Segment(Point(1.0, -1.0), Point(1.0, 1.0))
    assert ray_segment_hit((2.0, 0.0), math.pi, seg) == pytest.approx(1.0)
    assert ray_segment_hit((2.0, 0.0), math.pi / 2, seg) is None
    assert ray_segment_hit((2.0, 0.0), 0.0, seg) is None


def test_ray_hits_grazing_collinear_nearest_endpoint():
    # Ray along the segment's own line: the near endpoint is the hit.
    seg = Segment(Point(1.0, 0.0), Point(0.0, 0.0))
    t = ray_segment_hit((2.0, 0.0), math.pi, seg)
    assert t == pytest.approx(1.0)


def test_ray_endpoint_hits_count():
    seg = Segment(Point(1.0, 0.0), Point(1.0, 2.0))
    t = ray_segment_hit((0.0, 0.0), 0.0, seg)
    assert t == pytest.approx(1.0)


def test_hit_t_elementwise_matches_scalar(rng):
    segs = rng.uniform(-2, 2, size=(64, 4))
    ox, oy = 3.0, -2.5
    theta = rng.uniform(0, 2 * math.pi)
    dx, dy = math.cos(theta), math.sin(theta)
    ts = hit_t_elementwise(
        ox, oy, dx, dy, segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    )
    for row, t in zip(segs, ts):
        if row[:2].tolist() == row[2:].tolist():
            continue
        scalar = ray_segment_hit(
            (ox, oy), theta, Segment(Point(*row[:2]), Point(*row[2:]))
        )
        if math.isinf(t):
            assert scalar is None
        else:
            assert scalar == pytest.approx(t)


# ---------------------------------------------------------------------------
# distances and diameter
# ---------------------------------------------------------------------------


def test_point_segments_dist():
    segs = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    d = point_segments_dist((0.5, 0.25), segs)
    assert d == pytest.approx([0.25, 0.75])


def test_diameter_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert diameter(pts) == pytest.approx(math.sqrt(2.0))


def _diameter_cases(kind: str, seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, size=(n, 2)) * 10.0 ** rng.integers(-9, 7)
    if kind == "collinear":
        # Integer points on one line, so collinearity is exact.
        base = rng.integers(-9, 10, size=2)
        step = rng.integers(-5, 6, size=2)
        return (base + rng.integers(-50, 51, size=n)[:, None] * step).astype(float)
    if kind == "duplicated":
        pool = rng.uniform(-1.0, 1.0, size=(max(n // 4, 1), 2))
        return pool[rng.integers(0, pool.shape[0], size=n)]
    # near_edge: the unit square's corners, points on its edges, and points
    # one ulp inside or outside an edge.
    t = rng.integers(1, 64, size=n) / 64.0
    side = rng.integers(0, 4, size=n)
    off = rng.choice([-np.inf, 0.0, np.inf], size=n)
    across = np.where(side % 2 == 0, side // 2, 1 - (side - 1) // 2).astype(float)
    across = np.where(off == 0.0, across, np.nextafter(across, off))
    edge = np.where((side % 2 == 0)[:, None],
                    np.column_stack([t, across]), np.column_stack([across, t]))
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return np.vstack([corners, edge])


@given(kind=st.sampled_from(["random", "collinear", "duplicated", "near_edge"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
def test_diameter_equals_brute_force(kind, seed, n):
    pts = _diameter_cases(kind, seed, n)
    d = pts[:, None, :] - pts[None, :, :]
    assert diameter(pts) == float(np.sqrt(np.max(np.sum(d * d, axis=2))))


def _exact_hull_vertices(pts: np.ndarray) -> set:
    """Strict hull vertices by a monotone chain in exact rationals."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in pts})
    if len(pts) <= 2:
        return set(pts)

    def chain(seq):
        hull = []
        for q in seq:
            while len(hull) >= 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (q[1] - oy) - (ay - oy) * (q[0] - ox) > 0:
                    break
                hull.pop()
            hull.append(q)
        return hull[:-1]

    return set(chain(pts) + chain(pts[::-1]))


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=5)
def test_octagon_filter_drops_no_exact_hull_vertex(seed):
    # Points rounded onto the edges of a random quadrilateral lie within an
    # ulp of them, some just outside, so the rounding error of the
    # orientation decides whether they look inside.
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(4, 2))
    a = base[rng.integers(0, 4, size=150)]
    b = base[rng.integers(0, 4, size=150)]
    pts = np.vstack([base, a + rng.random((150, 1)) * (b - a)])
    dropped = {(Fraction(x), Fraction(y)) for x, y in pts[_octagon_interior(pts)]}
    assert not dropped & _exact_hull_vertices(pts)


def test_octagon_filter_keeps_the_hull():
    pts = koch_generalized(1.5, 7).vertices()
    inside = _octagon_interior(pts)
    assert np.count_nonzero(~inside) < pts.shape[0] // 10
    assert np.array_equal(_convex_hull(pts[~inside]), _convex_hull(pts))
