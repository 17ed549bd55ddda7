"""Geometry primitives: angular measurements, cones, the ray-hit kernel."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracvis import geom
from fracvis.fractals import koch_generalized, polyline
from fracvis.geom import (
    EPS_GEOM,
    Annulus,
    Cone,
    Point,
    _convex_hull,
    _octagon_interior,
    angle_ratio_upper,
    arc_diam,
    check_angle_ratio_bounds,
    diameter,
    hit_t_elementwise,
    intercone_bound,
    intercone_holds,
    min_angle_slope,
    point_segments_dist,
)

finite_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Basic types
# ---------------------------------------------------------------------------


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)


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
# The two-sided angle-ratio bound
# ---------------------------------------------------------------------------


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
# ray hits
# ---------------------------------------------------------------------------


def _hit_t(origin, theta, seg):
    """hit_t_elementwise for one ray against one segment row."""
    ts = hit_t_elementwise(origin[0], origin[1], math.cos(theta),
                           math.sin(theta), *np.array(seg, dtype=float)[:, None])
    return float(ts[0])


def test_ray_hits_grazing_collinear_nearest_endpoint():
    # Ray along the segment's own line: the near endpoint beyond the origin
    # is the hit, from outside the segment and from on its line inside it.
    assert _hit_t((2.0, 0.0), math.pi, (1.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert _hit_t((2.0, 0.0), math.pi, (0.0, 0.0, 1.0, 0.0)) == pytest.approx(1.0)
    assert _hit_t((0.5, 0.0), 0.0, (0.0, 0.0, 1.0, 0.0)) == pytest.approx(0.5)


def test_ray_endpoint_hits_count():
    assert _hit_t((0.0, 0.0), 0.0, (1.0, 0.0, 1.0, 2.0)) == 1.0
    assert _hit_t((0.0, 0.0), 0.0, (1.0, -2.0, 1.0, 0.0)) == 1.0


def test_ray_miss_gives_inf():
    seg = (1.0, -1.0, 1.0, 1.0)
    assert _hit_t((2.0, 0.0), math.pi, seg) == pytest.approx(1.0)
    assert _hit_t((2.0, 0.0), math.pi / 2, seg) == math.inf  # parallel, off line
    assert _hit_t((2.0, 0.0), 0.0, seg) == math.inf  # segment behind the ray
    assert _hit_t((0.0, 0.0), math.pi / 2, (1.0, 1.0, 2.0, 1.0)) == math.inf
    # Collinear but wholly behind the origin.
    assert _hit_t((2.0, 0.0), 0.0, (0.0, 0.0, 1.0, 0.0)) == math.inf


def test_ray_hit_at_origin_is_discarded():
    # A segment through the origin is hit at t = 0, which is not a hit.
    assert _hit_t((0.0, 0.0), 0.0, (0.0, -1.0, 0.0, 1.0)) == math.inf
    # Just past EPS_GEOM the hit counts; at or below it, it does not.
    tiny = 10.0 * EPS_GEOM
    assert _hit_t((0.0, 0.0), 0.0, (tiny, -1.0, tiny, 1.0)) == pytest.approx(tiny)
    at = 0.5 * EPS_GEOM
    assert _hit_t((0.0, 0.0), 0.0, (at, -1.0, at, 1.0)) == math.inf
    # A grazing segment starting at the origin reports its far endpoint.
    assert _hit_t((0.0, 0.0), 0.0, (0.0, 0.0, 1.0, 0.0)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# distances and diameter
# ---------------------------------------------------------------------------


def test_point_segments_dist():
    segs = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    d = point_segments_dist((0.5, 0.25), segs)
    assert d == pytest.approx([0.25, 0.75])


def test_segment_boxes_and_box_dists():
    segs = np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 4))
    edges = np.array([0, 7, 8, 25, 40])
    boxes = geom.segment_boxes(segs, edges)
    for box, a, b in zip(boxes, edges[:-1], edges[1:]):
        xs, ys = segs[a:b, 0::2], segs[a:b, 1::2]
        assert box.tolist() == [xs.min(), ys.min(), xs.max(), ys.max()]
    p = np.array([0.3, -0.2])
    near, far = geom.box_dists(p, boxes)
    for box, lo, hi in zip(boxes, near, far):
        corners = np.array([[box[i], box[j]] for i in (0, 2) for j in (1, 3)])
        assert hi == pytest.approx(np.hypot(*(corners - p).T).max())
        inside = box[0] <= p[0] <= box[2] and box[1] <= p[1] <= box[3]
        gap = np.clip(p, box[0:2], box[2:4]) - p
        assert lo == (0.0 if inside else pytest.approx(np.hypot(*gap)))


def test_nearest_dist_allows_for_the_rounded_nearest_point():
    # point_segments_dist forms this segment's end as a + (b - a), which
    # rounds past its box: the distance it computes is 9.95e-15, the box's
    # near distance 1.02e-14.
    segs = np.array([[-65.59699772239185, 0.004285874142666124,
                      -7.191799421970612e-05, 0.09245593760613734]])
    p = (-7.19179942108037e-05, 0.09245593760614225)
    edges = np.array([0, 1])
    boxes = geom.segment_boxes(segs, edges)
    dist = float(point_segments_dist(p, segs)[0])
    assert dist < geom.box_dists(p, boxes)[0][0]
    assert geom.nearest_dist(p, segs, edges, boxes, dist) == dist


@given(seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-9, 1.0, 1e6]),
       shift=st.sampled_from([0.0, 1e3, 1e9]),
       block=st.sampled_from([1, 3, 16]))
def test_nearest_dist_finds_the_least_distance(seed, scale, shift, block):
    # p sits on, or a rounding away from, a segment far from the origin,
    # where the distances point_segments_dist computes are least exact.
    rng = np.random.default_rng(seed)
    segs = shift + scale * rng.uniform(-1.0, 1.0, size=(50, 4))
    a, b = segs[rng.integers(50)].reshape(2, 2)
    p = a + rng.uniform(0.0, 1.0) * (b - a) + scale * rng.normal(size=2) * 1e-14
    dist = float(point_segments_dist(p, segs).min())
    edges = np.append(np.arange(0, 50, block), 50)
    boxes = geom.segment_boxes(segs, edges)
    assert geom.nearest_dist(p, segs, edges, boxes, dist) == dist
    assert geom.nearest_dist(p, segs, edges, boxes, 0.5 * dist) > 0.5 * dist or not dist


def test_diameter_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert diameter(pts) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("k", [-700, 600])
def test_diameter_is_exact_at_any_scale(k):
    # Unscaled squares underflow to 0 at 2**-700 and overflow at 2**600.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diameter(pts * 2.0**k) == diameter(pts) * 2.0**k


def test_diameter_of_a_huge_gap_is_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert polyline([(0.0, 0.0), (1.0, 0.0), (1e200, 1.0)]).diam == 1e200


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
@example(kind="duplicated", seed=0, n=2)  # two equal points: the octagon keeps none
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


# ---------------------------------------------------------------------------
# The sorted-window pair search
# ---------------------------------------------------------------------------


@given(keys=st.lists(st.integers(0, 8), min_size=0, max_size=60),
       data=st.data(), chunk=st.sampled_from([1, 300, geom._CHUNK]))
def test_window_pairs_yield_each_pair_once_in_order(keys, data, chunk):
    # Few distinct keys make ties; reach falls below, at and above keys.
    keys = np.array(keys, dtype=float)
    offsets = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0, 9.0]),
                                 min_size=keys.size, max_size=keys.size))
    reach = keys + np.array(offsets)
    order = np.argsort(keys, kind="stable")
    want = [(order[p], order[q]) for p in range(keys.size)
            for q in range(p + 1, keys.size) if keys[order[q]] <= reach[order[p]]]
    with mock.patch.object(geom, "_CHUNK", chunk):
        blocks = list(geom._window_pairs(keys, reach))
    got = [pair for a, b in blocks for pair in zip(a.tolist(), b.tolist())]
    assert got == [(int(a), int(b)) for a, b in want]
    # Each block holds at most _CHUNK pairs, or one item's pairs.
    for a, _ in blocks:
        assert a.size <= chunk or np.unique(a).size == 1
