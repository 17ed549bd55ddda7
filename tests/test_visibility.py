"""Visible-set extraction, the brute-force oracle, and the crossing cache."""

import hashlib
import json
import math
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fracvis import geom, visibility
from fracvis.fractals import (
    cantor_cross,
    circle,
    from_segments,
    koch_generalized,
    polyline,
    quasicircle,
)
from fracvis.harness import ViewpointPlan, plan_viewpoints
from fracvis.geom import EPS_GEOM, arc_diam, point_segments_dist
from fracvis.visibility import (
    SegmentIndex,
    find_segment_crossings,
    sample_visible,
    visible_oracle,
    visible_set,
    visible_set_to_json,
)


def assert_same_pieces(got, want):
    assert got.segments.tobytes() == want.segments.tobytes()
    assert got.parents.tolist() == want.parents.tolist()


# ---------------------------------------------------------------------------
# visible_set
# ---------------------------------------------------------------------------


def test_visible_set_single_segment_fully_visible(unit_segment):
    vs = visible_set(unit_segment, (0.5, 1.0))
    assert vs.total_length == pytest.approx(1.0, abs=1e-9)
    assert len(vs.segments) >= 1
    assert (vs.viewpoint.x, vs.viewpoint.y) == (0.5, 1.0)
    assert vs.viewpoint.dist_to_set == pytest.approx(1.0)


def test_visible_set_square_from_below_sees_only_bottom(square):
    # the bottom edge spans the whole silhouette, hiding everything else
    vs = visible_set(square, (0.5, -3.0))
    arr = vs.segments
    assert float(np.abs(arr[:, [1, 3]]).max()) < 1e-9
    assert vs.total_length == pytest.approx(1.0, abs=1e-9)


def test_visible_set_square_diagonal_sees_two_edges(square):
    # from a diagonal viewpoint the bottom and left edges are fully visible
    vs = visible_set(square, (-2.0, -2.0))
    assert vs.total_length == pytest.approx(2.0, abs=1e-9)
    # only the bottom (0) and left (3) edges contribute pieces
    assert set(vs.parents.tolist()) == {0, 3}


def test_visible_set_circle_arc_length():
    c = circle((0.0, 0.0), 1.0, 4096)
    vs = visible_set(c, (2.0, 0.0))
    # from distance 2, exactly a third of the circle is visible
    assert vs.total_length == pytest.approx(2 * math.pi / 3, rel=5e-3)


def test_visible_set_angular_coverage_matches_arc_diam(koch5):
    x = (0.5, -1.5)
    vs = visible_set(koch5, x)
    arr = vs.segments
    pts = np.vstack([arr[:, 0:2], arr[:, 2:4]])
    assert vs.angular_coverage == pytest.approx(arc_diam(x, pts), abs=1e-6)


def test_visible_pieces_lie_on_parent_segments(koch5):
    vs = visible_set(koch5, (0.3, 2.0))
    for i, row in zip(vs.parents, vs.segments):
        parent = koch5.segments[i : i + 1]
        assert float(point_segments_dist(row[0:2], parent).min()) < 1e-9
        assert float(point_segments_dist(row[2:4], parent).min()) < 1e-9


def test_total_length_sums_math_hypot_lengths_in_piece_order(koch5):
    """total_length is np.sum, in piece order, of math.hypot piece lengths.

    np.hypot and math.hypot can differ in the last bit: they did for 3,865
    of 2M random pairs on an x86-64 host with numpy 2.4, and for 3 of the
    346 pieces seen here.  So a visible set kept as columns must keep
    math.hypot's rounding, or say that the sweep's digests change.
    """
    vs = visible_set(koch5, (0.5, 1.2))
    lengths = [math.hypot(x1 - x0, y1 - y0)
               for x0, y0, x1, y1 in vs.segments.tolist()]
    assert vs.total_length.hex() == float(np.sum(lengths)).hex()
    assert [v.hex() for v in vs.lengths.tolist()] == [v.hex() for v in lengths]


def test_visible_set_monotone_under_occlusion():
    # adding a blocking wall in front can only shrink what is seen
    base = circle((0.0, 0.0), 1.0, 512)
    wall = np.array([[1.5, -0.6, 1.5, 0.6]])
    blocked = from_segments(np.vstack([base.segments, wall]))
    x = (3.0, 0.0)
    vs_free = visible_set(base, x)
    arr = visible_set(blocked, x).segments
    on_circle = arr[np.abs(np.hypot(arr[:, 0], arr[:, 1]) - 1.0) < 1e-6]
    len_blocked = float(
        np.sum(
            np.hypot(
                on_circle[:, 2] - on_circle[:, 0], on_circle[:, 3] - on_circle[:, 1]
            )
        )
    )
    assert len_blocked < vs_free.total_length - 0.1


def test_visible_set_rejects_bad_viewpoints(unit_segment):
    with pytest.raises(ValueError, match="viewpoint lies on the curve"):
        visible_set(unit_segment, (0.25, 0.0))
    with pytest.raises(ValueError, match="segment set"):
        visible_set(cantor_cross(1 / 3, 1), (4.0, 4.0))


def test_first_hit_rejects_viewpoint_on_curve(unit_segment):
    # The first-hit sweep refuses a viewpoint on the curve before casting.
    with pytest.raises(ValueError, match="viewpoint lies on the curve"):
        visible_set(unit_segment, (0.5, 0.0))


def test_first_hit_rejects_point_cloud():
    cc = cantor_cross(1 / 3, 2)
    with pytest.raises(ValueError, match="segment set"):
        visible_set(cc, (5.0, 5.0))
    with pytest.raises(ValueError, match="segment set"):
        SegmentIndex(cc)



def test_zero_length_segment_is_refused_without_a_warning():
    # Its box meets the diagonal's, so the crossing search tests the pair.
    curve = from_segments([[0, 0, 1, 1], [0.5, 0.2, 0.5, 0.2]])
    with pytest.raises(ValueError, match="segment set"):
        visible_set(curve, (3.0, -1.0))
    assert SegmentIndex(curve).crossings().shape == (0, 2)

# ---------------------------------------------------------------------------
# visible_oracle
# ---------------------------------------------------------------------------


def test_visible_oracle_circle_points():
    c = circle((0.0, 0.0), 1.0, 1024)
    near = c.segments[0, 0:2]
    far = c.segments[c.segments.shape[0] // 2, 0:2]
    x = (2.0, 0.0)
    assert visible_oracle(c, x, tuple(near))
    assert not visible_oracle(c, x, tuple(far))


def test_visible_oracle_rejects_off_curve_point(circle_1024):
    with pytest.raises(ValueError, match="not on the curve"):
        visible_oracle(circle_1024, (2.0, 0.0), (5.0, 5.0))


def test_oracle_agrees_with_visible_set(koch5):
    x = (0.5, 1.25)
    vs = visible_set(koch5, x)
    pts, _ = sample_visible(vs, 64)
    eps = koch5.min_seg_len / 100.0
    for p in pts:
        assert visible_oracle(koch5, x, tuple(p), eps=eps)


# ---------------------------------------------------------------------------
# sample_visible
# ---------------------------------------------------------------------------


def test_sample_visible_midpoint(unit_segment):
    vs = visible_set(unit_segment, (0.5, 1.0))
    pts, mu = sample_visible(vs, 1)
    assert mu.weights == pytest.approx([1.0])
    assert pts[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert pts[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_sample_visible_weights_uniform(koch5):
    vs = visible_set(koch5, (0.5, 2.0))
    pts, mu = sample_visible(vs, 37)
    assert mu.weights == pytest.approx(np.full(37, 1 / 37))
    assert pts.shape == (37, 2)


def test_sample_visible_rejects_bad_n(unit_segment):
    vs = visible_set(unit_segment, (0.5, 1.0))
    with pytest.raises(ValueError):
        sample_visible(vs, 0)


# ---------------------------------------------------------------------------
# crossing cache
# ---------------------------------------------------------------------------


def _self_crossing_soup():
    # an X crossing at the origin, plus a short wall that hides part of it
    return from_segments(
        [[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [2.0, -0.3, 2.0, 0.3]]
    )


@pytest.mark.parametrize("x", [(4.0, 0.1), (0.2, 3.0), (-3.0, -0.5)])
def test_crossing_cache_on_self_crossing_soup(x):
    soup = _self_crossing_soup()
    index = SegmentIndex(soup)
    assert index.crossings() == pytest.approx(np.array([[0.0, 0.0]]))
    cached = visible_set(soup, x, index)
    fresh = visible_set(soup, x)
    assert_same_pieces(cached, fresh)
    assert cached.angular_coverage == fresh.angular_coverage
    pts, _ = sample_visible(cached, 64)
    eps = soup.min_seg_len / 100.0
    for p in pts:
        assert visible_oracle(soup, x, tuple(p), eps=eps)


def test_visible_set_rejects_index_of_another_curve(koch5, square):
    with pytest.raises(ValueError, match="segment index built from a curve of 4"):
        visible_set(koch5, (0.5, -1.5), SegmentIndex(square))


def test_visible_set_rejects_index_of_same_size_curve():
    # Same segment count, other segments: the index's vertex table and
    # crossings belong to the other curve.
    with pytest.raises(ValueError, match="segment index built from a curve of 1024"):
        visible_set(koch_generalized(1.5, 5), (0.5, -1.5),
                    SegmentIndex(koch_generalized(1.3, 5)))


def _facing_edges(curve, o):
    # For a regular polygon centred at the origin, each edge's midpoint
    # points along its outward normal.
    mid = 0.5 * (curve.segments[:, 0:2] + curve.segments[:, 2:4])
    return np.flatnonzero(np.einsum("ij,ij->i", np.asarray(o) - mid, mid) > 0.0)


def test_distant_viewpoint_sees_exactly_the_facing_edges():
    # Ranking by float span frames put 158 hidden far-side edges among
    # the 2,206 parents seen from here.
    c = circle((0.0, 0.0), 1.0, 4096)
    o = (-1e8, 1.0)
    assert visible_set(c, o).parents.tolist() == _facing_edges(c, o).tolist()


@pytest.mark.parametrize("radius", [1e2, 1e4, 1e6])
@pytest.mark.parametrize("n", [3, 7, 64, 1000, 4096])
def test_far_viewpoints_see_exactly_the_facing_edges(n, radius):
    # A facing edge of a convex polygon is wholly visible and the others
    # are hidden, so the parents are the facing edges, one piece each.
    c = circle((0.0, 0.0), 1.0, n)
    for theta in (0.3, 2.147, 4.4):
        o = (radius * math.cos(theta), radius * math.sin(theta))
        assert visible_set(c, o).parents.tolist() == _facing_edges(c, o).tolist(), theta


def test_visible_pieces_subsets_of_parents_level7(koch7):
    vs = visible_set(koch7, (0.5, -0.8))
    arr = vs.segments
    ends = np.vstack([arr[:, 0:2], arr[:, 2:4]])
    dists = np.array(
        [float(point_segments_dist(e, koch7.segments).min()) for e in ends]
    )
    assert float(dists.max()) < 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_visible_set_json_round_trip(koch5):
    # repr's shortest digits give back every float exactly.
    vs = visible_set(koch5, (0.5, -0.7))
    doc = json.loads(visible_set_to_json(vs))
    rows = np.array(doc["pieces"], dtype=float).reshape(-1, 5)
    assert rows[:, 0].tolist() == vs.parents.tolist()
    assert rows[:, 1:].tobytes() == vs.segments.tobytes()
    assert doc["total_length"] == vs.total_length
    assert doc["angular_coverage"] == vs.angular_coverage
    assert doc["viewpoint"] == [vs.viewpoint.x, vs.viewpoint.y]


def test_visible_set_json_keeps_floats_and_the_sign_of_zero():
    # %.17g text wrote this set's viewpoint as [-0,0] and its total length
    # as 2, which JSON reads as integers.
    vs = visible_set(polyline([(-1, 1), (1, 1)]), (-0.0, 0.0))
    doc = json.loads(visible_set_to_json(vs))
    want = [vs.viewpoint.x, vs.viewpoint.y, vs.total_length, vs.angular_coverage,
            *vs.segments.ravel().tolist()]
    got = [*doc["viewpoint"], doc["total_length"], doc["angular_coverage"],
           *(v for row in doc["pieces"] for v in row[1:])]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert math.copysign(1.0, doc["viewpoint"][0]) == -1.0
    assert [row[0] for row in doc["pieces"]] == vs.parents.tolist() == [0]


def test_visible_set_json_keys(square):
    doc = json.loads(visible_set_to_json(visible_set(square, (0.5, -2.0))))
    assert sorted(doc) == [
        "angular_coverage",
        "pieces",
        "total_length",
        "viewpoint",
    ]
    assert all(len(row) == 5 for row in doc["pieces"])


# ---------------------------------------------------------------------------
# winner rule, culling and chunking
# ---------------------------------------------------------------------------


def _lexsort_first_hits(starts, stops, q_id, cos_p, sin_p, ex, ey, num, lb, ub):
    """The sort-based winner rule: every candidate at once, then a lexsort.

    It ignores the bounds lb and ub, so it is the unculled reference.
    """
    cand_k = np.array([k for a, b in zip(starts, stops) for k in range(a, b)],
                      dtype=np.int64)
    cand_seg = np.repeat(q_id, stops - starts)
    winner = np.full(cos_p.size, -1, dtype=np.int64)
    if cand_k.size == 0:
        return winner
    denom = cos_p[cand_k] * ey[cand_seg] - sin_p[cand_k] * ex[cand_seg]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num[cand_seg] / denom
    t = np.where((denom != 0.0) & (t > EPS_GEOM), t, np.inf)
    order = np.lexsort((cand_seg, t, cand_k))
    ks = cand_k[order]
    first = np.ones(ks.size, dtype=bool)
    first[1:] = ks[1:] != ks[:-1]
    finite = np.isfinite(t[order][first])
    winner[ks[first][finite]] = cand_seg[order][first][finite]
    return winner


_grid_point = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def _grid_curves(draw):
    # Coarse integer coordinates make shared endpoints, collinear overlaps,
    # crossings and rays through several vertices common.
    if draw(st.booleans()):
        pts = draw(st.lists(_grid_point, min_size=2, max_size=7))
        assume(all(p != q for p, q in zip(pts, pts[1:])))
        return polyline(pts)
    segs = draw(st.lists(st.tuples(_grid_point, _grid_point), min_size=1, max_size=6))
    assume(all(a != b for a, b in segs))
    return from_segments([[*a, *b] for a, b in segs])


@given(curve=_grid_curves(),
       x=st.tuples(st.integers(-4, 12), st.integers(-4, 12)),
       chunk=st.sampled_from([1, 4]))
def test_min_reduction_matches_lexsort_winners(curve, x, chunk):
    # A small _CHUNK splits even these curves' candidates into many blocks.
    x = (x[0] / 2.0, x[1] / 2.0)
    try:
        with mock.patch.object(geom, "_CHUNK", chunk):
            got = visible_set(curve, x)
    except ValueError:
        assume(False)
    with mock.patch.object(visibility, "_first_hits", _lexsort_first_hits):
        want = visible_set(curve, x)
    assert_same_pieces(got, want)
    assert got.angular_coverage == want.angular_coverage


def _no_block_cull(index, o):
    return None


def test_culling_skips_most_candidates_at_level8():
    # Koch d=1.5 L8 from the four 2x2 grid viewpoints: of the (probe,
    # segment) candidates of the sweep without the block pass, 1.0-1.3% get
    # their t evaluated with it and the span cull, 4.3-4.9% with the span
    # cull alone.
    curve = koch_generalized(1.5, 8)
    index = SegmentIndex(curve)
    seen = {"evaluated": 0, "spanned": 0}
    ragged = visibility._ragged_ranges
    first_hits = visibility._first_hits

    def counting_ranges(lo, hi):
        out = ragged(lo, hi)
        seen["evaluated"] += out.size
        return out

    def counting_first_hits(starts, stops, *rest):
        seen["spanned"] += int((stops - starts).sum())
        with mock.patch.object(visibility, "_ragged_ranges", counting_ranges):
            return first_hits(starts, stops, *rest)

    for x in plan_viewpoints(curve, ViewpointPlan(mode="grid", count=4), 0):
        with mock.patch.object(visibility, "_first_hits", counting_first_hits):
            seen.update(evaluated=0, spanned=0)
            with mock.patch.object(visibility, "_block_cull", _no_block_cull):
                visible_set(curve, x, index)
            unculled = seen["spanned"]
            seen.update(evaluated=0, spanned=0)
            visible_set(curve, x, index)
        assert unculled > 3_000_000
        assert seen["evaluated"] <= 0.07 * unculled, tuple(x)


def test_range_max_matches_brute_force():
    values = np.random.default_rng(3).normal(size=37)
    table = visibility._range_max_table(values)
    lo, hi = np.triu_indices(values.size)
    want = [values[a:b + 1].max() for a, b in zip(lo, hi)]
    assert visibility._range_max(table, lo, hi).tolist() == want


@pytest.mark.parametrize("m, n_ranges", [(1, 0), (1, 1), (5, 0), (37, 60), (64, 200)])
def test_range_min_paint_matches_brute_force(m, n_ranges):
    rng = np.random.default_rng(m + n_ranges)
    lo = rng.integers(0, m, size=n_ranges)
    hi = np.minimum(lo + rng.integers(0, m, size=n_ranges), m - 1)
    # The first range has length 1 and the second covers all m slots; small
    # integer values make ties common.
    lo[:2], hi[:2] = [m - 1, 0][:n_ranges], [m - 1, m - 1][:n_ranges]
    values = rng.integers(0, 8, size=n_ranges).astype(float)
    values[rng.random(n_ranges) < 0.2] = np.inf
    want = [min((v for a, b, v in zip(lo, hi, values) if a <= k <= b), default=np.inf)
            for k in range(m)]
    assert visibility._range_min_paint(m, lo, hi, values).tolist() == want


_BOUND_ERROR = "a first hit lies beyond its cull bound"


def test_first_hits_refuses_a_bound_below_a_hit(koch5):
    cull_bound = visibility._cull_bound

    def halved(*args):
        lb, ub = cull_bound(*args)
        return lb, 0.5 * ub

    with mock.patch.object(visibility, "_cull_bound", halved), \
            pytest.raises(ValueError, match=_BOUND_ERROR):
        visible_set(koch5, (0.5, -1.5))


@given(curve=_grid_curves(),
       scale=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6]),
       x=st.tuples(st.integers(-4, 12), st.integers(-4, 12)),
       far=st.sampled_from([1.0, 1e3, 1e6, 1e9]))
# The viewpoint (0, 1e-9) lies on the segment's line, but its two endpoint
# angles differ by rounding, so a ray at a run's end runs along that line.
@example(curve=from_segments([[1, 2, 2, 3]]), scale=1e-9, x=(0, 2), far=1.0)
def test_upper_bound_holds_across_scales_and_distances(curve, scale, x, far):
    # Viewpoints on a half grid around the curve, then pushed out to far
    # times as far from the grid's centre (2, 2).
    curve = from_segments(curve.segments * scale)
    x = tuple(scale * (2.0 + far * (c / 2.0 - 2.0)) for c in x)
    try:
        visible_set(curve, x)
    except ValueError as exc:
        assert _BOUND_ERROR not in str(exc)
        assume(False)


def _crossing_soup():
    rng = np.random.default_rng(7)
    return from_segments(rng.uniform(0.0, 1.0, size=(60, 4)))


@pytest.mark.parametrize("chunk", [1, 300])
def test_chunked_expansion_matches_unchunked(koch5, chunk):
    soups = [_self_crossing_soup(), _crossing_soup()]
    views = [(koch5, (0.5, -1.5)), (koch5, (0.3, 2.0)), (koch5, (-1.0, 0.2)),
             (soups[0], (4.0, 0.1)), (soups[0], (0.2, 3.0)),
             (soups[1], (0.5, 1.7)), (soups[1], (-0.4, 0.3))]
    whole_x = [find_segment_crossings(c) for c in (koch5, *soups)]
    whole_vs = [visible_set(c, x) for c, x in views]
    assert whole_x[2].shape[0] > 100
    with mock.patch.object(geom, "_CHUNK", chunk):
        for c, want in zip((koch5, *soups), whole_x):
            got = find_segment_crossings(c)
            assert got.tobytes() == want.tobytes()
        for (c, x), want in zip(views, whole_vs):
            got = visible_set(c, x)
            assert_same_pieces(got, want)
            assert got.angular_coverage == want.angular_coverage


def _x_window_crossings(segs):
    """The reference: pairs whose x-intervals overlap, by geom._window_pairs,
    kept where their y-intervals overlap too, each oriented by (xmin, index),
    less those with ends within EPS_GEOM, then the crossing test."""
    lo = np.minimum(segs[:, 0:2], segs[:, 2:4])
    hi = np.maximum(segs[:, 0:2], segs[:, 2:4])
    parts = [np.empty((0, 2))]
    for i, j in geom._window_pairs(lo[:, 0], hi[:, 0]):
        keep = ~((lo[i, 1] > hi[j, 1]) | (lo[j, 1] > hi[i, 1]))
        a, b, c, d = segs[i[keep], 0:2], segs[i[keep], 2:4], segs[j[keep], 0:2], segs[j[keep], 2:4]
        shared = np.zeros(len(a), dtype=bool)
        for p, q in ((a, c), (a, d), (b, c), (b, d)):
            shared |= np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1]) <= EPS_GEOM
        a, e, c, f = a[~shared], b[~shared] - a[~shared], c[~shared], d[~shared] - c[~shared]
        w = c - a
        denom = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (w[:, 0] * f[:, 1] - w[:, 1] * f[:, 0]) / denom
            u = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / denom
        slack_i = EPS_GEOM / np.hypot(e[:, 0], e[:, 1])
        slack_j = EPS_GEOM / np.hypot(f[:, 0], f[:, 1])
        good = ((np.abs(denom) > 0.0) & (t >= -slack_i) & (t <= 1.0 + slack_i)
                & (u >= -slack_j) & (u <= 1.0 + slack_j))
        parts.append(a[good] + t[good, None] * e[good])
    return np.concatenate(parts)


def _row_multiset(points):
    return sorted(row.tobytes() for row in points)


def _koch_pair(level):
    # Koch d=1.5 with a copy turned 7 degrees about the mean of its segments'
    # start points: connected, with thousands of crossings.
    segs = koch_generalized(1.5, level).segments
    cx, cy = segs[:, 0:2].mean(axis=0)
    cos, sin = math.cos(math.radians(7.0)), math.sin(math.radians(7.0))
    dx, dy = segs[:, 0::2] - cx, segs[:, 1::2] - cy
    turned = np.column_stack([cx + cos * dx - sin * dy, cy + sin * dx + cos * dy])
    return from_segments(np.vstack([segs, turned[:, [0, 2, 1, 3]]]))


def _shuffled(curve, seed=0):
    segs = curve.segments
    return from_segments(segs[np.random.default_rng(seed).permutation(len(segs))])


def _squares_soup(k=6):
    # Every unit square of a k x k grid as its own 4 edges, so each inner
    # edge appears twice, once each way.
    rows = [[x + a, y + b, x + c, y + d] for x in range(k) for y in range(k)
            for a, b, c, d in ((0, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1), (0, 1, 0, 0))]
    return from_segments(np.array(rows, dtype=float) / 3.0)


def _tied_xmin_soup(n=400):
    # Short segments whose left ends take ten x values, so many crossing
    # pairs tie on xmin and only the index orients them.
    rng = np.random.default_rng(5)
    x0 = rng.integers(0, 10, n) / 10.0
    y0 = rng.uniform(0.0, 1.0, n)
    segs = np.column_stack([x0, y0, x0 + rng.uniform(0.02, 0.1, n),
                            y0 + rng.normal(0.0, 0.05, n)])
    flip = rng.random(n) < 0.5
    segs[flip] = segs[flip][:, [2, 3, 0, 1]]
    return from_segments(segs)


def _walk(n, seed=3):
    # A random walk of n steps: a chain that crosses itself.
    steps = np.random.default_rng(seed).normal(size=(n, 2))
    return polyline(np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]))


_EQUIVALENCE_CURVES = {
    "koch-L6": lambda: koch_generalized(1.5, 6),
    "koch-pair-L6": lambda: _koch_pair(6),
    "koch-pair-L7": lambda: _koch_pair(7),
    "quasicircle-L10": lambda: quasicircle(3, level=10),
    "circle-4096": lambda: circle((0.0, 0.0), 1.0, 4096),
    "crossing-soup": _crossing_soup,
    "shuffled-koch-L6": lambda: _shuffled(koch_generalized(1.5, 6)),
    "squares-soup": _squares_soup,
    "tied-xmin-soup": _tied_xmin_soup,
    **{f"soup-{n}": (lambda n=n: from_segments(
        np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 4)))) for n in (2, 15, 16, 17, 33)},
    **{f"walk-{n}": (lambda n=n: _walk(n)) for n in (2, 15, 16, 17, 33)},
}


@pytest.mark.parametrize("name", sorted(_EQUIVALENCE_CURVES))
def test_crossings_are_the_x_window_searchs_rows(name):
    curve = _EQUIVALENCE_CURVES[name]()
    got = find_segment_crossings(curve)
    assert got.dtype == np.float64 and got.shape[1] == 2
    assert _row_multiset(got) == _row_multiset(_x_window_crossings(curve.segments))


def test_crossing_rows_are_ordered_by_pair_whatever_the_run_order():
    # Shuffled, the Koch pair's runs are loose, so the search takes them in
    # Morton order; the rows stay the same multiset, in the order of their
    # pairs' segment indices, the same on every call.
    curve = _koch_pair(5)
    want = find_segment_crossings(curve)
    assert want.shape[0] == 365
    shuffled = _shuffled(curve)
    with mock.patch.object(visibility, "_morton_order",
                           side_effect=visibility._morton_order) as morton:
        find_segment_crossings(curve)
        assert morton.call_count == 0
        got = find_segment_crossings(shuffled)
        assert morton.call_count == 1
    assert _row_multiset(got) == _row_multiset(want)
    assert find_segment_crossings(shuffled).tobytes() == got.tobytes()


@st.composite
def _snapped_soups(draw):
    # A coarse grid gives shared endpoints, collinear overlaps and duplicate
    # segments; up to 60 of them span several runs of geom._BLOCK.
    segs = draw(st.lists(st.tuples(_grid_point, _grid_point), min_size=2, max_size=60))
    assume(all(a != b for a, b in segs))
    return from_segments([[*a, *b] for a, b in segs])


@given(curve=_snapped_soups(), chunk=st.sampled_from([1, 7, geom._CHUNK]))
def test_crossings_match_the_x_window_search_on_snapped_soups(curve, chunk):
    with mock.patch.object(geom, "_CHUNK", chunk):
        got = find_segment_crossings(curve)
    assert _row_multiset(got) == _row_multiset(_x_window_crossings(curve.segments))


def _run_pairs_per_run(curve):
    """(yielded, meeting): the run pairs geom._window_pairs yields to one
    crossing search, and those whose run boxes meet, per run."""
    made, pairs = [], []
    runs, window_pairs = visibility._runs, geom._window_pairs

    def recording_runs(box):
        made.append(runs(box))
        return made[-1]

    def recording_pairs(keys, reach):
        for a, b in window_pairs(keys, reach):
            pairs.append((a, b))
            yield a, b

    with mock.patch.object(visibility, "_runs", recording_runs), \
            mock.patch.object(geom, "_window_pairs", recording_pairs):
        find_segment_crossings(curve)
    boxes = made[-1][1]
    meeting = sum(int(visibility._overlap(boxes[:, a], boxes[:, b]).sum()) for a, b in pairs)
    return sum(a.size for a, _ in pairs) / boxes.shape[1], meeting / boxes.shape[1]


@pytest.mark.parametrize("level", [6, 7, 8, 9])
def test_crossing_search_pairs_each_koch_run_with_few_others(level):
    # The run pairs whose boxes meet stay near 1.1 per run as the curve
    # refines, so the segment pairs expanded grow linearly; and every
    # candidate pair of a Koch curve is a pair of chain neighbours, dropped
    # before any crossing test.  The x-window still yields 5.6, 9.3, 15.3
    # and 24.7 run pairs per run at L6-L9, before its y test.
    with mock.patch.object(visibility, "_pair_crossings") as pair_crossings:
        yielded, meeting = _run_pairs_per_run(koch_generalized(1.5, level))
    assert meeting <= 1.5
    assert yielded <= 25.0
    assert pair_crossings.call_count == 0


def test_crossing_search_pairs_soup_runs_in_morton_order():
    # Shuffled, Koch L7 has no chain neighbours left; in Morton order about
    # 3.9 run pairs per run meet.
    assert _run_pairs_per_run(_shuffled(koch_generalized(1.5, 7)))[1] <= 6.0


def test_koch_pair_level7_has_2169_crossings():
    curve = _koch_pair(7)
    assert find_segment_crossings(curve).shape[0] == 2169
    assert _x_window_crossings(curve.segments).shape[0] == 2169


_CULL_VIEWS = [
    # (curve, viewpoints near, inside and far from it)
    (lambda: koch_generalized(math.log(4) / math.log(3), 5),
     [(0.1, -0.01), (0.5, 0.1), (1e6, 1e6)]),
    (lambda: koch_generalized(1.5, 5), [(0.1, -0.01), (0.5, 0.1), (1e6, 1e6)]),
    (lambda: quasicircle(3, level=8), [(1.01, 0.0), (0.0, 0.0), (-1e6, 1e6)]),
    (_crossing_soup, [(-0.05, 0.3), (0.5, 0.5), (1e6, -1e6)]),
]


@pytest.mark.parametrize("make, views", _CULL_VIEWS,
                         ids=["koch-classic-L5", "koch-1.5-L5", "quasicircle-L8",
                              "soup-60"])
def test_culled_sweep_matches_unculled_reference(make, views):
    curve = make()
    index = SegmentIndex(curve)
    with mock.patch.object(visibility, "_first_hits", _lexsort_first_hits):
        want = [visible_set_to_json(visible_set(curve, x, index)) for x in views]
    for chunk in (1, 64, 4096):
        with mock.patch.object(geom, "_CHUNK", chunk):
            got = [visible_set_to_json(visible_set(curve, x, index)) for x in views]
        assert got == want, chunk


def _assert_same_bits(got, want):
    assert_same_pieces(got, want)
    assert got.lengths.tobytes() == want.lengths.tobytes()
    assert got.total_length.hex() == want.total_length.hex()
    assert got.viewpoint.dist_to_set.hex() == want.viewpoint.dist_to_set.hex()
    assert got.angular_coverage.hex() == want.angular_coverage.hex()


@pytest.mark.parametrize("make, views", [
    *_CULL_VIEWS,
    (lambda: koch_generalized(1.5, 6), None),
], ids=["koch-classic-L5", "koch-1.5-L5", "quasicircle-L8", "soup-60", "koch-1.5-L6-ring"])
def test_block_cull_keeps_every_bit(make, views):
    curve = make()
    index = SegmentIndex(curve)
    if views is None:
        views = plan_viewpoints(curve, ViewpointPlan(mode="ring", count=20), 0)
    kept = []
    block_cull = visibility._block_cull

    def recording_cull(index, o):
        ids = block_cull(index, o)
        kept.append(curve.n_segments if ids is None else ids.size)
        return ids

    for x in views:
        with mock.patch.object(visibility, "_block_cull", recording_cull):
            got = visible_set(curve, x, index)
        with mock.patch.object(visibility, "_block_cull", _no_block_cull):
            want = visible_set(curve, x, index)
        _assert_same_bits(got, want)
    # The soup has no blocks; each chain has a view that culls some.
    assert (min(kept) < curve.n_segments) == (index.blocks is not None)


def test_block_cull_keeps_a_run_end_at_the_first_event():
    # From here a run ends at the first event angle.  Its end ray, formed as
    # that angle plus 2 pi and reduced, moved with the events the block pass
    # removes, so the culled and unculled pieces differed in the last bit;
    # cut on the event angle itself, they agree.
    curve = koch_generalized(1.5, 6)
    x = (0.4958730916612479, 0.10514512393890708)
    index = SegmentIndex(curve)
    got = visible_set_to_json(visible_set(curve, x, index))
    with mock.patch.object(visibility, "_block_cull", _no_block_cull):
        want = visible_set_to_json(visible_set(curve, x, index))
    assert got == want


def test_all_loose_soup_runs_no_block_pass():
    # The even segments, then the odd: no segment ends where the next starts.
    curve = koch_generalized(1.5, 5)
    soup = from_segments(np.vstack([curve.segments[0::2], curve.segments[1::2]]))
    assert visibility.loose_segments(soup.segments).size == 1024
    index = SegmentIndex(soup)
    assert index.blocks is None
    with mock.patch.object(visibility, "_spans", wraps=visibility._spans) as spy:
        visible_set(soup, (0.5, -0.7), index)
    assert spy.call_count == 1


def _oracle_refusals(curve, x, vs):
    """How many of 16 samples of vs the oracle finds hidden or off the curve."""
    if not len(vs.segments):
        return 0
    refused = 0
    for p in sample_visible(vs, 16)[0]:
        try:
            refused += not visible_oracle(curve, x, tuple(p))
        except ValueError:
            refused += 1
    return refused


@given(curve=_grid_curves(),
       scale=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6]),
       x=st.tuples(st.integers(-4, 12), st.integers(-4, 12)),
       far=st.sampled_from([1.0, 1e3, 1e6, 1e9]),
       block=st.sampled_from([1, 2]))
def test_block_cull_agrees_with_the_unculled_sweep(curve, scale, x, far, block):
    # Blocks of one or two segments let these small curves cull.  Over
    # 10,402 such draws the two sweeps agreed in every bit of
    # angular_coverage, and of total_length but once (by 1.9e-16
    # diameters); in one the parents of a collinear overlap differed.  The
    # total_length tolerance allows about 20 times the largest piece end
    # move seen on Koch, quasicircle and circle views, 2.2e-15 diameters,
    # per piece.
    curve = from_segments(curve.segments * scale)
    x = tuple(scale * (2.0 + far * (c / 2.0 - 2.0)) for c in x)
    with mock.patch.object(geom, "_BLOCK", block):
        index = SegmentIndex(curve)

    def sweep():
        try:
            return visible_set(curve, x, index)
        except ValueError as exc:
            return str(exc)

    got = sweep()
    with mock.patch.object(visibility, "_block_cull", _no_block_cull):
        want = sweep()
    if isinstance(want, str):
        assert got == want
        return
    assert got.viewpoint.dist_to_set.hex() == want.viewpoint.dist_to_set.hex()
    tol = 4e-14 * curve.diam * max(len(want.segments), 1)
    assert got.total_length == pytest.approx(want.total_length, rel=0, abs=tol)
    assert got.angular_coverage == pytest.approx(want.angular_coverage, rel=0, abs=1e-13)
    # Far views can defeat the oracle's absolute tolerances (ROADMAP item 4);
    # the cull must add no refusal.
    assert _oracle_refusals(curve, x, got) <= _oracle_refusals(curve, x, want)


def _collinear_pair():
    # Both segments lie on the x-axis, one on each side of the origin.
    return from_segments([[1.0, 0.0, 2.0, 0.0], [-2.0, 0.0, -1.0, 0.0]])


_DIGEST_VIEWS = dict(zip(["koch-classic-L5", "koch-1.5-L5", "quasicircle-L8",
                          "soup-60"], _CULL_VIEWS))
_DIGEST_VIEWS["soup-x"] = (_self_crossing_soup, [(2.05, 0.0), (0.4, 0.0), (-1e6, 1e6)])
_DIGEST_VIEWS["no-pieces"] = (_collinear_pair, [(0.0, 0.0)])

def _geometry_digest(vs) -> str:
    """sha256 of a visible set's parents, segments and lengths bytes, then of
    the bits of its total_length, angular_coverage and dist_to_set."""
    h = hashlib.sha256()
    h.update(np.asarray(vs.parents, "<i8").tobytes())
    h.update(np.asarray(vs.segments, "<f8").tobytes())
    h.update(np.asarray(vs.lengths, "<f8").tobytes())
    h.update(struct.pack("<3d", vs.total_length, vs.angular_coverage,
                         vs.viewpoint.dist_to_set))
    return h.hexdigest()


# _geometry_digest of each view of _DIGEST_VIEWS, in order.  Recorded from
# the sets whose visible_set_to_json text still had the digests pinned at
# cc01cb7, so they keep that lineage without depending on the JSON writer.
_DIGESTS = {
    "koch-classic-L5": [
        "03780682891bf2de818ba74bf5f34c956bc91d93f71426515522a0bec0574275",
        "570b2dd91d1a3f3868b798f4c7da47f7af22347a86e31bcf0f70d33a149b0834",
        "cfadd474cfe372c6b25a6895ca4808347b11fa938a8e937ac97d716d03a6883a",
    ],
    "koch-1.5-L5": [
        "dc5eccbcea7f01e823aaf6acf7d9e432b6ea00b82ee29ea131514d05d9afd4eb",
        "d043ee168f7d395c830ad9b88d7f14f554fc9f960828c279d3fa592e7b754e61",
        "2b0319ae8b622ece939ad6ac542a78c0d75e26d3d990b22a64378c7747110370",
    ],
    "quasicircle-L8": [
        "f73f42b8205182e418c8ee27b0a4fb5a3fb08bbd568f903ac71226a062557b57",
        "b5b73598dc4902b61bcf67b90cd26c100ed869c2f80e7087ae7381ab64091c22",
        "b3633f9fd3e272780248913ba5f1b70a84e72b65eb7c40d53a7501a9c15fc9a2",
    ],
    "soup-60": [
        "28cdacf61091ad9afeb5963e49f928bf7190fa5ac3b00c74d1b43ab4d351a265",
        "afac612fab242267b8f4b2ea1d902327bf6a2c55bb4c4db97486b48fc0fb1318",
        "6dc35b16a9e5131c6c5e0d8b1890fc2eae6572708eb2a5f640e6924191231750",
    ],
    "soup-x": [
        "224c5c6122befba62af7cdf32b0467a29bb2545d7670aa11434572130a595bad",
        # Its text digest was re-recorded when run ends came to be cut on the
        # event angle itself, not on the first event plus 2 pi, reduced: the
        # wall piece's top end moved from y = 0.29999999999999988 to
        # 0.29999999999999999.
        "a19139a746ceccbcbd9120c200fce532c3929801ccef5885ddb47bd190d290df",
        "fe4dea7b91c4494213744b1a30b60494442c70425f9bb8fc351247569c1bfe73",
    ],
    "no-pieces": [
        "04ae04134c8318578c932394683055fea108f3f586ff5b055613752c5f03e6f5",
    ],
}


@pytest.mark.parametrize("name", list(_DIGEST_VIEWS))
def test_visible_set_json_keeps_the_piece_object_digests(name):
    """The column assembly computes the sets the piece-object one computed.

    The sets were first pinned at commit cc01cb7, whose visible_set built
    one VisiblePiece per run and sorted them with a tuple key, by the
    digests of their JSON text, on an x86-64 Linux host (numpy 2.4.6,
    glibc's libm); these digests of the same sets' bytes replaced them when
    that text came to be written by json_text.  Views sit near, inside and
    about 1e6 diameters from each curve; the last has no visible piece.  A
    libm that rounds arctan2, cos or sin otherwise may change them.
    """
    make, views = _DIGEST_VIEWS[name]
    curve = make()
    got = [_geometry_digest(visible_set(curve, x)) for x in views]
    assert got == _DIGESTS[name]


@given(curve=_grid_curves(),
       x=st.one_of(st.tuples(st.integers(-4, 12), st.integers(-4, 12))
                   .map(lambda p: (p[0] / 2.0, p[1] / 2.0)),
                   st.tuples(st.floats(-2.0, 6.0), st.floats(-2.0, 6.0))))
# The two pieces of the left segment come out top first; the sort puts the
# lower one first.
@example(curve=from_segments([[0, 0, 0, 4], [1, 1, 1, 3]]), x=(3.0, 2.0))
# From here rays meet vertices of the Koch curve, cutting runs shorter than
# EPS_GEOM, which the filter drops.
@example(curve=koch_generalized(math.log(4) / math.log(3), 4),
         x=(0.5, math.sqrt(3) / 12))
# A subnormal offset from the line of segment 0 overflows its cull
# conditioning number to inf, which must leave that segment unculled.
@example(curve=from_segments([[0, 0, 0, 1], [0, 1, 4, 3]]),
         x=(2.225073858507203e-309, 5.470852124823491))
def test_visible_set_columns_are_sorted_typed_and_exact(curve, x):
    try:
        vs = visible_set(curve, x)
    except ValueError:
        assume(False)
    k = vs.parents.size
    assert vs.parents.dtype == np.int64
    assert vs.segments.dtype == np.float64 and vs.segments.shape == (k, 4)
    assert vs.lengths.dtype == np.float64 and vs.lengths.shape == (k,)
    rows = [(p, *r) for p, r in zip(vs.parents.tolist(), vs.segments.tolist())]
    assert all(a <= b for a, b in zip(rows, rows[1:]))
    for (x0, y0, x1, y1), length in zip(vs.segments.tolist(), vs.lengths.tolist()):
        assert length.hex() == math.hypot(x1 - x0, y1 - y0).hex()
        assert length > EPS_GEOM
    assert vs.total_length.hex() == float(np.sum(vs.lengths)).hex()
    assert vs.pieces == vs.segments.tolist()


@pytest.mark.parametrize("make, sweeps", [
    (lambda: from_segments([[1.0, 0.0, 2.0, 0.0]]), 0),
    (_collinear_pair, 1),
], ids=["one-event", "no-coverage"])
def test_empty_visible_sets_have_typed_empty_columns(make, sweeps):
    # From the origin, one segment seen end-on gives a single event angle,
    # so visible_set returns before the sweep; two on opposite sides give
    # two events, and the sweep finds no probe covered.
    with mock.patch.object(visibility, "_first_hits",
                           wraps=visibility._first_hits) as spy:
        vs = visible_set(make(), (0.0, 0.0))
    assert spy.call_count == sweeps
    assert vs.segments.shape == (0, 4) and vs.segments.dtype == np.float64
    assert vs.parents.shape == (0,) and vs.parents.dtype == np.int64
    assert vs.lengths.shape == (0,) and vs.lengths.dtype == np.float64
    assert vs.total_length == 0.0 and vs.angular_coverage == 0.0
    assert vs.pieces == []
    with pytest.raises(ValueError, match="empty visible set"):
        sample_visible(vs, 4)
    assert '"pieces":[]' in visible_set_to_json(vs)


def test_blocks_cover_in_order_within_budget():
    counts = np.array([0, 5, 3, 0, 9, 1, 1, 0, 4, 12, 0])
    with mock.patch.object(geom, "_CHUNK", 8):
        blocks = list(geom._blocks(counts))
    assert blocks[0][0] == 0 and blocks[-1][1] == counts.size
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    for i0, i1 in blocks:
        assert i1 > i0
        assert counts[i0:i1].sum() <= 8 or i1 - i0 == 1


# On Linux a child's ru_maxrss starts from its launcher's peak (fork and exec
# carry it over), so under a large test process it reads the launcher's size.
# VmHWM is the peak of the child's own address space.
_MEMORY_PROBE = """
from fracvis.fractals import koch_generalized
from fracvis.harness import ViewpointPlan, plan_viewpoints
from fracvis.visibility import SegmentIndex, visible_set
curve = koch_generalized(1.5, 8)
index = SegmentIndex(curve)
x = plan_viewpoints(curve, ViewpointPlan(mode="grid", count=4), 0)[0]
assert len(visible_set(curve, x, index).segments)
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_level8_visible_set_peak_rss_is_bounded():
    # Expanding all ~3M candidates of this view at once peaked near 480 MB.
    out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], check=True,
                         capture_output=True, text=True, timeout=300)
    peak_mb = int(out.stdout.split()[-1]) / 1024.0
    assert peak_mb <= 300.0
