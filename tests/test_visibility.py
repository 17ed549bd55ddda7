"""First-hit ray casting, visible-set extraction, and the crossing cache."""

import json
import math

import numpy as np
import pytest

from fracvis.fractals import (
    cantor_cross,
    circle,
    from_segments,
    polyline,
)
from fracvis.geom import arc_diam, point_segments_dist
from fracvis.visibility import (
    SegmentIndex,
    first_hit,
    first_hit_batch,
    read_visible_set,
    sample_visible,
    visible_oracle,
    visible_set,
    visible_set_to_json,
    write_visible_set,
)


def pieces_array(vs) -> np.ndarray:
    return np.array([[*p.start, *p.end] for p in vs.pieces]).reshape(-1, 4)


# ---------------------------------------------------------------------------
# first_hit
# ---------------------------------------------------------------------------


def test_first_hit_circle_front():
    c = circle((0.0, 0.0), 1.0, 4096)
    hit = first_hit(c, (2.0, 0.0), math.pi)
    assert hit is not None
    assert hit.t == pytest.approx(1.0, abs=1e-3)
    assert hit.point[0] == pytest.approx(1.0, abs=1e-3)


def test_first_hit_miss(circle_1024):
    assert first_hit(circle_1024, (2.0, 0.0), 0.0) is None


def test_first_hit_vertical_barrier():
    wall = polyline([(0.0, 1.0), (0.0, -1.0)])
    hit = first_hit(wall, (2.0, 0.0), math.pi)
    assert hit.t == pytest.approx(2.0)
    assert hit.segment_index == 0
    assert hit.point == pytest.approx([0.0, 0.0])


def test_first_hit_endpoint_tie_takes_lower_segment_index():
    # two segments share the vertex (1, 0); a ray through it must pick seg 0
    v = polyline([(1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    hit = first_hit(v, (0.0, 0.0), 0.0)
    assert hit.point == pytest.approx([1.0, 0.0])
    assert hit.segment_index == 0


def test_first_hit_batch_matches_scalar(koch5):
    x = (0.5, -2.0)
    thetas = np.linspace(0.0, 2 * math.pi, 97, endpoint=False)
    ts, segs = first_hit_batch(koch5, x, thetas)
    for i, th in enumerate(thetas):
        got = first_hit(koch5, x, float(th))
        if got is None:
            assert not np.isfinite(ts[i])
        else:
            assert ts[i] == pytest.approx(got.t)
            assert segs[i] == got.segment_index


def test_first_hit_rejects_viewpoint_on_curve(unit_segment):
    with pytest.raises(ValueError, match="viewpoint lies on the curve"):
        first_hit(unit_segment, (0.5, 0.0), 0.0)


def test_first_hit_rejects_point_cloud():
    cc = cantor_cross(1 / 3, 2)
    with pytest.raises(ValueError, match="segment set"):
        first_hit(cc, (5.0, 5.0), math.pi)


# ---------------------------------------------------------------------------
# visible_set
# ---------------------------------------------------------------------------


def test_visible_set_single_segment_fully_visible(unit_segment):
    vs = visible_set(unit_segment, (0.5, 1.0))
    assert vs.total_length == pytest.approx(1.0, abs=1e-9)
    assert len(vs.pieces) >= 1
    assert (vs.viewpoint.x, vs.viewpoint.y) == (0.5, 1.0)
    assert vs.viewpoint.dist_to_set == pytest.approx(1.0)


def test_visible_set_square_from_below_sees_only_bottom(square):
    # the bottom edge spans the whole silhouette, hiding everything else
    vs = visible_set(square, (0.5, -3.0))
    arr = pieces_array(vs)
    assert float(np.abs(arr[:, [1, 3]]).max()) < 1e-9
    assert vs.total_length == pytest.approx(1.0, abs=1e-9)


def test_visible_set_square_diagonal_sees_two_edges(square):
    # from a diagonal viewpoint the bottom and left edges are fully visible
    vs = visible_set(square, (-2.0, -2.0))
    assert vs.total_length == pytest.approx(2.0, abs=1e-9)
    # only the bottom (0) and left (3) edges contribute pieces
    assert {p.segment_index for p in vs.pieces} == {0, 3}


def test_visible_set_circle_arc_length():
    c = circle((0.0, 0.0), 1.0, 4096)
    vs = visible_set(c, (2.0, 0.0))
    # from distance 2, exactly a third of the circle is visible
    assert vs.total_length == pytest.approx(2 * math.pi / 3, rel=5e-3)


def test_visible_set_angular_coverage_matches_arc_diam(koch5):
    x = (0.5, -1.5)
    vs = visible_set(koch5, x)
    arr = pieces_array(vs)
    pts = np.vstack([arr[:, 0:2], arr[:, 2:4]])
    assert vs.angular_coverage == pytest.approx(arc_diam(x, pts), abs=1e-6)


def test_visible_pieces_lie_on_parent_segments(koch5):
    vs = visible_set(koch5, (0.3, 2.0))
    for p in vs.pieces:
        parent = koch5.segments[p.segment_index : p.segment_index + 1]
        assert float(point_segments_dist(np.asarray(p.start), parent).min()) < 1e-9
        assert float(point_segments_dist(np.asarray(p.end), parent).min()) < 1e-9


def test_visible_set_monotone_under_occlusion():
    # adding a blocking wall in front can only shrink what is seen
    base = circle((0.0, 0.0), 1.0, 512)
    wall = np.array([[1.5, -0.6, 1.5, 0.6]])
    blocked = from_segments(
        np.vstack([base.segments, wall]), kind="soup", connected=False
    )
    x = (3.0, 0.0)
    vs_free = visible_set(base, x)
    arr = pieces_array(visible_set(blocked, x))
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
    with pytest.raises(ValueError):
        visible_set(unit_segment, (0.25, 0.0))
    with pytest.raises(ValueError):
        visible_set(cantor_cross(1 / 3, 1), (4.0, 4.0))


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


@pytest.mark.parametrize("x", [(4.0, 0.1), (0.2, 3.0), (-3.0, -0.5)])
def test_crossing_cache_on_self_crossing_soup(x):
    # an X crossing at the origin, plus a short wall that hides part of it
    soup = from_segments(
        [[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [2.0, -0.3, 2.0, 0.3]]
    )
    index = SegmentIndex(soup)
    assert index.crossings() == pytest.approx(np.array([[0.0, 0.0]]))
    cached = visible_set(soup, x, index)
    fresh = visible_set(soup, x)
    assert cached.pieces == fresh.pieces
    assert cached.angular_coverage == fresh.angular_coverage
    pts, _ = sample_visible(cached, 64)
    eps = soup.min_seg_len / 100.0
    for p in pts:
        assert visible_oracle(soup, x, tuple(p), eps=eps)


def test_visible_pieces_subsets_of_parents_level7(koch7):
    vs = visible_set(koch7, (0.5, -0.8))
    arr = pieces_array(vs)
    ends = np.vstack([arr[:, 0:2], arr[:, 2:4]])
    dists = np.array(
        [float(point_segments_dist(e, koch7.segments).min()) for e in ends]
    )
    assert float(dists.max()) < 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_visible_set_json_round_trip(tmp_path, square):
    vs = visible_set(square, (0.5, -2.0))
    path = tmp_path / "vs.json"
    write_visible_set(vs, path)
    back = read_visible_set(path)
    assert pieces_array(back).tobytes() == pieces_array(vs).tobytes()
    assert back.total_length == vs.total_length
    assert back.angular_coverage == vs.angular_coverage
    assert (back.viewpoint.x, back.viewpoint.y) == (vs.viewpoint.x, vs.viewpoint.y)
    assert back.viewpoint.dist_to_set == pytest.approx(vs.viewpoint.dist_to_set)


def test_visible_set_json_keys(square):
    doc = json.loads(visible_set_to_json(visible_set(square, (0.5, -2.0))))
    assert sorted(doc) == [
        "angular_coverage",
        "pieces",
        "total_length",
        "viewpoint",
    ]
    assert all(len(row) == 5 for row in doc["pieces"])
