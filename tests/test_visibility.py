"""Visible-set extraction, the brute-force oracle, and the crossing cache."""

import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
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


def pieces_array(vs) -> np.ndarray:
    return np.array([[*p.start, *p.end] for p in vs.pieces]).reshape(-1, 4)


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


def test_total_length_sums_math_hypot_lengths_in_piece_order(koch5):
    """total_length is np.sum, in piece order, of math.hypot piece lengths.

    np.hypot and math.hypot can differ in the last bit: they did for 3,865
    of 2M random pairs on an x86-64 host with numpy 2.4, and for 3 of the
    346 pieces seen here.  So a visible set kept as columns must keep
    math.hypot's rounding, or say that the sweep's digests change.
    """
    vs = visible_set(koch5, (0.5, 1.2))
    lengths = [math.hypot(p.end[0] - p.start[0], p.end[1] - p.start[1])
               for p in vs.pieces]
    assert vs.total_length.hex() == float(np.sum(lengths)).hex()


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
    assert cached.pieces == fresh.pieces
    assert cached.angular_coverage == fresh.angular_coverage
    pts, _ = sample_visible(cached, 64)
    eps = soup.min_seg_len / 100.0
    for p in pts:
        assert visible_oracle(soup, x, tuple(p), eps=eps)


def test_visible_set_rejects_index_of_another_curve(koch5, square):
    with pytest.raises(ValueError, match="segment index built from a curve of 4"):
        visible_set(koch5, (0.5, -1.5), SegmentIndex(square))


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


def test_visible_set_json_round_trip(koch5):
    # 17 significant digits give back every float exactly.
    vs = visible_set(koch5, (0.5, -0.7))
    doc = json.loads(visible_set_to_json(vs))
    rows = np.array(doc["pieces"], dtype=float).reshape(-1, 5)
    assert rows[:, 0].tolist() == [p.segment_index for p in vs.pieces]
    assert rows[:, 1:].tobytes() == pieces_array(vs).tobytes()
    assert doc["total_length"] == vs.total_length
    assert doc["angular_coverage"] == vs.angular_coverage
    assert doc["viewpoint"] == [vs.viewpoint.x, vs.viewpoint.y]


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


def _lexsort_first_hits(starts, stops, q_id, cos_p, sin_p, ex, ey, num, lb):
    """The sort-based winner rule: every candidate at once, then a lexsort.

    It ignores the culling bound lb, so it is the unculled reference.
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
    # A small _CHUNK splits even these curves into batches, so spans are
    # culled between them.
    x = (x[0] / 2.0, x[1] / 2.0)
    try:
        with mock.patch.object(geom, "_CHUNK", chunk):
            got = visible_set(curve, x)
    except ValueError:
        assume(False)
    with mock.patch.object(visibility, "_first_hits", _lexsort_first_hits):
        want = visible_set(curve, x)
    assert got.pieces == want.pieces
    assert got.angular_coverage == want.angular_coverage


def test_culling_skips_most_candidates_at_level8():
    # Koch d=1.5 L8 from the four 2x2 grid viewpoints: with the cull,
    # 16-23% of the (probe, segment) candidates get their t evaluated;
    # without it, all of them do.
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
        return first_hits(starts, stops, *rest)

    for x in plan_viewpoints(curve, ViewpointPlan(mode="grid", count=4), 0):
        seen.update(evaluated=0, spanned=0)
        with mock.patch.object(visibility, "_ragged_ranges", counting_ranges), \
                mock.patch.object(visibility, "_first_hits", counting_first_hits):
            visible_set(curve, x, index)
        assert seen["spanned"] > 3_000_000
        assert seen["evaluated"] <= 0.25 * seen["spanned"], tuple(x)


def test_range_max_matches_brute_force():
    values = np.random.default_rng(3).normal(size=37)
    table = visibility._range_max_table(values)
    lo, hi = np.triu_indices(values.size)
    want = [values[a:b + 1].max() for a, b in zip(lo, hi)]
    assert visibility._range_max(table, lo, hi).tolist() == want


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
            assert got.pieces == want.pieces
            assert got.angular_coverage == want.angular_coverage


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
assert visible_set(curve, x, index).pieces
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
