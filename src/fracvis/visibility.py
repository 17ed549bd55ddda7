"""First-hit visibility from a planar viewpoint.

The visible part of a segment curve from a viewpoint x is the set of curve
points u whose open chord (x, u) misses the curve.  ``visible_set`` computes
it exactly with an angular sweep: the directions around x are partitioned at
event angles (segment endpoints as seen from x, plus any pairwise segment
crossing points), and on each interval between consecutive events the first
hit stays on a single segment, so one probe ray per interval determines the
winner and the interval's boundary rays cut the exact visible sub-segment.
Correctness does not depend on any resolution parameter.

Each probe's winner is a min-reduction over its candidates (the segments
whose angular span contains it): the least hit parameter t, then, among
candidates hitting at exactly that t, the lowest segment index.  So ties
where a ray meets two segments at the same distance (shared endpoints)
resolve to the lower segment index everywhere, which keeps every output
byte-reproducible, and the result does not depend on candidate order.
Candidates are expanded (by ``geom._ragged_ranges``) in contiguous probe
ranges of at most ``geom._CHUNK`` (probe, segment) pairs, and crossing
search takes its pairs from ``geom._window_pairs`` in blocks of the same
size, so memory stays bounded as curves get finer.

``visible_oracle`` is the independent brute-force check: it casts the
chord to a curve point against every segment in one
``geom.hit_t_elementwise`` call.  :class:`SegmentIndex` caches a curve's
segment crossings so that many viewpoints share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractals import CurveApprox, DiscreteMeasure, _fnum, points_at_arclength
from .geom import (
    EPS_GEOM,
    TWO_PI,
    _blocks,
    _ragged_ranges,
    _window_pairs,
    _xy,
    hit_t_elementwise,
    point_segments_dist,
)


@dataclass(frozen=True)
class Viewpoint:
    x: float
    y: float
    dist_to_set: float

    def __post_init__(self):
        if not self.dist_to_set > 0.0:
            raise ValueError("viewpoint must be off the curve")


@dataclass(frozen=True)
class VisiblePiece:
    """A maximal visible sub-segment, lying on its parent segment."""

    segment_index: int
    start: tuple[float, float]
    end: tuple[float, float]

    @property
    def length(self) -> float:
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])


@dataclass
class VisibleSet:
    viewpoint: Viewpoint
    pieces: list[VisiblePiece]
    total_length: float
    angular_coverage: float


def _reject_bad_viewpoint(curve: CurveApprox, o: np.ndarray) -> float:
    if curve.is_point_cloud or np.any(curve.lengths() <= 0.0):
        raise ValueError("visibility requires a segment set")
    d = float(point_segments_dist(o, curve.segments).min())
    if d <= EPS_GEOM:
        raise ValueError("viewpoint lies on the curve")
    return d


# ---------------------------------------------------------------------------
# Segment crossings (event points for the sweep)
# ---------------------------------------------------------------------------


def find_segment_crossings(curve: CurveApprox) -> np.ndarray:
    """Intersection points of non-adjacent segment pairs, as an (k, 2) array.

    Pairs sharing an endpoint (chain neighbours) are skipped; collinear
    overlaps contribute nothing because their switch angles are already
    endpoint events.  Candidate pairs are the x-interval overlaps listed by
    ``geom._window_pairs`` (keys xmin, reach xmax) whose y-intervals also
    overlap, so the cost is near-linear for curves without heavy box
    overlap.  The points come out in the window's pair order, the same for
    any block size.
    """
    segs = curve.segments
    if segs.shape[0] < 2:
        return np.empty((0, 2))
    xmin = np.minimum(segs[:, 0], segs[:, 2])
    xmax = np.maximum(segs[:, 0], segs[:, 2])
    ymin = np.minimum(segs[:, 1], segs[:, 3])
    ymax = np.maximum(segs[:, 1], segs[:, 3])
    parts = []
    for i, j in _window_pairs(xmin, xmax):
        keep = ~((ymin[i] > ymax[j]) | (ymin[j] > ymax[i]))
        parts.append(_pair_crossings(segs, i[keep], j[keep]))
    return np.concatenate(parts)


def _pair_crossings(segs: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Crossing points of segment pairs (i, j) that share no endpoint."""
    ai = segs[i, 0:2]
    bi = segs[i, 2:4]
    aj = segs[j, 0:2]
    bj = segs[j, 2:4]
    shared = np.zeros(i.size, dtype=bool)
    for p, q in ((ai, aj), (ai, bj), (bi, aj), (bi, bj)):
        shared |= np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1]) <= EPS_GEOM
    i = i[~shared]
    j = j[~shared]

    ai = segs[i, 0:2]
    ei = segs[i, 2:4] - ai
    aj = segs[j, 0:2]
    ej = segs[j, 2:4] - aj
    w = aj - ai
    denom = ei[:, 0] * ej[:, 1] - ei[:, 1] * ej[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[:, 0] * ej[:, 1] - w[:, 1] * ej[:, 0]) / denom
        u = (w[:, 0] * ei[:, 1] - w[:, 1] * ei[:, 0]) / denom
    li = np.hypot(ei[:, 0], ei[:, 1])
    lj = np.hypot(ej[:, 0], ej[:, 1])
    slack_i = EPS_GEOM / li
    slack_j = EPS_GEOM / lj
    good = (
        (np.abs(denom) > 0.0)
        & (t >= -slack_i) & (t <= 1.0 + slack_i)
        & (u >= -slack_j) & (u <= 1.0 + slack_j)
    )
    return ai[good] + t[good, None] * ei[good]


class SegmentIndex:
    """A curve's segment crossings, computed once for many viewpoints.

    The crossings are event angles for every ``visible_set`` call on the
    curve, so a sweep builds one index and passes it to each call instead
    of recomputing them per viewpoint.  ``n_segments`` records the curve's
    segment count, so ``visible_set`` can refuse an index built from a
    curve of another size.
    """

    def __init__(self, curve: CurveApprox):
        if curve.is_point_cloud:
            raise ValueError("visibility requires a segment set")
        self.n_segments = int(curve.segments.shape[0])
        self._crossings = find_segment_crossings(curve)

    def crossings(self) -> np.ndarray:
        return self._crossings


# ---------------------------------------------------------------------------
# Exact angular sweep
# ---------------------------------------------------------------------------


def _first_hits(starts, stops, q_id, cos_p, sin_p, ex, ey, num) -> np.ndarray:
    """Segment first hit by each probe ray, or -1 where the ray misses.

    Probe k's candidates are the spans i with starts[i] <= k < stops[i],
    each naming segment q_id[i]; a ray at (cos_p[k], sin_p[k]) meets the
    line of segment s at t = num[s] / (cos_p[k] ey[s] - sin_p[k] ex[s]).
    The winner is a min-reduction: least t, then the lowest segment index
    among candidates at exactly that t.  Misses (t = inf) never win.
    Candidates are expanded in contiguous probe ranges of at most geom._CHUNK
    (or one probe's worth, if more); each range holds all of its probes'
    candidates, so the ranges' reductions are independent and their sizes
    bound the memory.  A span joins the live set at the range holding its
    start and leaves it after the range holding its stop, so each range
    touches only the spans that reach into it.
    """
    m = cos_p.size
    n = ex.size
    per_probe = np.cumsum(np.bincount(starts, minlength=m + 1)
                          - np.bincount(stops, minlength=m + 1))[:m]
    best_t = np.full(m, np.inf)
    best_seg = np.full(m, n, dtype=np.int64)
    by_start = np.argsort(starts)
    sorted_starts = starts[by_start]
    live = np.empty(0, dtype=np.int64)
    for k0, k1 in _blocks(per_probe):
        i0, i1 = np.searchsorted(sorted_starts, [k0, k1])
        live = np.concatenate([live, by_start[i0:i1]])
        lo_k = np.maximum(starts[live], k0)
        hi_k = np.minimum(stops[live], k1)
        cand_k = _ragged_ranges(lo_k, hi_k)
        cand_seg = np.repeat(q_id[live], hi_k - lo_k)
        # A probe strictly inside a span always meets its segment, so no
        # extent check is needed here.  A zero denominator gives +-inf or
        # nan, which the t > EPS_GEOM test turns into a miss like t <= 0.
        denom = cos_p[cand_k] * ey[cand_seg]
        denom -= sin_p[cand_k] * ex[cand_seg]
        t = num[cand_seg]
        with np.errstate(divide="ignore", invalid="ignore"):
            t /= denom
        t[~(t > EPS_GEOM)] = np.inf
        np.minimum.at(best_t, cand_k, t)
        # Ties at t = inf only touch uncovered probes, whose best_seg is unused.
        tie = t == best_t[cand_k]
        np.minimum.at(best_seg, cand_k[tie], cand_seg[tie])
        live = live[stops[live] > k1]
    return np.where(np.isfinite(best_t), best_seg, -1)


def visible_set(curve: CurveApprox, x,
                index: SegmentIndex | None = None) -> VisibleSet:
    """Exact visible part of the curve from x.

    Output pieces are maximal sub-segments, angularly disjoint from x, each
    lying on its parent segment; they are listed by parent segment index.
    ``angular_coverage`` is the measure of directions whose ray meets the
    curve.  x must be strictly off the curve; point clouds are rejected.
    ``index``, when given, must have been built from this curve; it only
    saves recomputing the crossings.  An index built from a curve with a
    different segment count raises ValueError.
    """
    o = _xy(x)
    dist = _reject_bad_viewpoint(curve, o)
    segs = curve.segments
    n = segs.shape[0]
    if index is not None and index.n_segments != n:
        raise ValueError(f"segment index built from a curve of {index.n_segments} "
                         f"segments; this curve has {n}")

    pa = np.mod(np.arctan2(segs[:, 1] - o[1], segs[:, 0] - o[0]), TWO_PI)
    pb = np.mod(np.arctan2(segs[:, 3] - o[1], segs[:, 2] - o[0]), TWO_PI)
    width = np.mod(pb - pa, TWO_PI)
    flip = width > math.pi
    lo = np.where(flip, pb, pa)
    w = np.where(flip, TWO_PI - width, width)

    if index is not None:
        crossings = index.crossings()
    else:
        crossings = find_segment_crossings(curve)
    ev = [pa, pb]
    if crossings.shape[0]:
        ev.append(np.mod(np.arctan2(crossings[:, 1] - o[1], crossings[:, 0] - o[0]),
                         TWO_PI))
    events = np.unique(np.concatenate(ev))
    m = events.size
    vp = Viewpoint(float(o[0]), float(o[1]), dist)
    if m < 2:
        # Degenerate: every endpoint in one direction; no 1-d visible piece.
        return VisibleSet(vp, [], 0.0, 0.0)

    e_lo = events
    e_hi = np.concatenate([events[1:], [events[0] + TWO_PI]])
    widths = e_hi - e_lo
    probes = 0.5 * (e_lo + e_hi)  # ascending, in [events[0], events[0] + 2*pi)

    # Map segment spans into the frame starting at events[0] and split the
    # ones that wrap past the end of the frame.
    base = events[0]
    lo_f = base + np.mod(lo - base, TWO_PI)
    hi_f = lo_f + w
    seg_ids = np.arange(n, dtype=np.int64)
    wrap = hi_f > base + TWO_PI
    q_lo = np.concatenate([lo_f, np.full(np.count_nonzero(wrap), base)])
    q_hi = np.concatenate([hi_f, hi_f[wrap] - TWO_PI])
    q_id = np.concatenate([seg_ids, seg_ids[wrap]])

    starts = np.searchsorted(probes, q_lo, side="right")
    stops = np.maximum(np.searchsorted(probes, q_hi, side="left"), starts)

    ang = np.mod(probes, TWO_PI)
    cos_p = np.cos(ang)
    sin_p = np.sin(ang)
    # Per segment e = b - a and num = (a - o) x e, so a ray at angle theta
    # meets the segment's line at t = num / (cos(theta) ey - sin(theta) ex).
    ex = segs[:, 2] - segs[:, 0]
    ey = segs[:, 3] - segs[:, 1]
    num = (segs[:, 0] - o[0]) * ey - (segs[:, 1] - o[1]) * ex
    # Each probe's winner: least t, then lowest segment index at that t,
    # found in probe ranges of at most geom._CHUNK candidates.
    winner = _first_hits(starts, stops, q_id, cos_p, sin_p, ex, ey, num)
    covered = winner >= 0

    angular_coverage = float(np.sum(widths[covered]))

    if not np.any(covered):
        return VisibleSet(vp, [], 0.0, angular_coverage)

    # Boundary hit points of each covered interval on its winning segment.
    kc = np.nonzero(covered)[0]
    sc = winner[kc]

    def line_hit(theta):
        c = np.cos(np.mod(theta, TWO_PI))
        s = np.sin(np.mod(theta, TWO_PI))
        t = num[sc] / (c * ey[sc] - s * ex[sc])
        return o[0] + t * c, o[1] + t * s

    px_lo, py_lo = line_hit(e_lo[kc])
    px_hi, py_hi = line_hit(e_hi[kc])

    # Merge circular runs of consecutive covered intervals with one winner.
    # Outside a break, position p continues the run of p - 1; positions
    # before the first break can only continue the last run across the
    # wrap (then kc[0] = 0 and kc[-1] = m - 1).
    prev = (kc - 1) % m
    breaks = (~covered[prev]) | (winner[prev] != sc) | (widths[kc] <= 0.0)
    if not np.any(breaks):
        breaks[0] = True  # fully surrounded by one segment cannot happen; guard
    run_starts = np.nonzero(breaks)[0]
    run_ends = np.append(run_starts[1:], kc.size) - 1
    if not breaks[0]:
        run_ends[-1] = run_starts[0] - 1

    pieces = [
        VisiblePiece(int(sc[r0]), (float(px_lo[r0]), float(py_lo[r0])),
                     (float(px_hi[r1]), float(py_hi[r1])))
        for r0, r1 in zip(run_starts, run_ends)
    ]
    pieces = [p for p in pieces if p.length > EPS_GEOM]
    pieces.sort(key=lambda p: (p.segment_index, p.start, p.end))
    total_length = float(np.sum([p.length for p in pieces])) if pieces else 0.0
    return VisibleSet(vp, pieces, total_length, angular_coverage)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def visible_oracle(curve: CurveApprox, x, u, eps: float | None = None) -> bool:
    """True iff u (a point on the curve) is visible from x, by brute force.

    Tests whether the open chord from x to u, shortened by eps at the far
    end, meets any segment.  eps defaults to min_seg_len / 100.  Raises if
    u is farther than eps from every segment.
    """
    o = _xy(x)
    uu = _xy(u)
    if eps is None:
        eps = curve.min_seg_len / 100.0
    _reject_bad_viewpoint(curve, o)
    if float(point_segments_dist(uu, curve.segments).min()) > eps:
        raise ValueError("u is not on the curve (within eps)")
    length = float(np.hypot(*(uu - o)))
    if length <= eps:
        raise ValueError("u is too close to the viewpoint")
    dx = (uu[0] - o[0]) / length
    dy = (uu[1] - o[1]) / length
    t = hit_t_elementwise(o[0], o[1], dx, dy,
                          curve.segments[:, 0], curve.segments[:, 1],
                          curve.segments[:, 2], curve.segments[:, 3])
    return not bool(np.any(t < length - eps))


# ---------------------------------------------------------------------------
# Sampling the visible set
# ---------------------------------------------------------------------------


def sample_visible(vs: VisibleSet, n: int):
    """n arclength-uniform points on the visible pieces, weights 1/n.

    Points sit at arclengths (i + 1/2)/n of the total visible length
    (midpoint rule), so the sample is fully determined by the visible set.
    Returns (points, DiscreteMeasure).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not vs.pieces:
        raise ValueError("empty visible set has nothing to sample")
    pts = points_at_arclength(
        np.array([p.start for p in vs.pieces]),
        np.array([p.end for p in vs.pieces]),
        np.array([p.length for p in vs.pieces]),
        (np.arange(n) + 0.5) / n,
    )
    return pts, DiscreteMeasure(pts, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# Visible-set JSON
# ---------------------------------------------------------------------------


def visible_set_to_json(vs: VisibleSet) -> str:
    rows = ",".join(
        f"[{p.segment_index},{_fnum(p.start[0])},{_fnum(p.start[1])},"
        f"{_fnum(p.end[0])},{_fnum(p.end[1])}]"
        for p in vs.pieces
    )
    return (
        "{"
        f"\"viewpoint\":[{_fnum(vs.viewpoint.x)},{_fnum(vs.viewpoint.y)}],"
        f"\"pieces\":[{rows}],"
        f"\"total_length\":{_fnum(vs.total_length)},"
        f"\"angular_coverage\":{_fnum(vs.angular_coverage)}"
        "}"
    )
