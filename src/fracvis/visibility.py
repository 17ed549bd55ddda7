"""First-hit visibility from a planar viewpoint.

The visible part of a segment curve from a viewpoint x is the set of curve
points u whose open chord (x, u) misses the curve.  ``visible_set`` computes
it exactly with an angular sweep: the directions around x are partitioned at
event angles (segment endpoints as seen from x, plus any pairwise segment
crossing points), and on each interval between consecutive events the first
hit stays on a single segment, so one probe ray per interval determines the
winner and the interval's boundary rays cut the exact visible sub-segment.
Correctness does not depend on any resolution parameter.

Ties where a ray meets two segments at the same distance (shared endpoints)
resolve to the lower segment index everywhere, which keeps every output
byte-reproducible.  ``visible_oracle`` is the independent brute-force check,
``first_hit`` casts single rays by brute force, and :class:`SegmentIndex`
caches a curve's segment crossings so that many viewpoints share them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fractals import CurveApprox, DiscreteMeasure, points_at_arclength
from .geom import (
    EPS_GEOM,
    TWO_PI,
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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class HitRecord:
    theta: float
    t: float
    point: tuple[float, float]
    segment_index: int


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


# ---------------------------------------------------------------------------
# Ragged range helper
# ---------------------------------------------------------------------------


def _ragged_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate arange(starts[i], ends[i]) for every i, vectorised."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    group_first = np.cumsum(counts) - counts
    out = np.repeat(starts, counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(group_first, counts)
    )
    return out


def _repeat_ids(ids: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    return np.repeat(ids, ends - starts)


# ---------------------------------------------------------------------------
# Brute-force first hits
# ---------------------------------------------------------------------------


def _lex_update(best_t, best_seg, t, seg):
    # Misses (t = inf) never tie: the sentinel segment index must survive.
    better = (t < best_t) | (np.isfinite(t) & (t == best_t) & (seg < best_seg))
    best_t[better] = t[better]
    best_seg[better] = seg[better]


def first_hit_batch(curve: CurveApprox, x, thetas):
    """First-hit parameters and segment indices for rays from one origin.

    Returns (t, seg) arrays; misses carry t = +inf and seg = n_segments.
    Ties at equal distance go to the lower segment index.
    """
    o = _xy(x)
    th = np.asarray(thetas, dtype=float)
    _reject_bad_viewpoint(curve, o)
    dx = np.cos(th)
    dy = np.sin(th)
    segs = curve.segments
    n = segs.shape[0]
    best_t = np.full(th.size, np.inf)
    best_seg = np.full(th.size, n, dtype=np.int64)
    chunk = max(1, int(4e6 / max(th.size, 1)))
    for s0 in range(0, n, chunk):
        sub = segs[s0 : s0 + chunk]
        t = hit_t_elementwise(
            o[0], o[1], dx[:, None], dy[:, None],
            sub[None, :, 0], sub[None, :, 1], sub[None, :, 2], sub[None, :, 3],
        )
        j = np.argmin(t, axis=1)
        rows = np.arange(th.size)
        _lex_update(best_t, best_seg, t[rows, j], j + s0)
    return best_t, best_seg


def first_hit(curve: CurveApprox, x, theta: float) -> HitRecord | None:
    """First curve point met by the ray from x in direction theta, or None."""
    o = _xy(x)
    t, seg = first_hit_batch(curve, o, [theta])
    if not np.isfinite(t[0]):
        return None
    px = o[0] + t[0] * math.cos(theta)
    py = o[1] + t[0] * math.sin(theta)
    return HitRecord(theta=float(theta), t=float(t[0]), point=(float(px), float(py)),
                     segment_index=int(seg[0]))


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
    endpoint events.  Uses a sweep over bounding-box x-intervals, so the
    cost is near-linear for curves without heavy box overlap.
    """
    segs = curve.segments
    n = segs.shape[0]
    if n < 2:
        return np.empty((0, 2))
    xmin = np.minimum(segs[:, 0], segs[:, 2])
    xmax = np.maximum(segs[:, 0], segs[:, 2])
    ymin = np.minimum(segs[:, 1], segs[:, 3])
    ymax = np.maximum(segs[:, 1], segs[:, 3])
    order = np.argsort(xmin, kind="stable")
    sx = xmin[order]
    ends = np.searchsorted(sx, xmax[order], side="right")
    starts = np.arange(n, dtype=np.int64) + 1
    pos_j = _ragged_ranges(starts, np.maximum(ends, starts))
    pos_i = _repeat_ids(np.arange(n, dtype=np.int64), starts, np.maximum(ends, starts))
    i = order[pos_i]
    j = order[pos_j]
    keep = ~((ymin[i] > ymax[j]) | (ymin[j] > ymax[i]))
    i = i[keep]
    j = j[keep]
    if i.size == 0:
        return np.empty((0, 2))

    ai = segs[i, 0:2]
    bi = segs[i, 2:4]
    aj = segs[j, 0:2]
    bj = segs[j, 2:4]
    shared = np.zeros(i.size, dtype=bool)
    for p, q in ((ai, aj), (ai, bj), (bi, aj), (bi, bj)):
        shared |= np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1]) <= EPS_GEOM
    i = i[~shared]
    j = j[~shared]
    if i.size == 0:
        return np.empty((0, 2))

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
    if not np.any(good):
        return np.empty((0, 2))
    pts = ai[good] + t[good, None] * ei[good]
    return pts


class SegmentIndex:
    """A curve's segment crossings, computed once for many viewpoints.

    The crossings are event angles for every ``visible_set`` call on the
    curve, so a sweep builds one index and passes it to each call instead
    of recomputing them per viewpoint.
    """

    def __init__(self, curve: CurveApprox):
        if curve.is_point_cloud:
            raise ValueError("visibility requires a segment set")
        self._crossings = find_segment_crossings(curve)

    def crossings(self) -> np.ndarray:
        return self._crossings


# ---------------------------------------------------------------------------
# Exact angular sweep
# ---------------------------------------------------------------------------


def visible_set(curve: CurveApprox, x,
                index: SegmentIndex | None = None) -> VisibleSet:
    """Exact visible part of the curve from x.

    Output pieces are maximal sub-segments, angularly disjoint from x, each
    lying on its parent segment; they are listed by parent segment index.
    ``angular_coverage`` is the measure of directions whose ray meets the
    curve.  x must be strictly off the curve; point clouds are rejected.
    ``index``, when given, must have been built from this curve; it only
    saves recomputing the crossings.
    """
    o = _xy(x)
    dist = _reject_bad_viewpoint(curve, o)
    segs = curve.segments
    n = segs.shape[0]

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
    stops = np.searchsorted(probes, q_hi, side="left")
    stops = np.maximum(stops, starts)
    cand_k = _ragged_ranges(starts, stops)
    cand_seg = _repeat_ids(q_id, starts, stops)
    if cand_k.size == 0:
        return VisibleSet(vp, [], 0.0, 0.0)

    ang = np.mod(probes, TWO_PI)
    cos_p = np.cos(ang)
    sin_p = np.sin(ang)
    # Line-hit parameter: a probe strictly inside a span always meets its
    # segment, so no extent check is needed here.
    a_s = segs[cand_seg]
    ex = a_s[:, 2] - a_s[:, 0]
    ey = a_s[:, 3] - a_s[:, 1]
    wx = a_s[:, 0] - o[0]
    wy = a_s[:, 1] - o[1]
    denom = cos_p[cand_k] * ey - sin_p[cand_k] * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cand = (wx * ey - wy * ex) / denom
    t_cand = np.where((denom != 0.0) & (t_cand > EPS_GEOM), t_cand, np.inf)

    order = np.lexsort((cand_seg, t_cand, cand_k))
    ks = cand_k[order]
    first = np.ones(ks.size, dtype=bool)
    first[1:] = ks[1:] != ks[:-1]
    win_k = ks[first]
    win_t = t_cand[order][first]
    win_seg = cand_seg[order][first]
    finite = np.isfinite(win_t)
    win_k = win_k[finite]
    win_seg = win_seg[finite]

    winner = np.full(m, -1, dtype=np.int64)
    winner[win_k] = win_seg
    covered = winner >= 0

    angular_coverage = float(np.sum(widths[covered]))

    if not np.any(covered):
        return VisibleSet(vp, [], 0.0, angular_coverage)

    # Boundary hit points of each covered interval on its winning segment.
    kc = np.nonzero(covered)[0]
    sc = winner[kc]
    a_s = segs[sc]
    ex = a_s[:, 2] - a_s[:, 0]
    ey = a_s[:, 3] - a_s[:, 1]
    wx = a_s[:, 0] - o[0]
    wy = a_s[:, 1] - o[1]

    def line_hit(theta):
        c = np.cos(np.mod(theta, TWO_PI))
        s = np.sin(np.mod(theta, TWO_PI))
        t = (wx * ey - wy * ex) / (c * ey - s * ex)
        return o[0] + t * c, o[1] + t * s

    px_lo, py_lo = line_hit(e_lo[kc])
    px_hi, py_hi = line_hit(e_hi[kc])

    # Merge circular runs of consecutive covered intervals with one winner.
    pos_of = np.full(m, -1, dtype=np.int64)
    pos_of[kc] = np.arange(kc.size)
    prev = (kc - 1) % m
    breaks = (~covered[prev]) | (winner[prev] != sc) | (widths[kc] <= 0.0)
    if not np.any(breaks):
        breaks[0] = True  # fully surrounded by one segment cannot happen; guard
    run_starts = np.nonzero(breaks)[0]

    pieces: list[VisiblePiece] = []
    used = np.zeros(kc.size, dtype=bool)
    for r0 in run_starts:
        if used[r0]:
            continue
        idx = int(r0)
        start_pt = (float(px_lo[idx]), float(py_lo[idx]))
        last = idx
        used[idx] = True
        # Walk forward through circularly consecutive covered intervals.
        while True:
            k_next = (kc[last] + 1) % m
            p_next = pos_of[k_next]
            if p_next < 0 or breaks[p_next] or used[p_next]:
                break
            used[p_next] = True
            last = int(p_next)
        end_pt = (float(px_hi[last]), float(py_hi[last]))
        seg_idx = int(sc[idx])
        length = math.hypot(end_pt[0] - start_pt[0], end_pt[1] - start_pt[1])
        if length > EPS_GEOM:
            pieces.append(VisiblePiece(seg_idx, start_pt, end_pt))

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
# Visible-set files
# ---------------------------------------------------------------------------

_FMT = ".17g"


def _f(v: float) -> str:
    return format(float(v), _FMT)


def visible_set_to_json(vs: VisibleSet) -> str:
    rows = ",".join(
        f"[{p.segment_index},{_f(p.start[0])},{_f(p.start[1])},"
        f"{_f(p.end[0])},{_f(p.end[1])}]"
        for p in vs.pieces
    )
    return (
        "{"
        f"\"viewpoint\":[{_f(vs.viewpoint.x)},{_f(vs.viewpoint.y)}],"
        f"\"pieces\":[{rows}],"
        f"\"total_length\":{_f(vs.total_length)},"
        f"\"angular_coverage\":{_f(vs.angular_coverage)}"
        "}"
    )


def write_visible_set(vs: VisibleSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(visible_set_to_json(vs))
        fh.write("\n")


def visible_set_from_json(text: str) -> VisibleSet:
    doc = json.loads(text)
    pieces = [
        VisiblePiece(int(r[0]), (float(r[1]), float(r[2])),
                     (float(r[3]), float(r[4])))
        for r in doc["pieces"]
    ]
    ox, oy = float(doc["viewpoint"][0]), float(doc["viewpoint"][1])
    # The nearest curve point is always visible (its chord cannot be blocked
    # by anything closer), so distance to the pieces recovers dist_to_set.
    if pieces:
        rows = np.array([[*p.start, *p.end] for p in pieces])
        dist = float(point_segments_dist(np.array([ox, oy]), rows).min())
    else:
        dist = math.inf
    vp = Viewpoint(ox, oy, dist)
    return VisibleSet(vp, pieces, float(doc["total_length"]),
                      float(doc["angular_coverage"]))


def read_visible_set(path) -> VisibleSet:
    with open(path, "r", encoding="utf-8") as fh:
        return visible_set_from_json(fh.read())
