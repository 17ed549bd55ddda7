"""First-hit visibility from a planar viewpoint.

The visible part of a segment curve from a viewpoint x is the set of curve
points u whose open chord (x, u) misses the curve.  ``visible_set`` computes
it exactly with an angular sweep: the directions around x are partitioned at
event angles (segment endpoints as seen from x, plus any pairwise segment
crossing points), and on each interval between consecutive events the first
hit stays on a single segment, so one probe ray per interval determines the
winner and the interval's boundary rays cut the exact visible sub-segment.
Correctness does not depend on any resolution parameter.  Each endpoint is
itself an event, so the one sort that finds the events also ranks every
vertex, and a segment's probes are the integers between its endpoints'
ranks: no span is placed by comparing angles in floating point.

Each probe's winner is a min-reduction over its candidates (the segments
whose angular span contains it): the least hit parameter t, then, among
candidates hitting at exactly that t, the lowest segment index.  So ties
where a ray meets two segments at the same distance (shared endpoints)
resolve to the lower segment index everywhere, which keeps every output
byte-reproducible, and the result does not depend on candidate order.

That independence allows culling, after the hierarchical z-buffer of
Greene, Kass and Miller (SIGGRAPH 1993), at two grains.  A run of chain
segments is a connected path, so :class:`SegmentIndex` cuts each chain into
blocks of ``geom._BLOCK`` segments with their bounding boxes.  Every ray
between a block's first and last vertex angles meets the block no farther
than its box's far corner, and no member lies nearer than the box's near
distance; a block whose near bound exceeds every such far bound over its
box's angular extent holds no first hit, and is dropped whole before the
sweep (``_block_cull``).  The sweep's events are the surviving blocks'
vertices plus the crossings, so the culled vertices cost no angle, sort or
probe.  Within the sweep each probe's first hit is seeded with the least
upper bound on the distance of the segments spanning it, a far plane, and a
segment whose lower bound lies beyond that seed on every probe it spans
can neither win nor tie, so its (probe, segment) candidates are never
expanded.  On Koch d=1.5 curves 12-23% of the segments survive the block
pass at 16k-65k segments and 6% at 1M; about 1 in 80 of the candidates the
unculled sweep would take get expanded at 65k.  Candidates are expanded (by
``geom._ragged_ranges``) in blocks of at most ``geom._CHUNK`` pairs or one
span's, and crossing search takes its pairs from ``geom._window_pairs`` in
blocks of ``geom._CHUNK``, so memory stays bounded as curves get finer.

``visible_oracle`` is the independent brute-force check: it casts the
chord to a curve point against every segment in one
``geom.hit_t_elementwise`` call.  :class:`SegmentIndex` caches a curve's
segment crossings, vertex table, per-segment tables and blocks so that
many viewpoints share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .fractals import (CurveApprox, DiscreteMeasure, _fnum, arclength_table,
                       loose_segments, points_at_arclength, vertex_ends)
from .geom import (
    EPS_GEOM,
    TWO_PI,
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


@dataclass
class VisibleSet:
    """The visible pieces as columns, ordered by parent, then start, then end.

    Row i of ``segments`` is piece i's ``(x0, y0, x1, y1)``, lying on curve
    segment ``parents[i]``; ``lengths[i]`` is its ``math.hypot`` length and
    ``total_length`` their ``np.sum``.  ``angular_coverage`` is the
    ``np.sum`` of the widths of the sweep's runs (each a maximal arc of
    probes with one winner, pieces too short to keep included): a run's end
    event angle minus its start event angle, plus 2 pi for the run that
    wraps, so it does not depend on the events inside a run.
    """

    viewpoint: Viewpoint
    segments: np.ndarray
    parents: np.ndarray
    lengths: np.ndarray
    total_length: float
    angular_coverage: float

    @classmethod
    def empty(cls, viewpoint: Viewpoint) -> VisibleSet:
        return cls(viewpoint, np.empty((0, 4)), np.empty(0, dtype=np.int64),
                   np.empty(0), 0.0, 0.0)

    @property
    def pieces(self) -> list[list[float]]:
        """The rows of ``segments`` as lists, built on each read.

        No fracvis code reads this view; it stays only for the benchmark's
        traced replay (``perfbench/worker.py``), which takes its length and
        truth value, until that replay runs the real sweep.
        """
        return self.segments.tolist()


# Probes per tile of the sweep's best_t maxima.
_TILE = 64
# The cull's rounding margin, in units of machine epsilon (see _cull_bound).
_CULL_C = 128


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
    """A curve's sweep tables, computed once for many viewpoints.

    The tables are the curve's segment crossings, which are event angles
    for every ``visible_set`` call on it, and its vertex table, built in
    O(n) with no sort by :func:`fractals.loose_segments`, the rule curve
    files use too: segment i starts at vertex i and ends at vertex i + 1
    unless it is in ``loose``, whose segments end at vertices n, n + 1, ...
    in order (:func:`fractals.vertex_ends` reads a per-vertex array at
    each segment's end).  So a chain of n segments has n + 1 vertices, and
    a sweep takes one angle per vertex.  ``segments`` is the curve's array, so
    ``visible_set`` can refuse an index built from another curve.

    Per segment it keeps e = b - a as ``ex``, ``ey``, its ``lengths`` and
    whether all of them are positive (``segment_set``).  The blocks are
    runs of up to ``geom._BLOCK`` consecutive segments that never cross a
    loose end, so each block is a connected path: ``blocks`` holds their
    edges (block i is the segments blocks[i] up to blocks[i + 1]),
    ``boxes`` their bounding boxes, and ``block_ends`` and ``block_loose``
    the vertex table of the path of block ends, each block one segment
    from its first vertex to its last.  A curve whose chains average two
    segments or fewer has no blocks (``blocks`` is None).
    """

    def __init__(self, curve: CurveApprox):
        if curve.is_point_cloud:
            raise ValueError("visibility requires a segment set")
        segs = curve.segments
        self.segments = segs
        n = self.n_segments = int(segs.shape[0])
        self._crossings = find_segment_crossings(curve)
        self.loose = loose_segments(segs)
        self.ex = segs[:, 2] - segs[:, 0]
        self.ey = segs[:, 3] - segs[:, 1]
        self.lengths = np.hypot(self.ex, self.ey)
        self.segment_set = not np.any(self.lengths <= 0.0)
        self.blocks = self.boxes = self.block_ends = self.block_loose = None
        # Where chains average two segments or fewer, the blocks are about
        # as many as the segments, and the block pass costs what it saves: a
        # shuffled Koch L7 soup took 14 ms per viewpoint without it, 23 with.
        if 2 * self.loose.size >= n:
            return
        chains = np.concatenate([[0], self.loose[:-1] + 1])
        per_chain = (self.loose + 1 - chains + geom._BLOCK - 1) // geom._BLOCK
        starts = (np.repeat(chains, per_chain)
                  + geom._BLOCK * _ragged_ranges(np.zeros_like(per_chain), per_chain))
        self.blocks = np.append(starts, n)
        self.boxes = geom.segment_boxes(segs, self.blocks)
        self.block_ends = np.column_stack([segs[starts, 0:2],
                                           segs[self.blocks[1:] - 1, 2:4]])
        self.block_loose = loose_segments(self.block_ends)

    def crossings(self) -> np.ndarray:
        return self._crossings


# ---------------------------------------------------------------------------
# Exact angular sweep
# ---------------------------------------------------------------------------


def _spans(segs, loose, crossings, o):
    """The events about o, and each segment's probes as ranges [starts, stops) of q_id.

    ``loose`` is the segments' vertex table (:func:`fractals.loose_segments`).
    The events are the distinct angles of the vertices and crossings, in
    [0, 2 pi) and ascending; probe k lies between events k and k + 1 (mod
    m, the number of events).  ``np.unique`` ranks each vertex among them,
    so a segment's span runs the short way round from the rank lo of one
    endpoint to the rank hi of the other: the probes [lo, hi), or [lo, m)
    and [0, hi) when it wraps past the last event (hi < lo).  Only the
    nonempty ranges are returned.
    """
    n = segs.shape[0]
    ends = segs[loose, 2:4]
    # One angle per vertex (starts, then loose ends), then one per crossing.
    angles = np.mod(np.concatenate([
        np.arctan2(segs[:, 1] - o[1], segs[:, 0] - o[0]),
        np.arctan2(ends[:, 1] - o[1], ends[:, 0] - o[0]),
        np.arctan2(crossings[:, 1] - o[1], crossings[:, 0] - o[0])]), TWO_PI)
    events, rank = np.unique(angles, return_inverse=True)
    flip = np.mod(vertex_ends(angles, loose, n) - angles[:n], TWO_PI) > math.pi
    lo = rank[:n]
    hi = vertex_ends(rank, loose, n)
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    wrap = hi < lo
    starts = np.concatenate([lo, np.zeros(np.count_nonzero(wrap), dtype=lo.dtype)])
    stops = np.concatenate([np.where(wrap, events.size, hi), hi[wrap]])
    q_id = np.concatenate([np.arange(n), np.flatnonzero(wrap)])
    live = stops > starts
    return events, starts[live], stops[live], q_id[live]


def _bounds(near, far, x, o) -> tuple[np.ndarray, np.ndarray]:
    """(lb, ub) = (near (1 - x) - c eps |o|_inf, far (1 + x)), as _cull_bound derives them.

    Where x >= 1, lb is -c eps |o|_inf <= 0 instead; ub is inf there and
    where lb <= EPS_GEOM.
    """
    x1 = np.minimum(x, 1.0)
    lb = near * (1.0 - x1) - _CULL_C * np.finfo(float).eps * float(np.abs(o).max())
    return lb, np.where((x < 1.0) & (lb > EPS_GEOM), far * (1.0 + x1), np.inf)


def _cull_bound(segs, o, dmin, lengths, num) -> tuple[np.ndarray, np.ndarray]:
    """(lb, ub) with lb[s] <= every hit distance t the sweep computes for s <= ub[s].

    Exactly, a ray inside the angular span of s meets s at a distance in
    [dmin[s], far], far the farther endpoint's distance from o.  Rounding
    moves the computed t by a relative error that scales with kappa =
    far / line, line the distance from o to the line of s (t / line bounds
    the conditioning of num and the denominator).  With eps the machine
    epsilon:

    * num = (a - o) x e: its products sum to at most sqrt(2) |a - o| |e|
      <= sqrt(2) kappa |num| in size, so it is off by <= 2.2 kappa eps
      relatively; the denominator cos ey - sin ex, with cos and sin
      within an ulp, by <= 2.9 kappa eps; the division and the probe
      direction's length add 1.5 eps.  In all, t is off by <= 8 kappa eps.
    * A probe can lie outside the exact span by the angle rounding between
      endpoint and probe: the vertex arctan2 and its reduction by TWO_PI,
      the probe midpoint (for the last probe, after the first event's shift
      by TWO_PI), and the probe's reduction by TWO_PI, cos and sin, each at
      most half an ulp of 4 pi (4 eps), plus TWO_PI's own error, sum to
      delta < 50 eps.  Turning the ray by delta scales its distance to the
      line by [1 - kappa delta, 1 / (1 - kappa delta)], as the tangent of
      its angle to the line's normal is <= kappa.
    * point_segments_dist forms the nearest point in absolute coordinates,
      so dmin itself may be high by <= 5 kappa eps dmin + 2 eps |o|_inf.
    * far is the hypot of the differences a - o, b - o behind the span, off
      by <= 2 eps; the line through a - o along e misses b - o by <= eps far,
      which moves a hit near b by <= eps far t / line <= eps kappa far.

    lb: the terms add up to under 63 kappa eps dmin + 2 eps |o|_inf; c =
    _CULL_C = 128 doubles that for second-order terms: with x = c eps kappa,
    lb = dmin (1 - x) - c eps |o|_inf.  Segments seen end-on, where x >= 1
    (kappa is inf on exactly collinear ones), get lb <= 0, never culled.
    ub: t <= far (1 + 2 eps)(1 + x / 128)(1 + x / 16) / (1 - 50 x / 128),
    convex in x and below 1 + x at x = c eps (kappa >= 1) and at x = 1,
    so ub = far (1 + x); no |o|_inf term, as far and t both come from a - o.
    ub = inf where x >= 1, or where lb <= EPS_GEOM (t may count as a miss).
    """
    # kappa = far * |e| / |num|, as |num| / |e| is the distance to the line;
    # a zero or subnormal num makes it inf, and such a segment is never culled.
    far = np.maximum(np.hypot(segs[:, 0] - o[0], segs[:, 1] - o[1]),
                     np.hypot(segs[:, 2] - o[0], segs[:, 3] - o[1]))
    with np.errstate(divide="ignore", over="ignore"):
        x = _CULL_C * np.finfo(float).eps * (far * lengths / np.abs(num))
    return _bounds(dmin, far, x, o)


def _range_max_table(values: np.ndarray) -> np.ndarray:
    """Sparse table: row j holds the maxima of values[i:i + 2**j]."""
    table = np.full((max(values.size, 1).bit_length(), values.size), -np.inf)
    table[0] = values
    for j in range(1, table.shape[0]):
        w = 1 << (j - 1)
        np.maximum(table[j - 1, :-w], table[j - 1, w:], out=table[j, :-w])
    return table


def _range_max(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo[i]:hi[i] + 1]) for every i, from _range_max_table(values)."""
    j = np.frexp(hi - lo + 1)[1] - 1
    return np.maximum(table[j, lo], table[j, hi + 1 - (1 << j)])


def _range_min_paint(m: int, lo, hi, values) -> np.ndarray:
    """out[k] = min(values[i] for lo[i] <= k <= hi[i]), inf where no range covers k.

    The reverse of _range_max_table.  A range of length L paints its value
    on the two blocks of 2**j slots, j = floor(log2 L), that start at lo and
    end at hi; then, from the largest blocks down, each block hands its
    value on to its two halves.  The ranges are sorted by j once, so each
    level paints one slice of them.  Only two rows of m values are held.
    """
    j = np.frexp(hi - lo + 1)[1] - 1
    order = np.argsort(j)
    j = j[order]
    lo = lo[order]
    right = hi[order] + 1 - (1 << j)
    values = values[order]
    # The ranges of level j are the slice [edges[j], edges[j + 1]).
    edges = np.concatenate([[0], np.cumsum(np.bincount(j))])
    row = np.full(m, np.inf)
    below = np.empty(m)
    for level in range(edges.size - 2, -1, -1):
        w = 1 << level
        # row holds the blocks of 2w slots; the one at i covers i and i + w.
        np.copyto(below, row)
        np.minimum(below[w:], row[:-w], out=below[w:])
        sel = slice(edges[level], edges[level + 1])
        np.minimum.at(below, lo[sel], values[sel])
        np.minimum.at(below, right[sel], values[sel])
        row, below = below, row
    return row


def _first_hits(starts, stops, q_id, cos_p, sin_p, ex, ey, num, lb, ub) -> np.ndarray:
    """Segment first hit by each probe ray, or -1 where the ray misses.

    Probe k's candidates are the nonempty spans i with starts[i] <= k < stops[i],
    each naming segment q_id[i]; a ray at (cos_p[k], sin_p[k]) meets the
    line of segment s at t = num[s] / (cos_p[k] ey[s] - sin_p[k] ex[s]).
    The winner is a min-reduction: least t, then the lowest segment index
    among candidates at exactly that t.  Misses (t = inf) never win.

    lb[s] <= every t of segment s <= ub[s] (``_cull_bound``).  Each probe's
    best_t is seeded with the least ub over its spans (``_range_min_paint``),
    and a span whose lb exceeds the largest seed over its probes (taken
    over tiles of _TILE probes, a superset) is dropped: its t lie above
    every first hit it reaches, so it holds neither a winner nor a tie.
    The rest are expanded once, in blocks of at most geom._CHUNK candidates
    or one span's; the reduction does not depend on their order.  A probe
    with a finite seed that no candidate reached has a hit beyond its
    bound, and raises ValueError rather than return a wrong winner.
    """
    m = cos_p.size
    n = ex.size
    best_t = _range_min_paint(m, starts, stops - 1, ub[q_id])
    tiles = _range_max_table(np.maximum.reduceat(best_t, np.arange(0, m, _TILE)))
    keep = lb[q_id] <= _range_max(tiles, starts // _TILE, (stops - 1) // _TILE)
    starts, stops, q_id = starts[keep], stops[keep], q_id[keep]
    counts = stops - starts
    best_seg = np.full(m, n, dtype=np.int64)
    for i0, i1 in geom._blocks(counts):
        cand_k = _ragged_ranges(starts[i0:i1], stops[i0:i1])
        cand_seg = np.repeat(q_id[i0:i1], counts[i0:i1])
        # A probe strictly inside a span always meets its segment, so no
        # extent check is needed here.  A zero denominator gives +-inf or
        # nan, which the t > EPS_GEOM test turns into a miss like t <= 0.
        denom = cos_p[cand_k] * ey[cand_seg]
        denom -= sin_p[cand_k] * ex[cand_seg]
        t = num[cand_seg]
        with np.errstate(divide="ignore", invalid="ignore"):
            t /= denom
        t[~(t > EPS_GEOM)] = np.inf
        before = best_t[cand_k]
        np.minimum.at(best_t, cand_k, t)
        after = best_t[cand_k]
        # Where best_t fell, no segment of an earlier block ties it.
        best_seg[cand_k[after < before]] = n
        # Ties at t = inf only touch probes no ray hits, whose best_seg is unused.
        tie = t == after
        np.minimum.at(best_seg, cand_k[tie], cand_seg[tie])
    hit = np.isfinite(best_t)
    if np.any(hit & (best_seg == n)):
        raise ValueError("a first hit lies beyond its cull bound")
    return np.where(hit, best_seg, -1)


def _block_cull(index: SegmentIndex, o) -> np.ndarray | None:
    """Ids, ascending, of the segments in the blocks that can hold a first hit from o.

    None when the curve has no blocks.  A block is a connected path, so
    when its bounding box excludes o it subtends less than pi, and every
    ray on the short arc between its first and last vertex angles (its
    reach) meets it no farther than far_B, the box's far corner.  Its
    members' hits lie no nearer than near_B, the box's near distance.
    With the margins of ``_cull_bound``:

    * X_B = c eps far_B max(max_s len_s / |num_s|, 1 / near_B) bounds the
      factor x = c eps kappa of every member s, as far_s <= far_B.  So ub_B
      = far_B (1 + X_B) bounds the computed first hit of a probe in the
      reach, as some member spans it, and lb_B = near_B (1 - X_B) - c eps
      |o|_inf bounds every member's computed t from below, as near_B <=
      dmin_s and the box's near distance is off by <= 2 eps.
    * The 1 / near_B term makes X_B >= 1 when near_B <= c eps far_B, so the
      angles that place a reach and an extent, each within 8 eps, never
      wrap them when they come within c eps of pi: the chord from the first
      to the last vertex lies in the box, so a reach of pi - g brings o
      within g far_B of the box, and so does an extent of pi - g (there
      the chord between the two extreme corners).
    * Where X_B >= 1, lb_B <= EPS_GEOM, or the box contains o (near_B = 0,
      so X_B is inf), the block paints nothing (ub_B = inf) and has lb_B
      <= 0, so it is never culled.

    Each block paints ub_B over the probes of its reach among the block
    ends' angles (``_spans`` on ``block_ends``, ``_range_min_paint``).  Its
    box's extent is the arc of its corner angles, widened by c eps for the
    angle rounding of a probe against a member's span (under 50 eps, see
    ``_cull_bound``); where lb_B exceeds the largest paint over the probes
    the extent meets (``_range_max``), the block is culled.  In any
    direction the block of the least paint survives, as its lb_B <= ub_B
    and the direction lies in its extent; so every probe of a culled
    member meets a surviving member at a computed t <= that paint < lb_B,
    and the culled member could neither win nor tie.
    """
    if index.blocks is None:
        return None
    segs = index.segments
    starts, stops = index.blocks[:-1], index.blocks[1:]
    c_eps = _CULL_C * np.finfo(float).eps
    num = (segs[:, 0] - o[0]) * index.ey - (segs[:, 1] - o[1]) * index.ex
    near, far = geom.box_dists(o, index.boxes)
    with np.errstate(divide="ignore", over="ignore"):
        inv_line = np.maximum(np.maximum.reduceat(index.lengths / np.abs(num), starts),
                              1.0 / near)
        x = c_eps * (far * inv_line)
    lb, ub = _bounds(near, far, x, o)
    events, lo, hi, q_id = _spans(index.block_ends, index.block_loose,
                                  np.empty((0, 2)), o)
    m = events.size
    table = _range_max_table(_range_min_paint(m, lo, hi - 1, ub[q_id]))
    # Each box's extent: its corner angles, taken from the first corner's.
    box = index.boxes
    corners = np.arctan2(box[:, [1, 1, 3, 3]] - o[1], box[:, [0, 2, 0, 2]] - o[0])
    turn = np.mod(corners - corners[:, :1] + math.pi, TWO_PI) - math.pi
    first = np.searchsorted(events, np.mod(corners[:, 0] + turn.min(axis=1) - c_eps,
                                           TWO_PI), "right") - 1
    last = np.searchsorted(events, np.mod(corners[:, 0] + turn.max(axis=1) + c_eps,
                                          TWO_PI), "right") - 1
    first %= m
    last %= m
    wrap = last < first
    top = _range_max(table, first, np.where(wrap, m - 1, last))
    top = np.where(wrap, np.maximum(top, _range_max(table, np.zeros_like(last), last)),
                   top)
    keep = ~(lb > top)
    return _ragged_ranges(starts[keep], stops[keep])


def visible_set(curve: CurveApprox, x,
                index: SegmentIndex | None = None) -> VisibleSet:
    """Exact visible part of the curve from x.

    Output pieces are maximal sub-segments, angularly disjoint from x, each
    lying on its parent segment; they are the rows of ``VisibleSet.segments``,
    listed by parent segment index, then start point, then end point.
    ``angular_coverage`` is the measure of directions whose ray meets the
    curve, summed over the runs of one winner.  x must be strictly off the
    curve; point clouds are rejected.  ``index``, when given, must have been
    built from this curve's segments; it only saves rebuilding the
    crossings, the vertex table and the blocks.  An index built from other
    segments, of any count, raises ValueError.

    First the blocks that cannot hold a first hit are culled whole
    (``_block_cull``); the sweep then takes the surviving blocks' segments,
    with their own vertex table, so the culled vertices are no events.
    Within the sweep each probe's first hit is bounded by the farthest
    distance of a segment spanning it, and a segment whose nearest distance
    exceeds that on all of its probes is skipped (``_cull_bound`` adds the
    rounding margins, ``_first_hits`` culls).  Neither cull drops a segment
    that could win or tie, and each run is cut by the rays at its end
    events themselves, so the output is that of the whole curve, but for
    one exception in views degenerate up to rounding: a collinear overlap
    may go to another parent.  A first hit beyond its bound raises
    ValueError rather than return a wrong set.  ``dist_to_set`` is the least distance over the
    segments of the blocks whose boxes come that close
    (``geom.nearest_dist``), the least over all segments.
    """
    o = _xy(x)
    segs = curve.segments
    if index is None:
        index = SegmentIndex(curve)
    elif index.segments is not segs and not np.array_equal(index.segments, segs):
        raise ValueError(f"segment index built from a curve of {index.n_segments} "
                         f"segments, not from this curve of {segs.shape[0]}")
    if not index.segment_set:
        raise ValueError("visibility requires a segment set")
    ids = _block_cull(index, o)
    if ids is None:
        sub, loose = segs, index.loose
        ex, ey, lengths = index.ex, index.ey, index.lengths
    else:
        sub = segs[ids]
        loose = loose_segments(sub)
        ex, ey, lengths = index.ex[ids], index.ey[ids], index.lengths[ids]
    dmin = point_segments_dist(o, sub)
    dist = float(dmin.min())
    if ids is not None:
        dist = geom.nearest_dist(o, segs, index.blocks, index.boxes, dist)
    if dist <= EPS_GEOM:
        raise ValueError("viewpoint lies on the curve")

    events, starts, stops, q_id = _spans(sub, loose, index.crossings(), o)
    m = events.size
    vp = Viewpoint(float(o[0]), float(o[1]), dist)
    if m < 2:
        # Degenerate: every endpoint in one direction; no 1-d visible piece.
        return VisibleSet.empty(vp)

    ext = np.concatenate([events, [events[0] + TWO_PI]])
    widths = np.diff(ext)
    probes = 0.5 * (ext[:-1] + ext[1:])  # ascending, in [events[0], events[0] + 2*pi)
    ang = np.mod(probes, TWO_PI)
    cos_p = np.cos(ang)
    sin_p = np.sin(ang)
    # Per segment e = b - a and num = (a - o) x e, so a ray at angle theta
    # meets the segment's line at t = num / (cos(theta) ey - sin(theta) ex).
    num = (sub[:, 0] - o[0]) * ey - (sub[:, 1] - o[1]) * ex
    lb, ub = _cull_bound(sub, o, dmin, lengths, num)
    # Each probe's winner: least t, then lowest segment index at that t,
    # with the spans that cannot win culled.
    winner = _first_hits(starts, stops, q_id, cos_p, sin_p, ex, ey, num, lb, ub)
    covered = winner >= 0
    if not np.any(covered):
        return VisibleSet.empty(vp)

    kc = np.nonzero(covered)[0]
    sc = winner[kc]

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
    # A run's width is its end event minus its start event, plus 2 pi for
    # the run that wraps.
    if not breaks[0]:
        run_ends[-1] = run_starts[0] - 1
    run_width = ext[kc[run_ends] + 1] - ext[kc[run_starts]]
    if not breaks[0]:
        run_width[-1] += TWO_PI
    angular_coverage = float(np.sum(run_width))

    # A run's piece is cut from its winner by the rays at its two end events;
    # event m is event 0 itself, so no piece end depends on which event is
    # first, which the block pass can change.
    parent = sc[run_starts]

    def line_hit(k):
        ang = events[k % m]
        c = np.cos(ang)
        s = np.sin(ang)
        t = num[parent] / (c * ey[parent] - s * ex[parent])
        return o[0] + t * c, o[1] + t * s

    # An end ray along its winner's line (a zero denominator: x on that line
    # up to rounding) sees the winner edge-on; its hit is +-inf or nan, and
    # the run's piece, which has no length, is dropped by the finite test.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x0, y0 = line_hit(kc[run_starts])
        x1, y1 = line_hit(kc[run_ends] + 1)
        dx, dy = x1 - x0, y1 - y0
    # math.hypot, not np.hypot, which can differ in the last bit and so
    # change total_length.
    piece_len = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()),
                            float, parent.size)
    keep = np.isfinite(piece_len) & (piece_len > EPS_GEOM)
    parent, x0, y0, x1, y1, piece_len = (
        a[keep] for a in (parent, x0, y0, x1, y1, piece_len))
    if ids is not None:
        parent = ids[parent]
    # Stable, and -0.0 ties 0.0, as in a sort of (parent, start, end) tuples.
    order = np.lexsort((y1, x1, y0, x0, parent))
    piece_len = piece_len[order]
    return VisibleSet(vp, np.column_stack([x0, y0, x1, y1])[order], parent[order],
                      piece_len, float(np.sum(piece_len)), angular_coverage)


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
    if curve.is_point_cloud or np.any(curve.lengths() <= 0.0):
        raise ValueError("visibility requires a segment set")
    if float(point_segments_dist(o, curve.segments).min()) <= EPS_GEOM:
        raise ValueError("viewpoint lies on the curve")
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
    if not len(vs.segments):
        raise ValueError("empty visible set has nothing to sample")
    pts = points_at_arclength(arclength_table(vs.segments, vs.lengths),
                              (np.arange(n) + 0.5) / n)
    return pts, DiscreteMeasure(pts, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# Visible-set JSON
# ---------------------------------------------------------------------------


def visible_set_to_json(vs: VisibleSet) -> str:
    rows = ",".join(
        f"[{p},{_fnum(x0)},{_fnum(y0)},{_fnum(x1)},{_fnum(y1)}]"
        for p, (x0, y0, x1, y1) in zip(vs.parents.tolist(), vs.segments.tolist())
    )
    return (
        "{"
        f"\"viewpoint\":[{_fnum(vs.viewpoint.x)},{_fnum(vs.viewpoint.y)}],"
        f"\"pieces\":[{rows}],"
        f"\"total_length\":{_fnum(vs.total_length)},"
        f"\"angular_coverage\":{_fnum(vs.angular_coverage)}"
        "}"
    )
