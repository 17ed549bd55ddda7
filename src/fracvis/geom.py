"""Planar primitives and the exact angular computations built on them.

Everything downstream (curve generation, the visibility sweep, the measure
diagnostics) reduces to a small vocabulary defined here: points, annuli
``A(x, d-, d+)``, open cones ``V(x, u, sigma)``, the subtended-angle measure
``arc_diam``, the angle-ratio and intercone inequalities, hit parameters of
rays against segments, point-to-segment distances, bounding boxes of
segment blocks, the bounded expansion of ragged index ranges, the one
sorted-window pair search built on it, and the exact diameter of a point
set.

Conventions
-----------
* ``perp((x, y)) = (-y, x)``.
* Angles are radians.
* Cones are open sets, so membership uses strict inequalities.
* ``EPS_GEOM`` is the degeneracy tolerance for collinearity and on-curve
  tests.  The inequality checkers, here and in ``measurelab``, all grant
  the one looser ``CHECK_SLACK`` so that valid boundary configurations do
  not flake on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Degeneracy tolerance for collinearity / coincidence tests.
EPS_GEOM = 1e-12

# Slack granted when checking the closed-form inequality bounds.
CHECK_SLACK = 1e-9

# Below this |cross(dir, edge)| / |edge| a ray counts as parallel to a segment.
_PARALLEL_EPS = 1e-14


def _xy(p) -> np.ndarray:
    """Coerce a Point, pair, or length-2 array to a float64 array."""
    if isinstance(p, Point):
        return np.array([p.x, p.y], dtype=float)
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a planar point, got shape {a.shape}")
    return a


def _points_array(pts) -> np.ndarray:
    """Coerce a sequence of points to an (n, 2) float64 array."""
    if isinstance(pts, np.ndarray) and pts.ndim == 2 and pts.shape[1] == 2:
        return pts.astype(float, copy=False)
    rows = [_xy(p) for p in pts]
    if not rows:
        return np.empty((0, 2), dtype=float)
    return np.vstack(rows)


def perp(v) -> np.ndarray:
    """Counterclockwise quarter turn: perp((x, y)) = (-y, x)."""
    a = _xy(v)
    return np.array([-a[1], a[0]])


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Annulus:
    """A(c, d-, d+) = closed ball of radius d+ minus closed ball of radius d-.

    Membership is half open: a point p belongs iff d- < |p - c| <= d+.
    """

    center: Point
    d_minus: float
    d_plus: float

    def __post_init__(self):
        if not (0.0 < self.d_minus <= self.d_plus):
            raise ValueError("annulus radii must satisfy 0 < d_minus <= d_plus")

    def contains(self, p) -> bool:
        r = float(np.hypot(*(_xy(p) - self.center.as_array())))
        return self.d_minus < r <= self.d_plus

    def mask(self, pts: np.ndarray) -> np.ndarray:
        d = pts - self.center.as_array()
        r = np.hypot(d[:, 0], d[:, 1])
        return (r > self.d_minus) & (r <= self.d_plus)


@dataclass(frozen=True)
class Cone:
    """Open cone V(x, u, sigma) = {y : |<y-x, perp(u)>| < sigma * <y-x, u>}.

    ``direction`` need not be normalised: both sides of the membership
    inequality scale linearly with |u|, so the set is unchanged.
    """

    vertex: Point
    direction: tuple[float, float]
    opening: float

    def __post_init__(self):
        ux, uy = self.direction
        if math.hypot(ux, uy) <= 0.0:
            raise ValueError("cone direction must be nonzero")
        if not self.opening > 0.0:
            raise ValueError("cone opening must be positive")

    def contains(self, p) -> bool:
        return bool(self.mask(_xy(p)[None, :])[0])

    def mask(self, pts: np.ndarray) -> np.ndarray:
        ux, uy = self.direction
        d = pts - self.vertex.as_array()
        along = d[:, 0] * ux + d[:, 1] * uy
        across = d[:, 0] * (-uy) + d[:, 1] * ux
        return np.abs(across) < self.opening * along


# ---------------------------------------------------------------------------
# Angular measurements
# ---------------------------------------------------------------------------


def arc_diam(x, pts) -> float:
    """Angle of the smallest closed arc containing the radial projection of pts.

    Projection is from the viewpoint ``x`` onto directions; the result lies in
    [0, 2*pi].  A single point projects to one direction (arc 0).  If ``x``
    coincides with one of the points (within EPS_GEOM) the projection is the
    whole circle by convention and 2*pi is returned.
    """
    p = _points_array(pts)
    if p.shape[0] == 0:
        raise ValueError("arc_diam needs at least one point")
    o = _xy(x)
    d = p - o
    dist = np.hypot(d[:, 0], d[:, 1])
    if np.any(dist <= EPS_GEOM):
        return TWO_PI
    ang = np.sort(np.arctan2(d[:, 1], d[:, 0]))
    gaps = np.diff(ang)
    wrap_gap = TWO_PI - (ang[-1] - ang[0])
    largest = max(gaps.max(initial=0.0), wrap_gap)
    return TWO_PI - largest


ANGLE_RATIO_LOWER = 0.5


def angle_ratio_upper(a_norm: float, alpha: float, d_plus: float) -> float:
    """Upper bound 1 - (9 / (17 d+^2)) (|a| alpha)^2 for the two-sided ratio bound."""
    return 1.0 - (9.0 / (17.0 * d_plus * d_plus)) * (a_norm * alpha) ** 2


def min_angle_slope(a, pts: np.ndarray) -> float:
    """alpha = min over rows p of |<p, perp(a)> / <p, a>| (inf where <p,a> = 0)."""
    av = _xy(a)
    p = _points_array(pts)
    along = p @ av
    across = p @ perp(av)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.abs(across / along)
    slopes = np.where(along == 0.0, np.inf, slopes)
    return float(np.min(slopes))


def check_angle_ratio_bounds(a, pts, d_minus: float, d_plus: float) -> bool:
    """Verify the two-sided angle-ratio bound on a finite configuration.

    Preconditions (raise ValueError if violated): 0 < d- <= d+, d- <= 1,
    0 < |a| <= d-/2, every point lies in the annulus A(0, d-, d+), and the
    minimal slope alpha is <= 1.  Returns True iff every point p satisfies

        1/2 <= <p-a, p+a> / (|p-a| |p+a|) <= 1 - (9 / (17 d+^2)) (|a| alpha)^2

    up to ``CHECK_SLACK``; the middle term is the cosine of the angle at p
    between the chords to a and to -a.
    """
    p = _points_array(pts)
    if p.shape[0] == 0:
        raise ValueError("need at least one point")
    av = _xy(a)
    a_norm = float(np.hypot(*av))
    if not (0.0 < d_minus <= d_plus):
        raise ValueError("require 0 < d_minus <= d_plus")
    if d_minus > 1.0:
        raise ValueError("require d_minus <= 1")
    if not (0.0 < a_norm <= d_minus / 2.0):
        raise ValueError("require 0 < |a| <= d_minus / 2")
    r = np.hypot(p[:, 0], p[:, 1])
    if np.any(r <= d_minus) or np.any(r > d_plus * (1.0 + 1e-15)):
        raise ValueError("all points must lie in the annulus A(0, d_minus, d_plus)")
    alpha = min_angle_slope(av, p)
    if not alpha <= 1.0:
        raise ValueError("require min slope alpha <= 1")

    pm = p - av
    pp = p + av
    num = np.sum(pm * pp, axis=1)
    den = np.hypot(pm[:, 0], pm[:, 1]) * np.hypot(pp[:, 0], pp[:, 1])
    ratio = num / den
    upper = angle_ratio_upper(a_norm, alpha, d_plus)
    ok = (ratio >= ANGLE_RATIO_LOWER - CHECK_SLACK) & (ratio <= upper + CHECK_SLACK)
    return bool(np.all(ok))


def intercone_bound(p, sigma: float, tau: float) -> float:
    """Lower bound -sigma/(sigma+tau) * |p| for <u - p, p/|p|>.

    Valid for every u in V(0, p, sigma) that avoids the reverse cone
    V(p, -p, tau).  ``intercone_holds`` checks a concrete u against it.
    """
    pv = _xy(p)
    n = float(np.hypot(*pv))
    if n <= 0.0:
        raise ValueError("p must be nonzero")
    if sigma <= 0.0 or tau <= 0.0:
        raise ValueError("cone openings must be positive")
    return -(sigma / (sigma + tau)) * n


def intercone_holds(p, sigma: float, tau: float, u) -> bool:
    """Check <u - p, p/|p|> >= intercone_bound(p, sigma, tau) - CHECK_SLACK.

    Raises ValueError unless u lies in V(0, p, sigma) outside V(p, -p, tau).
    """
    pv = _xy(p)
    uv = _xy(u)
    n = float(np.hypot(*pv))
    if n <= 0.0:
        raise ValueError("p must be nonzero")
    front = Cone(Point(0.0, 0.0), (pv[0], pv[1]), sigma)
    back = Cone(Point(pv[0], pv[1]), (-pv[0], -pv[1]), tau)
    if not front.contains(uv):
        raise ValueError("u must lie in V(0, p, sigma)")
    if back.contains(uv):
        raise ValueError("u must avoid V(p, -p, tau)")
    val = float(np.dot(uv - pv, pv / n))
    return val >= intercone_bound(pv, sigma, tau) - CHECK_SLACK


# ---------------------------------------------------------------------------
# Rays against segments
# ---------------------------------------------------------------------------


def hit_t_elementwise(ox, oy, dx, dy, ax, ay, bx, by) -> np.ndarray:
    """Hit parameters of unit-direction rays against segments, elementwise.

    All arguments broadcast together.  Returns parameters t with +inf where
    a ray misses its segment.  Hits exactly at segment endpoints count.  A
    segment collinear with its ray (a grazing ray) contributes its nearest
    endpoint beyond the origin.  Hits at t <= EPS_GEOM are discarded so a
    ray never reports its own origin.

    Its one caller is the brute-force visibility oracle,
    ``visibility.visible_oracle``.  The visibility sweep computes its own
    line hits, since a probe inside a segment's angular span always meets
    that segment.
    """
    ex = bx - ax
    ey = by - ay
    wx = ax - ox
    wy = ay - oy
    elen = np.hypot(ex, ey)

    denom = dx * ey - dy * ex
    cwe = wx * ey - wy * ex
    cwd = wx * dy - wy * dx

    with np.errstate(divide="ignore", invalid="ignore"):
        t = cwe / denom
        s = cwd / denom
        s_slack = EPS_GEOM / elen

    nondeg = elen > 0.0
    crossing = nondeg & (np.abs(denom) > _PARALLEL_EPS * elen)
    ok = crossing & (t > EPS_GEOM) & (s >= -s_slack) & (s <= 1.0 + s_slack)
    out = np.where(ok, t, np.inf)

    grazing = nondeg & ~crossing & (np.abs(cwd) <= EPS_GEOM)
    if np.any(grazing):
        ta = wx * dx + wy * dy
        tb = (bx - ox) * dx + (by - oy) * dy
        ta = np.where(ta > EPS_GEOM, ta, np.inf)
        tb = np.where(tb > EPS_GEOM, tb, np.inf)
        out = np.where(grazing, np.minimum(ta, tb), out)
    return out


def point_segments_dist(p, segs: np.ndarray) -> np.ndarray:
    """Distance from a point to each segment row of an (n, 4) array."""
    o = _xy(p)
    ax = segs[:, 0]
    ay = segs[:, 1]
    ex = segs[:, 2] - ax
    ey = segs[:, 3] - ay
    wx = o[0] - ax
    wy = o[1] - ay
    ee = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        tproj = (wx * ex + wy * ey) / ee
    tproj = np.where(ee > 0.0, np.clip(tproj, 0.0, 1.0), 0.0)
    cx = ax + tproj * ex
    cy = ay + tproj * ey
    return np.hypot(o[0] - cx, o[1] - cy)


# ---------------------------------------------------------------------------
# Bounding boxes of segment blocks
# ---------------------------------------------------------------------------

# Segments per block of a box table.  With blocks of 8, 16, 32 and 64, the
# visibility block pass kept a median 19, 23, 30 and 37% of the segments of
# Koch d=1.5 L7 from 100 ring viewpoints, and visible_set took 3.7, 3.5, 3.7
# and 4.0 ms each; from the 2x2 grid on L8, 12.4, 10.1, 10.0 and 10.9 ms.
_BLOCK = 16


def segment_boxes(segs: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bounding boxes of the segment blocks, as rows (xmin, ymin, xmax, ymax).

    Block i holds the rows edges[i] up to edges[i + 1]; edges runs from 0
    to len(segs).
    """
    starts = edges[:-1]
    return np.column_stack([
        np.minimum.reduceat(np.minimum(segs[:, 0], segs[:, 2]), starts),
        np.minimum.reduceat(np.minimum(segs[:, 1], segs[:, 3]), starts),
        np.maximum.reduceat(np.maximum(segs[:, 0], segs[:, 2]), starts),
        np.maximum.reduceat(np.maximum(segs[:, 1], segs[:, 3]), starts)])


def box_dists(p, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(near, far): the distances from p to the nearest and the farthest point of each box.

    near is 0 exactly where p lies in the closed box, as the sign of each
    rounded difference is exact.
    """
    o = _xy(p)
    lo = boxes[:, 0:2] - o
    hi = boxes[:, 2:4] - o
    gap = np.maximum(np.maximum(lo, -hi), 0.0)
    reach = np.maximum(-lo, hi)
    return np.hypot(gap[:, 0], gap[:, 1]), np.hypot(reach[:, 0], reach[:, 1])


def nearest_dist(p, segs: np.ndarray, edges: np.ndarray, boxes: np.ndarray,
                 r: float) -> float:
    """min(point_segments_dist(p, segs)) where that is <= r; else some value > r.

    Only the blocks (``segment_boxes(segs, edges)``) whose boxes may hold a
    segment within r are measured; inf where none may.  point_segments_dist
    clips its projection parameter to [0, 1], so the exact point it forms
    lies on the segment and in its box; forming it moves it by at most
    2.6 eps M, M the largest coordinate in size, and the difference from p
    and its hypot lose 1.5 eps relatively.  The box's near distance is high
    by at most 2 eps relatively.  So every computed segment distance is at
    least near (1 - c eps) - c eps max(|p|_inf, M), with c = 128, and a box
    where that exceeds r holds no segment within r.
    """
    c_eps = 128 * np.finfo(float).eps
    scale = max(float(np.abs(_xy(p)).max()), float(np.abs(boxes).max()))
    near, _ = box_dists(p, boxes)
    close = near * (1.0 - c_eps) - c_eps * scale <= r
    ids = _ragged_ranges(edges[:-1][close], edges[1:][close])
    return float(point_segments_dist(p, segs[ids]).min(initial=np.inf))


# ---------------------------------------------------------------------------
# Ragged ranges and their expansion budget
# ---------------------------------------------------------------------------

# Most expanded items (sweep candidates or window pairs) held at once.
# It bounds the largest temporaries of the crossing search and of the
# sweep, so it sets part of a sweep's peak memory: koch-ring peaks about
# 4 MB lower than at 1 << 18, at the same wall time.  Each block pays
# numpy's per-call costs once, so a much smaller budget costs time.
_CHUNK = 1 << 16


def _blocks(counts: np.ndarray):
    """Contiguous [i0, i1) ranges covering counts whose sums stay <= _CHUNK.

    An item whose own count exceeds the budget gets a range of its own.
    """
    cum = np.cumsum(counts)
    i0 = 0
    done = 0
    while i0 < counts.size:
        i1 = max(int(np.searchsorted(cum, done + _CHUNK, side="right")), i0 + 1)
        yield i0, i1
        done = int(cum[i1 - 1])
        i0 = i1


def _ragged_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate arange(starts[i], ends[i]) for every i, vectorised.

    The one expansion behind the visibility sweep's candidates, the pairs
    of ``_window_pairs`` and box counting's grid-line crossings.
    """
    counts = ends - starts
    nonempty = counts > 0
    s = starts[nonempty]
    c = counts[nonempty]
    if s.size == 0:
        return np.empty(0, dtype=np.int64)
    # Steps of 1 inside a range and a jump to the next range's start at each
    # boundary, summed up.
    out = np.ones(int(c.sum()), dtype=np.int64)
    out[0] = s[0]
    out[np.cumsum(c[:-1])] = s[1:] - (s[:-1] + c[:-1] - 1)
    return np.cumsum(out, out=out)


def _window_pairs(keys: np.ndarray, reach: np.ndarray):
    """Every pair (a, b) with b after a in stable key order, keys[b] <= reach[a].

    The one pair search behind segment crossings, energy bands, the Riesz
    energy and the Frostman profile.  Yields (a, b) index arrays in blocks
    of at most ``_CHUNK`` pairs (or one item's pairs, if more), ordered by
    a's position in key order, then by b's.
    """
    order = np.argsort(keys, kind="stable")
    starts = np.arange(1, keys.size + 1)
    ends = np.maximum(np.searchsorted(keys[order], reach[order], "right"), starts)
    counts = ends - starts
    for k0, k1 in _blocks(counts):
        yield (order[np.repeat(np.arange(k0, k1), counts[k0:k1])],
               order[_ragged_ranges(starts[k0:k1], ends[k0:k1])])


# ---------------------------------------------------------------------------
# Diameter of a finite point set
# ---------------------------------------------------------------------------


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in counterclockwise order."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def build(seq):
        hull: list[np.ndarray] = []
        for q in seq:
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                if (a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0]) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(q)
        return hull

    lower = build(pts)
    upper = build(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _octagon_interior(pts: np.ndarray) -> np.ndarray:
    """Mask of the points strictly inside the octagon of 8 extreme points.

    The octagon's corners are the first maximisers of x, x+y, y, y-x, -x,
    -x-y, -y and x-y, in counterclockwise order (Akl and Toussaint, 1978).
    Repeated corners are skipped.  A point is strictly inside when its
    orientation against every edge is positive by more than the rounding
    error of that orientation, so such a point lies inside the hull and is
    no hull vertex.  Points on or near an edge are kept, and so is every
    point when the corners are collinear.
    """
    x = pts[:, 0]
    y = pts[:, 1]
    # Elementwise projections: a BLAS product would add threads for no gain.
    s = x + y
    t = y - x
    corners = pts[[np.argmax(x), np.argmax(s), np.argmax(y), np.argmax(t),
                   np.argmin(x), np.argmin(s), np.argmin(y), np.argmin(t)]]
    inside = np.ones(pts.shape[0], dtype=bool)
    # Relative bound of the orientation's rounding error, plus the absolute
    # error of products that underflow.
    rel = 4.0 * np.finfo(float).eps
    tiny = np.finfo(float).tiny
    for (ax, ay), (bx, by) in zip(corners, np.roll(corners, -1, axis=0)):
        if ax == bx and ay == by:
            continue
        left = (bx - ax) * (y - ay)
        right = (by - ay) * (x - ax)
        inside &= left - right > rel * (np.abs(left) + np.abs(right)) + tiny
    return inside


def diameter(points) -> float:
    """Exact diameter (max pairwise distance) of a finite point set.

    Points strictly inside the octagon of extreme points cannot be hull
    vertices and are dropped before the hull is built; the hull, and so
    the diameter, is exactly that of the whole set.  The kept points are
    scaled by a power of two into [-1, 1], which is exact; two distinct
    points then lie at least 2**-54 apart, so the largest square neither
    overflows nor underflows.
    """
    pts = _points_array(points)
    if pts.shape[0] == 0:
        raise ValueError("diameter of an empty set")
    if pts.shape[0] == 1:
        return 0.0
    # An orientation that overflows compares false, which only keeps a point.
    with np.errstate(over="ignore", invalid="ignore"):
        kept = pts[~_octagon_interior(pts)]
    e = int(np.frexp(max(pts.max(), -pts.min()))[1])
    hull = _convex_hull(np.ldexp(kept, -e))
    if hull.shape[0] <= 1:
        return 0.0
    d = hull[:, None, :] - hull[None, :, :]
    return float(np.ldexp(np.sqrt(np.max(np.sum(d * d, axis=2))), e))
