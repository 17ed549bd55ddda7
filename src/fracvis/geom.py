"""Planar primitives and the exact angular computations built on them.

Everything downstream (curve generation, the visibility sweep, the measure
diagnostics) reduces to a small vocabulary defined here: points, segments,
annuli ``A(x, d-, d+)``, open cones ``V(x, u, sigma)``, parallel and radial
half-tubes, the subtended-angle measure ``arc_diam``, and first-hit
parameters of rays against segments.

Conventions
-----------
* ``perp((x, y)) = (-y, x)``.
* Angles are radians; ``log_polar`` reports them in ``(-pi, pi]``.
* Cones and tubes are open sets, so membership uses strict inequalities.
* ``EPS_GEOM`` is the degeneracy tolerance for collinearity and on-curve
  tests.  Inequality checkers use the looser ``CHECK_SLACK`` so that valid
  boundary configurations do not flake on rounding.
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

PLUS = "plus"
MINUS = "minus"


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
class Segment:
    """Closed segment [a, b] with distinct endpoints."""

    a: Point
    b: Point

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("segment endpoints must be distinct")

    @property
    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.a.x, self.a.y, self.b.x, self.b.y])


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


@dataclass(frozen=True)
class RadialTube:
    """Radial half-tube T(x, u, r): the cone V(x, u-x, r/d(x,u)) cut at |u-x|.

    ``side == "plus"`` keeps the part beyond u (d(x, z) > d(x, u)),
    ``side == "minus"`` the part between x and u (d(x, z) < d(x, u)).
    """

    origin: Point
    anchor: Point
    half_width: float
    side: str

    def __post_init__(self):
        if self.side not in (PLUS, MINUS):
            raise ValueError("side must be 'plus' or 'minus'")
        if not self.half_width > 0.0:
            raise ValueError("half width must be positive")
        if self._anchor_dist() <= 0.0:
            raise ValueError("anchor must differ from origin")

    def _anchor_dist(self) -> float:
        return math.hypot(self.anchor.x - self.origin.x, self.anchor.y - self.origin.y)

    def cone(self) -> Cone:
        d = self._anchor_dist()
        return Cone(
            self.origin,
            (self.anchor.x - self.origin.x, self.anchor.y - self.origin.y),
            self.half_width / d,
        )

    def contains(self, p) -> bool:
        return bool(self.mask(_xy(p)[None, :])[0])

    def mask(self, pts: np.ndarray) -> np.ndarray:
        d = self._anchor_dist()
        rel = pts - self.origin.as_array()
        dist = np.hypot(rel[:, 0], rel[:, 1])
        radial = dist > d if self.side == PLUS else dist < d
        return self.cone().mask(pts) & radial


@dataclass(frozen=True)
class ParallelTube:
    """Vertical half-tube at base x: |p1 - x1| < r and p2 above/below x2."""

    base: Point
    half_width: float
    side: str

    def __post_init__(self):
        if self.side not in (PLUS, MINUS):
            raise ValueError("side must be 'plus' or 'minus'")
        if not self.half_width > 0.0:
            raise ValueError("half width must be positive")

    def contains(self, p) -> bool:
        return bool(self.mask(_xy(p)[None, :])[0])

    def mask(self, pts: np.ndarray) -> np.ndarray:
        dx = np.abs(pts[:, 0] - self.base.x)
        dy = pts[:, 1] - self.base.y
        vertical = dy > 0.0 if self.side == PLUS else dy < 0.0
        return (dx < self.half_width) & vertical


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


def angle_ratio(p, a) -> float:
    """cos of the angle at p between the chords to a and to -a.

    Computes <p-a, p+a> / (|p-a| |p+a|).  Undefined when p equals a or -a.
    With a = 0 this degenerates to 1 (the two chords coincide).
    """
    pv = _xy(p)
    av = _xy(a)
    pm = pv - av
    pp = pv + av
    n1 = float(np.hypot(*pm))
    n2 = float(np.hypot(*pp))
    if n1 <= EPS_GEOM or n2 <= EPS_GEOM:
        raise ValueError("angle_ratio is undefined for p = a or p = -a")
    return float(np.dot(pm, pp) / (n1 * n2))


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


def check_angle_ratio_bounds(a, pts, d_minus: float, d_plus: float,
                             slack: float = CHECK_SLACK) -> bool:
    """Verify the two-sided angle-ratio bound on a finite configuration.

    Preconditions (raise ValueError if violated): 0 < d- <= d+, d- <= 1,
    0 < |a| <= d-/2, every point lies in the annulus A(0, d-, d+), and the
    minimal slope alpha is <= 1.  Returns True iff every point p satisfies

        1/2 <= angle_ratio(p, a) <= 1 - (9 / (17 d+^2)) (|a| alpha)^2

    up to ``slack``.
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
    ok = (ratio >= ANGLE_RATIO_LOWER - slack) & (ratio <= upper + slack)
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


def intercone_holds(p, sigma: float, tau: float, u,
                    slack: float = CHECK_SLACK) -> bool:
    """Check <u - p, p/|p|> >= intercone_bound(p, sigma, tau) - slack.

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
    return val >= intercone_bound(pv, sigma, tau) - slack


# ---------------------------------------------------------------------------
# Log-polar chart
# ---------------------------------------------------------------------------


def log_polar(x, u) -> tuple[float, float]:
    """Chart u -> (r, theta) about x with r = |u - x|, theta in (-pi, pi].

    Restricted to a quadrant of an annulus about x the chart is bi-Lipschitz,
    which is what makes cone and tube masses comparable; callers enforce that
    restriction themselves.
    """
    d = _xy(u) - _xy(x)
    r = float(np.hypot(*d))
    if r <= EPS_GEOM:
        raise ValueError("log_polar is undefined at the chart center")
    theta = math.atan2(d[1], d[0])
    if theta == -math.pi:
        theta = math.pi
    return r, theta


def log_polar_inverse(x, r: float, theta: float) -> np.ndarray:
    """Inverse chart: x + r (cos theta, sin theta)."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    o = _xy(x)
    return o + r * np.array([math.cos(theta), math.sin(theta)])


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

    This is the kernel of every brute-force ray query: the helpers below,
    ``first_hit`` and the visibility oracle.  The visibility sweep computes
    its own line hits, since a probe inside a segment's angular span always
    meets that segment.
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


def ray_segments_hit_t(ox: float, oy: float, dx: float, dy: float,
                       segs: np.ndarray) -> np.ndarray:
    """Hit parameters of one unit-direction ray against (n, 4) segment rows."""
    return hit_t_elementwise(ox, oy, dx, dy,
                             segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3])


def ray_segment_hit(origin, theta: float, seg) -> float | None:
    """Smallest t > 0 with origin + t (cos theta, sin theta) on the segment.

    Returns None when the ray misses.  Endpoint hits count; for a ray
    collinear with the segment the nearest endpoint is reported.
    """
    o = _xy(origin)
    if isinstance(seg, Segment):
        arr = seg.as_array()[None, :]
    else:
        arr = np.asarray(seg, dtype=float).reshape(1, 4)
    t = ray_segments_hit_t(o[0], o[1], math.cos(theta), math.sin(theta), arr)[0]
    return None if not np.isfinite(t) else float(t)


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


def diameter(points) -> float:
    """Exact diameter (max pairwise distance) of a finite point set."""
    pts = _points_array(points)
    if pts.shape[0] == 0:
        raise ValueError("diameter of an empty set")
    if pts.shape[0] == 1:
        return 0.0
    hull = _convex_hull(pts)
    if hull.shape[0] <= 1:
        return 0.0
    d = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt(np.max(np.sum(d * d, axis=2))))
