"""Curve generators and discrete measures.

Curves are produced as ordered segment arrays wrapped in :class:`CurveApprox`.
Generation is deterministic: the same :class:`CurveSpec` always yields a
byte-identical segment array, and randomised families draw from RNG streams
keyed by (seed, refinement step) so results do not depend on evaluation
order.

Families
--------
* ``koch_generalized``: four-map generator on the unit segment with
  contraction ratio r = 4**(-1/target_dim); target_dim in (1, 1.79] keeps
  the curve self-avoiding.
* ``quasicircle``: radial midpoint displacement of a circle.  A closed
  Jordan curve by construction (the radius stays positive, so the curve is
  star-shaped about the origin).
* ``circle`` / ``polyline``: polygonal fixtures of dimension 1.
* ``cantor_cross``: product of two linear Cantor sets, kept as a point
  cloud of degenerate segments and flagged disconnected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geom import diameter

KOCH_MAX_DIM = 1.79
MAX_LEVEL = 12
CANTOR_MAX_LEVEL = 10

# Quasicircle bump scale: step k multiplies radii by
# 1 + amplitude * roughness * 2**(-k * holder) * eta, clipped so the factor
# never reaches zero.  Calibrated against box_dimension at levels 8-10.
QUASI_AMPLITUDE = 1.8
# Roughness of quasicircle() and of quasicircle specs that do not set one.
QUASI_ROUGHNESS = 0.6
_QUASI_BUMP_CLIP = 0.95


@dataclass(frozen=True)
class CurveSpec:
    """Recipe for a curve: family, parameters, and RNG seed."""

    kind: str
    target_dim: float | None
    level: int
    seed: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target_dim": self.target_dim,
            "level": self.level,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CurveSpec":
        return cls(
            kind=str(d["kind"]),
            target_dim=None if d.get("target_dim") is None else float(d["target_dim"]),
            level=int(d.get("level", 0)),
            seed=int(d.get("seed", 0)),
            params=dict(d.get("params", {})),
        )


@dataclass
class CurveApprox:
    """Polygonal approximation: ordered segments plus bookkeeping.

    ``segments`` is an (n, 4) float64 array of rows [ax, ay, bx, by].  For
    point-cloud families the rows are degenerate (a == b) and ``connected``
    is False; such curves are rejected by the visibility module but accepted
    by the measure estimators.
    """

    segments: np.ndarray
    level: int
    theoretical_dim: float | None
    min_seg_len: float
    diam: float
    spec: CurveSpec
    connected: bool = True

    @property
    def n_segments(self) -> int:
        return int(self.segments.shape[0])

    @property
    def is_point_cloud(self) -> bool:
        return not self.connected and bool(
            np.all(self.segments[:, 0:2] == self.segments[:, 2:4])
        )

    def vertices(self) -> np.ndarray:
        """All segment endpoints, deduplicated for chains."""
        if self.is_point_cloud:
            return self.segments[:, 0:2]
        a = self.segments[:, 0:2]
        b = self.segments[:, 2:4]
        if self.n_segments and np.allclose(a[1:], b[:-1]):
            return np.vstack([a, b[-1:]])
        return np.vstack([a, b])

    def lengths(self) -> np.ndarray:
        return np.hypot(
            self.segments[:, 2] - self.segments[:, 0],
            self.segments[:, 3] - self.segments[:, 1],
        )

    def total_length(self) -> float:
        return float(np.sum(self.lengths()))

    def centroid(self) -> np.ndarray:
        return self.vertices().mean(axis=0)


@dataclass
class DiscreteMeasure:
    """Weighted point masses used by the dimension and mass estimators."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must match points")
        if self.points.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def scaled(self, factor: float) -> "DiscreteMeasure":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return DiscreteMeasure(self.points.copy(), self.weights * factor)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _chain_to_segments(pts: np.ndarray, closed: bool) -> np.ndarray:
    if closed:
        nxt = np.roll(pts, -1, axis=0)
    else:
        nxt = pts[1:]
        pts = pts[:-1]
    return np.column_stack([pts, nxt])


def _finish(segments: np.ndarray, level: int, theoretical_dim: float | None,
            spec: CurveSpec, connected: bool = True,
            min_seg_len: float | None = None) -> CurveApprox:
    verts = np.vstack([segments[:, 0:2], segments[:, 2:4]])
    if min_seg_len is None:
        lengths = np.hypot(segments[:, 2] - segments[:, 0],
                           segments[:, 3] - segments[:, 1])
        min_seg_len = float(lengths.min())
    return CurveApprox(
        segments=segments,
        level=level,
        theoretical_dim=theoretical_dim,
        min_seg_len=min_seg_len,
        diam=diameter(verts),
        spec=spec,
        connected=connected,
    )


def from_segments(segments, kind: str = "soup", connected: bool = False) -> CurveApprox:
    """Wrap a raw (n, 4) segment array for tests and fixtures."""
    arr = np.asarray(segments, dtype=float).reshape(-1, 4)
    if arr.shape[0] == 0:
        raise ValueError("need at least one segment")
    spec = CurveSpec(kind, None, 0, 0, {"connected": connected})
    return _finish(arr, 0, None, spec, connected=connected)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def koch_generalized(target_dim: float, level: int) -> CurveApprox:
    """Self-avoiding four-map curve from (0, 0) to (1, 0).

    Each segment is replaced by four copies scaled by r = 4**(-1/target_dim):
    two flat outer pieces and two raised inner pieces meeting at a symmetric
    apex.  target_dim = log 4 / log 3 recovers the classic construction with
    r = 1/3.  Produces 4**level segments of length r**level.
    """
    if not (1.0 < target_dim <= KOCH_MAX_DIM):
        raise ValueError(
            f"target_dim must lie in (1, {KOCH_MAX_DIM}]; larger values self-intersect"
        )
    if not (0 <= level <= MAX_LEVEL):
        raise ValueError(f"level must lie in [0, {MAX_LEVEL}]")

    r = 4.0 ** (-1.0 / target_dim)
    # Apex height: the two inner maps have length r and meet above 1/2.
    h = math.sqrt(r * r - (0.5 - r) ** 2)
    gen = np.array([r, 0.5 + 1j * h, 1.0 - r], dtype=complex)

    pts = np.array([0.0, 1.0], dtype=complex)
    for _ in range(level):
        start = pts[:-1]
        delta = np.diff(pts)
        inner = start[:, None] + delta[:, None] * gen[None, :]
        out = np.empty(4 * len(start) + 1, dtype=complex)
        out[0::4] = pts
        out[1::4] = inner[:, 0]
        out[2::4] = inner[:, 1]
        out[3::4] = inner[:, 2]
        pts = out

    xy = np.column_stack([pts.real, pts.imag])
    segs = _chain_to_segments(xy, closed=False)
    spec = CurveSpec("koch", target_dim, level, 0, {})
    return _finish(segs, level, target_dim, spec)


def quasicircle(seed: int, roughness: float = QUASI_ROUGHNESS, level: int = 9,
                amplitude: float = QUASI_AMPLITUDE) -> CurveApprox:
    """Closed rough circle via radial midpoint displacement.

    Starts from an equilateral triangle inscribed in the unit circle.  Each
    refinement step k bisects every arc in angle and multiplies the averaged
    radius by 1 + amplitude * roughness * 2**(-k * holder) * eta, eta uniform
    in [-1, 1) from one stream per step keyed by (seed, k), where
    holder = 1 - 0.9 * roughness.  Displacements scaling like the Hoelder
    exponent ``holder`` of the step size make the limit graph roughly
    (2 - holder)-dimensional, so the box dimension climbs with roughness;
    roughness 0 gives the regular 3 * 2**level gon.  Bumps are clipped to
    +/- _QUASI_BUMP_CLIP, so radii stay positive for every parameter choice,
    the curve is star-shaped about the origin, and cannot self-intersect.
    """
    if not (0.0 <= roughness < 1.0):
        raise ValueError("roughness must lie in [0, 1)")
    if not (0 <= level <= MAX_LEVEL):
        raise ValueError(f"level must lie in [0, {MAX_LEVEL}]")
    if amplitude < 0.0:
        raise ValueError("amplitude must be non-negative")
    holder = 1.0 - 0.9 * roughness

    theta = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    radius = np.ones(3)
    for k in range(1, level + 1):
        m = len(theta)
        theta_next = np.concatenate([theta[1:], [theta[0] + 2.0 * math.pi]])
        mid_theta = 0.5 * (theta + theta_next)
        rng = np.random.default_rng([seed, k])
        eta = rng.uniform(-1.0, 1.0, size=m)
        bump = np.clip(
            amplitude * roughness * 2.0 ** (-k * holder) * eta,
            -_QUASI_BUMP_CLIP, _QUASI_BUMP_CLIP,
        )
        mid_radius = 0.5 * (radius + np.roll(radius, -1)) * (1.0 + bump)
        theta_all = np.empty(2 * m)
        radius_all = np.empty(2 * m)
        theta_all[0::2] = theta
        theta_all[1::2] = mid_theta
        radius_all[0::2] = radius
        radius_all[1::2] = mid_radius
        theta = np.mod(theta_all, 2.0 * math.pi)
        radius = radius_all

    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    segs = _chain_to_segments(pts, closed=True)
    spec = CurveSpec("quasicircle", None, level, seed,
                     {"roughness": roughness, "amplitude": amplitude})
    return _finish(segs, level, None, spec)


def circle(center, radius: float, n: int) -> CurveApprox:
    """Regular n-gon inscribed in the circle of the given center and radius."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    c = np.asarray(center, dtype=float)
    ang = 2.0 * math.pi * np.arange(n) / n
    pts = c + radius * np.column_stack([np.cos(ang), np.sin(ang)])
    segs = _chain_to_segments(pts, closed=True)
    spec = CurveSpec("circle", 1.0, 0, 0,
                     {"cx": float(c[0]), "cy": float(c[1]),
                      "radius": float(radius), "n": n})
    return _finish(segs, 0, 1.0, spec)


def polyline(points) -> CurveApprox:
    """Open chain through the given points (consecutive points distinct)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 2:
        raise ValueError("polyline needs at least two points")
    steps = np.hypot(*(np.diff(pts, axis=0).T))
    if np.any(steps <= 0.0):
        raise ValueError("consecutive polyline points must be distinct")
    segs = _chain_to_segments(pts, closed=False)
    spec = CurveSpec("polyline", 1.0, 0, 0,
                     {"points": [float(v) for v in pts.ravel()]})
    return _finish(segs, 0, 1.0, spec)


def cantor_cross(ratio: float, level: int) -> CurveApprox:
    """Product of two linear Cantor sets with the given contraction ratio.

    Returned as 4**level degenerate segments (a point cloud) flagged
    disconnected; the visibility module rejects it while the measure
    estimators accept it.  Its dimension is 2 log 2 / log(1/ratio).
    ``min_seg_len`` records the finest construction interval ratio**level,
    the natural feature size of the cloud.
    """
    if not (0.0 < ratio < 0.5):
        raise ValueError("ratio must lie in (0, 1/2)")
    if not (0 <= level <= CANTOR_MAX_LEVEL):
        raise ValueError(f"level must lie in [0, {CANTOR_MAX_LEVEL}]")
    xs = np.array([0.0])
    for i in range(level):
        offset = (1.0 - ratio) * ratio**i
        xs = np.concatenate([xs, xs + offset])
    xs = np.sort(xs)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    segs = np.column_stack([pts, pts])
    dim = 2.0 * math.log(2.0) / math.log(1.0 / ratio)
    spec = CurveSpec("cantor_cross", dim, level, 0, {"ratio": ratio})
    return _finish(segs, level, dim, spec, connected=False,
                   min_seg_len=ratio**level)


_GENERATORS = {"koch", "quasicircle", "circle", "polyline", "cantor_cross"}


def generate(spec: CurveSpec) -> CurveApprox:
    """Materialise a curve from its spec."""
    if spec.kind == "koch":
        if spec.target_dim is None:
            raise ValueError("koch requires target_dim")
        return koch_generalized(spec.target_dim, spec.level)
    if spec.kind == "quasicircle":
        return quasicircle(
            spec.seed,
            float(spec.params.get("roughness", QUASI_ROUGHNESS)),
            spec.level,
            float(spec.params.get("amplitude", QUASI_AMPLITUDE)),
        )
    if spec.kind == "circle":
        return circle(
            (float(spec.params.get("cx", 0.0)), float(spec.params.get("cy", 0.0))),
            float(spec.params.get("radius", 1.0)),
            int(spec.params.get("n", 4096)),
        )
    if spec.kind == "polyline":
        pts = np.asarray(spec.params["points"], dtype=float).reshape(-1, 2)
        return polyline(pts)
    if spec.kind == "cantor_cross":
        return cantor_cross(float(spec.params.get("ratio", 1.0 / 3.0)), spec.level)
    raise ValueError(f"unknown curve kind {spec.kind!r}; choose from {sorted(_GENERATORS)}")


# ---------------------------------------------------------------------------
# Measures on curves
# ---------------------------------------------------------------------------


def uniform_measure(curve: CurveApprox, n: int) -> DiscreteMeasure:
    """n equal point masses spread arclength-uniformly along the curve.

    Atoms sit at arclengths (i + 1/2) / n of the total length (midpoint
    rule), so the placement is deterministic.  For point-cloud curves the
    atoms are an even stride through the cloud instead.
    """
    if n < 1:
        raise ValueError("need at least one atom")
    if curve.is_point_cloud:
        cloud = curve.segments[:, 0:2]
        idx = np.floor((np.arange(n) + 0.5) * cloud.shape[0] / n).astype(int)
        pts = cloud[np.minimum(idx, cloud.shape[0] - 1)]
    else:
        pts = sample_arclength(curve, (np.arange(n) + 0.5) / n)
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def sample_arclength(curve: CurveApprox, fractions: np.ndarray) -> np.ndarray:
    """Points at the given arclength fractions (in [0, 1]) along the curve."""
    return points_at_arclength(curve.segments[:, 0:2], curve.segments[:, 2:4],
                               curve.lengths(), fractions)


def points_at_arclength(starts: np.ndarray, ends: np.ndarray,
                        lengths: np.ndarray, fractions) -> np.ndarray:
    """Points at the given fractions of the total length of a segment chain.

    Segment i runs from ``starts[i]`` to ``ends[i]`` and has length
    ``lengths[i]``; the segments are laid end to end in index order.
    Callers pass their own lengths so every path keeps its exact rounding.
    """
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    targets = np.asarray(fractions, dtype=float) * cum[-1]
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0,
                  lengths.size - 1)
    local = (targets - cum[idx]) / lengths[idx]
    return starts[idx] + local[:, None] * (ends[idx] - starts[idx])


# ---------------------------------------------------------------------------
# Curve files
# ---------------------------------------------------------------------------

_FLOAT_FMT = ".17g"


def _fnum(v) -> str:
    if v is None:
        return "null"
    s = format(float(v), _FLOAT_FMT)
    # JSON requires a leading digit form for infinities / nan to be avoided.
    if s in ("inf", "-inf", "nan"):
        raise ValueError("cannot serialize non-finite number")
    return s


def curve_to_json(curve: CurveApprox) -> str:
    """Serialize a curve with floats at 17 significant digits.

    The document is built by hand so that identical curves always produce
    byte-identical files.
    """
    spec = curve.spec

    def _pval(v):
        if isinstance(v, bool) or v is None or isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, list):
            return f"[{','.join(_pval(x) for x in v)}]"
        return _fnum(v)

    params_items = ",".join(
        f"{json.dumps(k)}:{_pval(v)}" for k, v in sorted(spec.params.items())
    )
    spec_json = (
        "{"
        f"\"kind\":{json.dumps(spec.kind)},"
        f"\"target_dim\":{_fnum(spec.target_dim) if spec.target_dim is not None else 'null'},"
        f"\"level\":{spec.level},"
        f"\"seed\":{spec.seed},"
        f"\"params\":{{{params_items}}}"
        "}"
    )
    rows = ",".join(
        f"[{_fnum(r[0])},{_fnum(r[1])},{_fnum(r[2])},{_fnum(r[3])}]"
        for r in curve.segments
    )
    theo = _fnum(curve.theoretical_dim) if curve.theoretical_dim is not None else "null"
    return (
        "{"
        f"\"spec\":{spec_json},"
        f"\"theoretical_dim\":{theo},"
        f"\"min_seg_len\":{_fnum(curve.min_seg_len)},"
        f"\"segments\":[{rows}]"
        "}"
    )


def write_curve(curve: CurveApprox, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(curve_to_json(curve))
        fh.write("\n")


def curve_from_json(text: str) -> CurveApprox:
    doc = json.loads(text)
    spec = CurveSpec.from_dict(doc["spec"])
    segs = np.asarray(doc["segments"], dtype=float).reshape(-1, 4)
    theo = doc.get("theoretical_dim")
    if spec.kind == "cantor_cross":
        connected = False
    else:
        connected = bool(spec.params.get("connected", True))
    return _finish(
        segs,
        spec.level,
        None if theo is None else float(theo),
        spec,
        connected=connected,
        min_seg_len=float(doc["min_seg_len"]),
    )


def read_curve(path) -> CurveApprox:
    with open(path, "r", encoding="utf-8") as fh:
        return curve_from_json(fh.read())
