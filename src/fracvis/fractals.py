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
  cloud of degenerate segments.

:data:`FAMILIES` is the one definition of each family.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geom import diameter

KOCH_MAX_DIM = 1.79
MAX_LEVEL = 12
CANTOR_MAX_LEVEL = 10

# Quasicircle bump scale: step k multiplies radii by
# 1 + QUASI_AMPLITUDE * roughness * 2**(-k * holder) * eta, clipped so the
# factor never reaches zero.  Calibrated against box_dimension at levels 8-10.
QUASI_AMPLITUDE = 1.8
# Roughness of quasicircle() and of quasicircle specs that do not set one.
QUASI_ROUGHNESS = 0.6
_QUASI_BUMP_CLIP = 0.95


def check_keys(cls, d) -> dict:
    """``d`` unchanged if it can build the record ``cls``, else ValueError.

    Refuses anything but a JSON object, one with a key that names no field
    (a misspelt key would otherwise leave its field at the default), and
    one lacking a field that has no default; an unknown key is named first,
    as it tells more (a retired key, say).  A field the record derives
    itself (``init=False``) is no key.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, "
                         f"got {type(d).__name__}")
    fields = [f for f in dataclasses.fields(cls) if f.init]
    missing = [f.name for f in fields if f.name not in d
               and f.default is f.default_factory is dataclasses.MISSING]
    unknown = sorted(set(d) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{cls.__name__} has unknown field {unknown[0]!r}")
    if missing:
        raise ValueError(f"{cls.__name__} lacks required field {missing[0]!r}")
    return d


def coerce_fields(record, **kinds) -> None:
    """Set each named field of a record, frozen or not, to its value as its kind.

    A kind is int, float, str, dict, ``[k]`` (a list of kind k) or
    ``(float,) * n`` (a tuple of n floats).  Numbers must be finite, bools
    are not numbers, and an int must be integral, so ``count: 2.7`` is
    refused, not cut to 2.
    A field whose default is None may stay None.  Raises ValueError naming
    the field.
    """
    nullable = {f.name for f in dataclasses.fields(record) if f.default is None}
    for name, kind in kinds.items():
        value = getattr(record, name)
        if value is not None or name not in nullable:
            object.__setattr__(record, name, _as_kind(value, kind, name))


def _as_kind(value, kind, name: str):
    if isinstance(kind, (list, tuple)):
        # A list kind takes any length, a tuple kind only its own.
        if isinstance(value, (list, tuple)) and (isinstance(kind, list)
                                                 or len(value) == len(kind)):
            items = [_as_kind(v, kind[0], name) for v in value]
            return items if isinstance(kind, list) else tuple(items)
    elif kind in (str, dict):
        if isinstance(value, kind):
            return kind(value)
    elif (isinstance(value, numbers.Real) and not isinstance(value, bool)
          and -math.inf < value < math.inf and kind(value) == value):
        return kind(value)
    what = (f"a list of {'objects' if kind == [dict] else 'numbers'}"
            if isinstance(kind, list)
            else f"a list of {len(kind)} numbers" if isinstance(kind, tuple)
            else kind.__name__)
    raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class CurveSpec:
    """Recipe for a curve: family, parameters, and RNG seed."""

    kind: str
    target_dim: float | None = None
    level: int = 0
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        coerce_fields(self, kind=str, target_dim=float, level=int, seed=int,
                      params=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CurveSpec":
        return cls(**check_keys(cls, d))


@dataclass
class CurveApprox:
    """Polygonal approximation: ordered segments plus bookkeeping.

    ``segments`` is an (n, 4) float64 array of rows [ax, ay, bx, by]; it is
    built from any nonempty array or nested list of such rows of finite
    numbers, and anything else is refused with a ValueError naming
    ``segments``.  ``min_seg_len`` None means the shortest segment's
    length.  ``diam`` and ``is_point_cloud`` are derived from the segments
    once: ``diam`` is the :func:`geom.diameter` of :meth:`vertices`, the
    same point set as all 2n endpoints.  A point cloud's rows are all
    degenerate (a == b); such curves are rejected by the visibility module
    but accepted by the measure estimators.
    """

    segments: np.ndarray
    theoretical_dim: float | None
    min_seg_len: float | None
    spec: CurveSpec
    diam: float = field(init=False)
    is_point_cloud: bool = field(init=False)

    def __post_init__(self):
        try:  # ragged rows raise here
            segs = np.asarray(self.segments)
        except ValueError:
            segs = np.empty(0)
        if segs.dtype.kind not in "iuf" or segs.shape[1:] != (4,) or len(segs) == 0:
            raise ValueError(
                "segments must be a nonempty list of [x0, y0, x1, y1] rows of numbers")
        if not np.all(np.isfinite(segs)):
            raise ValueError("segments must be finite, got a non-finite number")
        self.segments = segs.astype(float, copy=False)
        if self.min_seg_len is None:
            self.min_seg_len = float(self.lengths().min())
        a, b = self.segments[:, 0:2], self.segments[:, 2:4]
        self.is_point_cloud = bool(np.all(a == b))
        self.diam = diameter(self.vertices())

    @property
    def n_segments(self) -> int:
        return int(self.segments.shape[0])

    def vertices(self) -> np.ndarray:
        """The vertex table: the segment starts, then the ends of the
        :func:`loose_segments`, so a chain of n segments lists n + 1 points.

        A point cloud lists its n points.
        """
        a = self.segments[:, 0:2]
        if self.is_point_cloud:
            return a
        return np.vstack([a, self.segments[loose_segments(self.segments), 2:4]])

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


def loose_segments(segments: np.ndarray) -> np.ndarray:
    """Ids, ascending, of the segments whose end is not bitwise the next one's start.

    This is the vertex-table rule of curve files and of the visibility
    sweep: segment i of n starts at vertex i, and ends at vertex i + 1
    unless it is loose; the ends of the loose segments are vertices n,
    n + 1, ... in this order.  The last segment is always loose, so a chain
    of n segments has n + 1 vertices.  Bitwise, so -0.0 and 0.0 differ.
    """
    bits = segments.view(np.int64)
    return np.append(np.flatnonzero((bits[:-1, 2] != bits[1:, 0])
                                    | (bits[:-1, 3] != bits[1:, 1])),
                     segments.shape[0] - 1)


def vertex_ends(per_vertex: np.ndarray, loose: np.ndarray, n: int) -> np.ndarray:
    """Each of n segments' entry of per_vertex at its end vertex.

    ``per_vertex`` is indexed by the vertices of :func:`loose_segments`'
    rule, and ``loose`` is that function's result; entries past the
    vertices are not read.
    """
    out = per_vertex[1:n + 1].copy()
    out[loose] = per_vertex[n:n + loose.size]
    return out


def from_segments(segments) -> CurveApprox:
    """Wrap raw [x0, y0, x1, y1] rows for tests and fixtures."""
    return CurveApprox(segments, None, None, CurveSpec("soup"))


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
    return CurveApprox(segs, target_dim, None, spec)


def quasicircle(seed: int, roughness: float = QUASI_ROUGHNESS,
                level: int = 9) -> CurveApprox:
    """Closed rough circle via radial midpoint displacement.

    Starts from an equilateral triangle inscribed in the unit circle.  Each
    refinement step k bisects every arc in angle and multiplies the averaged
    radius by 1 + QUASI_AMPLITUDE * roughness * 2**(-k * holder) * eta, eta
    uniform in [-1, 1) from one stream per step keyed by (seed, k), where
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
            QUASI_AMPLITUDE * roughness * 2.0 ** (-k * holder) * eta,
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
    spec = CurveSpec("quasicircle", None, level, seed, {"roughness": roughness})
    return CurveApprox(segs, None, None, spec)


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
    spec = CurveSpec("circle", params={"cx": float(c[0]), "cy": float(c[1]),
                                       "radius": float(radius), "n": n})
    return CurveApprox(segs, 1.0, None, spec)


def polyline(points) -> CurveApprox:
    """Open chain through the given points (consecutive points distinct)."""
    pts = np.asarray(points, dtype=float)
    if pts.size % 2 or pts.size < 4:
        raise ValueError(f"polyline points must be two or more x, y pairs, got {pts.size} numbers")
    pts = pts.reshape(-1, 2)
    steps = np.hypot(*(np.diff(pts, axis=0).T))
    if np.any(steps <= 0.0):
        raise ValueError("consecutive polyline points must be distinct")
    segs = _chain_to_segments(pts, closed=False)
    spec = CurveSpec("polyline",
                     params={"points": [float(v) for v in pts.ravel()]})
    return CurveApprox(segs, 1.0, None, spec)


def cantor_cross(ratio: float, level: int) -> CurveApprox:
    """Product of two linear Cantor sets with the given contraction ratio.

    Returned as 4**level degenerate segments, a point cloud that the
    visibility module rejects and the measure estimators accept.  Its
    dimension is 2 log 2 / log(1/ratio).
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
    spec = CurveSpec("cantor_cross", None, level, 0, {"ratio": ratio})
    return CurveApprox(segs, dim, ratio**level, spec)


# The one definition of each curve family: kind -> (builder, the CurveSpec
# fields it reads, {param: (kind, default)}); a param whose default is None
# is required.  generate() and `fracvis generate` read only this table.
FAMILIES = {
    "koch": (koch_generalized, ("target_dim", "level"), {}),
    "quasicircle": (quasicircle, ("level", "seed"),
                    {"roughness": (float, QUASI_ROUGHNESS)}),
    "circle": (lambda cx, cy, **kw: circle((cx, cy), **kw), (),
               {"cx": (float, 0.0), "cy": (float, 0.0), "radius": (float, 1.0),
                "n": (int, 4096)}),
    "polyline": (polyline, (), {"points": ([float], None)}),
    "cantor_cross": (cantor_cross, ("level",), {"ratio": (float, 1.0 / 3.0)}),
}


def generate(spec: CurveSpec) -> CurveApprox:
    """Materialise a curve from its spec, as its :data:`FAMILIES` entry says.

    Raises ValueError naming the key for an unknown kind or param, a param
    of the wrong kind, a missing required param or field, and a field the
    family does not read set away from its CurveSpec default; so a spec
    names exactly one curve.
    """
    if spec.kind not in FAMILIES:
        raise ValueError(f"unknown curve kind {spec.kind!r}; "
                         f"choose from {sorted(FAMILIES)}")
    build, reads, params = FAMILIES[spec.kind]
    unknown = sorted(set(spec.params) - set(params))
    if unknown:
        raise ValueError(f"{spec.kind} has unknown param {unknown[0]!r}")
    args, blank = {}, CurveSpec(spec.kind)
    for name in ("target_dim", "level", "seed"):
        value = getattr(spec, name)
        if name not in reads:
            if value != getattr(blank, name):
                raise ValueError(f"{spec.kind} does not read {name!r}")
        elif value is None:
            raise ValueError(f"{spec.kind} lacks required field {name!r}")
        else:
            args[name] = value
    for name, (kind, default) in params.items():
        if name in spec.params:
            args[name] = _as_kind(spec.params[name], kind, name)
        elif default is None:
            raise ValueError(f"{spec.kind} lacks required param {name!r}")
        else:
            args[name] = default
    return build(**args)


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
    return points_at_arclength(arclength_table(curve.segments, curve.lengths()),
                               fractions)


def arclength_table(segments: np.ndarray, lengths: np.ndarray) -> tuple:
    """The table :func:`points_at_arclength` reads, for one segment chain.

    Segment i runs from ``segments[i, 0:2]`` to ``segments[i, 2:4]`` and has
    length ``lengths[i]``; the segments are laid end to end in index order.
    The table holds the starts, the ends, the lengths and their cumulative
    sums from 0.  Callers pass their own lengths so every path keeps its
    exact rounding, and build the table once for all draws from one chain.
    """
    return (segments[:, 0:2], segments[:, 2:4], lengths,
            np.concatenate([[0.0], np.cumsum(lengths)]))


def points_at_arclength(table: tuple, fractions) -> np.ndarray:
    """Points at the given fractions of the total length of a segment chain.

    ``table`` is the chain's :func:`arclength_table`; each point is found
    by a binary search of its cumulative lengths, so once the table is
    built, k fractions on n segments cost O(k log n).
    """
    starts, ends, lengths, cum = table
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
    """Serialize a curve as a vertex table, floats at 17 significant digits.

    ``vertices`` is the flat x, y list of the n segment starts, then of the
    end of each segment in ``loose`` (:func:`loose_segments`), in its
    order; so a chain of n segments stores n + 1 points and a point cloud
    2n.  The document is built by hand so that identical curves always
    produce byte-identical files.
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
        f"\"target_dim\":{_fnum(spec.target_dim)},"
        f"\"level\":{spec.level},"
        f"\"seed\":{spec.seed},"
        f"\"params\":{{{params_items}}}"
        "}"
    )
    segs = curve.segments
    if not np.all(np.isfinite(segs)):
        raise ValueError("cannot serialize non-finite number")
    loose = loose_segments(segs)
    verts = np.concatenate([segs[:, 0:2].ravel(), segs[loose, 2:4].ravel()])
    # One %-format over every coordinate; "%.17g" matches _fnum's format().
    nums = ",".join(["%.17g"] * verts.size) % tuple(verts.tolist())
    return (
        "{"
        f"\"spec\":{spec_json},"
        f"\"theoretical_dim\":{_fnum(curve.theoretical_dim)},"
        f"\"min_seg_len\":{_fnum(curve.min_seg_len)},"
        f"\"vertices\":[{nums}],"
        f"\"loose\":[{','.join(map(str, loose.tolist()))}]"
        "}"
    )


def write_curve(curve: CurveApprox, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(curve_to_json(curve))
        fh.write("\n")


@dataclass(frozen=True)
class CurveFile:
    """The keys of a curve file, as :func:`curve_to_json` writes them."""

    spec: dict
    theoretical_dim: float | None
    min_seg_len: float
    vertices: list
    loose: list


def curve_from_json(text: str) -> CurveApprox:
    """The curve of a :func:`curve_to_json` document.

    A missing, unknown or malformed key (such as ``segments``, of the old
    row layout) is refused with a ValueError naming it.
    """
    # curve_to_json writes -0.0 as "-0", which json reads as the integer 0.
    doc = check_keys(CurveFile, json.loads(
        text, parse_int=lambda v: -0.0 if v == "-0" else int(v)))
    theo = doc["theoretical_dim"]
    if theo is not None:
        theo = _as_kind(theo, float, "theoretical_dim")
    return CurveApprox(_rows_of_table(doc["vertices"], doc["loose"]), theo,
                       _as_kind(doc["min_seg_len"], float, "min_seg_len"),
                       CurveSpec.from_dict(doc["spec"]))


def _rows_of_table(vertices, loose) -> np.ndarray:
    """The (n, 4) segment rows of a curve file's vertex table.

    n is the number of points less ``len(loose)``; see :func:`loose_segments`
    for the rule.  Raises ValueError naming ``vertices`` or ``loose``.
    """
    # A bool is an int to numpy and to isinstance, so test the exact types.
    if not isinstance(vertices, list) or not set(map(type, vertices)) <= {int, float}:
        raise ValueError("vertices must be a flat list of numbers")
    if len(vertices) % 2:
        raise ValueError(f"vertices must be x, y pairs, got {len(vertices)} numbers")
    try:
        pts = np.array(vertices, dtype=float).reshape(-1, 2)
    except OverflowError:
        raise ValueError("vertices must be finite, got an integer beyond "
                         "the float range") from None
    if not np.all(np.isfinite(pts)):
        raise ValueError("vertices must be finite, got a non-finite number")
    if len(pts) < 2:
        raise ValueError(f"vertices must hold 2 or more points, got {len(pts)}")
    if (not isinstance(loose, list) or not loose
            or not all(type(i) is int for i in loose)):
        raise ValueError("loose must be a nonempty list of integers")
    n = len(pts) - len(loose)
    if n < 1 or loose[-1] != n - 1:
        raise ValueError(f"loose must end with n - 1 = {n - 1}, where n is the "
                         f"{len(pts)} points less the {len(loose)} loose entries")
    if loose[0] < 0:
        raise ValueError(f"loose must lie in [0, {n - 1}], got {loose[0]}")
    try:
        ids = np.array(loose, dtype=np.int64)
    except OverflowError:  # an entry beyond int64, so beyond loose[-1]
        ids = None
    if ids is None or np.any(np.diff(ids) <= 0):
        raise ValueError("loose must be strictly increasing")
    return np.column_stack([pts[:n], vertex_ends(pts, ids, n)])


def read_curve(path) -> CurveApprox:
    with open(path, "r", encoding="utf-8") as fh:
        return curve_from_json(fh.read())
