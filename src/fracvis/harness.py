"""Experiment runner: dimension-drop bounds tested over viewpoint sweeps.

The experiment asks how much smaller the visible part of a curve looks than
the curve itself.  For a set of dimension d the visible part from almost
every point has dimension at most f(d) = 1/2 + sqrt(d - 3/4), and the set
of viewpoints seeing dimension above s has dimension at most (d-s)/(s-1).
``run_sweep`` places viewpoints around a generated curve, computes each
exact visible set, estimates its box dimension, and writes one CSV row per
viewpoint plus an aggregate report that scores both bounds.

Everything downstream of a config is reproducible: viewpoint i draws from
its own RNG stream keyed by (seed, i), rows are computed concurrently but
written in index order, and floats are serialized with repr, so results.csv
and the SVG plots are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svg as svgmod
from .fractals import CurveApprox, CurveSpec, check_keys, coerce_fields, generate
from . import geom
from .geom import EPS_GEOM, TWO_PI, point_segments_dist
from .measurelab import DimEstimate, box_dimension, default_scale_window
from .visibility import SegmentIndex, VisibleSet, sample_visible, visible_set

BOUND_TOL_DEFAULT = 0.1

# Below this many violating viewpoints a box-count of their positions is
# meaningless, so the report only flags the shortfall.
MIN_EXCEPTIONAL_POINTS = 20

_PLACEMENT_TRIES = 128

# results.csv: each column with the parser that reads it back into a
# SweepRow field; None marks the sweep-level columns a row does not hold.
_CSV = [
    ("experiment_id", None), ("curve_kind", None), ("target_dim", None),
    ("level", None), ("seed", None), ("vp_index", int), ("vp_x", float),
    ("vp_y", float), ("dist_to_set", float), ("n_pieces", int),
    ("visible_length", float), ("angular_coverage", float),
    ("dim_visible", float), ("dim_visible_stderr", float),
    ("r_squared", float), ("f_bound", None), ("within_bound", None),
    ("error_flag", str),
]
CSV_COLUMNS = [name for name, _ in _CSV]


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------


def bound_value(d: float) -> float:
    """Ceiling 1/2 + sqrt(d - 3/4) on the visible dimension from a.e. point.

    Equals the golden ratio at d = 2 and d itself at d = 1.
    """
    d = float(d)
    if d < 0.75:
        raise ValueError("bound is defined only for d >= 3/4")
    return 0.5 + math.sqrt(d - 0.75)


def exceptional_bound(d: float, s: float) -> float:
    """Dimension ceiling (d - s)/(s - 1) on viewpoints seeing more than s.

    Clamped at zero when s exceeds d (a dimension cannot be negative).
    Warns when s is at or below ``bound_value(d)``, where the estimate says
    nothing beyond the almost-everywhere bound.
    """
    d = float(d)
    s = float(s)
    if s <= 1.0:
        raise ValueError("exceptional bound requires s > 1")
    if d >= 0.75 and s <= bound_value(d):
        warnings.warn(
            "s <= 1/2 + sqrt(d - 3/4): the exceptional-set bound is vacuous here",
            stacklevel=2,
        )
    if s >= d:
        return 0.0
    return (d - s) / (s - 1.0)


def _within_bound(dim: float, f_bound: float, tol: float) -> bool:
    """The scoring rule: a finite estimate at most ``tol`` above f(d)."""
    return math.isfinite(dim) and dim <= f_bound + tol


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewpointPlan:
    """Where to put viewpoints: a ring around the curve, a box, or a grid.

    ``radii`` (ring mode) are absolute distances from the curve's vertex
    centroid; the default (None) is (diam, 3 * diam), far enough out that
    every viewpoint clears the curve.  ``region`` (random/grid modes) is
    (xmin, ymin, xmax, ymax); the default inflates the curve's bounding box
    by half a diameter.  A plan refuses radii outside ring mode and a
    region in it, rather than ignore them.
    """

    mode: str = "ring"
    count: int = 50
    radii: tuple[float, float] | None = None
    region: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        coerce_fields(self, count=int, radii=(float,) * 2, region=(float,) * 4)
        if self.mode not in ("grid", "random", "ring"):
            raise ValueError("viewpoint mode must be grid, random, or ring")
        if self.count < 1:
            raise ValueError("need at least one viewpoint")
        if self.radii is not None:
            lo, hi = self.radii
            if not (0.0 < lo <= hi):
                raise ValueError("ring radii must satisfy 0 < inner <= outer")
        if self.region is not None:
            x0, y0, x1, y1 = self.region
            if not (x0 < x1 and y0 < y1):
                raise ValueError("region must have positive width and height")
        if self.radii is not None and self.mode != "ring":
            raise ValueError(f"{self.mode} mode takes no radii; use mode ring")
        if self.region is not None and self.mode == "ring":
            raise ValueError("ring mode takes no region; use mode grid or random")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ViewpointPlan":
        return cls(**check_keys(cls, d))


@dataclass(frozen=True)
class EstimatorPlan:
    """Box-count scale policy: auto window per curve, or a fixed one.

    A scale window goes with the fixed policy only; auto, which picks each
    curve's own window, refuses one rather than ignore it.
    """

    scale_policy: str = "auto"
    n_scales: int | None = None
    scale_window: tuple[float, float] | None = None

    def __post_init__(self):
        coerce_fields(self, n_scales=int, scale_window=(float,) * 2)
        if self.scale_policy not in ("auto", "fixed"):
            raise ValueError("scale policy must be auto or fixed")
        if self.scale_policy == "fixed" and self.scale_window is None:
            raise ValueError("fixed scale policy needs a scale window")
        if self.scale_policy == "auto" and self.scale_window is not None:
            raise ValueError("auto scale policy takes no scale window; "
                             "use scale_policy fixed")
        if self.n_scales is not None and self.n_scales < 4:
            raise ValueError("need at least 4 scales for a usable fit")
        if self.scale_window is not None:
            lo, hi = self.scale_window
            if not (0.0 < lo < hi):
                raise ValueError("scale window must satisfy 0 < min < max")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorPlan":
        return cls(**check_keys(cls, d))


@dataclass(frozen=True)
class ExperimentConfig:
    curve: CurveSpec
    viewpoints: ViewpointPlan = field(default_factory=ViewpointPlan)
    samples_per_visible: int = 4096
    estimator: EstimatorPlan = field(default_factory=EstimatorPlan)
    s_threshold: float = 1.5
    seed: int = 0
    output_dir: str = "."
    bound_tol: float = BOUND_TOL_DEFAULT

    def __post_init__(self):
        coerce_fields(self, samples_per_visible=int, s_threshold=float,
                      seed=int, output_dir=str, bound_tol=float)
        if self.samples_per_visible < 16:
            raise ValueError("samples_per_visible must be at least 16")
        if not (1.0 < self.s_threshold < 2.0):
            raise ValueError("s_threshold must lie in (1, 2)")
        if self.bound_tol < 0.0:
            raise ValueError("bound tolerance must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(check_keys(cls, d))
        for name, record in (("curve", CurveSpec), ("viewpoints", ViewpointPlan),
                             ("estimator", EstimatorPlan)):
            if name in d:
                try:
                    d[name] = record.from_dict(d[name])
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def experiment_id(self) -> str:
        """Content hash of the scientific inputs; where results land is not one."""
        payload = {k: v for k, v in self.to_dict().items() if k != "output_dir"}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Viewpoint placement
# ---------------------------------------------------------------------------


def _off_curve_eps(curve: CurveApprox) -> float:
    return max(EPS_GEOM, 1e-9 * curve.diam)


def _default_region(curve: CurveApprox) -> tuple[float, float, float, float]:
    verts = curve.vertices()
    pad = 0.5 * curve.diam
    return (
        float(verts[:, 0].min()) - pad,
        float(verts[:, 1].min()) - pad,
        float(verts[:, 0].max()) + pad,
        float(verts[:, 1].max()) + pad,
    )


def plan_viewpoints(curve: CurveApprox, plan: ViewpointPlan,
                    seed: int) -> np.ndarray:
    """Deterministic (count, 2) viewpoint array, all strictly off the curve.

    Viewpoint i draws only from ``default_rng([seed, i])``, so the result
    never depends on evaluation order.  Positions landing on the curve are
    rejection-sampled from the same stream.  A candidate is on the curve
    when a segment lies within eps of it; only the blocks of
    ``geom._BLOCK`` segments whose boxes come that close are measured
    (``geom.nearest_dist``).
    """
    c = curve.centroid()
    eps = _off_curve_eps(curve)
    segs = curve.segments
    edges = np.append(np.arange(0, segs.shape[0], geom._BLOCK), segs.shape[0])
    boxes = geom.segment_boxes(segs, edges)
    if plan.mode == "ring":
        radii = plan.radii or (curve.diam, 3.0 * curve.diam)
    else:
        region = plan.region or _default_region(curve)
    if plan.mode == "grid":
        side = math.ceil(math.sqrt(plan.count))
        x0, y0, x1, y1 = region
        gx = (np.arange(side) + 0.5) / side * (x1 - x0) + x0
        gy = (np.arange(side) + 0.5) / side * (y1 - y0) + y0

    out = np.empty((plan.count, 2))
    for i in range(plan.count):
        rng = np.random.default_rng([seed, i])
        p = None
        for attempt in range(_PLACEMENT_TRIES):
            if plan.mode == "ring":
                ang = rng.uniform(0.0, TWO_PI)
                rad = rng.uniform(radii[0], radii[1])
                cand = c + rad * np.array([math.cos(ang), math.sin(ang)])
            elif plan.mode == "random":
                x0, y0, x1, y1 = region
                cand = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
            else:
                row, col = divmod(i, side)
                cand = np.array([gx[col], gy[row % side]])
                if attempt > 0:
                    cand = cand + rng.uniform(-0.5, 0.5, size=2) * np.array(
                        [(x1 - x0) / side, (y1 - y0) / side]
                    )
            if geom.nearest_dist(cand, segs, edges, boxes, eps) > eps:
                p = cand
                break
        if p is None:
            raise ValueError(f"could not place viewpoint {i} off the curve")
        out[i] = p
    return out


# ---------------------------------------------------------------------------
# Per-viewpoint rows
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    """One viewpoint's outcome; estimate fields are NaN on error."""

    vp_index: int
    vp_x: float
    vp_y: float
    dist_to_set: float
    n_pieces: int = 0
    visible_length: float = math.nan
    angular_coverage: float = math.nan
    dim_visible: float = math.nan
    dim_visible_stderr: float = math.nan
    r_squared: float = math.nan
    error_flag: str = ""
    estimate: DimEstimate | None = None


def _estimator_window(curve: CurveApprox,
                      plan: EstimatorPlan) -> tuple[float, float]:
    if plan.scale_policy == "fixed":
        return plan.scale_window
    return default_scale_window(curve)


def _row_for_viewpoint(curve: CurveApprox, index: SegmentIndex | None,
                       vp: np.ndarray, vp_index: int,
                       config: ExperimentConfig
                       ) -> tuple[SweepRow, VisibleSet | None]:
    """The viewpoint's row and its visible set (None if refused)."""
    vx, vy = float(vp[0]), float(vp[1])
    try:
        vs = visible_set(curve, vp, index)
    except ValueError as exc:
        # visible_set measures the distance itself; only a refusal needs it here.
        dist = float(point_segments_dist(vp, curve.segments).min())
        return SweepRow(vp_index=vp_index, vp_x=vx, vp_y=vy, dist_to_set=dist,
                        error_flag=str(exc).replace(",", ";")), None
    row = SweepRow(vp_index=vp_index, vp_x=vx, vp_y=vy,
                   dist_to_set=vs.viewpoint.dist_to_set, n_pieces=len(vs.segments),
                   visible_length=vs.total_length,
                   angular_coverage=vs.angular_coverage)
    if not len(vs.segments):
        row.error_flag = "empty_visible_set"
        return row, vs
    try:
        window = _estimator_window(curve, config.estimator)
        # Samples must resolve the finest counting scale or boxes on the
        # visible pieces go uncounted.
        n = max(config.samples_per_visible,
                int(math.ceil(2.0 * vs.total_length / window[0])))
        pts, _ = sample_visible(vs, n)
        est = box_dimension(pts, scale_window=window,
                            n_scales=config.estimator.n_scales)
        row.dim_visible = est.value
        row.dim_visible_stderr = est.stderr
        row.r_squared = est.r_squared
        row.estimate = est
    except ValueError as exc:
        row.error_flag = str(exc).replace(",", ";")
    return row, vs


# ---------------------------------------------------------------------------
# Aggregation and report
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    """Aggregate scorecard for one sweep against both dimension bounds.

    Each field is coerced to its kind on construction (``coerce_fields``),
    so a report read back refuses a field of the wrong kind by name.
    """

    experiment_id: str
    d_hat: DimEstimate | float
    f_bound: float
    bound_tol: float
    s_threshold: float
    rows: list[dict]
    fraction_within: float
    exceptional_set_fraction: float
    exceptional_bound: float
    exceptional_set_flag: str
    theoretical_dim: float | None = None
    exceptional_set_dim: float | None = None
    max_dim_visible: float | None = None

    def __post_init__(self):
        coerce_fields(self, experiment_id=str, f_bound=float, bound_tol=float,
                      s_threshold=float, rows=[dict], fraction_within=float,
                      exceptional_set_fraction=float, exceptional_bound=float,
                      exceptional_set_flag=str, theoretical_dim=float,
                      exceptional_set_dim=float, max_dim_visible=float)
        if not isinstance(self.d_hat, DimEstimate):
            coerce_fields(self, d_hat=float)
        if not (0.0 <= self.fraction_within <= 1.0):
            raise ValueError("fraction_within must lie in [0, 1]")
        if not (0.0 <= self.exceptional_set_fraction <= 1.0):
            raise ValueError("exceptional_set_fraction must lie in [0, 1]")

    @property
    def d_hat_value(self) -> float:
        if isinstance(self.d_hat, DimEstimate):
            return self.d_hat.value
        return self.d_hat

    def to_dict(self) -> dict:
        d_hat = (
            self.d_hat.to_dict()
            if isinstance(self.d_hat, DimEstimate)
            else {"value": self.d_hat}
        )
        return {**vars(self), "d_hat": d_hat}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "BoundReport":
        d = check_keys(cls, d)
        dh = d["d_hat"]
        if not isinstance(dh, dict) or "value" not in dh:
            raise ValueError(f"d_hat must be an object with a value, got {dh!r}")
        d_hat = DimEstimate.from_dict(dh) if "n_scales" in dh else dh["value"]
        return cls(**{**d, "d_hat": d_hat})

    @classmethod
    def read(cls, path) -> "BoundReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _exceptional_set_dim(points: np.ndarray) -> tuple[float | None, str]:
    """Box dimension of the violating viewpoints, or a flag saying why not."""
    k = points.shape[0]
    if k == 0:
        return 0.0, "empty"
    if k < MIN_EXCEPTIONAL_POINTS:
        return None, "insufficient sample"
    spread = points.max(axis=0) - points.min(axis=0)
    d = float(np.hypot(spread[0], spread[1]))
    if d <= 0.0:
        return None, "degenerate"
    try:
        est = box_dimension(points, scale_window=(d / 16.0, d / 2.0), n_scales=4)
    except ValueError:
        return None, "degenerate"
    return est.value, "ok"


def aggregate_report(rows: list[SweepRow], d_hat: DimEstimate | float,
                     tol: float, s_threshold: float,
                     experiment_id: str = "",
                     theoretical_dim: float | None = None) -> BoundReport:
    """Score rows against both bounds; shared by run_sweep and verify_bound."""
    if not rows:
        raise ValueError("cannot aggregate an empty sweep")
    d_val = d_hat.value if isinstance(d_hat, DimEstimate) else float(d_hat)
    f_bound = bound_value(max(d_val, 0.75))
    dims = np.array([r.dim_visible for r in rows])
    ok = np.isfinite(dims)
    within = [_within_bound(r.dim_visible, f_bound, tol) for r in rows]
    exceptional = ok & (dims > s_threshold)
    n = len(rows)
    exc_points = np.array(
        [[r.vp_x, r.vp_y] for r, e in zip(rows, exceptional) if e]
    ).reshape(-1, 2)
    exc_dim, exc_flag = _exceptional_set_dim(exc_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exc_bound = exceptional_bound(d_val, s_threshold)
    report_rows = []
    for r, w in zip(rows, within):
        report_rows.append(
            {
                "vp_index": r.vp_index,
                "viewpoint": [r.vp_x, r.vp_y],
                "dist_to_set": r.dist_to_set,
                "dim_visible": (
                    r.estimate.to_dict()
                    if r.estimate is not None
                    else ({"value": r.dim_visible} if math.isfinite(r.dim_visible)
                          else None)
                ),
                "within": bool(w),
                "error_flag": r.error_flag,
            }
        )
    return BoundReport(
        experiment_id=experiment_id,
        d_hat=d_hat,
        theoretical_dim=theoretical_dim,
        f_bound=f_bound,
        bound_tol=tol,
        s_threshold=s_threshold,
        rows=report_rows,
        fraction_within=float(np.count_nonzero(within)) / n,
        exceptional_set_fraction=float(np.count_nonzero(exceptional)) / n,
        exceptional_bound=exc_bound,
        exceptional_set_dim=exc_dim,
        exceptional_set_flag=exc_flag,
        max_dim_visible=(float(dims[ok].max()) if np.any(ok) else None),
    )


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_results_csv(path, config: ExperimentConfig, rows: list[SweepRow],
                      f_bound: float) -> None:
    spec = config.curve
    sweep = {"experiment_id": config.experiment_id(), "curve_kind": spec.kind,
             "target_dim": spec.target_dim, "level": spec.level,
             "seed": config.seed, "f_bound": f_bound}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in rows:
            cells = {**sweep, **vars(r), "within_bound": _within_bound(
                r.dim_visible, f_bound, config.bound_tol)}
            w.writerow([_csv_cell(cells[name]) for name in CSV_COLUMNS])


def read_results_csv(path) -> list[SweepRow]:
    """Parse a results file back into rows; malformed lines name themselves."""
    return _read_results(path)[1]


def _read_results(path) -> tuple[str, list[SweepRow]]:
    """The first row's experiment id ("" without rows) and every row."""

    def fail(line_no: int, msg: str):
        raise ValueError(f"{path}: line {line_no}: {msg}")

    experiment_id = ""
    rows: list[SweepRow] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            fail(1, "empty file")
        if header != CSV_COLUMNS:
            fail(1, f"bad header: expected {','.join(CSV_COLUMNS)}")
        for line_no, rec in enumerate(reader, start=2):
            if len(rec) != len(CSV_COLUMNS):
                fail(line_no, f"expected {len(CSV_COLUMNS)} fields, got {len(rec)}")
            if not rows:
                experiment_id = rec[CSV_COLUMNS.index("experiment_id")]
            try:
                rows.append(SweepRow(**{name: parse(cell) for (name, parse), cell
                                        in zip(_CSV, rec) if parse}))
            except ValueError as exc:
                fail(line_no, str(exc))
    return experiment_id, rows


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def run_sweep(config: ExperimentConfig, workers: int = 1,
              render: bool = True) -> BoundReport:
    """Run the full experiment and write results.csv / report.json (+ SVGs).

    Returns the aggregate report.  Output bytes are independent of
    ``workers``; a viewpoint that fails (for example, one placed on the
    curve by an explicit region) becomes a flagged row, not a crash.
    """
    curve = generate(config.curve)
    index = SegmentIndex(curve)
    window = _estimator_window(curve, config.estimator)
    d_hat = box_dimension(curve, scale_window=window,
                          n_scales=config.estimator.n_scales)
    vps = plan_viewpoints(curve, config.viewpoints, config.seed)

    def job(i: int) -> tuple[SweepRow, VisibleSet | None]:
        return _row_for_viewpoint(curve, index, vps[i], i, config)

    # Rows arrive in index order; only the first error-free row's visible
    # set is kept, for scene.svg.
    rows: list[SweepRow] = []
    scene = None
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        for row, vs in pool.map(job, range(config.viewpoints.count)):
            rows.append(row)
            if scene is None and not row.error_flag:
                scene = vs
            del vs  # else it stays alive through the next row's sweep

    report = aggregate_report(
        rows,
        d_hat,
        config.bound_tol,
        config.s_threshold,
        experiment_id=config.experiment_id(),
        theoretical_dim=curve.theoretical_dim,
    )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(out / "results.csv", config, rows, report.f_bound)
    report.write(out / "report.json")
    if render:
        render_svg(curve, rows, report, out, scene=scene)
    return report


def verify_bound(csv_path, d_hat: DimEstimate | float,
                 tol: float = BOUND_TOL_DEFAULT,
                 s_threshold: float = 1.5) -> BoundReport:
    """Recompute the aggregate report from a results file.

    Run against a sweep's own CSV with the sweep's d_hat and tolerance, it
    reproduces the sweep's aggregate fields exactly.
    """
    experiment_id, rows = _read_results(csv_path)
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    return aggregate_report(rows, d_hat, tol, s_threshold,
                            experiment_id=experiment_id)


# ---------------------------------------------------------------------------
# Plots
# ---------------------------------------------------------------------------


def render_svg(curve: CurveApprox, rows: list[SweepRow], report: BoundReport,
               out_dir, scene: VisibleSet | None) -> list[Path]:
    """Write scene.svg (curve + one viewpoint + its visible pieces) and
    dim_scatter.svg (dim_visible against distance, with both bound lines).

    ``scene`` is the visible set of the first row without an error flag;
    None, when every row has one, writes no scene.svg.
    """
    if not rows:
        raise ValueError("nothing to render")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    if scene is not None:
        scene_path = out / "scene.svg"
        scene_path.write_text(svgmod.render_scene(curve, scene), encoding="utf-8")
        paths.append(scene_path)

    good = [r for r in rows if math.isfinite(r.dim_visible)]
    if good:
        scatter = svgmod.render_dim_scatter(
            [r.dist_to_set for r in good],
            [r.dim_visible for r in good],
            d_hat=report.d_hat_value,
            f_bound=report.f_bound,
        )
        scatter_path = out / "dim_scatter.svg"
        scatter_path.write_text(scatter, encoding="utf-8")
        paths.append(scatter_path)
    return paths
