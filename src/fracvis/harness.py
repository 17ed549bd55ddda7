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
from .fractals import CurveApprox, CurveSpec, generate
from .geom import EPS_GEOM, TWO_PI, point_segments_dist
from .measurelab import DimEstimate, box_dimension, default_scale_window
from .visibility import SegmentIndex, sample_visible, visible_set

BOUND_TOL_DEFAULT = 0.1

# Below this many violating viewpoints a box-count of their positions is
# meaningless, so the report only flags the shortfall.
MIN_EXCEPTIONAL_POINTS = 20

_PLACEMENT_TRIES = 128

CSV_COLUMNS = [
    "experiment_id",
    "curve_kind",
    "target_dim",
    "level",
    "seed",
    "vp_index",
    "vp_x",
    "vp_y",
    "dist_to_set",
    "n_pieces",
    "visible_length",
    "angular_coverage",
    "dim_visible",
    "dim_visible_stderr",
    "r_squared",
    "f_bound",
    "within_bound",
    "error_flag",
]


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
    by half a diameter.
    """

    mode: str = "ring"
    count: int = 50
    radii: tuple[float, float] | None = None
    region: tuple[float, float, float, float] | None = None

    def __post_init__(self):
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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ViewpointPlan":
        radii = d.get("radii")
        region = d.get("region")
        return cls(
            mode=d.get("mode", "ring"),
            count=int(d.get("count", 50)),
            radii=None if radii is None else (float(radii[0]), float(radii[1])),
            region=None if region is None else tuple(float(v) for v in region),
        )


@dataclass(frozen=True)
class EstimatorPlan:
    """Box-count scale policy: auto window per curve, or a fixed one."""

    scale_policy: str = "auto"
    n_scales: int | None = None
    scale_window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.scale_policy not in ("auto", "fixed"):
            raise ValueError("scale policy must be auto or fixed")
        if self.scale_policy == "fixed" and self.scale_window is None:
            raise ValueError("fixed scale policy needs a scale window")
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
        sw = d.get("scale_window")
        ns = d.get("n_scales")
        return cls(
            scale_policy=d.get("scale_policy", "auto"),
            n_scales=None if ns is None else int(ns),
            scale_window=None if sw is None else (float(sw[0]), float(sw[1])),
        )


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
        return cls(
            curve=CurveSpec.from_dict(d["curve"]),
            viewpoints=ViewpointPlan.from_dict(d.get("viewpoints", {})),
            samples_per_visible=int(d.get("samples_per_visible", 4096)),
            estimator=EstimatorPlan.from_dict(d.get("estimator", {})),
            s_threshold=float(d.get("s_threshold", 1.5)),
            seed=int(d.get("seed", 0)),
            output_dir=str(d.get("output_dir", ".")),
            bound_tol=float(d.get("bound_tol", BOUND_TOL_DEFAULT)),
        )

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
    rejection-sampled from the same stream.
    """
    c = curve.centroid()
    eps = _off_curve_eps(curve)
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
            if float(point_segments_dist(cand, curve.segments).min()) > eps:
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
                       config: ExperimentConfig) -> SweepRow:
    dist = float(point_segments_dist(vp, curve.segments).min())
    row = SweepRow(vp_index=vp_index, vp_x=float(vp[0]), vp_y=float(vp[1]),
                   dist_to_set=dist)
    try:
        vs = visible_set(curve, vp, index)
        row.n_pieces = len(vs.pieces)
        row.visible_length = vs.total_length
        row.angular_coverage = vs.angular_coverage
        if not vs.pieces:
            row.error_flag = "empty_visible_set"
            return row
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
    return row


# ---------------------------------------------------------------------------
# Aggregation and report
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    """Aggregate scorecard for one sweep against both dimension bounds."""

    experiment_id: str
    d_hat: DimEstimate | float
    theoretical_dim: float | None
    f_bound: float
    bound_tol: float
    s_threshold: float
    rows: list[dict]
    fraction_within: float
    exceptional_set_fraction: float
    exceptional_bound: float
    exceptional_set_dim: float | None
    exceptional_set_flag: str
    max_dim_visible: float | None

    def __post_init__(self):
        if not (0.0 <= self.fraction_within <= 1.0):
            raise ValueError("fraction_within must lie in [0, 1]")
        if not (0.0 <= self.exceptional_set_fraction <= 1.0):
            raise ValueError("exceptional_set_fraction must lie in [0, 1]")

    @property
    def d_hat_value(self) -> float:
        if isinstance(self.d_hat, DimEstimate):
            return self.d_hat.value
        return float(self.d_hat)

    def to_dict(self) -> dict:
        d_hat = (
            self.d_hat.to_dict()
            if isinstance(self.d_hat, DimEstimate)
            else {"value": float(self.d_hat)}
        )
        return {**dataclasses.asdict(self), "d_hat": d_hat}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "BoundReport":
        dh = d["d_hat"]
        d_hat = DimEstimate.from_dict(dh) if "n_scales" in dh else float(dh["value"])
        return cls(
            experiment_id=d["experiment_id"],
            d_hat=d_hat,
            theoretical_dim=d.get("theoretical_dim"),
            f_bound=float(d["f_bound"]),
            bound_tol=float(d["bound_tol"]),
            s_threshold=float(d["s_threshold"]),
            rows=list(d.get("rows", [])),
            fraction_within=float(d["fraction_within"]),
            exceptional_set_fraction=float(d["exceptional_set_fraction"]),
            exceptional_bound=float(d["exceptional_bound"]),
            exceptional_set_dim=(
                None if d.get("exceptional_set_dim") is None
                else float(d["exceptional_set_dim"])
            ),
            exceptional_set_flag=d.get("exceptional_set_flag", ""),
            max_dim_visible=(
                None if d.get("max_dim_visible") is None
                else float(d["max_dim_visible"])
            ),
        )

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
    within = ok & (dims <= f_bound + tol)
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
    experiment_id = config.experiment_id()
    spec = config.curve
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in rows:
            within = math.isfinite(r.dim_visible) and (
                r.dim_visible <= f_bound + config.bound_tol
            )
            w.writerow(
                [
                    experiment_id,
                    spec.kind,
                    _csv_cell(spec.target_dim),
                    _csv_cell(spec.level),
                    _csv_cell(config.seed),
                    _csv_cell(r.vp_index),
                    _csv_cell(r.vp_x),
                    _csv_cell(r.vp_y),
                    _csv_cell(r.dist_to_set),
                    _csv_cell(r.n_pieces),
                    _csv_cell(r.visible_length),
                    _csv_cell(r.angular_coverage),
                    _csv_cell(r.dim_visible),
                    _csv_cell(r.dim_visible_stderr),
                    _csv_cell(r.r_squared),
                    _csv_cell(f_bound),
                    _csv_cell(within),
                    r.error_flag,
                ]
            )


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
                experiment_id = rec[0]
            try:
                rows.append(
                    SweepRow(
                        vp_index=int(rec[5]),
                        vp_x=float(rec[6]),
                        vp_y=float(rec[7]),
                        dist_to_set=float(rec[8]),
                        n_pieces=int(rec[9]),
                        visible_length=float(rec[10]),
                        angular_coverage=float(rec[11]),
                        dim_visible=float(rec[12]),
                        dim_visible_stderr=float(rec[13]),
                        r_squared=float(rec[14]),
                        error_flag=rec[17],
                    )
                )
            except (ValueError, IndexError) as exc:
                if "line" in str(exc):
                    raise
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

    def job(i: int) -> SweepRow:
        return _row_for_viewpoint(curve, index, vps[i], i, config)

    if workers <= 1:
        rows = [job(i) for i in range(config.viewpoints.count)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, range(config.viewpoints.count)))

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
        render_svg(curve, rows, report, out, index=index)
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
               out_dir, index: SegmentIndex | None = None) -> list[Path]:
    """Write scene.svg (curve + one viewpoint + its visible pieces) and
    dim_scatter.svg (dim_visible against distance, with both bound lines).
    """
    if not rows:
        raise ValueError("nothing to render")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    shown = next((r for r in rows if not r.error_flag), None)
    if shown is not None:
        vs = visible_set(curve, (shown.vp_x, shown.vp_y), index)
        scene = svgmod.render_scene(curve, vs)
        scene_path = out / "scene.svg"
        scene_path.write_text(scene, encoding="utf-8")
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
