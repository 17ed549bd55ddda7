"""One benchmark sample, run in a fresh interpreter by run.py.

A fresh process per sample keeps import cost and ``ru_maxrss`` (a
per-process high-water mark) to one workload call.  Roles:

  setup   import fracvis and build the workload's inputs, then stop
  timed   set up, make the untraced workload call, then check its outputs
  traced  set up, then replay the same call layer by layer under spans

Usage: python3 worker.py ROLE WORKLOAD SEED OUT_DIR [--smoke] [--oracle]
with ``src`` on PYTHONPATH.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracer import Tracer

# Set-up cost starts here: importing fracvis (and numpy with it) is paid on
# every run of the program.
_SETUP_START = time.perf_counter()

import numpy as np  # noqa: E402

from fracvis import (  # noqa: E402
    cli,
    fractals,
    geom,
    harness,
    measurelab,
    svg,
    visibility,
)

KOCH_DIM = 1.5
ROUGHNESS = 0.6
SAMPLES_PER_VISIBLE = 4096

# Criterion 7's thresholds on the koch-ring sweep.
RING_CEILING_TOL = 0.1
RING_MIN_WITHIN = 0.95
RING_MAX_MEDIAN = 1.40
# Criterion 5's calibration tolerances for the CLI estimates.
BOX_DIM_TOL = 0.05
BOX_MIN_R2 = 0.98
ENERGY_BOX_TOL = 0.15
# Criterion 3's oracle check, on the first viewpoints of each sweep.
ORACLE_VIEWPOINTS = 3
ORACLE_SAMPLES = 100

# Each sample takes 10-13 s on a 2-core machine; README.md says why these
# sizes and placements.  koch-deep uses a fixed 2x2 grid: at 65k segments one
# visible_set costs 0.8-1.9 s by view direction, so a few ring viewpoints
# drawn from the seed made its time and memory vary 20-30% between seeds.
SIZES = {
    "koch-ring": {"level": 7, "mode": "ring", "viewpoints": 100, "workers": 2},
    "koch-deep": {"level": 8, "mode": "grid", "viewpoints": 4, "workers": 1},
    "estimate-cli": {"koch_level": 8, "energy_level": 7, "quasi_level": 12},
}
# The smallest sizes at which every gate still holds: Koch box counts need
# level 6 for four dyadic scales and level 8 to come within 0.05 of 1.5.
SMOKE_SIZES = {
    "koch-ring": {"level": 6, "mode": "ring", "viewpoints": 4, "workers": 2},
    "koch-deep": {"level": 6, "mode": "grid", "viewpoints": 4, "workers": 1},
    "estimate-cli": {"koch_level": 8, "energy_level": 6, "quasi_level": 8},
}

SWEEP_ARTIFACTS = ["results.csv", "report.json", "scene.svg", "dim_scatter.svg"]

# Per-layer metrics taken from spans: totals in seconds, per-viewpoint
# percentiles in milliseconds, and counts stored on spans.
SPAN_TOTALS = [
    "fractals.generate", "fractals.write_curve", "fractals.read_curve",
    "visibility.index_build", "visibility.visible_set",
    "measurelab.d_hat", "measurelab.energy",
    "harness.plan_viewpoints", "harness.aggregate",
    "harness.write_artifacts", "harness.render_svg",
    "svg.render_scene", "svg.render_dim_scatter",
    "cli.generate", "cli.dim", "cli.energy",
]
PER_VIEWPOINT = ["geom.dist_to_set", "visibility.visible_set",
                 "measurelab.box_points"]
SPAN_COUNTS = {
    # metric: (span name, count key, reduction)
    "fractals.segments": ("fractals.generate", "segments", "sum"),
    "fractals.curve_bytes": ("fractals.write_curve", "bytes", "sum"),
    "visibility.crossings": ("visibility.index_build", "crossings", "sum"),
    "visibility.pieces_per_vp": ("visibility.visible_set", "pieces", "mean"),
    "measurelab.samples_per_vp": ("visibility.sample_visible", "samples", "mean"),
    "svg.scene_bytes": ("svg.render_scene", "bytes", "sum"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(call):
    """(result, wall s, CPU s, peak RSS MB) of one untraced call."""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    return out, wall, _cpu_s() - cpu0, _peak_rss_mb()


def _current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2.0**20


# ---------------------------------------------------------------------------
# Sweeps: koch-ring and koch-deep
# ---------------------------------------------------------------------------


def sweep_inputs(size: dict, seed: int, out: Path) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        curve=fractals.CurveSpec("koch", KOCH_DIM, size["level"], 0),
        viewpoints=harness.ViewpointPlan(mode=size["mode"],
                                         count=size["viewpoints"]),
        samples_per_visible=SAMPLES_PER_VISIBLE,
        seed=seed,
        output_dir=str(out / "sweep"),
    )


def _row_dims(rows: list[dict]) -> list[float]:
    return [math.nan if r["dim_visible"] is None else r["dim_visible"]["value"]
            for r in rows]


def ring_gate(dims: list[float], count: int) -> list[str]:
    """Criterion 7: every row finite, >= 95% within f(d)+0.1, median <= 1.40."""
    d = np.asarray(dims)
    finite = d[np.isfinite(d)]
    errors = []
    if finite.size != count:
        errors.append(f"criterion 7: {count - finite.size} of {count} rows "
                      "have no finite dim_visible")
    if finite.size:
        ceiling = harness.bound_value(KOCH_DIM) + RING_CEILING_TOL
        within = float(np.mean(finite <= ceiling))
        median = float(np.median(finite))
        if within < RING_MIN_WITHIN:
            errors.append(f"criterion 7: {within:.0%} within {ceiling:.4f}")
        if median > RING_MAX_MEDIAN:
            errors.append(f"criterion 7: median {median:.4f} > {RING_MAX_MEDIAN}")
    return errors


def oracle_check(config: harness.ExperimentConfig,
                 rows: list[dict]) -> tuple[int, int, set[int]]:
    """Criterion 3: the brute-force oracle accepts sample_visible's points.

    Returns (points checked, points rejected, viewpoints with a rejection).
    """
    curve = fractals.generate(config.curve)
    eps = curve.min_seg_len / 100.0
    checks = misses = 0
    bad: set[int] = set()
    for i, row in enumerate(rows[:ORACLE_VIEWPOINTS]):
        if row["error_flag"]:
            continue
        x = tuple(row["viewpoint"])
        vs = visibility.visible_set(curve, x)
        pts, _ = visibility.sample_visible(vs, ORACLE_SAMPLES)
        for u in pts:
            checks += 1
            if not visibility.visible_oracle(curve, x, tuple(u), eps=eps):
                misses += 1
                bad.add(i)
    return checks, misses, bad


def sweep_timed(workload: str, size: dict, config: harness.ExperimentConfig,
                oracle: bool) -> dict:
    report, wall, cpu, peak = _measure(
        lambda: harness.run_sweep(config, workers=size["workers"], render=True))

    count = size["viewpoints"]
    dims = _row_dims(report.rows)
    bad = {i for i, r in enumerate(report.rows)
           if r["error_flag"] or not math.isfinite(dims[i])}
    errors = [f"viewpoint {i}: {report.rows[i]['error_flag'] or 'no estimate'}"
              for i in sorted(bad)]
    if workload == "koch-ring":
        errors += ring_gate(dims, count)
    checks = misses = 0
    if oracle:
        checks, misses, rejected = oracle_check(config, report.rows)
        errors += [f"viewpoint {i}: oracle rejected a visible sample"
                   for i in sorted(rejected)]
        bad |= rejected
    out = Path(config.output_dir)
    return {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
        "attempted": count, "failed": len(bad), "errors": errors,
        "dims": dims, "oracle_checks": checks, "oracle_misses": misses,
        "digests": {n: _sha256(out / n) for n in SWEEP_ARTIFACTS
                    if (out / n).exists()},
    }


def sweep_traced(size: dict, config: harness.ExperimentConfig,
                 tracer: Tracer) -> dict:
    """run_sweep's steps, in its order, through the layers' public calls.

    Mirrors ``harness.run_sweep`` and its per-viewpoint rule
    (point_segments_dist -> visible_set -> sample_visible -> box_dimension);
    run.py checks that the replay reproduces the untraced dim_visible values.
    """
    out = Path(config.output_dir)
    with tracer.span("harness.run_sweep") as root:
        with tracer.span("fractals.generate") as rec:
            curve = fractals.generate(config.curve)
        rec["counts"] = {"segments": curve.n_segments}
        with tracer.span("visibility.index_build") as rec:
            index = visibility.SegmentIndex(curve)
            crossings = index.crossings()
        rec["counts"] = {"crossings": int(crossings.shape[0])}
        window = measurelab.default_scale_window(curve)
        n_scales = config.estimator.n_scales
        with tracer.span("measurelab.d_hat"):
            d_hat = measurelab.box_dimension(curve, scale_window=window,
                                             n_scales=n_scales)
        with tracer.span("harness.plan_viewpoints"):
            vps = harness.plan_viewpoints(curve, config.viewpoints, config.seed)

        def job(i: int, phase: int) -> harness.SweepRow:
            vp = vps[i]
            with tracer.span("harness.viewpoint", parent=phase):
                with tracer.span("geom.dist_to_set"):
                    dist = float(geom.point_segments_dist(vp, curve.segments).min())
                row = harness.SweepRow(vp_index=i, vp_x=float(vp[0]),
                                       vp_y=float(vp[1]), dist_to_set=dist)
                try:
                    with tracer.span("visibility.visible_set") as rec:
                        vs = visibility.visible_set(curve, vp, index)
                    rec["counts"] = {"pieces": len(vs.pieces)}
                    row.n_pieces = len(vs.pieces)
                    row.visible_length = vs.total_length
                    row.angular_coverage = vs.angular_coverage
                    if not vs.pieces:
                        row.error_flag = "empty_visible_set"
                        return row
                    n = max(config.samples_per_visible,
                            int(math.ceil(2.0 * vs.total_length / window[0])))
                    with tracer.span("visibility.sample_visible") as rec:
                        pts, _ = visibility.sample_visible(vs, n)
                    rec["counts"] = {"samples": n}
                    with tracer.span("measurelab.box_points"):
                        est = measurelab.box_dimension(pts, scale_window=window,
                                                       n_scales=n_scales)
                    row.dim_visible = est.value
                    row.dim_visible_stderr = est.stderr
                    row.r_squared = est.r_squared
                    row.estimate = est
                except ValueError as exc:
                    row.error_flag = str(exc).replace(",", ";")
                return row

        rss_before = _current_rss_mb()
        with tracer.span("harness.viewpoints") as phase:
            indices = range(config.viewpoints.count)
            if size["workers"] <= 1:
                rows = [job(i, phase["id"]) for i in indices]
            else:
                with ThreadPoolExecutor(max_workers=size["workers"]) as pool:
                    rows = list(pool.map(lambda i: job(i, phase["id"]), indices))
        rss_rise = _peak_rss_mb() - rss_before

        with tracer.span("harness.aggregate"):
            report = harness.aggregate_report(
                rows, d_hat, config.bound_tol, config.s_threshold,
                experiment_id=config.experiment_id(),
                theoretical_dim=curve.theoretical_dim)
        with tracer.span("harness.write_artifacts"):
            out.mkdir(parents=True, exist_ok=True)
            harness.write_results_csv(out / "results.csv", config, rows,
                                      report.f_bound)
            report.write(out / "report.json")
        with tracer.span("harness.render_svg"):
            # harness.render_svg's steps: the first row without an error is
            # drawn with its visible set, then the dimension scatter.
            shown = next((r for r in rows if not r.error_flag), None)
            if shown is not None:
                with tracer.span("visibility.visible_set"):
                    vs = visibility.visible_set(curve, (shown.vp_x, shown.vp_y),
                                                index)
                with tracer.span("svg.render_scene") as rec:
                    scene = svg.render_scene(curve, vs)
                rec["counts"] = {"bytes": len(scene.encode("utf-8"))}
                (out / "scene.svg").write_text(scene, encoding="utf-8")
            good = [r for r in rows if math.isfinite(r.dim_visible)]
            if good:
                with tracer.span("svg.render_dim_scatter"):
                    scatter = svg.render_dim_scatter(
                        [r.dist_to_set for r in good],
                        [r.dim_visible for r in good],
                        d_hat=report.d_hat_value, f_bound=report.f_bound)
                (out / "dim_scatter.svg").write_text(scatter, encoding="utf-8")
    return {
        "wall_s": root["end"] - root["start"],
        "dims": [r.dim_visible for r in rows],
        "rss_rise_mb": rss_rise,
        "digests": {n: _sha256(out / n) for n in SWEEP_ARTIFACTS
                    if (out / n).exists()},
    }


# ---------------------------------------------------------------------------
# estimate-cli
# ---------------------------------------------------------------------------

# Output files of the CLI sequence, in the order the commands write them.
CLI_FILES = ["koch.json", "koch.dim.json", "koch-small.json",
             "koch-small.energy.json", "quasi.json", "quasi.dim.json",
             "quasi.energy.json"]


def cli_inputs(size: dict, seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """(command name, argv) for each fracvis call of the workload."""
    d = out / "cli"
    d.mkdir(parents=True, exist_ok=True)
    f = [str(d / name) for name in CLI_FILES]
    koch = ["generate", "--kind", "koch", "--target-dim", repr(KOCH_DIM)]
    return [
        ("generate", ["--quiet", "--out", f[0], *koch,
                      "--level", str(size["koch_level"])]),
        ("dim", ["--quiet", "--out", f[1], "dim", "--curve", f[0]]),
        ("generate", ["--quiet", "--out", f[2], *koch,
                      "--level", str(size["energy_level"])]),
        ("energy", ["--quiet", "--out", f[3], "energy", "--curve", f[2]]),
        ("generate", ["--quiet", "--seed", str(seed), "--out", f[4], "generate",
                      "--kind", "quasicircle", "--roughness", repr(ROUGHNESS),
                      "--level", str(size["quasi_level"])]),
        ("dim", ["--quiet", "--out", f[5], "dim", "--curve", f[4]]),
        ("energy", ["--quiet", "--out", f[6], "energy", "--curve", f[4]]),
    ]


def _same_curve(a: fractals.CurveApprox, b: fractals.CurveApprox) -> bool:
    return (np.array_equal(a.segments, b.segments)
            and a.spec.to_dict() == b.spec.to_dict()
            and a.min_seg_len == b.min_seg_len
            and a.theoretical_dim == b.theoretical_dim)


def cli_gate(size: dict, seed: int, d: Path, codes: list[int]) -> dict[int, str]:
    """Failed command index -> reason.

    A command fails on a non-zero exit code, a curve file that does not read
    back as the generated curve, or an estimate outside criterion 5's
    tolerances: Koch box dimension within 0.05 of 1.5 with r^2 >= 0.98, and
    each energy estimate within 0.15 of the box estimate of its curve.
    """
    failed = {i: f"exit code {c}" for i, c in enumerate(codes) if c != 0}
    path = [d / name for name in CLI_FILES]

    def check(i: int, test, reason: str) -> None:
        if i in failed:
            return
        try:
            ok = test()
        except (OSError, ValueError, KeyError) as exc:
            ok, reason = False, f"{reason}: {exc}"
        if not ok:
            failed[i] = reason

    def value(i: int) -> dict:
        return json.loads(path[i].read_text(encoding="utf-8"))

    made = {
        0: lambda: fractals.koch_generalized(KOCH_DIM, size["koch_level"]),
        2: lambda: fractals.koch_generalized(KOCH_DIM, size["energy_level"]),
        4: lambda: fractals.quasicircle(seed, ROUGHNESS, size["quasi_level"]),
    }
    for i, make in made.items():
        check(i, lambda: _same_curve(fractals.read_curve(path[i]), make()),
              "curve file does not round-trip")
    check(1, lambda: (abs(value(1)["value"] - KOCH_DIM) <= BOX_DIM_TOL
                      and value(1)["r_squared"] >= BOX_MIN_R2),
          "koch box dimension off calibration")
    check(3, lambda: abs(value(3)["value"] - measurelab.box_dimension(
        fractals.read_curve(path[2])).value) <= ENERGY_BOX_TOL,
          "koch energy estimate off its box estimate")
    check(5, lambda: math.isfinite(value(5)["value"]),
          "quasicircle box dimension not finite")
    check(6, lambda: abs(value(6)["value"] - value(5)["value"]) <= ENERGY_BOX_TOL,
          "quasicircle energy estimate off its box estimate")
    return failed


def cli_timed(size: dict, seed: int, out: Path,
              commands: list[tuple[str, list[str]]]) -> dict:
    codes, wall, cpu, peak = _measure(
        lambda: [cli.main(argv) for _, argv in commands])
    failed = cli_gate(size, seed, out / "cli", codes)
    return {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
        "attempted": len(commands), "failed": len(failed),
        "errors": [f"{commands[i][0]} (command {i}): {why}"
                   for i, why in sorted(failed.items())],
        "digests": _cli_digests(out),
    }


def _cli_digests(out: Path) -> dict:
    """Digest of each command's output file, in command order; None if the
    command wrote nothing."""
    paths = [out / "cli" / n for n in CLI_FILES]
    return {p.name: _sha256(p) if p.exists() else None for p in paths}


def cli_traced(out: Path, commands: list[tuple[str, list[str]]],
               tracer: Tracer) -> dict:
    """The same cli.main calls, each in a span, with the layer calls made
    inside them wrapped in spans for the duration of the run."""

    def curve_counts(c):
        return {"segments": c.n_segments}

    def text_counts(text):
        return {"bytes": len(text.encode("utf-8"))}

    targets = [
        (fractals, "koch_generalized", "fractals.generate", curve_counts),
        (fractals, "quasicircle", "fractals.generate", curve_counts),
        (fractals, "curve_to_json", "fractals.write_curve", text_counts),
        (fractals, "read_curve", "fractals.read_curve", None),
        (measurelab, "box_dimension", "measurelab.d_hat", None),
        (measurelab, "energy_dimension", "measurelab.energy", None),
    ]
    codes = []
    with tracer.span("cli.run") as root, tracer.patched(targets):
        for name, argv in commands:
            with tracer.span("cli." + name):
                codes.append(cli.main(argv))
    return {
        "wall_s": root["end"] - root["start"],
        "codes": codes,
        "rss_rise_mb": 0.0,
        "digests": _cli_digests(out),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics of every layer; a layer the workload never calls reads 0."""
    metrics: dict[str, float] = {}
    for name in SPAN_TOTALS:
        metrics[name + "_s"] = sum(s["end"] - s["start"] for s in tracer.named(name))
    vp_ids = {s["id"] for s in tracer.named("harness.viewpoint")}
    for name in PER_VIEWPOINT:
        ms = [1000.0 * (s["end"] - s["start"])
              for s in tracer.named(name) if s["parent"] in vp_ids]
        for q in (50, 90):
            metrics[f"{name}_ms.p{q}"] = float(np.percentile(ms, q)) if ms else 0.0
    for metric, (name, key, how) in SPAN_COUNTS.items():
        vals = [s["counts"][key] for s in tracer.named(name) if key in s["counts"]]
        if not vals:
            metrics[metric] = 0
        elif how == "sum":
            metrics[metric] = int(sum(vals))
        else:
            metrics[metric] = float(np.mean(vals))
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=["setup", "timed", "traced"])
    p.add_argument("workload", choices=sorted(SIZES))
    p.add_argument("seed", type=int)
    p.add_argument("out", type=Path)
    p.add_argument("--smoke", action="store_true", help="tiny sizes")
    p.add_argument("--oracle", action="store_true",
                   help="also run the oracle spot check (sweeps)")
    args = p.parse_args()

    size = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    sweep = args.workload != "estimate-cli"
    if sweep:
        inputs = sweep_inputs(size, args.seed, args.out)
    else:
        inputs = cli_inputs(size, args.seed, args.out)
    result = {"setup_s": time.perf_counter() - _SETUP_START,
              "numpy": np.__version__}

    if args.role == "timed":
        if sweep:
            result.update(sweep_timed(args.workload, size, inputs, args.oracle))
        else:
            result.update(cli_timed(size, args.seed, args.out, inputs))
    elif args.role == "traced":
        tracer = Tracer(f"{args.workload}/seed{args.seed}/{args.out.name}")
        if sweep:
            result.update(sweep_traced(size, inputs, tracer))
        else:
            result.update(cli_traced(args.out, inputs, tracer))
        result["metrics"] = layer_metrics(tracer)
        tracer.write(args.out / "trace.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
