"""Bound formulas, experiment configs, the sweep runner, and the CLI."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracvis import cli, harness, svg
from fracvis.fractals import (
    CurveSpec,
    curve_to_json,
    from_segments,
    generate,
    polyline,
    write_curve,
)
from fracvis.geom import point_segments_dist
from fracvis.visibility import (
    VisibleSet,
    sample_visible,
    visible_set,
    visible_set_to_json,
)
from fracvis.harness import (
    EstimatorPlan,
    ExperimentConfig,
    ViewpointPlan,
    bound_value,
    exceptional_bound,
    plan_viewpoints,
    read_results_csv,
    run_sweep,
    verify_bound,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def tiny_config(out_dir, seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        curve=CurveSpec("koch", 1.5, 6, 0),
        viewpoints=ViewpointPlan(mode="ring", count=6),
        samples_per_visible=256,
        seed=seed,
        output_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    """One shared sweep run for the read-only artifact tests."""
    out = tmp_path_factory.mktemp("sweep")
    report = run_sweep(tiny_config(out), workers=1, render=True)
    return out, report


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def test_bound_value_golden_ratio():
    assert bound_value(2.0) == pytest.approx(PHI, abs=1e-12)
    assert bound_value(1.0) == pytest.approx(1.0, abs=1e-12)
    assert bound_value(0.75) == pytest.approx(0.5, abs=1e-12)


def test_bound_value_rejects_small_d():
    with pytest.raises(ValueError):
        bound_value(0.5)


@given(st.floats(0.75, 2.0), st.floats(0.75, 2.0))
def test_bound_value_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    assert bound_value(lo) <= bound_value(hi) + 1e-15


def test_exceptional_bound_values():
    # s equal to the a.e. bound is the vacuous boundary, hence the warning
    with pytest.warns(UserWarning):
        assert exceptional_bound(2.0, PHI) == pytest.approx(PHI - 1.0, abs=1e-12)
    assert exceptional_bound(2.0, 1.9) == pytest.approx(1.0 / 9.0)
    assert exceptional_bound(1.9, 1.9) == 0.0
    assert exceptional_bound(1.5, 1.9) == 0.0


def test_exceptional_bound_rejects_s_at_most_one():
    with pytest.raises(ValueError):
        exceptional_bound(2.0, 1.0)


def test_exceptional_bound_warns_when_vacuous():
    with pytest.warns(UserWarning, match="vacuous"):
        exceptional_bound(2.0, 1.2)


# ---------------------------------------------------------------------------
# viewpoint planning
# ---------------------------------------------------------------------------


def test_plan_viewpoints_ring_distances(koch5):
    plan = ViewpointPlan(mode="ring", count=24)
    vps = plan_viewpoints(koch5, plan, seed=3)
    assert vps.shape == (24, 2)
    c = koch5.centroid()
    r = np.hypot(vps[:, 0] - c[0], vps[:, 1] - c[1])
    assert np.all(r >= koch5.diam - 1e-9)
    assert np.all(r <= 3.0 * koch5.diam + 1e-9)


def test_plan_viewpoints_per_index_streams(koch5):
    plan10 = ViewpointPlan(mode="ring", count=10)
    plan20 = ViewpointPlan(mode="ring", count=20)
    a = plan_viewpoints(koch5, plan10, seed=5)
    b = plan_viewpoints(koch5, plan20, seed=5)
    assert a.tobytes() == b[:10].tobytes()


def test_plan_viewpoints_off_curve_all_modes(koch5):
    for mode in ("ring", "random", "grid"):
        vps = plan_viewpoints(koch5, ViewpointPlan(mode=mode, count=9), seed=1)
        for p in vps:
            assert float(point_segments_dist(p, koch5.segments).min()) > 0.0


def test_plan_viewpoints_region_respected(koch5):
    plan = ViewpointPlan(mode="random", count=16, region=(5.0, 5.0, 6.0, 6.0))
    vps = plan_viewpoints(koch5, plan, seed=0)
    assert np.all((vps >= 5.0) & (vps <= 6.0))


def test_viewpoint_plan_validation():
    with pytest.raises(ValueError):
        ViewpointPlan(mode="spiral")
    with pytest.raises(ValueError):
        ViewpointPlan(count=0)
    with pytest.raises(ValueError):
        ViewpointPlan(radii=(2.0, 1.0))
    with pytest.raises(ValueError):
        ViewpointPlan(region=(0.0, 0.0, 0.0, 1.0))


def test_viewpoint_plan_rejects_fields_its_mode_ignores():
    # Radii steer ring mode only and a region the other two; a plan that
    # names one its mode does not use was silently ignoring it.
    for mode in ("grid", "random"):
        with pytest.raises(ValueError, match=f"{mode} mode takes no radii"):
            ViewpointPlan(mode=mode, radii=(1.0, 2.0))
        with pytest.raises(ValueError, match=f"{mode} mode takes no radii"):
            ViewpointPlan.from_dict({"mode": mode, "radii": [1.0, 2.0]})
    with pytest.raises(ValueError, match="ring mode takes no region"):
        ViewpointPlan(region=(0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="ring mode takes no region"):
        ViewpointPlan.from_dict({"region": [0.0, 0.0, 1.0, 1.0]})
    ring = ViewpointPlan.from_dict({"mode": "ring", "radii": [1.0, 2.0]})
    assert ring.radii == (1.0, 2.0)
    grid = ViewpointPlan.from_dict({"mode": "grid", "region": [0.0, 0.0, 1.0, 1.0]})
    assert grid.region == (0.0, 0.0, 1.0, 1.0)
    assert ViewpointPlan.from_dict(grid.to_dict()) == grid


def test_estimator_plan_validation():
    with pytest.raises(ValueError):
        EstimatorPlan(scale_policy="magic")
    with pytest.raises(ValueError):
        EstimatorPlan(scale_policy="fixed")
    with pytest.raises(ValueError):
        EstimatorPlan(n_scales=2)


def test_estimator_plan_rejects_window_under_auto_policy():
    # The auto policy picks each curve's own window; a window given with it
    # (as in a config that names scale_window but no policy) was ignored.
    with pytest.raises(ValueError, match="auto scale policy"):
        EstimatorPlan(scale_window=(0.01, 0.1))
    with pytest.raises(ValueError, match="auto scale policy"):
        EstimatorPlan.from_dict({"scale_window": [0.01, 0.1]})
    plan = EstimatorPlan.from_dict({"scale_policy": "fixed",
                                    "scale_window": [0.01, 0.1]})
    assert plan.scale_window == (0.01, 0.1)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_experiment_config_json_round_trip(tmp_path):
    cfg = tiny_config(tmp_path)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back.to_dict() == cfg.to_dict()
    assert back.experiment_id() == cfg.experiment_id()


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(curve=CurveSpec("koch", 1.5, 3, 0), samples_per_visible=4)
    with pytest.raises(ValueError):
        ExperimentConfig(curve=CurveSpec("koch", 1.5, 3, 0), s_threshold=2.5)
    with pytest.raises(ValueError):
        ExperimentConfig(curve=CurveSpec("koch", 1.5, 3, 0), bound_tol=-0.1)


def test_configs_coerce_their_own_fields():
    plan = ViewpointPlan(count=2.0, radii=[1, 3])
    assert plan == ViewpointPlan(count=2, radii=(1.0, 3.0))
    assert type(plan.count) is int and type(plan.radii[0]) is float
    assert CurveSpec("koch", 1) == CurveSpec("koch", 1.0, 0, 0, {})
    with pytest.raises(ValueError, match="count must be int"):
        ViewpointPlan(count=2.7)
    with pytest.raises(ValueError, match="level must be int"):
        CurveSpec("koch", 1.5, True)
    with pytest.raises(ValueError, match="bound_tol must be float"):
        ExperimentConfig(curve=CurveSpec("koch", 1.5), bound_tol=math.nan)
    with pytest.raises(ValueError, match="region must be a list of 4 numbers"):
        ViewpointPlan(mode="grid", region=(0.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(curve=CurveSpec("koch", 1.5, 6, 0), bound_tol=0),
        ExperimentConfig(curve=CurveSpec("koch", 1.5, 6, 0),
                         viewpoints=ViewpointPlan(radii=(1, 3))),
        ExperimentConfig(curve=CurveSpec("circle", 1, 0, 0, {"n": 512})),
    ],
    ids=["bound_tol", "radii", "target_dim"],
)
def test_experiment_id_depends_only_on_the_config_value(cfg):
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.experiment_id() == cfg.experiment_id()


def test_experiment_id_of_the_criterion_7_config_is_pinned():
    cfg = ExperimentConfig(curve=CurveSpec("koch", 1.5, 7, 0),
                           viewpoints=ViewpointPlan(mode="ring", count=100),
                           samples_per_visible=4096, seed=0)
    assert cfg.experiment_id() == "f528e94ebefa"


def test_experiment_id_ignores_output_dir(tmp_path):
    a = tiny_config(tmp_path / "a")
    b = tiny_config(tmp_path / "b")
    c = tiny_config(tmp_path / "a", seed=1)
    assert a.experiment_id() == b.experiment_id()
    assert a.experiment_id() != c.experiment_id()


# ---------------------------------------------------------------------------
# sweep end to end
# ---------------------------------------------------------------------------


def test_run_sweep_artifacts_and_report(sweep_out):
    out, report = sweep_out
    cfg = tiny_config(out)
    for name in ("results.csv", "report.json", "scene.svg", "dim_scatter.svg"):
        assert (out / name).exists(), name
    assert report.experiment_id == cfg.experiment_id()
    assert len(report.rows) == 6
    assert 0.0 <= report.fraction_within <= 1.0
    assert math.isfinite(report.d_hat_value)
    assert report.theoretical_dim == pytest.approx(1.5)
    assert report.f_bound == pytest.approx(
        bound_value(max(report.d_hat_value, 0.75))
    )
    doc = json.loads((out / "report.json").read_text())
    assert doc["experiment_id"] == cfg.experiment_id()


def test_run_sweep_worker_count_is_invisible(tmp_path):
    r1 = run_sweep(tiny_config(tmp_path / "w1"), workers=1, render=False)
    r4 = run_sweep(tiny_config(tmp_path / "w4"), workers=4, render=False)
    assert (tmp_path / "w1/results.csv").read_bytes() == (
        tmp_path / "w4/results.csv"
    ).read_bytes()
    assert (tmp_path / "w1/report.json").read_bytes() == (
        tmp_path / "w4/report.json"
    ).read_bytes()
    assert r1.fraction_within == r4.fraction_within


def test_row_takes_its_distance_from_visible_set(koch5, tmp_path):
    config = tiny_config(tmp_path)
    segs = koch5.segments
    off = np.array([0.5, -0.4])
    on = segs[3, :2].copy()
    with mock.patch.object(harness, "point_segments_dist",
                           wraps=point_segments_dist) as spy:
        row, vs = harness._row_for_viewpoint(koch5, None, off, 0, config)
        spy.assert_not_called()
        refused, refused_vs = harness._row_for_viewpoint(koch5, None, on, 1,
                                                         config)
        spy.assert_called_once()
    assert row.error_flag == ""
    assert row.dist_to_set == vs.viewpoint.dist_to_set
    assert refused_vs is None
    assert row.dist_to_set == float(point_segments_dist(off, segs).min())
    assert refused.error_flag == "viewpoint lies on the curve"
    assert refused.dist_to_set == float(point_segments_dist(on, segs).min())


def test_sweep_computes_one_visible_set_per_viewpoint(tmp_path):
    """scene.svg draws the set the sweep computed for its row, not a new one."""
    config = tiny_config(tmp_path)
    for workers in (1, 2):
        with mock.patch.object(harness, "visible_set",
                               wraps=visible_set) as spy:
            run_sweep(config, workers=workers, render=True)
        assert spy.call_count == config.viewpoints.count
        assert (tmp_path / "scene.svg").exists()


def test_sweep_and_cli_never_build_piece_objects(sweep_out, koch5, tmp_path,
                                                 capsys):
    """Every consumer reads the columns; none reads VisibleSet.pieces."""
    out, _ = sweep_out
    curve_path = tmp_path / "curve.json"
    curve_path.write_text(curve_to_json(koch5))
    x = (0.5, -0.7)

    def consumers():
        vs = visible_set(koch5, x)
        return (visible_set_to_json(vs), sample_visible(vs, 97)[0].tobytes(),
                svg.render_scene(koch5, vs))

    def refuse(self):
        raise AssertionError("VisibleSet.pieces was read")

    want = consumers()
    with mock.patch.object(VisibleSet, "pieces", property(refuse)):
        for workers in (1, 2):
            run = tmp_path / f"w{workers}"
            run_sweep(tiny_config(run), workers=workers, render=True)
            for name in ("results.csv", "report.json", "scene.svg",
                         "dim_scatter.svg"):
                assert (run / name).read_bytes() == (out / name).read_bytes()
        rc = cli.main(["--out", str(tmp_path / "visible.json"), "visible",
                       "--curve", str(curve_path), "--x", str(x[0]),
                       "--y", str(x[1])])
        got = consumers()
    assert rc == 0
    assert got == want
    assert (tmp_path / "visible.json").read_text() == want[0] + "\n"
    n = len(visible_set(koch5, x).segments)
    assert f"pieces: {n}  total_length" in capsys.readouterr().out


def test_results_csv_header_is_pinned(sweep_out):
    out, _ = sweep_out
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == (
        "experiment_id,curve_kind,target_dim,level,seed,vp_index,vp_x,vp_y,"
        "dist_to_set,n_pieces,visible_length,angular_coverage,dim_visible,"
        "dim_visible_stderr,r_squared,f_bound,within_bound,error_flag"
    )


def test_results_csv_round_trip(sweep_out):
    out, _ = sweep_out
    rows = read_results_csv(out / "results.csv")
    assert len(rows) == 6
    assert [r.vp_index for r in rows] == list(range(6))
    for r in rows:
        assert r.dist_to_set > 0.0
        assert r.error_flag == ""


def test_read_results_csv_rejects_malformed(sweep_out, tmp_path):
    out, _ = sweep_out
    path = out / "results.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(",", ";", 3)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        read_results_csv(bad)
    # float("baseline")'s own message contains "line"; it is prefixed too.
    cells = path.read_text().splitlines()[2].split(",")
    cells[6] = "baseline"
    lines[2] = ",".join(cells)
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3: .*'baseline'"):
        read_results_csv(bad)
    worse = tmp_path / "worse.csv"
    worse.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ValueError):
        read_results_csv(worse)


def test_verify_bound_matches_sweep_report(sweep_out):
    out, report = sweep_out
    cfg = tiny_config(out)
    again = verify_bound(
        out / "results.csv",
        report.d_hat,
        tol=cfg.bound_tol,
        s_threshold=cfg.s_threshold,
    )
    assert again.fraction_within == report.fraction_within
    assert again.f_bound == report.f_bound
    assert again.exceptional_set_fraction == report.exceptional_set_fraction


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_constants_round_trip(capsys):
    rc = cli.main(["constants", "--s", "2.0", "--xi", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha1"] == pytest.approx(14884.0)


def test_cli_validation_error_exits_1(capsys):
    rc = cli.main(["constants", "--s", "0.5", "--xi", "0.2"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_runtime_error_exits_2(tmp_path, capsys):
    rc = cli.main(
        ["verify-bound", "--results", str(tmp_path / "nope.csv"), "--d-hat", "1.5"]
    )
    assert rc == 2


def test_cli_generate_dim_energy_pipeline(tmp_path, capsys):
    curve_path = tmp_path / "curve.json"
    rc = cli.main(
        [
            "--out", str(curve_path), "--quiet",
            "generate", "--kind", "koch", "--target-dim", "1.4", "--level", "5",
        ]
    )
    assert rc == 0
    assert curve_path.exists()
    rc = cli.main(["dim", "--curve", str(curve_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(1.4461338383611861, abs=1e-9)


def test_cli_dim_refuses_a_non_finite_curve_file(tmp_path, capsys):
    path = tmp_path / "curve.json"
    text = curve_to_json(polyline([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]))
    assert text.endswith("\"vertices\":[0,0,1,0,2,1],\"loose\":[1]}")
    path.write_text(text.replace("[0,0,1,0,2,1]", "[0,0,1,0,2,NaN]"),
                    encoding="utf-8")
    assert cli.main(["dim", "--curve", str(path)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_cli_dim_refuses_cells_that_cannot_be_exact(tmp_path, capsys):
    # A point far out: floor(x / eps) would not fit int64 at these scales.
    path = tmp_path / "cloud.json"
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1e100, 1.0]])
    write_curve(from_segments(np.hstack([pts, pts])), path)
    rc = cli.main(["dim", "--curve", str(path), "--scale-min", "1e-3",
                   "--scale-max", "0.25"])
    assert rc == 1
    assert "cannot be exact" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["--kind", "koch", "--target-dim", "1.4", "--level", "3"],
         CurveSpec("koch", 1.4, 3, 0)),
        (["--kind", "quasicircle", "--level", "5"],
         CurveSpec("quasicircle", None, 5, 7)),
        (["--kind", "quasicircle", "--roughness", "0.3", "--level", "5"],
         CurveSpec("quasicircle", None, 5, 7, {"roughness": 0.3})),
        (["--kind", "circle", "--center", "1", "2", "--radius", "2.5",
          "--n", "100"],
         CurveSpec("circle", None, 0, 0,
                   {"cx": 1.0, "cy": 2.0, "radius": 2.5, "n": 100})),
        (["--kind", "polyline", "--points", "0", "0", "1", "0", "1", "1"],
         CurveSpec("polyline", None, 0, 0, {"points": [0, 0, 1, 0, 1, 1]})),
        (["--kind", "cantor_cross", "--ratio", "0.25", "--level", "3"],
         CurveSpec("cantor_cross", None, 3, 0, {"ratio": 0.25})),
        (["--kind", "circle"], CurveSpec("circle", params={"n": 4096})),
    ],
    ids=["koch", "quasicircle", "quasicircle-roughness", "circle", "polyline",
         "cantor_cross", "circle-defaults"],
)
def test_cli_generate_writes_the_spec_curve(tmp_path, argv, spec):
    path = tmp_path / "curve.json"
    rc = cli.main(["--quiet", "--seed", "7", "--out", str(path), "generate",
                   *argv])
    assert rc == 0
    assert path.read_text(encoding="utf-8") == curve_to_json(generate(spec)) + "\n"


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--kind", "koch", "--target-dim", "1.5", "--roughness", "0.3"],
         "roughness"),
        (["--kind", "koch"], "target_dim"),
        (["--kind", "quasicircle", "--target-dim", "1.5"], "target_dim"),
        (["--kind", "circle", "--ratio", "0.25"], "ratio"),
        (["--kind", "polyline"], "points"),
    ],
    ids=["koch-roughness", "koch-without-target-dim", "quasicircle-target-dim",
         "circle-ratio", "polyline-without-points"],
)
def test_cli_generate_refuses_missing_or_ignored_flags(tmp_path, capsys, argv,
                                                       key):
    path = tmp_path / "curve.json"
    assert cli.main(["--out", str(path), "generate", *argv]) == 1
    assert key in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda doc: {}, "spec"),
        (lambda doc: _without(doc, "min_seg_len"), "min_seg_len"),
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {**doc, "theoretical_dim": [1.0]}, "theoretical_dim"),
        (lambda doc: {**doc, "vertices": {"a": 1}}, "vertices must be"),
        (lambda doc: {**doc, "vertices": "0,0,1,0,2,1"}, "vertices must be"),
        (lambda doc: {**doc, "vertices": [[0, 0], [1, 0], [2, 1]]}, "vertices must be"),
        # Five numbers, which a reshape to pairs would refuse only by numpy.
        (lambda doc: {**doc, "vertices": [0, 0, 1, 0, 2]}, "vertices must be x, y pairs"),
        (lambda doc: {**doc, "vertices": [0, 0], "loose": [0]},
         "vertices must hold 2 or more points"),
        (lambda doc: {**doc, "loose": []}, "loose must be"),
        (lambda doc: {**doc, "vertices": [0, 0, 1, 0, 2, 1, 3, 3], "loose": [1, 1]},
         "loose must be strictly increasing"),
        (lambda doc: {**doc, "vertices": [0, 0, 1, 0, 2, 1, 3, 3], "loose": [-1, 1]},
         "loose must lie in"),
        (lambda doc: {**doc, "loose": [0]}, "loose must end with n - 1 = 1"),
        (lambda doc: _without(doc, "vertices"), "vertices"),
        (lambda doc: _without(doc, "loose"), "loose"),
        # A file of the old row layout.
        (lambda doc: {**_without(_without(doc, "vertices"), "loose"),
                      "segments": [[0, 0, 1, 0], [1, 0, 2, 1]]},
         "unknown field 'segments'"),
    ],
    ids=["empty-object", "no-min_seg_len", "top-level-list",
         "theoretical_dim-list", "vertices-object", "vertices-string",
         "vertices-nested", "vertices-odd", "vertices-one-point", "loose-empty",
         "loose-not-increasing", "loose-out-of-range", "loose-last-not-n-1",
         "no-vertices", "no-loose", "old-segments-layout"],
)
def test_cli_refuses_malformed_curve_files(tmp_path, capsys, edit, key):
    path = tmp_path / "curve.json"
    doc = json.loads(curve_to_json(polyline([(0, 0), (1, 0), (2, 1)])))
    assert (doc["vertices"], doc["loose"]) == ([0, 0, 1, 0, 2, 1], [1])
    path.write_text(json.dumps(edit(doc)))
    assert cli.main(["dim", "--curve", str(path)]) == 1
    assert key in capsys.readouterr().err


def test_cli_generate_rejects_odd_polyline_points(tmp_path, capsys):
    path = tmp_path / "curve.json"
    rc = cli.main(["--out", str(path), "generate", "--kind", "polyline",
                   "--points", "0", "0", "1"])
    assert rc == 1
    assert "--points" in capsys.readouterr().err
    assert not path.exists()


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


_GOOD_CONFIG = {"curve": {"kind": "koch", "target_dim": 1.5, "level": 6},
                "viewpoints": {"mode": "ring", "count": 6}}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("sweep", {"viewpoints": {"count": 6}}, "curve"),
        ("sweep", {**_GOOD_CONFIG, "viewpoints": "ring"}, "viewpoints"),
        ("sweep", [_GOOD_CONFIG], "JSON object"),
        ("sweep", {**_GOOD_CONFIG, "viewpoints": {"radii": [1]}}, "radii"),
        ("sweep", {**_GOOD_CONFIG, "viewpoints": {"radii": [1, 2, 3]}}, "radii"),
        ("sweep", {**_GOOD_CONFIG, "viewpoints": {"count": 2.7}}, "count"),
        ("sweep", {**_GOOD_CONFIG, "samples_per_visibel": 256},
         "samples_per_visibel"),
        ("sweep", {**_GOOD_CONFIG, "estimator": {"scale_policy": "fixed",
                                                 "scale_window": [0.01]}},
         "scale_window"),
        ("sweep", {**_GOOD_CONFIG, "curve": {"kind": "polyline"}}, "points"),
        ("sweep", {**_GOOD_CONFIG, "curve": {"kind": "quasicircle", "level": 5,
                                             "params": {"roughnes": 0.1}}},
         "roughnes"),
        ("render", lambda rep: _without(rep, "f_bound"), "f_bound"),
        ("render", lambda rep: [rep], "JSON object"),
        ("render", lambda rep: {**rep, "d_hat": 1.5}, "d_hat"),
        ("render", lambda rep: {**rep, "d_hat": "x"}, "d_hat"),
        ("render", lambda rep: {**rep, "d_hat": _without(rep["d_hat"], "stderr")},
         "stderr"),
        ("render", lambda rep: {**rep, "f_bound": True}, "f_bound"),
        ("render", lambda rep: {**rep, "f_bound": "1.3"}, "f_bound"),
        ("render", lambda rep: {**rep, "rows": "abc"}, "rows"),
    ],
    ids=["no-curve", "viewpoints-string", "top-level-list", "one-radius",
         "three-radii", "fractional-count", "misspelt-key", "one-scale",
         "polyline-without-points", "misspelt-param", "report-without-f_bound",
         "report-list", "d_hat-number", "d_hat-string", "d_hat-without-stderr",
         "f_bound-bool", "f_bound-string", "rows-string"],
)
def test_cli_refuses_malformed_configs_and_reports(sweep_out, tmp_path, capsys,
                                                   command, doc, field):
    out, report = sweep_out
    path = tmp_path / "input.json"
    if command == "sweep":
        path.write_text(json.dumps(doc))
        argv = ["--config", str(path), "--out", str(tmp_path / "run"), "sweep"]
    else:
        path.write_text(json.dumps(doc(report.to_dict())))
        curve_path = tmp_path / "curve.json"
        write_curve(generate(tiny_config(out).curve), curve_path)
        argv = ["--out", str(tmp_path / "svg"), "render", "--results",
                str(out / "results.csv"), "--report", str(path),
                "--curve", str(curve_path)]
    assert cli.main(argv) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_sweep_and_verify(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "run")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    rc = cli.main(
        ["--config", str(cfg_path), "--quiet", "sweep", "--no-render"]
    )
    assert rc == 0
    results = tmp_path / "run" / "results.csv"
    assert results.exists()
    rc = cli.main(
        ["--quiet", "verify-bound", "--results", str(results), "--d-hat", "1.5"]
    )
    assert rc == 0


def test_cli_render_reproduces_the_sweep_svgs(sweep_out, tmp_path):
    out, _ = sweep_out
    curve_path = tmp_path / "curve.json"
    curve_path.write_text(curve_to_json(generate(tiny_config(out).curve)))
    rc = cli.main(["--out", str(tmp_path / "render"), "--quiet", "render",
                   "--results", str(out / "results.csv"),
                   "--report", str(out / "report.json"),
                   "--curve", str(curve_path)])
    assert rc == 0
    for name in ("scene.svg", "dim_scatter.svg"):
        assert (tmp_path / "render" / name).read_bytes() == (
            out / name).read_bytes(), name
