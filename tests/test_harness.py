"""Bound formulas, experiment configs, the sweep runner, and the CLI."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracvis import cli
from fracvis.fractals import CurveSpec, curve_to_json, generate, koch_generalized
from fracvis.geom import point_segments_dist
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


def test_estimator_plan_validation():
    with pytest.raises(ValueError):
        EstimatorPlan(scale_policy="magic")
    with pytest.raises(ValueError):
        EstimatorPlan(scale_policy="fixed")
    with pytest.raises(ValueError):
        EstimatorPlan(n_scales=2)


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
    ],
    ids=["koch", "quasicircle", "quasicircle-roughness", "circle", "polyline",
         "cantor_cross"],
)
def test_cli_generate_writes_the_spec_curve(tmp_path, argv, spec):
    path = tmp_path / "curve.json"
    rc = cli.main(["--quiet", "--seed", "7", "--out", str(path), "generate",
                   *argv])
    assert rc == 0
    assert path.read_text(encoding="utf-8") == curve_to_json(generate(spec)) + "\n"


def test_cli_generate_rejects_odd_polyline_points(tmp_path, capsys):
    path = tmp_path / "curve.json"
    rc = cli.main(["--out", str(path), "generate", "--kind", "polyline",
                   "--points", "0", "0", "1"])
    assert rc == 1
    assert "--points" in capsys.readouterr().err
    assert not path.exists()


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
