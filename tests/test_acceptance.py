"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
then asserts, so a red run still shows the measured numbers.
"""

import math
import warnings

import numpy as np

from fracvis.fractals import (
    CurveSpec,
    circle,
    koch_generalized,
    polyline,
    quasicircle,
    sample_arclength,
    uniform_measure,
)
from fracvis.geom import (
    Annulus,
    Cone,
    Point,
    check_angle_ratio_bounds,
    intercone_holds,
    point_segments_dist,
)
from fracvis.harness import (
    ExperimentConfig,
    ViewpointPlan,
    bound_value,
    exceptional_bound,
    plan_viewpoints,
    run_sweep,
)
from fracvis.measurelab import (
    box_dimension,
    check_frostman,
    energy_dimension,
    fit_loglog,
    frostman_rescale,
    mass_bound_constants,
    riesz_energy,
    sector_mass_check,
)
from fracvis.visibility import sample_visible, visible_oracle, visible_set

PHI = (1.0 + math.sqrt(5.0)) / 2.0
KOCH_CLASSIC = math.log(4) / math.log(3)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_bound_formulas():
    b = bound_value(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e = exceptional_bound(2.0, PHI)
    ok = abs(b - 1.6180339887498949) <= 1e-12 and abs(e - (PHI - 1.0)) <= 1e-12
    _report(1, "bound formulas", ok, f"f(2)={b!r}, exc(2,phi)={e!r}")


def test_criterion_2_constants_chain():
    c = mass_bound_constants(2.0, 0.5, 12.0, 1.0, 1.0, 1.0)
    want = {"d0": 0.5, "r2": 0.25, "alpha0": 60.0, "alpha1": 14884.0,
            "c1": 952576.0}
    errs = {k: abs(getattr(c, k) - v) for k, v in want.items()}
    ok = all(v <= 1e-9 for v in errs.values())
    _report(2, "constants chain", ok, f"max err {max(errs.values()):.2e}")


def test_criterion_3_oracle_equivalence():
    fixtures = [
        circle((0.0, 0.0), 1.0, 1024),
        polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]),
        koch_generalized(KOCH_CLASSIC, 5),
    ]
    bad_samples = 0
    bad_probes = 0
    total = 0
    for fi, curve in enumerate(fixtures):
        eps = curve.min_seg_len / 100.0
        vps = plan_viewpoints(curve, ViewpointPlan(mode="ring", count=10), seed=fi)
        for x in vps:
            vs = visible_set(curve, tuple(x))
            pts, _ = sample_visible(vs, 200)
            for u in pts:
                total += 1
                if not visible_oracle(curve, tuple(x), tuple(u), eps=eps):
                    bad_samples += 1
            rng = np.random.default_rng([99, fi])
            probes = sample_arclength(curve, rng.random(200))
            pieces = vs.segments
            for u in probes:
                vis = visible_oracle(curve, tuple(x), tuple(u), eps=eps)
                on_pieces = (
                    float(point_segments_dist(u, pieces).min()) <= 1e-12
                )
                if not vis and on_pieces:
                    bad_probes += 1
    ok = bad_samples == 0 and bad_probes == 0
    _report(3, "visibility oracle equivalence", ok,
            f"{total} samples, {bad_samples} oracle misses, "
            f"{bad_probes} hidden probes inside the visible set")


def test_criterion_4_analytic_circle_visibility():
    c = circle((0.0, 0.0), 1.0, 4096)
    got = visible_set(c, (2.0, 0.0)).total_length
    want = 2.0 * math.pi / 3.0
    rel = abs(got - want) / want
    _report(4, "analytic circle visibility", rel < 0.005,
            f"length {got:.6f} vs {want:.6f}, rel err {rel:.2e}")


def test_criterion_5_estimator_calibration():
    seg = polyline([(0.0, 0.0), (1.0, 0.0)])
    b_seg = box_dimension(seg, scale_window=(1 / 256, 1 / 4))
    k7 = koch_generalized(KOCH_CLASSIC, 7)
    b_koch = box_dimension(k7)
    e_seg = energy_dimension(seg)
    e_koch = energy_dimension(k7)
    ok = (
        abs(b_seg.value - 1.0) <= 0.03
        and abs(b_koch.value - KOCH_CLASSIC) <= 0.05
        and b_koch.r_squared >= 0.98
        and abs(e_seg.value - b_seg.value) <= 0.15
        and abs(e_koch.value - b_koch.value) <= 0.15
    )
    _report(5, "estimator calibration", ok,
            f"box seg {b_seg.value:.4f}, box koch {b_koch.value:.4f} "
            f"(r2 {b_koch.r_squared:.4f}), energy seg {e_seg.value:.4f}, "
            f"energy koch {e_koch.value:.4f}")


def test_criterion_6_energy_growth_law():
    seg = polyline([(0.0, 0.0), (1.0, 0.0)])
    ns = [2**k for k in range(8, 14)]
    energies = [riesz_energy(uniform_measure(seg, n), 1.5) for n in ns]
    slope, _, _, _ = fit_loglog(ns, energies)
    ok = abs(slope - 0.5) <= 0.1
    _report(6, "discrete energy growth law", ok, f"slope {slope:.4f}")


def test_criterion_7_dimension_drop(tmp_path):
    cfg = ExperimentConfig(
        curve=CurveSpec("koch", 1.5, 7, 0),
        viewpoints=ViewpointPlan(mode="ring", count=100),
        samples_per_visible=4096,
        seed=0,
        output_dir=str(tmp_path),
    )
    report = run_sweep(cfg, workers=8, render=False)
    dims = np.array(
        [
            r["dim_visible"]["value"]
            for r in report.rows
            if r["dim_visible"] is not None
        ]
    )
    ceiling = bound_value(1.5) + 0.1
    frac = float(np.mean(dims <= ceiling))
    med = float(np.median(dims))
    ok = dims.size == 100 and frac >= 0.95 and med <= 1.40
    _report(7, "dimension drop on the koch family", ok,
            f"{frac:.0%} within {ceiling:.3f}, median {med:.4f}, "
            f"observed max {dims.max():.4f}")


def test_criterion_8_quasicircle_visibility(tmp_path):
    q = quasicircle(seed=3, roughness=0.6, level=10)
    b = box_dimension(q)
    cfg = ExperimentConfig(
        curve=CurveSpec(
            "quasicircle", None, 10, 3, {"roughness": 0.6}
        ),
        viewpoints=ViewpointPlan(mode="ring", count=50),
        samples_per_visible=4096,
        seed=0,
        output_dir=str(tmp_path),
    )
    report = run_sweep(cfg, workers=8, render=False)
    dims = np.array(
        [
            r["dim_visible"]["value"]
            for r in report.rows
            if r["dim_visible"] is not None
        ]
    )
    med = float(np.median(dims))
    ok = 1.25 <= b.value <= 1.40 and dims.size == 50 and med <= 1.10
    _report(8, "quasicircle visible dimension", ok,
            f"box dim {b.value:.4f}, median visible {med:.4f}, "
            f"max {dims.max():.4f}")


def _fuzz_angle_ratio(n: int) -> int:
    rng = np.random.default_rng(20260814)
    bad = 0
    for _ in range(n):
        d_minus = rng.uniform(0.05, 1.0 - 1e-6)
        d_plus = d_minus * rng.uniform(1.0 + 1e-5, 4.0)
        a_norm = 0.5 * d_minus * rng.uniform(1e-3, 1.0 - 1e-6)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        a = (a_norm * math.cos(phi), a_norm * math.sin(phi))
        k = 6
        r = d_minus + (d_plus - d_minus) * (1.0 - rng.random(k))
        side = np.where(rng.random(k) < 0.5, 0.0, math.pi)
        ang = phi + side + rng.uniform(-1.0, 1.0, k) * (math.pi / 4.0 - 1e-3)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        if not check_angle_ratio_bounds(a, pts, d_minus, d_plus):
            bad += 1
    return bad


def _fuzz_intercone(n: int) -> int:
    rng = np.random.default_rng(77)
    bad = 0
    done = 0
    for _ in range(11):
        if done >= n:
            break
        m = n - done
        pr = np.exp(rng.uniform(math.log(0.1), math.log(10.0), m))
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        sigma = np.exp(rng.uniform(math.log(0.02), math.log(2.0), m))
        tau = np.exp(rng.uniform(math.log(0.02), math.log(2.0), m))
        t = pr * rng.uniform(1e-3, 3.0, m)
        cross = t * sigma * rng.uniform(-1.0, 1.0, m) * (1.0 - 1e-6)
        ux = np.cos(phi)
        uy = np.sin(phi)
        # u sits strictly inside the forward cone from p
        px = pr * ux
        py = pr * uy
        qx = px + t * ux - cross * uy
        qy = py + t * uy + cross * ux
        # reject draws that also land in the reverse cone about -p
        along_back = -(qx * ux + qy * uy)
        cross_back = np.abs(qx * uy - qy * ux)
        in_back = (along_back > 0.0) & (cross_back < tau * along_back)
        for i in np.nonzero(~in_back)[0]:
            if done >= n:
                break
            if not intercone_holds(
                (px[i], py[i]), float(sigma[i]), float(tau[i]),
                (qx[i], qy[i]),
            ):
                bad += 1
            done += 1
    return bad


def _fuzz_sector_mass(trials: int) -> int:
    fixtures = [
        (polyline([(0.0, 0.0), (1.0, 0.0)]), 1.0),
        (circle((0.0, 0.0), 1.0, 1024), 1.0),
        (koch_generalized(KOCH_CLASSIC, 6), KOCH_CLASSIC),
    ]
    grid = np.geomspace(1e-4, 4.0, 48)
    bad = 0
    for fi, (curve, s) in enumerate(fixtures):
        mu = uniform_measure(curve, 2048)
        nu = frostman_rescale(mu, s, grid, margin=2.0)
        assert check_frostman(nu, s, grid)
        rng = np.random.default_rng([5150, fi])
        verts = curve.segments[:, 0:2]
        lo = verts.min(axis=0) - 0.3
        hi = verts.max(axis=0) + 0.3
        for _ in range(trials):
            x = Point(
                float(rng.uniform(lo[0], hi[0])),
                float(rng.uniform(lo[1], hi[1])),
            )
            d_plus = float(rng.uniform(0.2, 1.5))
            d_minus = d_plus * float(rng.uniform(0.125, 0.5 * (1.0 - 1e-6)))
            ann = Annulus(x, d_minus, d_plus)
            if rng.random() < 0.5:
                phi = rng.uniform(0.0, 2.0 * math.pi)
                sector = Cone(
                    x,
                    (math.cos(phi), math.sin(phi)),
                    float(rng.uniform(0.025, 2.0)),
                )
            else:
                start = float(rng.uniform(0.0, 2.0 * math.pi))
                sector = (start, start + float(rng.uniform(0.05, 2.0 * math.pi)))
            res = sector_mass_check(nu, (x.x, x.y), sector, ann, s,
                                    assume_frostman=True)
            if not res.ok:
                bad += 1
    return bad


def test_criterion_9_fuzz_suites():
    n = 100_000
    bad_ratio = _fuzz_angle_ratio(n)
    bad_cone = _fuzz_intercone(n)
    bad_sector = _fuzz_sector_mass(1000)
    ok = bad_ratio == 0 and bad_cone == 0 and bad_sector == 0
    _report(9, "inequality fuzz suites", ok,
            f"angle-ratio {bad_ratio}/{n}, intercone {bad_cone}/{n}, "
            f"sector-mass {bad_sector}/3000 violations")


def test_criterion_10_determinism(tmp_path):
    outs = {}
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        cfg = ExperimentConfig(
            curve=CurveSpec("koch", 1.5, 6, 0),
            viewpoints=ViewpointPlan(mode="ring", count=12),
            samples_per_visible=2048,
            seed=7,
            output_dir=str(out),
        )
        run_sweep(cfg, workers=w, render=True)
        outs[w] = {
            name: (out / name).read_bytes()
            for name in ("results.csv", "report.json", "scene.svg",
                         "dim_scatter.svg")
        }
    ok = all(outs[1] == outs[w] for w in (4, 8))
    _report(10, "worker-count determinism", ok,
            "results.csv, report.json, and SVGs byte-identical for "
            "workers 1/4/8")
