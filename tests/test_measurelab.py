"""Mass profiles, energies, dimension estimators, and the constants chain."""

import hashlib
import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracvis import geom, measurelab
from fracvis.fractals import (
    FAMILIES,
    CurveSpec,
    DiscreteMeasure,
    arclength_table,
    cantor_cross,
    circle,
    from_segments,
    generate,
    koch_generalized,
    points_at_arclength,
    polyline,
    quasicircle,
    sample_arclength,
    uniform_measure,
)
from fracvis.geom import Annulus, Cone, Point
from fracvis.measurelab import (
    DimEstimate,
    _band_distances,
    _cells_of_segments,
    _energy_profile,
    box_dimension,
    check_frostman,
    dyadic_scales,
    energy_dimension,
    fit_loglog,
    frostman_rescale,
    frostman_sup_profile,
    mass_bound_constants,
    riesz_energy,
    sector_mass_bound,
    sector_mass_check,
)

KOCH_CLASSIC = math.log(4) / math.log(3)


@pytest.fixture(scope="module")
def seg_measure(unit_segment):
    return uniform_measure(unit_segment, 4096)


# ---------------------------------------------------------------------------
# frostman profile machinery
# ---------------------------------------------------------------------------


def test_frostman_sup_profile_monotone(seg_measure):
    r = np.geomspace(0.005, 2.0, 12)
    sup = frostman_sup_profile(seg_measure, r)
    assert np.all(np.diff(sup) >= 0.0)
    assert sup[-1] == pytest.approx(1.0)


def _dense_sup_profile(mu, radii):
    """Every atom's ball mass from the full distance matrix, per radius."""
    p = mu.points
    d = np.hypot(p[:, None, 0] - p[None, :, 0], p[:, None, 1] - p[None, :, 1])
    return np.array([((d <= r) @ mu.weights).max() for r in radii])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       dyadic=st.booleans(), chunk=st.sampled_from([1, 300, geom._CHUNK]))
def test_frostman_sup_profile_matches_dense_reference(seed, n, dyadic, chunk):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 6, size=(n, 2)).astype(float)
    w = rng.integers(1, 64, size=n) / 64.0 if dyadic else rng.random(n) + 0.01
    mu = DiscreteMeasure(pts, w)
    # Lattice pair distances, computed as the profile computes them, so
    # some radii sit exactly on pair distances; unsorted, with repeats.
    on_pairs = np.hypot(*rng.integers(0, 4, size=(2, 5)).astype(float))
    radii = rng.permutation(np.concatenate([on_pairs, [0.0, 0.5, 2.5, 2.5, 9.0]]))
    with mock.patch.object(geom, "_CHUNK", chunk):
        got = frostman_sup_profile(mu, radii)
    want = _dense_sup_profile(mu, radii)
    if dyadic:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_frostman_sup_profile_rejects_negative_radius(seg_measure):
    with pytest.raises(ValueError):
        frostman_sup_profile(seg_measure, [0.1, -0.1])


_FROSTMAN_MEMORY_PROBE = """
import numpy as np
from fracvis.fractals import koch_generalized, uniform_measure
from fracvis.measurelab import frostman_sup_profile
mu = uniform_measure(koch_generalized(1.5, 7), 30000)
assert frostman_sup_profile(mu, np.geomspace(1e-4, 1e-2, 8))[-1] > 0.0
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_frostman_sup_profile_peak_rss_is_bounded():
    # Dense 2048-row distance blocks over 30k atoms peaked near 1.9 GB.
    # VmHWM, not ru_maxrss: see test_visibility's memory probe.
    out = subprocess.run([sys.executable, "-c", _FROSTMAN_MEMORY_PROBE],
                         check=True, capture_output=True, text=True, timeout=300)
    peak_mb = int(out.stdout.split()[-1]) / 1024.0
    assert peak_mb <= 300.0


def test_frostman_rescale_then_check(seg_measure):
    r = np.geomspace(1e-3, 2.0, 16)
    assert not check_frostman(seg_measure, 1.0, r)
    nu = frostman_rescale(seg_measure, 1.0, r)
    assert check_frostman(nu, 1.0, r)
    assert np.array_equal(nu.points, seg_measure.points)
    assert nu.total_mass < seg_measure.total_mass


# ---------------------------------------------------------------------------
# sector mass bound
# ---------------------------------------------------------------------------


def test_sector_mass_bound_trivial_cases():
    assert sector_mass_bound(0.0, 1.0, 1.5) == 0.0
    assert sector_mass_bound(-1.0, 1.0, 1.5) == 0.0
    assert sector_mass_bound(0.8, 2.0, 1.5) == pytest.approx(2.0**1.5)
    # at s = 1 the narrow-sector bound is constant in theta
    assert sector_mass_bound(0.1, 1.0, 1.0) == pytest.approx(3.0 / math.sqrt(2.0))
    assert sector_mass_bound(0.4, 1.0, 1.0) == pytest.approx(3.0 / math.sqrt(2.0))


def test_sector_mass_bound_monotone_in_theta():
    thetas = np.linspace(1e-3, 0.5, 50)
    vals = [sector_mass_bound(float(t), 1.0, 1.5) for t in thetas]
    assert np.all(np.diff(vals) > 0.0)


def test_sector_mass_check_circle():
    mu = uniform_measure(circle((0.0, 0.0), 1.0, 1024), 2048)
    grid = np.geomspace(1e-3, 4.0, 32)
    nu = frostman_rescale(mu, 1.0, grid, margin=2.0)
    x = (3.0, 0.0)
    ann = Annulus(Point(*x), 1.0, 3.0)
    sector = Cone(Point(*x), (-1.0, 0.0), 0.2)
    res = sector_mass_check(nu, x, sector, ann, 1.0, assume_frostman=True)
    assert res.ok
    assert res.lhs <= res.rhs + 1e-9


def test_sector_mass_check_rejects_fat_annulus():
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    ann = Annulus(Point(5.0, 0.0), 3.0, 4.0)
    sector = Cone(Point(5.0, 0.0), (-1.0, 0.0), 0.2)
    with pytest.raises(ValueError):
        sector_mass_check(mu, (5.0, 0.0), sector, ann, 1.0, assume_frostman=True)


# ---------------------------------------------------------------------------
# riesz energy
# ---------------------------------------------------------------------------


def test_riesz_energy_two_points():
    mu = DiscreteMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5])
    )
    for s in (0.5, 1.0, 1.7):
        assert riesz_energy(mu, s) == pytest.approx(0.5)


def test_riesz_energy_scaling_homogeneity(rng):
    pts = rng.random((40, 2))
    w = rng.random(40)
    w /= w.sum()
    mu = DiscreteMeasure(pts, w)
    lam = 3.0
    scaled = DiscreteMeasure(pts * lam, w)
    s = 1.3
    assert riesz_energy(scaled, s) == pytest.approx(
        lam ** (-s) * riesz_energy(mu, s), rel=1e-12
    )


def test_riesz_energy_rejects_coincident_atoms():
    mu = DiscreteMeasure(np.zeros((2, 2)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        riesz_energy(mu, 1.0)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120),
       chunk=st.sampled_from([1, 300, geom._CHUNK]))
def test_riesz_energy_matches_dense_triangle(seed, n, chunk):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2)) * rng.uniform(0.01, 10.0, size=2)
    w = rng.random(n) + 0.01
    s = float(rng.uniform(0.1, 1.9))
    with mock.patch.object(geom, "_CHUNK", chunk):
        got = riesz_energy(DiscreteMeasure(pts, w), s)
    i, j = np.triu_indices(n, k=1)
    d = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
    assert got == pytest.approx(2.0 * np.sum(w[i] * w[j] * d**(-s)), rel=1e-12)


def test_riesz_energy_rejects_coincident_atoms_past_first_block():
    # 100 atoms on a line with the last one repeated: with blocks of 300
    # pairs the coincident pair comes in the last block.
    pts = np.column_stack([np.append(np.arange(100.0), 99.0), np.zeros(101)])
    mu = DiscreteMeasure(pts, np.full(101, 1.0 / 101))
    with mock.patch.object(geom, "_CHUNK", 300):
        with pytest.raises(ValueError, match="coincident"):
            riesz_energy(mu, 1.0)


def test_riesz_energy_growth_on_segment(unit_segment):
    # length-1 sets at s = 1.5 show energy growing like sqrt(n)
    ns = [2**k for k in range(8, 14)]
    energies = [
        riesz_energy(uniform_measure(unit_segment, n), 1.5) for n in ns
    ]
    slope, _, _, _ = fit_loglog(ns, energies)
    assert slope == pytest.approx(0.5, abs=0.1)


# ---------------------------------------------------------------------------
# dimension estimators
# ---------------------------------------------------------------------------


def test_box_dimension_segment_exact(unit_segment):
    est = box_dimension(unit_segment, scale_window=(1 / 256, 1 / 4))
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.is_valid


def test_box_dimension_koch(koch7):
    est = box_dimension(koch7)
    assert est.value == pytest.approx(1.2990606085670868, abs=1e-9)
    assert abs(est.value - KOCH_CLASSIC) < 0.05
    assert est.r_squared >= 0.98


def test_box_dimension_random_points_fill_the_plane():
    pts = np.random.default_rng(42).random((10000, 2))
    est = box_dimension(pts, scale_window=(1 / 64, 1 / 4))
    assert est.value == pytest.approx(2.0, abs=0.1)


def _cells_met_exact(seg, eps: Fraction) -> set:
    """Cells of the origin-anchored eps-grid met by a segment, in exact arithmetic.

    A cell counts when its closed square meets the segment in positive
    length.  On an axis where the segment does not move, only the cell
    holding its coordinate by the floor rule counts, so a segment lying on
    a grid line goes to the cell above it or to its right.
    """
    x1, y1, x2, y2 = seg
    ranges = [range(math.floor(min(u, v) / eps) - 1, math.floor(max(u, v) / eps) + 2)
              for u, v in ((x1, x2), (y1, y2))]
    cells = set()
    for i in ranges[0]:
        for j in ranges[1]:
            lo, hi = Fraction(0), Fraction(1)
            for u, du, c in ((x1, x2 - x1, i * eps), (y1, y2 - y1, j * eps)):
                if du == 0:
                    if not c <= u < c + eps:
                        lo, hi = Fraction(1), Fraction(0)
                else:
                    ta, tb = sorted(((c - u) / du, (c + eps - u) / du))
                    lo, hi = max(lo, ta), min(hi, tb)
            if hi > lo:
                cells.add((i, j))
    return cells


_EIGHTHS = st.integers(-16, 16).map(lambda k: Fraction(k, 8))
_SEGMENTS = st.tuples(_EIGHTHS, _EIGHTHS, _EIGHTHS, _EIGHTHS).filter(
    lambda s: s[:2] != s[2:])


@given(
    segs=st.lists(_SEGMENTS, min_size=1, max_size=3),
    eps=st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
)
@example(segs=[(Fraction(2), Fraction(0), Fraction(1, 2), Fraction(1, 4))],
         eps=Fraction(1, 8))
def test_cells_of_segments_matches_exact_oracle(segs, eps):
    # Eighth-integer endpoints on dyadic grids are exact in floating point,
    # so the rasteriser must agree with the exact cell sets, grid corners and
    # segments along grid lines included.  One rasterisation at eps, shifted
    # right k bits, must give the cells at eps * 2**k.
    cells = _cells_of_segments(np.array(segs, dtype=float), float(eps))
    for k in range(4):
        expected = set().union(*(_cells_met_exact(s, eps * 2**k) for s in segs))
        assert set(map(tuple, (cells >> k).tolist())) == expected


_SIXTEENTHS = st.integers(-64, 64).map(lambda k: k / 16.0)


@given(
    pts=st.lists(st.tuples(_SIXTEENTHS | st.floats(-4.0, 4.0),
                           _SIXTEENTHS | st.floats(-4.0, 4.0)),
                 min_size=1, max_size=40),
    top=st.sampled_from([1.0, 2.0, 4.0]),
)
@example(pts=[(0.0, 0.0), (0.0, -5e-324)], top=2.0)
def test_box_dimension_point_pyramid_matches_per_scale_floor(pts, top):
    # Negative coordinates and points on grid lines: the shifted finest
    # cells must count like a fresh floor at every scale, so >> must floor.
    # Dyadic eps divides these coordinates exactly, so this is the floor
    # np.floor(pts / eps) takes, except where the quotient underflows: a
    # per-scale -5e-324 / 2 rounds to -0.0 and floors to 0, while the
    # pyramid keeps the exact cell -1 from the finest scale.
    scales = dyadic_scales((top / 32.0, top))
    with mock.patch.object(measurelab, "fit_loglog",
                           wraps=measurelab.fit_loglog) as fit:
        box_dimension(np.array(pts), scale_window=(top / 32.0, top))
    counts = fit.call_args.args[1]
    expected = [len({tuple(math.floor(Fraction(v) / Fraction(eps)) for v in p)
                     for p in pts}) for eps in scales]
    assert counts.tolist() == expected


def test_box_dimension_rasterises_a_curve_once(koch5):
    with mock.patch.object(measurelab, "_cells_of_segments",
                           wraps=measurelab._cells_of_segments) as raster:
        est = box_dimension(koch5)
    assert raster.call_count == 1
    assert raster.call_args.args[1] == est.scale_window[0]


@pytest.mark.parametrize("make, bits", [
    (lambda: koch_generalized(1.5, 8), "0x1.8a9eb568df5fcp+0"),
    (lambda: quasicircle(3, 0.6, 10), "0x1.5d89ad8ccecd5p+0"),
    (lambda: cantor_cross(1 / 3, 6), "0x1.50d8f02d4678bp+0"),
])
def test_box_dimension_d_hat_bits_are_pinned(make, bits):
    assert box_dimension(make()).value.hex() == bits


_INFINITE_DIAMETER_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from fracvis.fractals import polyline
from fracvis.measurelab import box_dimension
with np.errstate(over="ignore"):
    curve = polyline([(-1e308, 0.0), (1e308, 0.0), (1e308, 1.0)])
assert curve.diam == float("inf") and curve.min_seg_len == 1.0
try:
    box_dimension(curve)
except ValueError as exc:
    print(exc)
"""


def test_box_dimension_refuses_an_infinite_window():
    # A diameter past the largest float (2e308 here) puts the default
    # window's upper end at inf, which no halving brings below the lower
    # end; the address-space cap turns a regression into a MemoryError,
    # not an exhausted machine.
    out = subprocess.run([sys.executable, "-c", _INFINITE_DIAMETER_PROBE],
                         check=True, capture_output=True, text=True, timeout=120)
    assert "scale window collapses" in out.stdout


@pytest.mark.parametrize("bad", [1e300, math.inf, -math.inf, math.nan])
def test_box_dimension_refuses_cells_that_cannot_be_exact(bad):
    # floor(x / eps) must fit int64 exactly, or the shifted counts lie.
    pts = np.array([[0.1, 0.2], [0.5, 0.7], [bad, 1.0]])
    with pytest.raises(ValueError, match="cannot be exact"):
        box_dimension(pts, scale_window=(1e-3, 0.25))
    # Just inside the bound, every cell is still exact.
    finest = dyadic_scales((1e-3, 0.25))[-1]
    pts[2, 0] = np.nextafter(2.0**62 * finest, 0.0)
    assert box_dimension(pts, scale_window=(1e-3, 0.25)).n_scales == 8


def _cell_pyramid(cells, n, distinct):
    """The distinct cells of each of n scales, finest first, shifting by one bit."""
    out = []
    for _ in range(n):
        cells = distinct(cells)
        out.append(cells)
        cells = cells >> 1
    return out


def _assert_keyed_counts_match(cells, n):
    want = _cell_pyramid(cells, n, measurelab._distinct_cells)
    got = _cell_pyramid(cells, n, measurelab._distinct_keyed)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


_CELL = st.integers(-2**62, 2**62 - 1)


@given(
    base=st.tuples(_CELL, _CELL),
    offsets=st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                     min_size=1, max_size=60),
    wide=st.lists(st.tuples(_CELL, _CELL), max_size=4),
)
@example(base=(5, -7), offsets=[(0, 0)], wide=[])
@example(base=(0, 0), offsets=[(0, 0), (0, 0), (0, 0)], wide=[])
@example(base=(-2**62, -2**62), offsets=[(0, 0)], wide=[(2**62 - 1, 2**62 - 1)])
def test_keyed_cell_counts_match_row_sort(base, offsets, wide):
    # Clusters around any base (negative cells, repeats, a single cell),
    # plus a few far cells whose spans put a key past the limit until
    # enough shifts bring the span product back under it.
    near = np.clip(np.add(base, offsets), -2**62, 2**62 - 1)
    cells = np.vstack([near, np.array(wide, dtype=np.int64).reshape(-1, 2)])
    _assert_keyed_counts_match(cells, 64)


@pytest.mark.parametrize("x_span, y_span, keyed", [
    (1, 2**62 - 1, True),
    (3, (2**62 - 1) // 3, True),
    (2, 2**61, False),
    (2**31, 2**31, False),
])
def test_keyed_cells_fall_back_at_the_key_limit(x_span, y_span, keyed):
    # The span product (xmax - x0 + 1) * w either side of 2**62.
    x0, y0 = -2**61, -5
    cells = np.array([[x0, y0], [x0 + x_span - 1, y0 + y_span - 1],
                      [x0, y0 + y_span - 1], [x0, y0]], dtype=np.int64)
    with mock.patch.object(measurelab, "_distinct_cells",
                           wraps=measurelab._distinct_cells) as rows:
        got = measurelab._distinct_keyed(cells)
    assert rows.called is not keyed
    assert np.array_equal(got, measurelab._distinct_cells(cells))


def test_pinned_far_point_counts_both_with_and_without_keys():
    # The 2**62 eps point of the refusal test spans too much for a key at
    # the finest scales, and not after a few shifts.
    pts = np.array([[0.1, 0.2], [0.5, 0.7], [0.0, 1.0]])
    finest = dyadic_scales((1e-3, 0.25))[-1]
    pts[2, 0] = np.nextafter(2.0**62 * finest, 0.0)
    cells = np.floor(pts / finest).astype(np.int64)
    _assert_keyed_counts_match(cells, 8)
    with mock.patch.object(measurelab, "_distinct_cells",
                           wraps=measurelab._distinct_cells) as rows:
        box_dimension(pts, scale_window=(1e-3, 0.25))
    assert 0 < rows.call_count < 8


# One small curve of each kind in FAMILIES, some at negative coordinates.
_FAMILY_SPECS = [
    CurveSpec("koch", 1.5, 4),
    CurveSpec("quasicircle", None, 6, 2),
    CurveSpec("circle", params={"center": (-3.0, -2.0), "n": 200}),
    CurveSpec("polyline", params={"points": [-1, -1, 1, 0, 1, 1, 0, -2]}),
    CurveSpec("cantor_cross", None, 3),
]


@pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda spec: spec.kind)
def test_keyed_counts_match_row_sort_on_every_family(spec):
    assert sorted(s.kind for s in _FAMILY_SPECS) == sorted(FAMILIES)
    curve = generate(spec)
    window = (curve.diam / 512.0, curve.diam / 4.0)
    scales = dyadic_scales(window)
    coords = curve.segments[:, 0:2] if curve.is_point_cloud else curve.segments
    cells = (np.floor(coords / scales[-1]).astype(np.int64) if curve.is_point_cloud
             else _cells_of_segments(coords, scales[-1]))
    _assert_keyed_counts_match(cells, scales.size)
    with mock.patch.object(measurelab, "fit_loglog",
                           wraps=measurelab.fit_loglog) as fit:
        box_dimension(curve, scale_window=window)
    want = _cell_pyramid(cells, scales.size, measurelab._distinct_cells)
    assert fit.call_args.args[1].tolist() == [len(c) for c in want[::-1]]


def test_energy_dimension_is_pinned_on_a_quasicircle():
    # Measured before the arclength table was hoisted out of the draws.
    value = energy_dimension(quasicircle(3, 0.6, 8), seed=1).value
    assert value == 1.3986888899432377


def test_arclength_table_draw_matches_sample_arclength():
    # Digest of sample_arclength's points before the table was hoisted.
    curve = quasicircle(3, 0.6, 8)
    fractions = np.random.default_rng(7).random(2048)
    got = points_at_arclength(arclength_table(curve.segments, curve.lengths()),
                              fractions)
    assert got.tobytes() == sample_arclength(curve, fractions).tobytes()
    assert hashlib.sha256(got.tobytes()).hexdigest() == (
        "df509be65d0ae6a4c04aa93626f9670145d35ad47847a8841384a6e9d053d626")


def test_box_dimension_rejects_bad_windows(unit_segment):
    with pytest.raises(ValueError):
        box_dimension(unit_segment, scale_window=(0.5, 0.5))
    with pytest.raises(ValueError):
        box_dimension(unit_segment, scale_window=(1 / 8, 4.0))
    with pytest.raises(ValueError):
        box_dimension(np.random.default_rng(0).random((10, 2)))


def test_energy_dimension_fixture_values(unit_segment, koch7, circle_1024):
    e_seg = energy_dimension(unit_segment)
    e_koch = energy_dimension(koch7)
    e_circ = energy_dimension(circle_1024)
    assert e_seg.value == pytest.approx(1.0400650428301783, abs=1e-6)
    assert e_koch.value == pytest.approx(1.313815669990394, abs=1e-6)
    assert e_circ.value == pytest.approx(1.0444403750232527, abs=1e-6)
    # estimators must agree within the documented envelope
    assert abs(e_seg.value - 1.0) <= 0.15
    assert abs(e_koch.value - box_dimension(koch7).value) <= 0.15
    assert abs(e_circ.value - box_dimension(circle_1024).value) <= 0.15


def _scan_band_distances(pts, lo, hi):
    """An all-pairs scan of the upper triangle, row-major in (i, j)."""
    kept = []
    for i in range(pts.shape[0] - 1):
        d = np.hypot(pts[i, 0] - pts[i + 1:, 0], pts[i, 1] - pts[i + 1:, 1])
        kept.append(d[(d > lo) & (d <= hi)])
    return np.concatenate(kept)


def _cloud(pts):
    return from_segments(np.column_stack([pts, pts]))


def _band_case(kind, seed, n):
    """A curve or cloud to draw n atoms from."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 300))
    if kind == "curve":
        return polyline(rng.uniform(-1.0, 1.0, size=(k, 2)))
    if kind == "cloud":
        return _cloud(rng.uniform(-1.0, 1.0, size=(k, 2)))
    if kind == "vertical":
        return _cloud(np.column_stack([np.full(k, 0.3), rng.uniform(-1.0, 1.0, k)]))
    # Integer points with diameter n: the band is (1, 4], and lattice
    # pairs sit exactly on both of its ends.
    axis = np.column_stack([np.arange(n + 1.0), np.zeros(n + 1)])
    bump = np.array([[n // 2 + a, b] for a in range(-2, 3) for b in range(1, 4)])
    return _cloud(np.vstack([axis, bump]).astype(float))


_BAND_KINDS = st.sampled_from(["curve", "cloud", "vertical", "lattice"])


@given(kind=_BAND_KINDS, seed=st.integers(0, 2**32 - 1), n=st.integers(16, 400))
def test_energy_profile_matches_all_pairs_scan(kind, seed, n):
    curve = _band_case(kind, seed, n)
    s_grid = np.array([0.5, 1.0, 1.5])
    table = (None if curve.is_point_cloud
             else arclength_table(curve.segments, curve.lengths()))
    got = _energy_profile(curve, table, n, s_grid, seed)
    with mock.patch.object(measurelab, "_band_distances", _scan_band_distances):
        want = _energy_profile(curve, table, n, s_grid, seed)
    assert np.array_equal(got, want)


def _band_points(kind, seed, n):
    """n atoms drawn from a band case (clouds with repeats) and the band."""
    curve = _band_case(kind, seed, n)
    rng = np.random.default_rng(seed)
    if curve.is_point_cloud:
        cloud = curve.segments[:, 0:2]
        pts = cloud[rng.integers(0, cloud.shape[0], size=n)]
    else:
        pts = sample_arclength(curve, rng.random(n))
    return pts, curve.diam / n, 4.0 * curve.diam / n


@given(kind=_BAND_KINDS, seed=st.integers(0, 2**32 - 1), n=st.integers(16, 400),
       chunk=st.sampled_from([1, 300, geom._CHUNK]))
def test_band_distances_match_all_pairs_scan(kind, seed, n, chunk):
    pts, lo, hi = _band_points(kind, seed, n)
    with mock.patch.object(geom, "_CHUNK", chunk):
        got = _band_distances(pts, lo, hi)
    assert np.array_equal(got, _scan_band_distances(pts, lo, hi))


def test_band_distances_match_scan_past_one_block(koch7):
    # Samples past energy_dimension's largest default size (2048).
    for pts, lo, hi in (_band_points("lattice", 1, 5000),
                        _band_points("cloud", 2, 5000)):
        assert np.array_equal(_band_distances(pts, lo, hi),
                              _scan_band_distances(pts, lo, hi))
    pts = sample_arclength(koch7, np.random.default_rng(3).random(5000))
    lo, hi = koch7.diam / 5000, 4.0 * koch7.diam / 5000
    want = _scan_band_distances(pts, lo, hi)
    assert want.size > 1000
    assert np.array_equal(_band_distances(pts, lo, hi), want)
    with mock.patch.object(geom, "_CHUNK", 1):
        assert np.array_equal(_band_distances(pts, lo, hi), want)


def test_dyadic_scales_halving():
    scales = dyadic_scales((1 / 64, 1 / 4))
    assert scales == pytest.approx([1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64])
    with pytest.raises(ValueError):
        dyadic_scales((0.5, 0.25))
    with pytest.raises(ValueError):
        dyadic_scales((1 / 8, 1 / 4), n_scales=10)


def test_fit_loglog_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x**2
    slope, intercept, stderr, r2 = fit_loglog(x, y)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_dim_estimate_validation_and_round_trip():
    est = DimEstimate(1.26, 0.02, (0.01, 0.25), 5, 0.999)
    assert est.is_valid
    back = DimEstimate.from_dict(est.to_dict())
    assert back == est
    with pytest.raises(ValueError):
        DimEstimate(1.0, 0.01, (0.25, 0.01), 5, 0.99)
    with pytest.raises(ValueError):
        DimEstimate(1.0, 0.01, (0.01, 0.25), 1, 0.99)
    with pytest.raises(ValueError, match="n_scales must be int"):
        DimEstimate(1.0, 0.01, (0.01, 0.25), 5.5, 0.99)


@pytest.mark.parametrize(
    "edit, match",
    [
        ({"value": True}, "value must be float"),
        ({"n_scales": 5.9}, "n_scales must be int"),
        ({"scale_mx": 0.25}, "field 'scale_mx' is unknown"),
        ({"stderr": "abc"}, "stderr must be float"),
    ],
    ids=["bool-value", "fractional-n_scales", "unknown-key", "string-stderr"],
)
def test_dim_estimate_from_dict_refuses_a_field_by_name(edit, match):
    d = DimEstimate(1.26, 0.02, (0.01, 0.25), 5, 0.999).to_dict()
    with pytest.raises(ValueError, match=match):
        DimEstimate.from_dict({**d, **edit})


# ---------------------------------------------------------------------------
# constants chain
# ---------------------------------------------------------------------------


def test_mass_bound_constants_reference_point():
    c = mass_bound_constants(2.0, 0.5, 12.0, 1.0, 1.0, 1.0)
    assert c.d0 == pytest.approx(0.5, abs=1e-9)
    assert c.r2 == pytest.approx(0.25, abs=1e-9)
    assert c.alpha0 == pytest.approx(60.0, abs=1e-9)
    assert c.alpha1 == pytest.approx(14884.0, abs=1e-9)
    assert c.c1 == pytest.approx(952576.0, abs=1e-9)


def test_mass_bound_constants_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mass_bound_constants(1.0, 0.5, 12.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mass_bound_constants(2.0, 1.5, 12.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mass_bound_constants(2.0, 0.5, 12.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mass_bound_constants(2.0, 0.5, 12.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        mass_bound_constants(2.0, 0.5, -1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "args",
    [
        (1.9, 0.05, 1e-300, 1.0, 1.0, 1.0),
        (1.5, 0.25, 1e300, 1.0, 1.0, 1.0),
        (1.5, 0.25, math.inf, 1.0, 1.0, 1.0),
        (1.5, 0.25, 12.0, 1.0, 1e308, 1.0),
        (1.5, 0.25, 12.0, math.inf, math.inf, 1.0),
    ],
    ids=["tiny-M", "huge-M", "infinite-M", "huge-d_plus", "infinite-d"],
)
def test_mass_bound_constants_refuses_a_chain_beyond_double_precision(args):
    with pytest.raises(ValueError, match="bring M, d_minus and d_plus nearer 1"):
        mass_bound_constants(*args)


def _smallest_threshold_exact(s, xi, M, d_minus, d_plus, r1):
    """min(r2, d1, d2) of the constants chain in Decimal, which has no
    double-precision underflow."""
    with localcontext() as ctx:
        ctx.prec = 40
        s, xi, M, d_minus, d_plus, r1 = map(
            Decimal, (s, xi, M, d_minus, d_plus, r1))
        two = Decimal(2)
        p = 2 + xi - s
        d0 = (M / 12) * two ** (-s / 2)
        r2 = min(r1 / two.sqrt(), (Decimal(3).sqrt() / 2) * d_minus,
                 (d_minus / d0) ** (1 / p), d0 ** (1 / (s - 1 - xi)))
        alpha0 = 60 * d_plus / d_minus
        alpha1 = ((alpha0 + 1) / d0) ** (1 / p)
        d1 = min((r2 / alpha1) ** p, d_minus / alpha0)
        d2 = (5 / (two ** Decimal("1.5") * alpha0)) * d1
        return min(r2, d1, d2)


@given(
    s=st.floats(1.05, 1.95),
    xi_frac=st.floats(0.05, 0.95),
    M=st.floats(0.1, 100.0),
    d_minus=st.floats(0.01, 2.0),
    ratio=st.floats(1.0, 10.0),
    r1=st.floats(0.01, 1.0),
)
@example(s=1.0546875, xi_frac=0.9375, M=1.0, d_minus=1.0, ratio=1.0, r1=1.0)
def test_mass_bound_constants_invariants(s, xi_frac, M, d_minus, ratio, r1):
    xi = xi_frac * (s - 1.0)
    if not (0.0 < xi < s - 1.0):
        return
    exact = _smallest_threshold_exact(s, xi, M, d_minus, d_minus * ratio, r1)
    if exact < Decimal(sys.float_info.min):
        with pytest.raises(ValueError, match="underflow"):
            mass_bound_constants(s, xi, M, d_minus, d_minus * ratio, r1)
        return
    c = mass_bound_constants(s, xi, M, d_minus, d_minus * ratio, r1)
    vals = [c.d0, c.r2, c.alpha0, c.alpha1, c.d1, c.c1, c.d2, c.c2]
    assert all(math.isfinite(v) and v > 0.0 for v in vals)
    assert c.r2 <= r1 / math.sqrt(2.0) + 1e-12
    assert c.d1 <= d_minus / c.alpha0 + 1e-12
    assert c.d2 <= c.d1 + 1e-12
