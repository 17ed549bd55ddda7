"""Curve generators, discrete measures, and the curve file format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracvis.fractals import (
    CurveSpec,
    DiscreteMeasure,
    cantor_cross,
    circle,
    curve_from_json,
    curve_to_json,
    from_segments,
    generate,
    koch_generalized,
    polyline,
    quasicircle,
    read_curve,
    sample_arclength,
    uniform_measure,
    write_curve,
)

KOCH_CLASSIC = math.log(4) / math.log(3)


def chain_is_connected(segments: np.ndarray) -> bool:
    return bool(np.all(np.abs(segments[1:, 0:2] - segments[:-1, 2:4]) < 1e-12))


# ---------------------------------------------------------------------------
# Koch family
# ---------------------------------------------------------------------------


def test_koch_level1_is_classic_generator():
    k = koch_generalized(KOCH_CLASSIC, 1)
    assert k.n_segments == 4
    assert k.lengths() == pytest.approx([1 / 3] * 4, abs=1e-12)
    assert chain_is_connected(k.segments)
    assert k.segments[0, 0:2] == pytest.approx([0.0, 0.0])
    assert k.segments[-1, 2:4] == pytest.approx([1.0, 0.0])


def test_koch_level0_single_segment():
    k = koch_generalized(1.5, 0)
    assert k.n_segments == 1
    assert k.theoretical_dim == 1.5


def test_koch_counts_and_lengths():
    r = 4.0 ** (-2.0 / 3.0)
    k = koch_generalized(1.5, 2)
    assert k.n_segments == 16
    assert k.lengths() == pytest.approx([r**2] * 16, abs=1e-12)
    assert k.min_seg_len == pytest.approx(r**2)


@given(st.floats(1.01, 1.79), st.integers(0, 5))
def test_koch_chain_invariants(target_dim, level):
    k = koch_generalized(target_dim, level)
    assert k.n_segments == 4**level
    r = 4.0 ** (-1.0 / target_dim)
    assert k.lengths() == pytest.approx([r**level] * 4**level, abs=1e-9)
    assert chain_is_connected(k.segments)


def test_koch_rejects_out_of_range_dim():
    for bad in (1.0, 1.8, 0.5, 2.0):
        with pytest.raises(ValueError):
            koch_generalized(bad, 2)


def test_koch_self_avoiding_at_level5():
    k = koch_generalized(1.79, 5)
    segs = k.segments
    n = segs.shape[0]
    # brute-force: non-adjacent segment pairs never intersect
    from fracvis.visibility import find_segment_crossings

    crossings = find_segment_crossings(k)
    assert crossings.shape[0] == 0, f"unexpected crossings: {crossings[:5]}"
    assert n == 4**5


def test_koch_deterministic():
    a = koch_generalized(1.4, 4).segments
    b = koch_generalized(1.4, 4).segments
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Quasicircle
# ---------------------------------------------------------------------------


def test_quasicircle_zero_roughness_is_regular_polygon():
    q = quasicircle(seed=5, roughness=0.0, level=4)
    assert q.n_segments == 3 * 2**4
    radii = np.hypot(q.segments[:, 0], q.segments[:, 1])
    assert radii == pytest.approx(np.ones_like(radii), abs=1e-12)


def test_quasicircle_deterministic_in_seed():
    a = quasicircle(seed=9, roughness=0.7, level=6).segments
    b = quasicircle(seed=9, roughness=0.7, level=6).segments
    c = quasicircle(seed=10, roughness=0.7, level=6).segments
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_quasicircle_closed_and_star_shaped():
    q = quasicircle(seed=2, roughness=0.9, level=7)
    assert chain_is_connected(q.segments)
    assert q.segments[-1, 2:4] == pytest.approx(q.segments[0, 0:2].tolist())
    radii = np.hypot(q.segments[:, 0], q.segments[:, 1])
    assert np.all(radii > 0.0)


def test_quasicircle_box_dim_regression():
    # roughness 0.5 at level 8 lands in a mid-range dimension band
    from fracvis.measurelab import box_dimension

    est = box_dimension(quasicircle(seed=0, roughness=0.5, level=8))
    assert 1.2 < est.value < 1.45


def test_quasicircle_rejects_bad_params():
    with pytest.raises(ValueError):
        quasicircle(seed=1, roughness=1.0)
    with pytest.raises(ValueError):
        quasicircle(seed=1, roughness=0.5, level=13)
    with pytest.raises(ValueError):
        quasicircle(seed=1, roughness=0.5, amplitude=-1.0)


# ---------------------------------------------------------------------------
# Circle, polyline, cantor cross
# ---------------------------------------------------------------------------


def test_circle_square_case():
    c = circle((0.0, 0.0), 1.0, 4)
    assert c.n_segments == 4
    radii = np.hypot(c.segments[:, 0], c.segments[:, 1])
    assert radii == pytest.approx([1.0] * 4)


def test_circle_perimeter_converges():
    c = circle((0.0, 0.0), 1.0, 4096)
    assert c.total_length() == pytest.approx(2 * math.pi, rel=1e-5)


def test_circle_rejects_bad_inputs():
    with pytest.raises(ValueError):
        circle((0.0, 0.0), -1.0, 16)
    with pytest.raises(ValueError):
        circle((0.0, 0.0), 1.0, 2)


def test_polyline_single_segment():
    p = polyline([(0.0, 0.0), (1.0, 0.0)])
    assert p.n_segments == 1
    assert p.theoretical_dim == 1.0
    with pytest.raises(ValueError):
        polyline([(0.0, 0.0)])


def test_cantor_cross_level1():
    cc = cantor_cross(1 / 3, 1)
    got = np.array(sorted(map(tuple, cc.segments[:, 0:2])))
    want = np.array(sorted([(0.0, 0.0), (0.0, 2 / 3), (2 / 3, 0.0), (2 / 3, 2 / 3)]))
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert cc.is_point_cloud
    assert not cc.connected


def test_cantor_cross_theoretical_dim():
    assert cantor_cross(1 / 3, 2).theoretical_dim == pytest.approx(
        2 * math.log(2) / math.log(3)
    )
    assert cantor_cross(1 / 4, 2).theoretical_dim == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Measures and arclength sampling
# ---------------------------------------------------------------------------


def test_uniform_measure_two_point_midpoints(unit_segment):
    mu = uniform_measure(unit_segment, 2)
    assert mu.points == pytest.approx(np.array([[0.25, 0.0], [0.75, 0.0]]))
    assert mu.weights == pytest.approx([0.5, 0.5])


@given(st.integers(1, 400))
def test_uniform_measure_weights_sum(n):
    mu = uniform_measure(polyline([(0.0, 0.0), (2.0, 1.0)]), n)
    assert float(np.sum(mu.weights)) == pytest.approx(1.0)
    assert mu.total_mass == pytest.approx(1.0)


def test_uniform_measure_circle_ball_mass():
    from fracvis.measurelab import ball_mass

    mu = uniform_measure(circle((0.0, 0.0), 1.0, 4096), 1000)
    assert ball_mass(mu, (1.0, 0.0), 0.1) == pytest.approx(0.1 / math.pi, rel=0.05)


def test_sample_arclength_endpoints(unit_segment):
    pts = sample_arclength(unit_segment, np.array([0.0, 0.5, 1.0 - 1e-12]))
    assert pts[:, 0] == pytest.approx([0.0, 0.5, 1.0], abs=1e-9)


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(
            points=np.zeros((2, 2)), weights=np.array([0.5, -0.5])
        )


# ---------------------------------------------------------------------------
# generate() dispatch and the curve file format
# ---------------------------------------------------------------------------


def test_generate_dispatch_matches_direct_constructors():
    spec = CurveSpec("koch", 1.4, 3, 0)
    assert generate(spec).segments.tobytes() == koch_generalized(1.4, 3).segments.tobytes()
    spec = CurveSpec("quasicircle", None, 5, 11, {"roughness": 0.7})
    assert (
        generate(spec).segments.tobytes()
        == quasicircle(seed=11, roughness=0.7, level=5).segments.tobytes()
    )
    with pytest.raises(ValueError):
        generate(CurveSpec("nonsense", None, 1, 0))


def test_quasicircle_spec_without_roughness_matches_constructor_default():
    spec = CurveSpec("quasicircle", None, 6, 4)
    assert (
        generate(spec).segments.tobytes()
        == quasicircle(4, level=6).segments.tobytes()
    )


def test_curve_json_round_trip(tmp_path, koch5):
    path = tmp_path / "curve.json"
    write_curve(koch5, path)
    back = read_curve(path)
    assert back.segments.tobytes() == koch5.segments.tobytes()
    assert back.theoretical_dim == pytest.approx(koch5.theoretical_dim)
    assert back.min_seg_len == pytest.approx(koch5.min_seg_len)
    assert back.spec.to_dict() == koch5.spec.to_dict()
    assert back.connected


def test_curve_json_has_exactly_documented_keys(circle_1024):
    doc = json.loads(curve_to_json(circle_1024))
    assert sorted(doc) == ["min_seg_len", "segments", "spec", "theoretical_dim"]
    assert len(doc["segments"]) == circle_1024.n_segments
    assert all(len(row) == 4 for row in doc["segments"])


def test_curve_json_point_cloud_round_trip():
    cc = cantor_cross(0.3, 3)
    back = curve_from_json(curve_to_json(cc))
    assert back.is_point_cloud
    assert back.segments.tobytes() == cc.segments.tobytes()


def test_curve_json_17_digit_round_trip():
    # a coordinate with no short decimal representation survives exactly
    p = polyline([(0.0, 0.0), (math.pi, math.e)])
    back = curve_from_json(curve_to_json(p))
    assert back.segments.tobytes() == p.segments.tobytes()


def test_from_segments_soup():
    segs = np.array([[0.0, 0.0, 1.0, 0.0], [3.0, 0.0, 4.0, 0.0]])
    soup = from_segments(segs, kind="soup", connected=False)
    assert soup.n_segments == 2
    assert not soup.connected


def test_curve_spec_round_trip():
    spec = CurveSpec("koch", 1.5, 7, 42, {"extra": 1.0})
    assert CurveSpec.from_dict(spec.to_dict()) == spec
