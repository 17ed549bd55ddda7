"""Curve generators, discrete measures, and the curve file format."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from conftest import decode_vertices, encode_vertices
from hypothesis import given
from hypothesis import strategies as st

from fracvis import fractals
from fracvis.fractals import (
    CurveSpec,
    DiscreteMeasure,
    cantor_cross,
    circle,
    curve_from_json,
    curve_to_json,
    from_segments,
    generate,
    json_text,
    koch_generalized,
    polyline,
    quasicircle,
    read_curve,
    sample_arclength,
    uniform_measure,
    write_curve,
)
from fracvis.geom import diameter

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
    mu = uniform_measure(circle((0.0, 0.0), 1.0, 4096), 1000)
    d = mu.points - (1.0, 0.0)
    mass = float(np.sum(mu.weights[np.hypot(d[:, 0], d[:, 1]) <= 0.1]))
    assert mass == pytest.approx(0.1 / math.pi, rel=0.05)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: koch_generalized(1.5, 4),
        lambda: quasicircle(3, 0.6, 6),
        lambda: circle((1.0, -2.0), 2.5, 100),
        lambda: polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]),
        lambda: cantor_cross(0.25, 3),
    ],
    ids=["koch", "quasicircle", "circle", "polyline", "cantor_cross"],
)
def test_generate_reproduces_each_builders_curve_from_its_spec(make):
    curve = make()
    again = generate(curve.spec)
    assert again.segments.tobytes() == curve.segments.tobytes()
    assert again.spec == curve.spec
    assert again.theoretical_dim == curve.theoretical_dim
    assert again.min_seg_len == curve.min_seg_len
    assert again.diam == curve.diam


@pytest.mark.parametrize(
    "args, key",
    [
        (("quasicircle", None, 5, 1, {"roughnes": 0.1}), "roughnes"),
        (("circle", None, 0, 0, {"n": 100.7}), "n must be int"),
        (("circle", None, 0, 0, {"n": 2.5}), "n must be int"),
        (("circle", None, 0, 0, {"radius": "1"}), "radius must be float"),
        (("koch", 1.5, 4, 7), "seed"),
        (("koch", 1.5, 4, 0, {"foo": 1}), "foo"),
        (("koch", None, 4), "target_dim"),
        (("quasicircle", 1.9, 5, 1), "target_dim"),
        (("circle", None, 3), "level"),
        (("polyline",), "points"),
        (("polyline", None, 0, 0, {"points": [[0, 0], [1, 1]]}), "points must be"),
        (("polyline", None, 0, 0, {"points": [0, 0, 1]}), "points must be two or more"),
        (("circle", None, 0, 0, {"cx": 1.0, "cy": 2.0}), "unknown param 'cx'"),
        (("spiral",), "spiral"),
    ],
    ids=["misspelt-param", "fractional-n", "fractional-n-below-3", "string-radius",
         "koch-seed", "koch-unknown-param", "koch-without-target_dim",
         "quasicircle-target_dim", "circle-level", "polyline-without-points",
         "nested-points", "odd-points", "circle-cx", "unknown-kind"],
)
def test_generate_refuses_what_its_family_does_not_read(args, key):
    # A spec checks itself, so most cases are refused when it is built.
    with pytest.raises(ValueError, match=key):
        generate(CurveSpec(*args))


def test_a_kind_families_does_not_list_is_kept_as_given_and_refused_by_generate():
    spec = CurveSpec("spiral", 1.5, 3, 4, {"turns": 2})
    assert spec.params == {"turns": 2}
    with pytest.raises(ValueError, match="unknown curve kind 'spiral'"):
        generate(spec)


@pytest.mark.parametrize(
    "make, digest",
    [
        # Both re-recorded when the file came to be written by json_text, with
        # sorted keys and floats as repr writes them; the earlier text and
        # this one read back to bitwise-equal segments and equal specs.
        (lambda: koch_generalized(1.5, 4),
         "a2628ba3764e46cce0ae399080646410e3ac95323e2219e1a36c1c84815b4674"),
        (lambda: quasicircle(3, 0.6, 6),
         "b2cf7de83778277732c160641d495dee3dd09942f2b04b6af1507d21c28638d0"),
    ],
    ids=["koch", "quasicircle"],
)
def test_benchmark_curve_file_bytes_are_pinned(make, digest):
    assert hashlib.sha256(curve_to_json(make()).encode()).hexdigest() == digest


@pytest.mark.parametrize("make", [lambda: koch_generalized(1.5, 4),
                                  lambda: cantor_cross(0.25, 2)],
                         ids=["chain", "point-cloud"])
def test_curve_json_appends_vertices_to_the_json_text_of_the_rest(make):
    text = curve_to_json(make())
    assert text == json_text(json.loads(text))


# A polyline's file as written before the keys were sorted, with floats as
# %.17g text: the spec's integral points read back as integers.
_UNSORTED_FILE = (
    '{"spec":{"kind":"polyline","target_dim":null,"level":0,"seed":0,'
    '"params":{"points":[0,-0.0,0.10000000000000001,0,2,1]}},'
    '"theoretical_dim":1,"min_seg_len":0.10000000000000001,'
    '"vertices":"AAAAAAAAAAAAAAAAAAAAgJqZmZmZmbk/AAAAAAAAAAAAAAAAAAAAQAAAAAAAAPA/",'
    '"loose":[1]}')


def test_curve_file_of_the_unsorted_layout_still_reads():
    curve = polyline([(0.0, -0.0), (0.1, 0.0), (2.0, 1.0)])
    back = curve_from_json(_UNSORTED_FILE)
    assert back.segments.tobytes() == curve.segments.tobytes()
    assert back.spec == curve.spec
    assert back.theoretical_dim == curve.theoretical_dim
    assert back.min_seg_len == curve.min_seg_len


def test_circle_file_of_the_cx_cy_layout_is_refused_naming_cx():
    doc = json.loads(curve_to_json(circle((1.0, 2.0), 1.0, 8)))
    doc["spec"]["params"] = {"cx": 1.0, "cy": 2.0, "radius": 1.0, "n": 8}
    with pytest.raises(ValueError, match="unknown param 'cx'"):
        curve_from_json(json_text(doc))


def test_curve_json_round_trip(tmp_path, koch5):
    path = tmp_path / "curve.json"
    write_curve(koch5, path)
    back = read_curve(path)
    assert back.segments.tobytes() == koch5.segments.tobytes()
    assert back.theoretical_dim == pytest.approx(koch5.theoretical_dim)
    assert back.min_seg_len == pytest.approx(koch5.min_seg_len)
    assert back.spec.to_dict() == koch5.spec.to_dict()
    assert not back.is_point_cloud


def test_curve_json_has_exactly_documented_keys(circle_1024):
    doc = json.loads(curve_to_json(circle_1024))
    assert sorted(doc) == ["loose", "min_seg_len", "spec", "theoretical_dim",
                           "vertices"]
    # A closed chain: n starts, then the end of the last segment.
    n = circle_1024.n_segments
    assert doc["loose"] == [n - 1]
    assert isinstance(doc["vertices"], str)
    assert decode_vertices(doc["vertices"]).shape == (n + 1, 2)


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


AWKWARD = [-0.0, 5e-324, 1e16, 1.0, math.pi, -1.5e-300, 0.1, -123456789.125,
           2.0**-1074 * 3, 1e100, -1e-5, 1e22]


def test_curve_json_rows_match_per_coordinate_format():
    # Each coordinate is its own 8 little-endian bytes, in table order.
    rows = np.array(AWKWARD).reshape(-1, 4)
    pts = np.array(AWKWARD).reshape(-1, 2)
    chain = np.column_stack([pts[:-1], pts[1:]])
    soup = from_segments(np.vstack([rows, chain, rows[::-1, ::-1]]))
    segs = soup.segments
    n = soup.n_segments
    loose = [i for i in range(n - 1)
             if segs[i, 2:4].tobytes() != segs[i + 1, 0:2].tobytes()] + [n - 1]
    assert len(loose) < n
    table = [*segs[:, 0:2].ravel(), *segs[loose, 2:4].ravel()]
    want = encode_vertices(table)
    text = curve_to_json(soup)
    assert text.startswith(f"{{\"loose\":[{','.join(map(str, loose))}],")
    assert text.endswith(f"\"vertices\":\"{want}\"}}")
    back = curve_from_json(text)
    assert back.segments.tobytes() == soup.segments.tobytes()


def test_curve_json_keeps_negative_zero():
    curve = polyline([(0.0, -0.0), (1.0, 0.0), (1.0, 1.0)])
    text = curve_to_json(curve)
    assert np.signbit(decode_vertices(json.loads(text)["vertices"])[0, 1])
    back = curve_from_json(text)
    assert np.signbit(back.segments[0, 1])
    # The spec's points are text, and keep the sign too.
    assert np.signbit(back.spec.params["points"][1])
    assert curve_to_json(back) == text


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_curve_json_rejects_non_finite_coordinates(bad):
    segs = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 2.0, 1.0]])
    curve = from_segments(segs)
    segs = segs.copy()
    segs[1, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        curve_to_json(dataclasses.replace(curve, segments=segs))


# The usual NaN and infinities, a NaN with a payload and a negative one.  A
# decimal beyond the float range (1e999) has no bytes of its own: it is inf.
_NAN_PAYLOAD = np.frombuffer(bytes.fromhex("0100000000f8ff7f"), "<f8")[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, _NAN_PAYLOAD, -math.nan],
                         ids=["NaN", "Infinity", "-Infinity", "nan-payload", "-nan"])
def test_curve_json_reader_rejects_non_finite_coordinates(bad):
    doc = json.loads(curve_to_json(polyline([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])))
    assert doc["vertices"] == encode_vertices([0, 0, 1, 0, 2, 1])
    doc["vertices"] = encode_vertices([0, 0, 1, 0, 2, bad])
    with pytest.raises(ValueError, match="vertices must be finite"):
        curve_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "loose, table, match",
    [
        ("[1]", "true", "vertices must be a base64 string"),
        ("[1]", "[0,0,1,0,2,true]", "vertices must be a base64 string"),
        ("[true]", "\"{table}\"", "loose must be"),
        ("[1.0]", "\"{table}\"", "loose must be"),
        # JSON's -0 is the integer 0, which does not end the table at n - 1.
        ("[-0]", "\"{table}\"", "loose must"),
    ],
    ids=["bool-vertex", "list-with-bool", "bool-loose", "float-loose",
         "negative-zero-loose"],
)
def test_curve_json_reader_refuses_bools_and_non_integers(loose, table, match):
    # true == 1 and 1.0 == 1, so each loose edit would decode to the original curve.
    text = curve_to_json(polyline([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]))
    vertices = encode_vertices([0, 0, 1, 0, 2, 1])
    head, tail = "{\"loose\":[1],", f"\"vertices\":\"{vertices}\"}}"
    assert text.startswith(head) and text.endswith(tail)
    edited = (f"{{\"loose\":{loose},{text[len(head):-len(tail)]}"
              f"\"vertices\":{table.format(table=vertices)}}}")
    with pytest.raises(ValueError, match=match):
        curve_from_json(edited)


def _assert_round_trips(curve):
    text = curve_to_json(curve)
    back = curve_from_json(text)
    assert back.segments.tobytes() == curve.segments.tobytes()
    assert curve_to_json(back) == text
    return json.loads(text)


# One small curve of each kind in FAMILIES.
SMALL_SPECS = [
    CurveSpec("koch", 1.5, 3),
    CurveSpec("quasicircle", None, 4, 2),
    CurveSpec("circle", params={"n": 16}),
    CurveSpec("polyline", params={"points": [0, 0, 1, 0, 1, 1, 0, 0]}),
    CurveSpec("cantor_cross", None, 2),
]


def test_small_specs_cover_every_family():
    assert sorted(spec.kind for spec in SMALL_SPECS) == sorted(fractals.FAMILIES)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: spec.kind)
def test_curve_file_round_trips_every_family(spec):
    curve = generate(spec)
    doc = _assert_round_trips(curve)
    n = curve.n_segments
    if curve.is_point_cloud:
        assert doc["loose"] == list(range(n))
        assert decode_vertices(doc["vertices"]).shape == (2 * n, 2)
    else:
        assert doc["loose"] == [n - 1]
        assert decode_vertices(doc["vertices"]).shape == (n + 1, 2)


def test_curve_file_keeps_a_negative_zero_junction_loose():
    # -0.0 == 0.0, but the files keep bits, so the junction is a break.
    soup = from_segments([[0.0, 0.0, 1.0, -0.0], [1.0, 0.0, 2.0, 1.0]])
    doc = _assert_round_trips(soup)
    assert doc["loose"] == [0, 1]


_CLOUD = np.random.default_rng(5).normal(size=(50, 2))


@pytest.mark.parametrize("curve", [
    *(generate(spec) for spec in SMALL_SPECS),
    koch_generalized(1.5, 7),
    from_segments([[-0.0, 0.0, 1.0, -0.0], [1.0, 0.0, 2.0, 1.0],
                   [2.0, 1.0, -0.0, -0.0], [0.0, 0.0, -0.0, 2.0]]),
    from_segments(np.tile(_CLOUD, 2)),
], ids=[spec.kind for spec in SMALL_SPECS] + ["koch-L7", "negative-zero-soup", "cloud"])
def test_diam_of_vertex_table_equals_diam_of_all_endpoints(curve):
    # The vertex table is the same point set as the 2n endpoints.
    ends = np.vstack([curve.segments[:, 0:2], curve.segments[:, 2:4]])
    assert curve.diam.hex() == diameter(ends).hex()


@given(
    st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
             min_size=2, max_size=30),
    st.sets(st.integers(0, 28)),
    st.data(),
)
def test_curve_file_round_trips_chains_broken_anywhere(points, breaks, data):
    segs = np.array([[*a, *b] for a, b in zip(points, points[1:])])
    n = segs.shape[0]
    for i in sorted(b for b in breaks if b < n - 1):
        segs[i + 1, 0:2] = data.draw(st.tuples(st.floats(-1e6, 1e6),
                                               st.floats(-1e6, 1e6)))
    curve = from_segments(segs)
    doc = _assert_round_trips(curve)
    assert doc["loose"] == [i for i in range(n - 1)
                            if segs[i, 2:4].tobytes() != segs[i + 1, 0:2].tobytes()
                            ] + [n - 1]
    assert decode_vertices(doc["vertices"]).shape == (n + len(doc["loose"]), 2)


# Any finite float64, with the edges of the range drawn often.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_ANY_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))


@given(st.integers(1, 12), st.data())
def test_curve_file_vertex_table_round_trips_every_float64(n, data):
    # A vertex table of n + len(loose) random points under a random loose set.
    breaks = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    loose = np.append(np.flatnonzero(breaks), n - 1)
    pts = np.array(data.draw(st.lists(_ANY_FINITE, min_size=2 * (n + loose.size),
                                      max_size=2 * (n + loose.size)))).reshape(-1, 2)
    segs = np.column_stack([pts[:n], fractals.vertex_ends(pts, loose, n)])
    # Points near the ends of the range put the diameter beyond it; it is
    # inf then, and is not stored.  min_seg_len is given for the same reason.
    with np.errstate(over="ignore"):
        curve = fractals.CurveApprox(segs, None, 1.0, CurveSpec("soup"))
        text = curve_to_json(curve)
        back = curve_from_json(text)
    assert back.segments.tobytes() == curve.segments.tobytes()
    table = decode_vertices(json.loads(text)["vertices"])
    if curve.is_point_cloud:
        table = table[:n]
    assert table.tobytes() == curve.vertices().tobytes()


def _set_unused_bit(t):
    # The character before the padding carries 2 or 4 bits that hold no byte;
    # a reader that ignored them would read this string as the original.
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    k = t.index("=") - 1
    return t[:k] + alphabet[alphabet.index(t[k]) ^ 1] + t[k + 1:]


@pytest.mark.parametrize(
    "edit",
    [lambda t: t[:8] + "\n" + t[8:], lambda t: t[:8] + " " + t[8:],
     lambda t: t[:8] + "*" + t[8:], lambda t: t[:8] + "=" + t[8:],
     lambda t: t[:8] + "\u00e9" + t[8:], lambda t: t[:-1], lambda t: t + "\n",
     lambda t: t + "=", _set_unused_bit],
    ids=["newline", "space", "star", "inner-padding", "non-ascii", "cut",
         "trailing-newline", "extra-padding", "unused-bit"],
)
def test_curve_file_refuses_a_stray_character_in_vertices(edit):
    doc = json.loads(curve_to_json(koch_generalized(1.5, 2)))
    doc["vertices"] = edit(doc["vertices"])
    with pytest.raises(ValueError, match="vertices must be base64"):
        curve_from_json(json.dumps(doc))


def test_curve_file_refuses_padding_after_a_full_group():
    # 3 points are 48 bytes, 64 characters with no padding to end them.
    doc = json.loads(curve_to_json(polyline([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])))
    assert not doc["vertices"].endswith("=")
    doc["vertices"] += "="
    with pytest.raises(ValueError, match="vertices must be base64"):
        curve_from_json(json.dumps(doc))


def test_from_segments_soup():
    segs = np.array([[0.0, 0.0, 1.0, 0.0], [3.0, 0.0, 4.0, 0.0]])
    soup = from_segments(segs)
    assert soup.n_segments == 2
    assert not soup.is_point_cloud


@pytest.mark.parametrize(
    "rows, match",
    [
        # Twelve numbers that a reshape to rows of 4 would read as three rows.
        ([[0, 0, 1], [0, 1, 0], [1, 0, 2], [1, 1, 3]], "segments must be"),
        ([[0, 0, 1, 0], [1, 0, 2]], "segments must be"),
        ([], "segments must be"),
        (np.empty((0, 4)), "segments must be"),
        ([[0, 0, 1, 0], [1, 0, 2, math.nan]], "segments must be finite"),
        ([[0, 0, 1, 0], [1, 0, 2, math.inf]], "segments must be finite"),
        ([[0, 0, 1, 0], [1, 0, -math.inf, 1]], "segments must be finite"),
    ],
    ids=["width-3", "ragged", "empty-list", "empty-array", "nan", "inf", "-inf"],
)
def test_from_segments_refuses_anything_but_finite_rows_of_four(rows, match):
    with pytest.raises(ValueError, match=match):
        from_segments(rows)


def test_vertices_keep_tiny_disjoint_segments():
    # Endpoints 4e-9 apart are distinct points, not one chain joint.
    soup = from_segments([[0.0, 0.0, 1e-9, 0.0], [5e-9, 5e-9, 6e-9, 5e-9]])
    want = np.array([[0.0, 0.0], [5e-9, 5e-9], [1e-9, 0.0], [6e-9, 5e-9]])
    assert np.array_equal(soup.vertices(), want)
    assert np.allclose(soup.centroid(), [3e-9, 2.5e-9], rtol=1e-12, atol=0.0)


def test_vertices_list_chain_joints_once():
    chain = polyline([(0.0, 0.0), (1e-9, 0.0), (1e-9, 2e-9)])
    assert np.array_equal(chain.vertices(), [[0.0, 0.0], [1e-9, 0.0], [1e-9, 2e-9]])


@pytest.mark.parametrize(
    "curve",
    # The soup's joint ends at -0.0 and starts at 0.0: bitwise two chains,
    # so four points, where an equality test of the joint lists three.
    [*map(generate, SMALL_SPECS),
     from_segments([[1.0, 1.0, -0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])],
    ids=[*(spec.kind for spec in SMALL_SPECS), "signed-zero-soup"],
)
def test_vertices_are_the_curve_file_vertex_table(curve):
    table = decode_vertices(json.loads(curve_to_json(curve))["vertices"])
    if curve.is_point_cloud:
        # A point cloud lists each point once: the starts that open its table.
        table = table[:curve.n_segments]
    assert curve.vertices().tobytes() == table.tobytes()


def test_curve_spec_round_trip():
    spec = CurveSpec("quasicircle", None, 7, 42, {"roughness": 0.25})
    assert CurveSpec.from_dict(spec.to_dict()) == spec


def test_curve_spec_stores_each_param_as_its_kind_with_defaults_filled_in():
    spec = CurveSpec("circle", params={"n": 16.0, "center": [1, -0.0]})
    assert spec.params == {"center": (1.0, -0.0), "radius": 1.0, "n": 16}
    assert [type(v) for v in spec.params["center"]] == [float, float]
    assert type(spec.params["n"]) is int
    assert math.copysign(1.0, spec.params["center"][1]) == -1.0
    assert CurveSpec("quasicircle", None, 5, 7) == CurveSpec(
        "quasicircle", None, 5, 7, {"roughness": fractals.QUASI_ROUGHNESS})


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: spec.kind)
def test_generate_keeps_the_spec_it_was_given(spec):
    assert generate(spec).spec == spec


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: spec.kind)
def test_curve_spec_survives_json_text(spec):
    back = CurveSpec.from_dict(json.loads(json_text(spec.to_dict())))
    assert back == spec
    assert json_text(back.to_dict()) == json_text(spec.to_dict())
