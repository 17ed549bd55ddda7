"""The scene's path writer against a per-coordinate reference."""

from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracvis import svg
from fracvis.fractals import koch_generalized
from fracvis.visibility import Viewpoint, VisibleSet

# -0.0, values that print as "-0.0000", and magnitudes up to 1e6.
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, -4e-5, 4e-5, -5e-5, 1e6, -1e6]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-3, 1e-3, allow_nan=False),
)


def reference_path_d(frame, segs) -> str:
    """The scene's path data as it was first written: one row at a time."""
    d = []
    for row in segs:
        ax, ay = frame.to(row[0], row[1])
        bx, by = frame.to(row[2], row[3])
        d.append(f"M{format(ax, '.4f')} {format(ay, '.4f')}"
                 f"L{format(bx, '.4f')} {format(by, '.4f')}")
    return "".join(d)


def identity_frame():
    """A frame whose map keeps x, negates y and keeps -0.0 as -0.0."""
    frame = svg._Frame(0.0, 0.0, 1.0, 1.0, 800, 800, 40)
    frame.x0 = frame.y0 = 0.0
    frame.ox = frame.oy = -0.0
    frame.scale = 1.0
    return frame


@given(segs=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(4)),
                       elements=_COORDS),
       bounds=st.one_of(st.none(),
                        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                                  st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))),
       rows=st.sampled_from([1, 5, svg._PATH_ROWS]))
def test_path_writer_matches_per_coordinate_format(segs, bounds, rows):
    if bounds is None:
        frame = identity_frame()
    else:
        x0, y0, w, h = bounds
        frame = svg._Frame(x0, y0, x0 + w, y0 + h, 800, 800, 40)
    with mock.patch.object(svg, "_PATH_ROWS", rows):
        assert svg._path_d(frame, segs) == reference_path_d(frame, segs)


def test_identity_frame_prints_negative_zero():
    segs = np.array([[-0.0, 0.0, -4e-5, 4e-5]])
    assert svg._path_d(identity_frame(), segs) == (
        "M-0.0000 -0.0000L-0.0000 -0.0000")


def test_scene_of_an_empty_visible_set_has_no_red_path():
    curve = koch_generalized(1.5, 3)
    vs = VisibleSet.empty(Viewpoint(0.5, -1.0, 1.0))
    scene = svg.render_scene(curve, vs)
    assert scene.count("<path ") == 1
    assert 'stroke="#999999"' in scene
    assert "#cc2222" not in scene
    assert "visible pieces: 0  length: 0" in scene
