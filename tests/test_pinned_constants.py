"""Outputs fixed by module constants: a drifted constant changes them."""

import hashlib

from fracvis import svg
from fracvis.fractals import koch_generalized
from fracvis.measurelab import energy_dimension
from fracvis.visibility import visible_set


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_svg_writers_and_energy_dimension_are_pinned():
    curve = koch_generalized(1.5, 6)
    assert _sha256(svg.render_scene(curve, visible_set(curve, (0.5, 1.2)))) == (
        "0ba36c8e040a764847f8cf493a7ef5c12edcacd58fd5d44c37787afd2cbfd486")
    scatter = svg.render_dim_scatter([1.0, 2.0, 3.0], [1.1, 1.2, 1.05],
                                     d_hat=1.5, f_bound=1.366)
    assert _sha256(scatter) == (
        "38484a25344d75d67d0a24a4f3f662bcd7f9561ec4a8619aaf9db1655883b071")
    assert energy_dimension(curve, seed=1).value == 1.558834941440902
