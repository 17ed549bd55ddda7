"""Static SVG plots, built by hand so identical inputs give identical bytes.

Two figures: a scene (the curve, one viewpoint, and its visible pieces
highlighted) and a scatter of visible-part dimension against viewpoint
distance with horizontal reference lines at the curve's estimated dimension
and at the theoretical ceiling.
"""

from __future__ import annotations

import numpy as np

from .fractals import CurveApprox
from .visibility import VisibleSet

_SCENE_SIZE = 800
_PLOT_W = 800
_PLOT_H = 560
_MARGIN = 56
# Path rows per %-format call; bounds the Python floats alive at once.
_PATH_ROWS = 4096


def _num(v: float) -> str:
    return format(float(v), ".4f")


def _header(width: int, height: int) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


class _Frame:
    """World-to-canvas map with uniform scale and flipped y."""

    def __init__(self, x0, y0, x1, y1, width, height, margin):
        self.x0 = x0
        self.y0 = y0
        span = max(x1 - x0, y1 - y0, 1e-300)
        self.scale = (min(width, height) - 2.0 * margin) / span
        # Center the content in the canvas.
        self.ox = 0.5 * (width - (x1 - x0) * self.scale)
        self.oy = 0.5 * (height + (y1 - y0) * self.scale)

    def to(self, x, y):
        """Canvas (x, y) of world (x, y); scalars or arrays alike."""
        return (
            self.ox + (x - self.x0) * self.scale,
            self.oy - (y - self.y0) * self.scale,
        )


def _path_d(frame: _Frame, segs: np.ndarray) -> str:
    """Path data "Mxa yaLxb yb..." for the rows (xa, ya, xb, yb) of segs."""
    ax, ay = frame.to(segs[:, 0], segs[:, 1])
    bx, by = frame.to(segs[:, 2], segs[:, 3])
    canvas = np.column_stack([ax, ay, bx, by])
    # One %-format per block of rows; "%.4f" matches _num's format().
    return "".join(
        ("M%.4f %.4fL%.4f %.4f" * len(block)) % tuple(block.ravel().tolist())
        for block in (canvas[i:i + _PATH_ROWS]
                      for i in range(0, len(canvas), _PATH_ROWS))
    )


def render_scene(curve: CurveApprox, vs: VisibleSet,
                 size: int = _SCENE_SIZE, margin: int = 40) -> str:
    """Curve in grey, visible pieces in red, viewpoint as a filled dot."""
    segs = curve.segments
    xs = [segs[:, 0].min(), segs[:, 0].max(), segs[:, 2].min(), segs[:, 2].max(),
          vs.viewpoint.x]
    ys = [segs[:, 1].min(), segs[:, 1].max(), segs[:, 3].min(), segs[:, 3].max(),
          vs.viewpoint.y]
    frame = _Frame(min(xs), min(ys), max(xs), max(ys), size, size, margin)

    parts = [
        _header(size, size),
        f'<path d="{_path_d(frame, segs)}" stroke="#999999" stroke-width="1" '
        'fill="none"/>\n',
    ]
    if len(vs.segments):
        parts.append(
            f'<path d="{_path_d(frame, vs.segments)}" stroke="#cc2222" '
            'stroke-width="2.5" fill="none"/>\n'
        )
    parts.append('<circle cx="%.4f" cy="%.4f" r="5" fill="#2244cc"/>\n'
                 % frame.to(vs.viewpoint.x, vs.viewpoint.y))
    parts.append(
        f'<text x="10" y="20" font-family="monospace" font-size="13">'
        f'visible pieces: {len(vs.segments)}  length: {format(vs.total_length, ".6g")}'
        "</text>\n"
    )
    parts.append("</svg>\n")
    return "".join(parts)


def render_dim_scatter(dists, dims, d_hat: float, f_bound: float,
                       width: int = _PLOT_W, height: int = _PLOT_H,
                       margin: int = _MARGIN) -> str:
    """dim_visible against viewpoint distance, with reference lines."""
    if len(dists) != len(dims) or not dists:
        raise ValueError("need matching, non-empty dists and dims")
    xs = [float(v) for v in dists]
    ys = [float(v) for v in dims]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = min(min(ys), d_hat, f_bound, 1.0) - 0.05
    y_hi = max(max(ys), d_hat, f_bound) + 0.05

    def to(x, y):
        cx = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        cy = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return cx, cy

    parts = [_header(width, height)]
    ax0, ay0 = to(x_lo, y_lo)
    ax1, ay1 = to(x_hi, y_hi)
    parts.append(
        f'<path d="M{_num(ax0)} {_num(ay1)}L{_num(ax0)} {_num(ay0)}'
        f'L{_num(ax1)} {_num(ay0)}" stroke="black" stroke-width="1" fill="none"/>\n'
    )
    for label, y_ref, color, dash in (
        (f"d_hat={format(d_hat, '.4g')}", d_hat, "#228822", "6 4"),
        (f"bound={format(f_bound, '.4g')}", f_bound, "#cc2222", "none"),
    ):
        _, cy = to(x_lo, y_ref)
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        parts.append(
            f'<line x1="{_num(ax0)}" y1="{_num(cy)}" x2="{_num(ax1)}" '
            f'y2="{_num(cy)}" stroke="{color}" stroke-width="1.5"{dash_attr}/>\n'
        )
        parts.append(
            f'<text x="{_num(ax1 - 150)}" y="{_num(cy - 5)}" '
            f'font-family="monospace" font-size="12" fill="{color}">{label}</text>\n'
        )
    for x, y in zip(xs, ys):
        cx, cy = to(x, y)
        parts.append(
            f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="3" fill="#2244cc" '
            'fill-opacity="0.7"/>\n'
        )
    parts.append(
        f'<text x="{_num(0.5 * width - 60)}" y="{_num(height - 12)}" '
        'font-family="monospace" font-size="13">distance to set</text>\n'
    )
    parts.append(
        f'<text x="14" y="{_num(0.5 * height)}" font-family="monospace" '
        f'font-size="13" transform="rotate(-90 14 {_num(0.5 * height)})">'
        "dim of visible part</text>\n"
    )
    # Axis extremes, enough to read the plot without a tick generator.
    parts.append(
        f'<text x="{_num(ax0)}" y="{_num(ay0 + 18)}" font-family="monospace" '
        f'font-size="11">{format(x_lo, ".4g")}</text>\n'
    )
    parts.append(
        f'<text x="{_num(ax1 - 30)}" y="{_num(ay0 + 18)}" '
        f'font-family="monospace" font-size="11">{format(x_hi, ".4g")}</text>\n'
    )
    parts.append(
        f'<text x="{_num(ax0 - 42)}" y="{_num(ay0)}" font-family="monospace" '
        f'font-size="11">{format(y_lo, ".3g")}</text>\n'
    )
    parts.append(
        f'<text x="{_num(ax0 - 42)}" y="{_num(ay1 + 4)}" '
        f'font-family="monospace" font-size="11">{format(y_hi, ".3g")}</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)
