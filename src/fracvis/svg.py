"""Static SVG plots, built by hand so identical inputs give identical bytes.

Two figures: a scene (the curve, one viewpoint, and its visible pieces
highlighted) and a scatter of visible-part dimension against viewpoint
distance with horizontal reference lines at the curve's estimated dimension
and at the theoretical ceiling.
"""

from __future__ import annotations

import functools

import numpy as np

from .fractals import CurveApprox
from .visibility import VisibleSet

_SCENE_SIZE = 800
_SCENE_MARGIN = 40
_PLOT_W = 800
_PLOT_H = 560
_MARGIN = 56
# Path rows per block of the number writer, set by koch-deep peak RSS (65k
# segments, one worker.py run each): 512 or 1,024 rows 58.0-58.2 MB, 4,096
# 59.3 MB, 16,384 61.2 MB, against 58.5 MB with the %-format writer.
_PATH_ROWS = 1024
# The writer refuses |v| at or beyond this, where whole parts pass 16 digits.
_PATH_LIMIT = 1e16
# Twice the largest rounding error of q = 1e4 * fraction (see _numbers).
_TIE_MARGIN = 2.0 ** -39


def _words(block: np.ndarray) -> np.ndarray:
    """The rows of a 4-byte-wide column block, as one uint32 column."""
    return block.view(np.uint32)[:, 0]


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The number writer's digit tables, as uint32 words of 4 bytes.

    Row k of the first holds the ASCII digits of k, "0000" ... "9999"; row
    k of the second marks those from its first nonzero digit on, the digits
    a leading group keeps.  They are built on first use, not at import:
    built at import, they raised the peak RSS of CLI runs that never
    render by 0.2-0.3 MB.
    """
    digits = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
              + ord("0")).astype(np.uint8)
    leading = np.logical_or.accumulate(digits != ord("0"), axis=1)
    return _words(digits), _words(leading)


def _num(v: float) -> str:
    return format(float(v), ".4f")


def _header(width: int, height: int) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


def _text(x: str, y: str, size: int, body: str, extra: str = "") -> str:
    """A monospace <text> element at canvas (x, y), given as written."""
    return (f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}"'
            f'{extra}>{body}</text>\n')


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


def _numbers(values: np.ndarray, separators: bytes) -> str:
    """The rows of a 2-d array as format(v, ".4f"), each after a separator.

    Column j of each row follows ``separators[j]``.  Each number is one row
    of a byte matrix (separator, sign, integer digits in groups of four,
    ".", four decimals), whose groups are rows of the digit table
    (``_tables``) gathered as 4-byte words.  One boolean mask keeps the bytes format() writes: "-"
    wherever ``np.signbit`` is set, so -0.0 and negatives that round to
    zero print "-0.0000" as format() prints them, the leading group's
    digits from its first nonzero one, and the units digit always.  The kept bytes are decoded once.

    With a = |v| = i + r and i = floor(a), the fraction r = a - i is exact,
    and the decimals are k = round(1e4 r), carried into i at 10,000.  As
    1e4 r < 2**14, q = fl(1e4 r) lies within half an ulp, 2**-40, of it.
    Where |q - rint(q)| < 1/2 - _TIE_MARGIN, no half-integer lies between
    q and 1e4 r, and k = rint(q).  Within _TIE_MARGIN = 2**-39 of 1/2,
    which holds every exact binary tie such as 41.40625 ("41.4062", half
    to even), format() itself gives i and k.

    ``_Frame`` maps every scene point into [40, 760], the canvas less its
    margin.  Any |v| < _PATH_LIMIT is written exactly; nan, inf or a
    larger |v| raises ValueError.
    """
    v = values.ravel()
    a = np.abs(v)
    if not a.max(initial=0.0) < _PATH_LIMIT:
        raise ValueError(f"canvas coordinate {v[~(a < _PATH_LIMIT)][0]!r} is "
                         f"beyond the path writer's range |v| < {_PATH_LIMIT:g}")
    whole = np.floor(a)
    q = (a - whole) * 1e4
    k = np.rint(q)
    for j in np.flatnonzero(np.abs(q - k) >= 0.5 - _TIE_MARGIN):
        text = format(float(a[j]), ".4f")
        whole[j], k[j] = float(text[:-5]), float(text[-4:])
    carry = k == 1e4
    whole += carry
    k[carry] = 0.0
    # The integer part in groups of four digits, the leading group first.
    groups = [whole.astype(np.int64)]
    while groups[0].max(initial=0) >= 10_000:
        groups[:1] = np.divmod(groups[0], 10_000)
    point = 2 + 4 * len(groups)
    out = np.empty(values.shape + (point + 5,), dtype=np.uint8)
    out[..., 0] = np.frombuffer(separators, dtype=np.uint8)
    out = out.reshape(v.size, point + 5)
    out[:, 1] = ord("-")
    out[:, point] = ord(".")
    digits, leading = _tables()
    _words(out[:, point + 1:])[:] = digits[k.astype(np.int64)]
    keep = np.ones(out.shape, dtype=bool)
    keep[:, 1] = np.signbit(v)
    for g, part in enumerate(groups):
        cols = slice(2 + 4 * g, 6 + 4 * g)
        _words(out[:, cols])[:] = digits[part]
        # A group after a nonzero one keeps all four digits.
        above = whole >= 10_000.0 ** (len(groups) - g)
        _words(keep[:, cols])[:] = np.where(above, _words(np.ones((1, 4), bool)),
                                            leading[part])
    keep[:, point - 1] = True
    return out[keep].tobytes().decode("ascii")


def _path_d(frame: _Frame, segs: np.ndarray) -> str:
    """Path data "Mxa yaLxb yb..." for the rows (xa, ya, xb, yb) of segs.

    The numbers read as format(v, ".4f") writes them (see _numbers), and
    go _PATH_ROWS rows at a time.
    """
    ax, ay = frame.to(segs[:, 0], segs[:, 1])
    bx, by = frame.to(segs[:, 2], segs[:, 3])
    canvas = np.column_stack([ax, ay, bx, by])
    return "".join(_numbers(canvas[i:i + _PATH_ROWS], b"M L ")
                   for i in range(0, len(canvas), _PATH_ROWS))


def render_scene(curve: CurveApprox, vs: VisibleSet) -> str:
    """Curve in grey, visible pieces in red, viewpoint as a filled dot."""
    segs = curve.segments
    xs = [segs[:, 0].min(), segs[:, 0].max(), segs[:, 2].min(), segs[:, 2].max(),
          vs.viewpoint.x]
    ys = [segs[:, 1].min(), segs[:, 1].max(), segs[:, 3].min(), segs[:, 3].max(),
          vs.viewpoint.y]
    frame = _Frame(min(xs), min(ys), max(xs), max(ys),
                   _SCENE_SIZE, _SCENE_SIZE, _SCENE_MARGIN)

    parts = [
        _header(_SCENE_SIZE, _SCENE_SIZE),
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
    parts.append(_text("10", "20", 13, f"visible pieces: {len(vs.segments)}  "
                       f"length: {format(vs.total_length, '.6g')}"))
    parts.append("</svg>\n")
    return "".join(parts)


def render_dim_scatter(dists, dims, d_hat: float, f_bound: float) -> str:
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
        cx = _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_PLOT_W - 2 * _MARGIN)
        cy = _PLOT_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_PLOT_H - 2 * _MARGIN)
        return cx, cy

    parts = [_header(_PLOT_W, _PLOT_H)]
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
        parts.append(_text(_num(ax1 - 150), _num(cy - 5), 12, label,
                           f' fill="{color}"'))
    for x, y in zip(xs, ys):
        cx, cy = to(x, y)
        parts.append(
            f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="3" fill="#2244cc" '
            'fill-opacity="0.7"/>\n'
        )
    mid_y = _num(0.5 * _PLOT_H)
    parts += [
        _text(_num(0.5 * _PLOT_W - 60), _num(_PLOT_H - 12), 13, "distance to set"),
        _text("14", mid_y, 13, "dim of visible part",
              f' transform="rotate(-90 14 {mid_y})"'),
        # Axis extremes, enough to read the plot without a tick generator.
        _text(_num(ax0), _num(ay0 + 18), 11, format(x_lo, ".4g")),
        _text(_num(ax1 - 30), _num(ay0 + 18), 11, format(x_hi, ".4g")),
        _text(_num(ax0 - 42), _num(ay0), 11, format(y_lo, ".3g")),
        _text(_num(ax0 - 42), _num(ay1 + 4), 11, format(y_hi, ".3g")),
    ]
    parts.append("</svg>\n")
    return "".join(parts)
