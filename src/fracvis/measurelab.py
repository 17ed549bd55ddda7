"""Dimension estimators and mass diagnostics for discrete measures.

Two estimators, both reporting goodness of fit:

* ``box_dimension``: occupied-cell counts over origin-anchored dyadic grids,
  least-squares slope of log N(eps) against log(1/eps).  Points or curves
  are rasterised once, at the finest eps; curves exactly, their grid-line
  crossings listed at once (``geom._ragged_ranges``) and stepped through in
  order along each segment.  Halving eps is exact, so floor(x / eps_{k+1})
  >> 1 == floor(x / eps_k), and coarse grid lines are fine ones at the same
  crossing t: each coarser count shifts the distinct cells right one bit.
  Each scale counts its cells from one sorted int64 key per cell.
* ``energy_dimension``: the largest exponent s whose discrete Riesz energy
  stays bounded as the sample grows (growth slope below
  ``ENERGY_SLOPE_THRESHOLD``), interpolated at the crossing.  Each energy
  keeps only the pairs in a thin distance band, summed in row-major (i, j)
  order, so the estimates do not depend on how the pairs were found.

Plus the mass bounds the estimators are checked against: the worst-case
ball-mass profile sup_x mu(B(x, r)) over the measure's own atoms and the
ball-growth check and rescaling built on it, the sector mass bound for
measures with ball growth mu(B(x, r)) <= r**s, and the closed-form
constants chain (d0, r2, alpha0, alpha1, d1, c1, d2, c2) used by the
separation estimates.  Band energies, the Riesz energy and the ball-mass
profile all take their atom pairs from one sorted-axis window search,
``_pairs_within``, in blocks of bounded size.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .fractals import (CurveApprox, DiscreteMeasure, arclength_table,
                       coerce_fields, points_at_arclength)
from .geom import (
    CHECK_SLACK,
    Annulus,
    Cone,
    _ragged_ranges,
    _window_pairs,
    _xy,
)

ENERGY_SLOPE_THRESHOLD = 0.05

# r^2 below which a box-count fit should not be trusted.
R_SQUARED_VALID = 0.98


@dataclass(frozen=True)
class DimEstimate:
    """A fitted dimension with its fit diagnostics."""

    value: float
    stderr: float
    scale_window: tuple[float, float]
    n_scales: int
    r_squared: float

    def __post_init__(self):
        coerce_fields(self, value=float, stderr=float, scale_window=(float,) * 2,
                      n_scales=int, r_squared=float)
        lo, hi = self.scale_window
        if not (0.0 < lo < hi):
            raise ValueError("scale window must satisfy 0 < min < max")
        if self.n_scales < 2:
            raise ValueError("need at least two scales")

    @property
    def is_valid(self) -> bool:
        return self.r_squared >= R_SQUARED_VALID

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "r_squared": self.r_squared,
            "scale_min": self.scale_window[0],
            "scale_max": self.scale_window[1],
            "n_scales": self.n_scales,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DimEstimate":
        """The estimate of a :meth:`to_dict` object; a missing or unknown
        key, or a value not of its kind, is refused with a ValueError naming it."""
        keys = {"value", "stderr", "r_squared", "scale_min", "scale_max", "n_scales"}
        if set(d) != keys:
            odd = sorted(set(d) ^ keys)[0]
            raise ValueError(f"DimEstimate field {odd!r} is "
                             f"{'unknown' if odd in d else 'missing'}")
        return cls(d["value"], d["stderr"], (d["scale_min"], d["scale_max"]),
                   d["n_scales"], d["r_squared"])


def fit_loglog(x, y) -> tuple[float, float, float, float]:
    """Least squares of log y on log x.

    Returns (slope, intercept, stderr_of_slope, r_squared).  Degenerate
    y-variance yields r_squared = 1 and stderr 0 (a perfect constant fit).
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    n = lx.size
    if n < 2:
        raise ValueError("need at least two samples to fit")
    mx = lx.mean()
    my = ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx <= 0.0:
        raise ValueError("x values must not be all equal")
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    ssr = float(np.sum(resid**2))
    syy = float(np.sum((ly - my) ** 2))
    r2 = 1.0 if syy <= 1e-30 else 1.0 - ssr / syy
    stderr = 0.0 if n == 2 else math.sqrt(max(ssr, 0.0) / (n - 2) / sxx)
    return slope, intercept, stderr, r2


# ---------------------------------------------------------------------------
# Pair distances
# ---------------------------------------------------------------------------


def _pairs_within(pts: np.ndarray, hi: float):
    """Atom pairs i < j at distance d <= hi, as blocks of (i, j, d) arrays.

    Atoms are keyed by their coordinate on the axis of larger spread, and
    ``geom._window_pairs`` pairs each with the later atoms no more than
    2*hi further along it; the factor 2 keeps every pair whose computed
    distance is at most hi inside the window despite rounding.  Blocks hold
    at most ``geom._CHUNK`` candidates, also with hi = inf (all pairs).
    """
    c = pts[:, int(np.argmax(np.ptp(pts, axis=0)))]
    for a, b in _window_pairs(c, c + 2.0 * hi):
        i = np.minimum(a, b)
        j = np.maximum(a, b)
        d = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
        keep = d <= hi
        yield i[keep], j[keep], d[keep]


# ---------------------------------------------------------------------------
# Sector mass bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorMassResult:
    lhs: float
    rhs: float
    theta: float
    ok: bool


def frostman_sup_profile(mu: DiscreteMeasure, r_grid) -> np.ndarray:
    """sup over the measure's own atoms of closed-ball mass, per radius.

    One pass over the atom pairs within the largest radius: each pair adds
    each end's weight to the other's ball growth at the least radius at or
    above its distance.  Cumulative sums over the sorted distinct radii,
    plus each atom's own weight, give every mu(B(p_i, r)).
    """
    radii = np.asarray(r_grid, dtype=float)
    if np.any(radii < 0.0):
        raise ValueError("radii must be nonnegative")
    r, back = np.unique(radii, return_inverse=True)
    w = mu.weights
    n = w.size
    growth = np.zeros(r.size * n)
    for i, j, d in _pairs_within(mu.points, r[-1]):
        cell = np.searchsorted(r, d) * n
        growth += np.bincount(cell + i, weights=w[j], minlength=growth.size)
        growth += np.bincount(cell + j, weights=w[i], minlength=growth.size)
    return (np.cumsum(growth.reshape(r.size, n), axis=0) + w).max(axis=1)[back]


def check_frostman(mu: DiscreteMeasure, s: float, r_grid) -> bool:
    """True iff mu(B(x, r)) <= r**s + CHECK_SLACK at every atom x and grid r."""
    radii = np.asarray(r_grid, dtype=float)
    if np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    sup = frostman_sup_profile(mu, radii)
    return bool(np.all(sup <= radii**s + CHECK_SLACK))


def frostman_rescale(mu: DiscreteMeasure, s: float, r_grid,
                     margin: float = 1.0) -> DiscreteMeasure:
    """Rescale weights so the ball-growth bound holds on the grid.

    ``margin`` > 1 leaves extra headroom (useful to absorb the gap between
    grid radii when the bound is consumed at off-grid scales).
    """
    radii = np.asarray(r_grid, dtype=float)
    sup = frostman_sup_profile(mu, radii)
    worst = float(np.max(sup / radii**s))
    if worst <= 0.0:
        raise ValueError("degenerate measure")
    return mu.scaled(1.0 / (worst * margin))


def sector_mass_bound(theta: float, d_plus: float, s: float) -> float:
    """Closed-form sector bound for measures with ball growth r**s.

    For arc width theta <= 1/2 a covering by theta * d_plus boxes gives
    3 * d_plus**s * 2**(s/2 - 1) * theta**(s-1); beyond that the trivial
    bound d_plus**s (the mass of the whole annulus) applies.
    """
    if theta <= 0.0:
        return 0.0
    if theta <= 0.5:
        return 3.0 * d_plus**s * 2.0 ** (s / 2.0 - 1.0) * theta ** (s - 1.0)
    return d_plus**s


def sector_mass_check(mu: DiscreteMeasure, x, sector, ann: Annulus, s: float,
                      assume_frostman: bool = False) -> SectorMassResult:
    """Compare the mass in sector-intersect-annulus against the sector bound.

    ``sector`` is either a Cone with vertex x (arc width 2 atan(opening)) or
    a pair (theta_lo, theta_hi) of direction angles about x.  The annulus
    must be centered at x with d_minus <= d_plus / 2, the regime in which
    the covering bound is valid.  The ball-growth precondition
    mu(B(u, r)) <= r**s is checked first on 32 radii from d_plus / 1024 to
    2 d_plus unless the caller has already verified it and passes
    ``assume_frostman``.  ``ok`` is lhs <= rhs + CHECK_SLACK.
    """
    xv = _xy(x)
    if np.hypot(*(ann.center.as_array() - xv)) > 1e-9:
        raise ValueError("annulus must be centered at the sector vertex")
    if ann.d_minus > ann.d_plus / 2.0 + 1e-15:
        raise ValueError("bound requires d_minus <= d_plus / 2")

    if isinstance(sector, Cone):
        if np.hypot(*(sector.vertex.as_array() - xv)) > 1e-9:
            raise ValueError("cone vertex must equal x")
        theta = 2.0 * math.atan(sector.opening)
        in_sector = sector.mask(mu.points)
    else:
        lo, hi = float(sector[0]), float(sector[1])
        theta = (hi - lo) % (2.0 * math.pi)
        if theta == 0.0 and hi != lo:
            theta = 2.0 * math.pi
        d = mu.points - xv
        ang = np.arctan2(d[:, 1], d[:, 0])
        in_sector = (ang - lo) % (2.0 * math.pi) <= theta
    theta = min(theta, 2.0 * math.pi)

    if not assume_frostman:
        frostman_grid = np.geomspace(ann.d_plus / 1024.0, 2.0 * ann.d_plus, 32)
        if not check_frostman(mu, s, frostman_grid):
            raise ValueError("measure violates the ball-growth precondition on the grid")

    inside = in_sector & ann.mask(mu.points)
    lhs = float(np.sum(mu.weights[inside]))
    rhs = sector_mass_bound(theta, ann.d_plus, s)
    return SectorMassResult(lhs=lhs, rhs=rhs, theta=theta, ok=lhs <= rhs + CHECK_SLACK)


# ---------------------------------------------------------------------------
# Riesz energy
# ---------------------------------------------------------------------------


def riesz_energy(mu: DiscreteMeasure, s: float) -> float:
    """Off-diagonal double sum  sum_{i != j} w_i w_j |p_i - p_j|**(-s).

    Every pair i < j comes from ``_pairs_within`` with no distance limit and
    counts twice; the blocks are summed one by one in its fixed order, so
    memory stays bounded.  Coincident atoms make the sum undefined and
    raise.
    """
    if s <= 0.0:
        raise ValueError("exponent must be positive")
    w = mu.weights
    if w.size < 2:
        raise ValueError("energy needs at least two atoms")
    total = 0.0
    for i, j, d in _pairs_within(mu.points, np.inf):
        if np.any(d == 0.0):
            raise ValueError("coincident atoms make the energy undefined")
        total += 2.0 * float(np.sum(w[i] * w[j] * d**(-s)))
    return total


# ---------------------------------------------------------------------------
# Energy dimension
# ---------------------------------------------------------------------------

_ENERGY_DRAWS = 8
_ENERGY_BAND_RATIO = 4.0
# Exponents probed for boundedness, and the sample sizes of their energies.
_ENERGY_S_GRID = np.round(np.arange(0.30, 1.951, 0.10), 10)
_ENERGY_N_GRID = np.array([64, 128, 256, 512, 1024, 2048])


def _band_distances(pts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Distances |p_i - p_j| in (lo, hi] over pairs i < j, ordered by (i, j).

    The pairs come from ``_pairs_within(pts, hi)``.  Floating sums depend on
    order, so the kept distances are sorted row-major by (i, j), the order
    of an all-pairs scan of the upper triangle, whatever blocks found them.
    """
    kept_i, kept_j, kept_d = [], [], []
    for i, j, d in _pairs_within(pts, hi):
        keep = d > lo
        kept_i.append(i[keep])
        kept_j.append(j[keep])
        kept_d.append(d[keep])
    i = np.concatenate(kept_i)
    j = np.concatenate(kept_j)
    return np.concatenate(kept_d)[np.lexsort((j, i))]


def _energy_profile(curve: CurveApprox, table, n: int, s_grid: np.ndarray,
                    seed: int) -> np.ndarray:
    """Band-restricted Riesz energies of n-atom samples, one per exponent.

    Atoms are drawn independently and uniformly in arclength (uniformly from
    the cloud for point-cloud curves) and the off-diagonal energy sum keeps
    only pair distances in the resolution band (diam/n, 4*diam/n].  On a
    d-dimensional target the band energy scales like n**(s-d), so its growth
    across sample sizes separates bounded from divergent exponents sharply.
    The full sum does not: below the dimension it crawls toward its limit
    from beneath (the deficit decays like n**-(d-s)) and the closest-pair
    terms are heavy-tailed, so fitted slopes stay biased at any feasible n.
    Averaging over independent draws tames the remaining count noise.

    ``table`` is the curve's :func:`fractals.arclength_table` (None for a
    point cloud), built once by the caller for all its draws; a draw maps
    its fractions through it exactly as :func:`fractals.sample_arclength`
    does, bit for bit.

    The band holds a few pairs per atom, so ``_band_distances`` finds them
    without computing all n(n-1)/2 distances and returns them in row-major
    (i, j) order, which keeps every energy bit-for-bit equal to that of an
    all-pairs scan of the upper triangle.
    """
    lo = curve.diam / n
    hi = _ENERGY_BAND_RATIO * curve.diam / n
    cloud = curve.segments[:, 0:2]
    total = np.zeros(s_grid.size)
    for r in range(_ENERGY_DRAWS):
        rng = np.random.default_rng([seed, n, r])
        if table is None:
            pts = cloud[rng.integers(0, cloud.shape[0], size=n)]
        else:
            pts = points_at_arclength(table, rng.random(n))
        dists = _band_distances(pts, lo, hi)
        if dists.size:
            # Factor 2: each unordered pair appears twice in the double sum.
            total += [2.0 / (n * n) * float(np.sum(dists**(-s)))
                      for s in s_grid]
    return total / _ENERGY_DRAWS


def energy_dimension(curve: CurveApprox, seed: int = 0) -> DimEstimate:
    """Dimension as the boundedness threshold of discrete Riesz energies.

    An exponent s admits a finite energy exactly when the energy content of
    dyadic distance bands dies out toward fine scales; past the dimension it
    blows up instead.  For each n in ``_ENERGY_N_GRID`` the band energy of
    an n-atom sample at resolution scale diam/n is computed for each s in
    ``_ENERGY_S_GRID`` (see ``_energy_profile``); s counts as bounded while
    the slope of log I_s against log n stays below
    ``ENERGY_SLOPE_THRESHOLD``, and the estimate interpolates between the
    last bounded and first divergent exponent at the threshold crossing.
    With the band energy scaling like n**(s - d) the crossing sits near
    d + threshold, comfortably inside the tolerance of every fixture.

    Sample sizes should respect the input's own resolution: bands finer
    than the minimum feature spacing (segment length, cloud spacing) carry
    little or no mass and drag the crossing away from the true value.
    ``_ENERGY_N_GRID`` tops out at 2048, matching level-7 constructions.
    """
    s_grid, n_grid = _ENERGY_S_GRID, _ENERGY_N_GRID
    if not (curve.diam > 0.0):
        raise ValueError("degenerate curve: zero diameter")

    table = (None if curve.is_point_cloud
             else arclength_table(curve.segments, curve.lengths()))
    energies = np.empty((n_grid.size, s_grid.size))
    for i, n in enumerate(n_grid):
        energies[i] = _energy_profile(curve, table, int(n), s_grid, seed)

    slopes = np.empty(s_grid.size)
    rsq = np.empty(s_grid.size)
    for j in range(s_grid.size):
        col = energies[:, j]
        pos = col > 0.0
        if int(pos.sum()) < 3:
            # No pairs show up at these scales; nothing can diverge.
            slopes[j] = -math.inf
            rsq[j] = 1.0
            continue
        slope, _, _, r2 = fit_loglog(n_grid[pos], col[pos])
        slopes[j] = slope
        rsq[j] = r2

    bounded = slopes < ENERGY_SLOPE_THRESHOLD
    if bounded.all():
        j = s_grid.size - 1
        value = float(s_grid[j])
        r2 = rsq[j]
    elif not bounded.any():
        value = float(s_grid[0])
        r2 = rsq[0]
    else:
        j = int(np.max(np.nonzero(bounded)[0]))
        if j + 1 < s_grid.size:
            g0, g1 = slopes[j], slopes[j + 1]
            if math.isfinite(g0) and g1 > g0:
                frac = (ENERGY_SLOPE_THRESHOLD - g0) / (g1 - g0)
            else:
                frac = 0.5
            value = float(s_grid[j] + frac * (s_grid[j + 1] - s_grid[j]))
            r2 = rsq[j + 1]
        else:
            value = float(s_grid[j])
            r2 = rsq[j]
    step = float(np.max(np.diff(s_grid)))
    return DimEstimate(
        value=value,
        stderr=step / 2.0,
        scale_window=(
            curve.diam / float(n_grid[-1]),
            _ENERGY_BAND_RATIO * curve.diam / float(n_grid[0]),
        ),
        n_scales=int(n_grid.size),
        r_squared=float(r2),
    )


# ---------------------------------------------------------------------------
# Box dimension
# ---------------------------------------------------------------------------


def _distinct_cells(cells: np.ndarray) -> np.ndarray:
    """Distinct rows of an (n, 2) integer cell array, in lexicographic order."""
    cells = cells[np.lexsort((cells[:, 1], cells[:, 0]))]
    new = np.ones(cells.shape[0], dtype=bool)
    new[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    return cells[new]


# Cells pack into one int64 key while their span product stays below this.
_KEY_LIMIT = 2**62


def _distinct_keyed(cells: np.ndarray) -> np.ndarray:
    """``_distinct_cells(cells)``, from one sorted int64 key per cell.

    With (x0, y0) the least coordinates and w = ymax - y0 + 1, the key
    (x - x0) * w + (y - y0) orders cells as the lexicographic order of
    their rows, so one stable argsort of the keys and a comparison of
    neighbours find the distinct cells.  When the span product
    (xmax - x0 + 1) * w reaches ``_KEY_LIMIT`` a key might not fit, and
    ``_distinct_cells`` sorts the rows instead.
    """
    # Column by column: a reduction over axis 0 of the rows is ten times slower.
    x, y = cells[:, 0], cells[:, 1]
    x0, y0 = x.min(), y.min()
    w = int(y.max()) - int(y0) + 1
    if (int(x.max()) - int(x0) + 1) * w >= _KEY_LIMIT:
        return _distinct_cells(cells)
    keys = (x - x0) * w + (y - y0)
    # The stable argsort is lexsort's own kernel; np.sort and a decode of
    # the keys would page in two more and add about 0.3 MB to peak RSS.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return cells[order[new]]


def _cells_of_segments(segs: np.ndarray, eps: float) -> np.ndarray:
    """Grid cells met by the segments (origin-anchored grid), with repeats.

    A cell counts when its closed square meets a segment in positive length;
    a segment lying on a grid line goes to the cell above it or to its
    right.  Each segment starts in the cell of its first endpoint and, on
    each axis, crosses the grid lines min(a, b)+1 .. max(a, b) between its
    end cells a and b.  Sorted by their parameters t = (line eps - x1) / dx,
    the crossings step one cell in x or in y; an x- and a y-crossing at the
    same t (a grid corner) make one diagonal step.  Every t is computed
    directly from its line, so no error accumulates along a segment.  Lines
    of the 2 eps grid are every other line here, at the same t, so these
    cells shifted right one bit are exactly its cells at 2 eps.
    """
    n = segs.shape[0]
    p = segs[:, 0:2]
    q = segs[:, 2:4]
    d = q - p
    a = np.floor(p / eps).astype(np.int64)
    b = np.floor(q / eps).astype(np.int64)
    # An endpoint sitting exactly on a grid line contributes zero length to the
    # cell ahead of it; assign it to the cell the segment actually occupies.
    b -= (d > 0) & (q == b * eps)
    a -= (d < 0) & (p == a * eps)
    # The grid lines crossed: the x-lines of every segment, then the y-lines.
    # Crossing-sized arrays are updated in place where they can be, so few
    # of them are alive at once.
    disp = b - a
    counts = np.abs(disp).T.ravel()
    lo = (np.minimum(a, b) + 1).T.ravel()
    seg = np.repeat(np.tile(np.arange(n), 2), counts)
    axis = np.repeat(np.repeat([0, 1], n), counts)
    t = _ragged_ranges(lo, lo + counts) * eps
    t -= p[seg, axis]
    t /= d[seg, axis]
    order = np.lexsort((t, seg))
    seg, axis, t = seg[order], axis[order], t[order]
    del order
    # Walk each segment from its start cell: a global running sum of the
    # steps, plus the segment's start cell less the sum before its first
    # crossing.  A segment's steps sum to b - a, so that sum is the
    # displacement of all the segments before it.
    walk = np.zeros((seg.size, 2), dtype=np.int64)
    walk[np.arange(seg.size), axis] = np.sign(d)[seg, axis]
    walk = np.cumsum(walk, axis=0)
    walk += (a - (np.cumsum(disp, axis=0) - disp))[seg]
    # At a grid corner the cell between the x- and the y-step is met in a
    # single point only.
    keep = np.ones(seg.size, dtype=bool)
    keep[:-1] = (seg[:-1] != seg[1:]) | (t[:-1] != t[1:]) | (axis[:-1] == axis[1:])
    return np.vstack([a, walk[keep]])


def dyadic_scales(scale_window: tuple[float, float],
                  n_scales: int | None = None) -> np.ndarray:
    """Dyadic scales upper, upper/2, ... inside the window, coarse to fine."""
    lo, hi = float(scale_window[0]), float(scale_window[1])
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("scale window collapses: need 0 < min < max")
    scales = []
    eps = hi
    while eps >= lo * (1.0 - 1e-12):
        scales.append(eps)
        eps /= 2.0
    if n_scales is not None:
        if len(scales) < n_scales:
            raise ValueError(
                f"window holds only {len(scales)} dyadic scales, need {n_scales}"
            )
        scales = scales[:n_scales]
    if len(scales) < 4:
        raise ValueError("need at least 4 dyadic scales inside the window")
    return np.array(scales)


def default_scale_window(curve: CurveApprox) -> tuple[float, float]:
    """Fitting window (4 * min_seg_len, diam / 4) for curve approximations.

    Below a few segment lengths every polygonal approximation looks
    one-dimensional, and above a quarter of the diameter there are too few
    cells for the count to mean anything.
    """
    return (4.0 * curve.min_seg_len, curve.diam / 4.0)


def box_dimension(data, scale_window: tuple[float, float] | None = None,
                  n_scales: int | None = None) -> DimEstimate:
    """Box-counting dimension of points or of a curve approximation.

    Grids are anchored at the origin with dyadic cell sizes; the estimate is
    the least-squares slope of log N(eps) against log(1/eps).  The input is
    rasterised once, at the finest eps (exactly for curves, by occupied cell
    for points); halving a normal eps is exact, so each coarser N(eps)
    counts the distinct cells after one more right shift.  Each count
    sorts one int64 key per cell (``_distinct_keyed``), or the cell rows
    when the cells span too much for a key.  Cells must be exact int64, so
    coordinates must be finite with |x| < 2**62 eps.
    ``scale_window`` defaults to ``default_scale_window`` for curves and
    must be given for raw points.
    """
    if isinstance(data, CurveApprox):
        if scale_window is None:
            scale_window = default_scale_window(data)
        if scale_window[1] > data.diam:
            raise ValueError("scale window exceeds the curve diameter")
        coords = data.segments[:, 0:2] if data.is_point_cloud else data.segments
    else:
        coords = np.asarray(data, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if scale_window is None:
            raise ValueError("point input requires an explicit scale window")
    if coords.shape[0] == 0:
        raise ValueError("cannot estimate dimension of an empty set")

    scales = dyadic_scales(scale_window, n_scales)
    eps = scales[-1]
    if not (eps >= sys.float_info.min and np.all(np.abs(coords) < 2.0**62 * eps)):
        raise ValueError("cells cannot be exact: need finite |x| < 2**62 eps, eps normal")
    cells = (np.floor(coords / eps).astype(np.int64) if coords.shape[1] == 2
             else _cells_of_segments(coords, eps))
    counts = np.empty(scales.size)
    for k in range(scales.size - 1, -1, -1):
        cells = _distinct_keyed(cells)
        counts[k] = cells.shape[0]
        cells = cells >> 1
    slope, _, stderr, r2 = fit_loglog(1.0 / scales, counts)
    return DimEstimate(
        value=float(slope),
        stderr=float(stderr),
        scale_window=(float(scales[-1]), float(scales[0])),
        n_scales=int(scales.size),
        r_squared=float(r2),
    )


# ---------------------------------------------------------------------------
# Constants chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassBoundConstants:
    """Closed-form constants of the tube-mass and separation estimates.

    Inputs: exponent ``s`` of the ball-growth bound, auxiliary exponent
    ``xi``, mass floor ``M``, annulus radii ``d_minus <= d_plus``, and tube
    scale ``r1``.  Outputs feed successive estimates: ``d0`` and ``r2``
    bound tube masses, ``alpha0``/``alpha1``/``d1``/``c1`` control cone
    separation, and ``d2``/``c2`` bound pair masses.
    """

    s: float
    xi: float
    M: float
    d_minus: float
    d_plus: float
    r1: float
    d0: float
    r2: float
    alpha0: float
    alpha1: float
    d1: float
    c1: float
    d2: float
    c2: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def mass_bound_constants(s: float, xi: float, M: float, d_minus: float,
                         d_plus: float, r1: float) -> MassBoundConstants:
    """Evaluate the constants chain.

    Requires s > 1, 0 < xi < s - 1, 2 + xi - s > 0, 0 < r1 <= 1 and
    0 < d_minus <= d_plus; all outputs are then positive and finite.

    The thresholds ``r2``, ``d1`` and ``d2`` can be far below the smallest
    normal double (``d0 ** (1 / (s - 1 - xi))`` with ``xi`` close to
    ``s - 1``).  Rounding them up would claim a larger threshold than the
    estimates allow, so such inputs raise ``ValueError`` instead, as do
    inputs that take a step of the chain out of double range (a tiny ``M``).
    """
    if not s > 1.0:
        raise ValueError("require s > 1")
    if not (0.0 < xi < s - 1.0):
        raise ValueError("require 0 < xi < s - 1")
    if not (2.0 + xi - s > 0.0):
        raise ValueError("require 2 + xi - s > 0")
    if not (0.0 < r1 <= 1.0):
        raise ValueError("require 0 < r1 <= 1")
    if not (0.0 < d_minus <= d_plus):
        raise ValueError("require 0 < d_minus <= d_plus")
    if not M > 0.0:
        raise ValueError("require M > 0")

    p = 2.0 + xi - s
    try:  # ** and / by an underflowed 0 raise; * and / overflow to inf
        d0 = (M / 12.0) * 2.0 ** (-s / 2.0)
        try:  # a root too large for a double cannot be r2's min: inf stands in
            root = (d_minus / d0) ** (1.0 / p)
        except OverflowError:
            root = math.inf
        r2 = min(
            r1 / math.sqrt(2.0),
            (math.sqrt(3.0) / 2.0) * d_minus,
            root,
            d0 ** (1.0 / (s - 1.0 - xi)),
        )
        alpha0 = 60.0 * d_plus / d_minus
        alpha1 = ((alpha0 + 1.0) / d0) ** (1.0 / p)
        d1 = min((r2 / alpha1) ** p, d_minus / alpha0)
        c1 = 2.0 ** (5.0 + s / 2.0) * alpha1 ** (s - 1.0) * (d_plus / d_minus)
        d2 = (5.0 / (2.0 ** 1.5 * alpha0)) * d1
        c2 = (25.0 * c1 * d_plus * (4.0 * math.sqrt(2.0) / 5.0) ** ((1.0 + xi) / p)
              * alpha0 ** ((s - 1.0) / p))
        if not all(0.0 < v < math.inf for v in (d0, alpha0, alpha1, c1, c2)):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise ValueError("constants chain leaves the double range; bring M, "
                         "d_minus and d_plus nearer 1, or take s further "
                         "below 2 + xi") from None
    if min(r2, d1, d2) < sys.float_info.min:
        raise ValueError(
            "thresholds r2, d1, d2 underflow double precision; "
            "take xi further from s - 1"
        )
    return MassBoundConstants(
        s=s, xi=xi, M=M, d_minus=d_minus, d_plus=d_plus, r1=r1,
        d0=d0, r2=r2, alpha0=alpha0, alpha1=alpha1, d1=d1, c1=c1, d2=d2, c2=c2,
    )
