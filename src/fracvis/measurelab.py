"""Dimension estimators and mass diagnostics for discrete measures.

Three estimators, all reporting goodness of fit:

* ``box_dimension``: occupied-cell counts over origin-anchored dyadic grids,
  least-squares slope of log N(eps) against log(1/eps).
* ``energy_dimension``: the largest exponent s whose discrete Riesz energy
  stays bounded as the sample grows (growth slope below
  ``ENERGY_SLOPE_THRESHOLD``), interpolated at the crossing.
* ``frostman_exponent``: growth exponent of the worst-case ball mass
  sup_x mu(B(x, r)) over the measure's own atoms.

Plus the mass bounds the estimators are checked against: the sector mass
bound for measures with ball growth mu(B(x, r)) <= r**s, tube masses and
their scaling exponents, and the closed-form constants chain
(d0, r2, alpha0, alpha1, d1, c1, d2, c2) used by the separation estimates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .fractals import CurveApprox, DiscreteMeasure, sample_arclength
from .geom import (
    CHECK_SLACK,
    Annulus,
    Cone,
    ParallelTube,
    RadialTube,
    _xy,
)

ENERGY_SLOPE_THRESHOLD = 0.05

# r^2 below which a box-count fit should not be trusted.
R_SQUARED_VALID = 0.98

_BLOCK = 2048


@dataclass(frozen=True)
class DimEstimate:
    """A fitted dimension with its fit diagnostics."""

    value: float
    stderr: float
    scale_window: tuple[float, float]
    n_scales: int
    r_squared: float

    def __post_init__(self):
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
        return cls(
            value=float(d["value"]),
            stderr=float(d["stderr"]),
            scale_window=(float(d["scale_min"]), float(d["scale_max"])),
            n_scales=int(d["n_scales"]),
            r_squared=float(d["r_squared"]),
        )


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
# Mass queries
# ---------------------------------------------------------------------------


def ball_mass(mu: DiscreteMeasure, x, r: float) -> float:
    """Mass of the closed ball B(x, r)."""
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    d = mu.points - _xy(x)
    inside = np.hypot(d[:, 0], d[:, 1]) <= r
    return float(np.sum(mu.weights[inside]))


def tube_mass(mu: DiscreteMeasure, tube: ParallelTube | RadialTube) -> float:
    """Mass inside an open half-tube (strict membership)."""
    return float(np.sum(mu.weights[tube.mask(mu.points)]))


def tube_scaling_exponent(mu: DiscreteMeasure, x, u, r_grid,
                          side: str = "plus") -> float:
    """Growth exponent beta of tube mass against half-width.

    Fits log tube_mass against log r over the given strictly decreasing
    radii.  ``u is None`` uses vertical half-tubes based at x; otherwise
    radial half-tubes from x anchored at u.  Radii with zero mass are
    dropped from the fit; if every mass vanishes this raises.
    """
    radii = np.asarray(r_grid, dtype=float)
    if radii.size < 4 or np.any(np.diff(radii) >= 0.0):
        raise ValueError("need at least 4 strictly decreasing radii")
    from .geom import Point

    base = Point(*_xy(x))
    masses = np.empty(radii.size)
    for i, r in enumerate(radii):
        if u is None:
            tube: ParallelTube | RadialTube = ParallelTube(base, float(r), side)
        else:
            tube = RadialTube(base, Point(*_xy(u)), float(r), side)
        masses[i] = tube_mass(mu, tube)
    keep = masses > 0.0
    if not np.any(keep):
        raise ValueError("all tube masses are zero")
    if np.count_nonzero(keep) < 2:
        raise ValueError("too few nonzero tube masses to fit a slope")
    slope, _, _, _ = fit_loglog(radii[keep], masses[keep])
    return float(slope)


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
    """sup over the measure's own atoms of ball mass, per radius."""
    radii = np.asarray(r_grid, dtype=float)
    sup = np.zeros(radii.size)
    pts = mu.points
    w = mu.weights
    for start in range(0, pts.shape[0], _BLOCK):
        chunk = pts[start : start + _BLOCK]
        d = np.hypot(
            chunk[:, None, 0] - pts[None, :, 0],
            chunk[:, None, 1] - pts[None, :, 1],
        )
        for i, r in enumerate(radii):
            masses = (d <= r) @ w
            m = float(masses.max())
            if m > sup[i]:
                sup[i] = m
    return sup


def check_frostman(mu: DiscreteMeasure, s: float, r_grid,
                   slack: float = CHECK_SLACK) -> bool:
    """True iff sup_x mu(B(x, r)) <= r**s on the grid, sup over atoms."""
    radii = np.asarray(r_grid, dtype=float)
    if np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    sup = frostman_sup_profile(mu, radii)
    return bool(np.all(sup <= radii**s + slack))


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
                      frostman_grid=None, assume_frostman: bool = False,
                      slack: float = CHECK_SLACK) -> SectorMassResult:
    """Compare the mass in sector-intersect-annulus against the sector bound.

    ``sector`` is either a Cone with vertex x (arc width 2 atan(opening)) or
    a pair (theta_lo, theta_hi) of direction angles about x.  The annulus
    must be centered at x with d_minus <= d_plus / 2, the regime in which
    the covering bound is valid.  The ball-growth precondition
    mu(B(u, r)) <= r**s is checked first on ``frostman_grid`` (a default
    grid spanning the annulus scales when omitted) unless the caller has
    already verified it and passes ``assume_frostman``.
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
        if frostman_grid is None:
            frostman_grid = np.geomspace(ann.d_plus / 1024.0, 2.0 * ann.d_plus, 32)
        if not check_frostman(mu, s, frostman_grid, slack=slack):
            raise ValueError("measure violates the ball-growth precondition on the grid")

    inside = in_sector & ann.mask(mu.points)
    lhs = float(np.sum(mu.weights[inside]))
    rhs = sector_mass_bound(theta, ann.d_plus, s)
    return SectorMassResult(lhs=lhs, rhs=rhs, theta=theta, ok=lhs <= rhs + slack)


# ---------------------------------------------------------------------------
# Riesz energy
# ---------------------------------------------------------------------------


def _distance_blocks(pts: np.ndarray):
    """Pairwise-distance blocks covering the upper triangle, row block first.

    Yields (i0, j0, d) with j0 >= i0, where d holds the distances from
    pts[i0 : i0 + _BLOCK] to pts[j0 : j0 + _BLOCK].  A diagonal block
    (i0 == j0) is the full square; its lower half repeats the upper one.
    """
    n = pts.shape[0]
    for i0 in range(0, n, _BLOCK):
        pi = pts[i0 : i0 + _BLOCK]
        for j0 in range(i0, n, _BLOCK):
            pj = pts[j0 : j0 + _BLOCK]
            yield i0, j0, np.hypot(
                pi[:, None, 0] - pj[None, :, 0],
                pi[:, None, 1] - pj[None, :, 1],
            )


def riesz_energy(mu: DiscreteMeasure, s: float) -> float:
    """Off-diagonal double sum  sum_{i != j} w_i w_j |p_i - p_j|**(-s).

    Blocked accumulation in a fixed order keeps the result independent of
    any internal parallelism.  Coincident atoms make the sum undefined and
    raise.
    """
    if s <= 0.0:
        raise ValueError("exponent must be positive")
    w = mu.weights
    if mu.points.shape[0] < 2:
        raise ValueError("energy needs at least two atoms")
    total = 0.0
    for i0, j0, d in _distance_blocks(mu.points):
        wi = w[i0 : i0 + _BLOCK]
        wj = w[j0 : j0 + _BLOCK]
        if i0 == j0:
            iu = np.triu_indices(d.shape[0], k=1)
            dv = d[iu]
            if np.any(dv == 0.0):
                raise ValueError("coincident atoms make the energy undefined")
            total += 2.0 * float(np.sum(wi[iu[0]] * wj[iu[1]] * dv**(-s)))
        else:
            if np.any(d == 0.0):
                raise ValueError("coincident atoms make the energy undefined")
            total += 2.0 * float(np.sum((wi[:, None] * wj[None, :]) * d**(-s)))
    return total


# ---------------------------------------------------------------------------
# Energy dimension
# ---------------------------------------------------------------------------

_ENERGY_DRAWS = 8
_ENERGY_BAND_RATIO = 4.0


def _energy_profile(curve: CurveApprox, n: int, s_grid: np.ndarray,
                    seed: int, diam: float) -> np.ndarray:
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
    """
    lo = diam / n
    hi = _ENERGY_BAND_RATIO * diam / n
    cloud = curve.segments[:, 0:2] if curve.is_point_cloud else None
    total = np.zeros(s_grid.size)
    for r in range(_ENERGY_DRAWS):
        rng = np.random.default_rng([seed, n, r])
        if cloud is not None:
            pts = cloud[rng.integers(0, cloud.shape[0], size=n)]
        else:
            pts = sample_arclength(curve, rng.random(n))
        kept = []
        for i0, j0, d in _distance_blocks(pts):
            if i0 == j0:
                d = d[np.triu_indices(d.shape[0], k=1)]
            else:
                d = d.ravel()
            kept.append(d[(d > lo) & (d <= hi)])
        dists = np.concatenate(kept)
        if dists.size:
            # Factor 2: each unordered pair appears twice in the double sum.
            total += [2.0 / (n * n) * float(np.sum(dists**(-s)))
                      for s in s_grid]
    return total / _ENERGY_DRAWS


def energy_dimension(curve: CurveApprox, s_grid=None, n_grid=None,
                     seed: int = 0) -> DimEstimate:
    """Dimension as the boundedness threshold of discrete Riesz energies.

    An exponent s admits a finite energy exactly when the energy content of
    dyadic distance bands dies out toward fine scales; past the dimension it
    blows up instead.  For each n in ``n_grid`` the band energy of an n-atom
    sample at resolution scale diam/n is computed (see ``_energy_profile``);
    s counts as bounded while the slope of log I_s against log n stays below
    ``ENERGY_SLOPE_THRESHOLD``, and the estimate interpolates between the
    last bounded and first divergent exponent at the threshold crossing.
    With the band energy scaling like n**(s - d) the crossing sits near
    d + threshold, comfortably inside the tolerance of every fixture.

    Sample sizes should respect the input's own resolution: bands finer
    than the minimum feature spacing (segment length, cloud spacing) carry
    little or no mass and drag the crossing away from the true value.  The
    default grid tops out at 2048, matching level-7 constructions.
    """
    if s_grid is None:
        s_grid = np.round(np.arange(0.30, 1.951, 0.10), 10)
    if n_grid is None:
        n_grid = [64, 128, 256, 512, 1024, 2048]
    s_grid = np.asarray(s_grid, dtype=float)
    n_grid = np.asarray(n_grid, dtype=int)
    if s_grid.size < 2 or np.any(np.diff(s_grid) <= 0.0):
        raise ValueError("s_grid must be increasing with at least two entries")
    if np.any((s_grid <= 0.0) | (s_grid >= 2.0)):
        raise ValueError("s_grid must lie inside (0, 2)")
    if n_grid.size < 4 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n_grid must be increasing with at least four entries")
    if n_grid[0] < 16:
        raise ValueError("sample sizes below 16 resolve no scale band")
    if not (curve.diam > 0.0):
        raise ValueError("degenerate curve: zero diameter")

    energies = np.empty((n_grid.size, s_grid.size))
    for i, n in enumerate(n_grid):
        energies[i] = _energy_profile(curve, int(n), s_grid, seed, curve.diam)

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


def _cells_of_points(pts: np.ndarray, eps: float) -> int:
    cells = np.floor(pts / eps).astype(np.int64)
    return np.unique(cells, axis=0).shape[0]


def _cells_of_segments(segs: np.ndarray, eps: float) -> int:
    """Exact count of grid cells met by the segments (origin-anchored grid)."""
    a = np.floor(segs[:, 0:2] / eps).astype(np.int64)
    b = np.floor(segs[:, 2:4] / eps).astype(np.int64)
    # An endpoint sitting exactly on a grid line contributes zero length to the
    # cell ahead of it; assign it to the cell the segment actually occupies.
    dx = segs[:, 2] - segs[:, 0]
    dy = segs[:, 3] - segs[:, 1]
    b[:, 0] -= (dx > 0) & (segs[:, 2] == b[:, 0] * eps)
    b[:, 1] -= (dy > 0) & (segs[:, 3] == b[:, 1] * eps)
    a[:, 0] -= (dx < 0) & (segs[:, 0] == a[:, 0] * eps)
    a[:, 1] -= (dy < 0) & (segs[:, 1] == a[:, 1] * eps)
    same = np.all(a == b, axis=1)
    cells = [a[same]]
    walkers = np.nonzero(~same)[0]
    extra = []
    for i in walkers:
        x1, y1, x2, y2 = segs[i]
        ix, iy = int(a[i, 0]), int(a[i, 1])
        jx, jy = int(b[i, 0]), int(b[i, 1])
        extra.append((ix, iy))
        dx = x2 - x1
        dy = y2 - y1
        step_x = 1 if dx > 0 else -1
        step_y = 1 if dy > 0 else -1
        # Parameter values of the next vertical / horizontal grid line.
        tx = ((ix + (step_x > 0)) * eps - x1) / dx if dx != 0.0 else math.inf
        ty = ((iy + (step_y > 0)) * eps - y1) / dy if dy != 0.0 else math.inf
        dtx = abs(eps / dx) if dx != 0.0 else math.inf
        dty = abs(eps / dy) if dy != 0.0 else math.inf
        guard = 0
        limit = abs(jx - ix) + abs(jy - iy) + 4
        while (ix, iy) != (jx, jy) and guard < limit:
            if tx < ty:
                ix += step_x
                tx += dtx
            elif ty < tx:
                iy += step_y
                ty += dty
            else:
                ix += step_x
                iy += step_y
                tx += dtx
                ty += dty
            extra.append((ix, iy))
            guard += 1
    if extra:
        cells.append(np.array(extra, dtype=np.int64))
    allc = np.vstack(cells)
    return np.unique(allc, axis=0).shape[0]


def dyadic_scales(scale_window: tuple[float, float],
                  n_scales: int | None = None) -> np.ndarray:
    """Dyadic scales upper, upper/2, ... inside the window, coarse to fine."""
    lo, hi = float(scale_window[0]), float(scale_window[1])
    if not (0.0 < lo < hi):
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
    the least-squares slope of log N(eps) against log(1/eps).  Curve input
    is rasterised exactly (every cell its segments meet); point input counts
    occupied cells.  ``scale_window`` defaults to ``default_scale_window``
    for curves and must be given for raw points.
    """
    if isinstance(data, CurveApprox):
        if scale_window is None:
            scale_window = default_scale_window(data)
        lo, hi = scale_window
        if hi > data.diam:
            raise ValueError("scale window exceeds the curve diameter")
        if data.is_point_cloud:
            counter = lambda eps: _cells_of_points(data.segments[:, 0:2], eps)
        else:
            counter = lambda eps: _cells_of_segments(data.segments, eps)
    else:
        pts = np.asarray(data, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if pts.shape[0] == 0:
            raise ValueError("cannot estimate dimension of an empty set")
        if scale_window is None:
            raise ValueError("point input requires an explicit scale window")
        counter = lambda eps: _cells_of_points(pts, eps)

    scales = dyadic_scales(scale_window, n_scales)
    counts = np.array([counter(eps) for eps in scales], dtype=float)
    if np.any(counts <= 0.0):
        raise ValueError("empty cell count; window is wrong for this data")
    slope, _, stderr, r2 = fit_loglog(1.0 / scales, counts)
    return DimEstimate(
        value=float(slope),
        stderr=float(stderr),
        scale_window=(float(scales[-1]), float(scales[0])),
        n_scales=int(scales.size),
        r_squared=float(r2),
    )


# ---------------------------------------------------------------------------
# Frostman exponent
# ---------------------------------------------------------------------------


def frostman_exponent(mu: DiscreteMeasure, r_grid) -> float:
    """Growth exponent of sup_x mu(B(x, r)) over the measure's atoms.

    Fits log sup-mass against log r on the grid.  A measure concentrated at
    a single location has constant profile and exponent 0; a measure with a
    single atom raises (no radii resolve anything).
    """
    radii = np.asarray(r_grid, dtype=float)
    if radii.size < 4:
        raise ValueError("need at least 4 radii")
    if np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    if mu.points.shape[0] < 2:
        raise ValueError("a single-atom measure has no mass profile")
    sup = frostman_sup_profile(mu, radii)
    slope, _, _, _ = fit_loglog(radii, sup)
    return float(slope)


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
    d0 = (M / 12.0) * 2.0 ** (-s / 2.0)
    r2 = min(
        r1 / math.sqrt(2.0),
        (math.sqrt(3.0) / 2.0) * d_minus,
        (d_minus / d0) ** (1.0 / p),
        d0 ** (1.0 / (s - 1.0 - xi)),
    )
    alpha0 = 60.0 * d_plus / d_minus
    alpha1 = ((alpha0 + 1.0) / d0) ** (1.0 / p)
    d1 = min((r2 / alpha1) ** p, d_minus / alpha0)
    c1 = 2.0 ** (5.0 + s / 2.0) * alpha1 ** (s - 1.0) * (d_plus / d_minus)
    d2 = (5.0 / (2.0 ** 1.5 * alpha0)) * d1
    c2 = (
        25.0
        * c1
        * d_plus
        * (4.0 * math.sqrt(2.0) / 5.0) ** ((1.0 + xi) / p)
        * alpha0 ** ((s - 1.0) / p)
    )
    return MassBoundConstants(
        s=s, xi=xi, M=M, d_minus=d_minus, d_plus=d_plus, r1=r1,
        d0=d0, r2=r2, alpha0=alpha0, alpha1=alpha1, d1=d1, c1=c1, d2=d2, c2=c2,
    )
