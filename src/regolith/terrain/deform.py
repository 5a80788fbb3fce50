"""Terrain deformation: excavation by swept tool volume, deposition, and
angle-of-repose relaxation.

All three operations do explicit mass bookkeeping so the simulator can
assert global conservation across arbitrary operation sequences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .heightfield import Heightfield, OutOfBounds, SoilParams

#: Relaxation stops when no cell pair exceeds repose by more than this slope.
RELAX_SLOPE_TOL = 1e-3
#: Sweeps per avalanche_relax call before giving up with the residual flag.
RELAX_MAX_SWEEPS = 64
#: Fraction of the pairwise equalizing transfer applied per sweep.
RELAX_TRANSFER_FACTOR = 0.5


@dataclass
class SweptCut:
    """Tool-edge path: world positions of the cutting edge with attack
    angles, plus tool width and a depth cap below the prior surface."""

    points: list  # of (x, y, z, attack_angle)
    width: float
    max_depth: float = math.inf

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("tool width must be positive")
        for a, b in zip(self.points, self.points[1:]):
            if math.hypot(b[0] - a[0], b[1] - a[1]) == 0.0:
                raise ValueError("cut polyline must advance in path length")

    def to_dict(self) -> dict:
        return {"points": [list(p) for p in self.points],
                "width": self.width, "max_depth": self.max_depth}

    @classmethod
    def from_dict(cls, data: dict) -> "SweptCut":
        return cls(points=[tuple(p) for p in data["points"]],
                   width=data["width"],
                   max_depth=data.get("max_depth", math.inf))


@dataclass
class RelaxResult:
    moved_mass: float
    residual: bool
    sweeps: int


def _cut_cells(h: Heightfield, cut: SweptCut) -> list:
    """(i, j, cut surface elevation) of each affected cell, in the order
    the cells are first reached: box rows i, then columns j, segment by
    segment.  A cell under several segments takes the lowest surface."""
    half_w = cut.width / 2.0
    pts = cut.points
    reach = half_w + 1e-9
    inf = math.inf
    if len(pts) == 1:
        x0, y0, z0, _a = pts[0]
        cz = z0 if z0 < inf else inf            # min(inf, z0)
        ox, oy = h.origin
        cs = h.cell_size
        hypot = math.hypot
        cells = []
        (i_lo, i_hi), (j_lo, j_hi) = _box(h, x0 - reach, x0 + reach,
                                          y0 - reach, y0 + reach)
        for i in range(i_lo, i_hi + 1):
            cx = ox + (i + 0.5) * cs
            for j in range(j_lo, j_hi + 1):
                if hypot(cx - x0, oy + (j + 0.5) * cs - y0) <= reach:
                    cells.append((i, j, cz))
        return cells
    if len(pts) == 2:
        return _segment_cells(h, pts[0], pts[1], reach)
    cut_z: dict[tuple[int, int], float] = {}
    for a, b in zip(pts, pts[1:]):
        for i, j, sz in _segment_cells(h, a, b, reach):
            old = cut_z.get((i, j), inf)
            cut_z[(i, j)] = sz if sz < old else old     # min(old, sz)
    return [(i, j, cz) for (i, j), cz in cut_z.items()]


def _segment_cells(h: Heightfield, p0, p1, reach: float) -> list:
    """(i, j, min(inf, cut surface elevation)) of each cell whose center
    lies within `reach` of the segment p0-p1, in box order."""
    x0, y0, z0, _a0 = p0
    x1, y1, z1, _a1 = p1
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length
    ox, oy = h.origin
    cs = h.cell_size
    t_lo, t_hi = -1e-9, length + 1e-9
    inf = math.inf
    cells = []
    (i_lo, i_hi), (j_lo, j_hi) = _box(
        h, (x1 if x1 < x0 else x0) - reach, (x1 if x1 > x0 else x0) + reach,
        (y1 if y1 < y0 else y0) - reach, (y1 if y1 > y0 else y0) + reach)
    for i in range(i_lo, i_hi + 1):
        rx = ox + (i + 0.5) * cs - x0
        for j in range(j_lo, j_hi + 1):
            ry = oy + (j + 0.5) * cs - y0
            t = rx * ux + ry * uy
            if t < t_lo or t > t_hi:
                continue
            if abs(-rx * uy + ry * ux) > reach:
                continue
            # min(max(t / length, 0.0), 1.0), as the builtins evaluate it
            f = t / length
            f = 0.0 if 0.0 > f else f
            f = 1.0 if 1.0 < f else f
            sz = z0 + (z1 - z0) * f
            cells.append((i, j, sz if sz < inf else inf))
    return cells


def _box(h: Heightfield, lo_x, hi_x, lo_y, hi_y):
    """((i_lo, i_hi), (j_lo, j_hi)): the inclusive index ranges of the
    cells whose centers can lie in the box, clipped to the grid."""
    cs = h.cell_size
    ox, oy = h.origin
    return ((max(math.floor((lo_x - ox) / cs - 0.5), 0),
             min(math.ceil((hi_x - ox) / cs - 0.5), h.nx - 1)),
            (max(math.floor((lo_y - oy) / cs - 0.5), 0),
             min(math.ceil((hi_y - oy) / cs - 0.5), h.ny - 1)))


def excavate_swept(h: Heightfield, cut: SweptCut, soil: SoilParams,
                   target: Optional[Heightfield] = None) -> float:
    """Lower terrain to the swept cut surface; returns removed mass (kg).

    Per cell the new elevation is max(cut surface, target elevation when a
    target is supplied, old elevation - max_depth) and never above the old
    elevation.  Terrain mass decreases by exactly the returned mass.
    """
    for (x, y, _z, _a) in cut.points:
        if not h.in_bounds(x, y):
            raise OutOfBounds(f"cut point ({x:.2f}, {y:.2f}) outside grid")
    if target is not None and not h.same_grid(target):
        raise ValueError("target grid does not match terrain grid")
    removed_volume = 0.0
    area = h.cell_size ** 2
    elevation = h.elevation
    e = elevation.item
    floor_at = target.elevation.item if target is not None else None
    max_depth = cut.max_depth
    dirty = h.dirty
    for i, j, cz in _cut_cells(h, cut):
        old = e(i, j)
        floor = old - max_depth
        if floor_at is not None:
            t = floor_at(i, j)
            floor = t if t > floor else floor           # max(floor, t)
        new = floor if floor > cz else cz               # max(cz, floor)
        if new < old:
            removed_volume += (old - new) * area
            elevation[i, j] = new
            dirty.add((i, j))
    return removed_volume * soil.bank_density


def deposit(h: Heightfield, x: float, y: float, mass: float,
            soil: SoilParams, spread_radius: float = 1.0,
            relax: bool = True) -> float:
    """Add material as a cone-shaped mound at (x, y); returns mass lost to
    clipping at the grid boundary (zero when fully inside)."""
    if mass < 0:
        raise ValueError("deposit mass must be >= 0")
    if mass == 0.0:
        return 0.0
    volume = mass / soil.bank_density
    cs = h.cell_size
    ox, oy = h.origin
    radius = max(spread_radius, cs * 0.75)
    i_lo = math.floor((x - radius - ox) / cs - 0.5)
    i_hi = math.ceil((x + radius - ox) / cs - 0.5)
    j_lo = math.floor((y - radius - oy) / cs - 0.5)
    j_hi = math.ceil((y + radius - oy) / cs - 0.5)
    hypot = math.hypot
    weights = []
    total_w = 0.0
    for i in range(i_lo, i_hi + 1):
        rx = ox + (i + 0.5) * cs - x
        for j in range(j_lo, j_hi + 1):
            # max(0.0, w) is positive exactly where w is
            w = 1.0 - hypot(rx, oy + (j + 0.5) * cs - y) / radius
            if w > 0.0:
                weights.append((i, j, w))
                total_w += w
    if total_w == 0.0:
        return mass  # entire footprint off-grid or degenerate
    lost_volume = 0.0
    area = cs ** 2
    nx, ny = h.nx, h.ny
    elevation = h.elevation
    e = elevation.item
    dirty = h.dirty
    # index bounds of the cells written
    ti0, ti1, tj0, tj1 = nx, -1, ny, -1
    for i, j, w in weights:
        share = volume * w / total_w
        if 0 <= i < nx and 0 <= j < ny:
            elevation[i, j] = e(i, j) + share / area
            dirty.add((i, j))
            ti0 = i if i < ti0 else ti0
            ti1 = i if i > ti1 else ti1
            tj0 = j if j < tj0 else tj0
            tj1 = j if j > tj1 else tj1
        else:
            lost_volume += share
    if relax and ti1 >= 0:
        margin = math.ceil(radius / cs) + 3
        avalanche_relax(h, soil, region=(
            max(ti0 - margin, 0), max(tj0 - margin, 0),
            min(ti1 + margin + 1, nx), min(tj1 + margin + 1, ny)))
    return lost_volume * soil.bank_density


def avalanche_relax(h: Heightfield, soil: SoilParams,
                    region=None) -> RelaxResult:
    """Relax slopes steeper than the angle of repose by pairwise transfers.

    Alternating x/y Gauss-Seidel sweeps; each sweep moves half of the
    equalizing amount for every cell pair whose slope exceeds
    tan(internal_friction_angle).  Mass is conserved exactly (pairwise
    antisymmetric updates).
    """
    if region is None:
        region = (0, 0, h.nx, h.ny)
    si, sj = h.region_slice(region)
    e = h.elevation[si, sj]         # a view: the sweeps write the terrain
    if e.shape[0] < 1 or e.shape[1] < 1:
        return RelaxResult(0.0, False, 0)
    cs = h.cell_size
    limit = soil.repose_tan * cs
    tol = RELAX_SLOPE_TOL * cs
    moved_volume = 0.0
    sweeps = 0
    factor = RELAX_TRANSFER_FACTOR * 0.5  # 0.5 of the equalizing half-diff
    # (the pair below cell k along an axis, the pair above it)
    axes = [(e[:-1, :], e[1:, :])] if e.shape[0] >= 2 else []
    if e.shape[1] >= 2:
        axes.append((e[:, :-1], e[:, 1:]))
    for sweeps in range(1, RELAX_MAX_SWEEPS + 1):
        worst = 0.0
        for lower, upper in axes:
            d = upper - lower               # np.diff along the axis
            excess = np.abs(d)
            # rounding a - limit is monotone in a, so this is the largest
            # excess over the repose limit, or <= 0 where none is positive
            m = float(excess.max()) - limit
            worst = m if m > worst else worst
            if m <= tol:
                continue
            np.subtract(excess, limit, out=excess)
            np.maximum(excess, 0.0, out=excess)
            np.multiply(excess, factor, out=excess)
            # |factor * excess * sign(d)| is factor * excess: sign(d) is
            # +-1, or 0 where the excess is 0
            moved_volume += float(excess.sum()) * cs ** 2
            t = np.multiply(excess, np.sign(d, out=d), out=excess)
            lower += t
            upper -= t
        if worst <= tol:
            break
    if moved_volume > 0.0:
        _mark_region_dirty(h, region)
    return RelaxResult(moved_volume * soil.bank_density,
                       worst > tol, sweeps)


def _mark_region_dirty(h: Heightfield, region) -> None:
    i0, j0, i1, j1 = region
    h.dirty.update(itertools.product(range(i0, i1), range(j0, j1)))


def max_region_slope(h: Heightfield, region=None) -> float:
    """Steepest cell-to-neighbor slope (rise over run) inside a region;
    the oracle of the repose invariant checked after relaxation."""
    if region is None:
        region = (0, 0, h.nx, h.ny)
    si, sj = h.region_slice(region)
    e = h.elevation[si, sj]
    worst = 0.0
    for axis in (0, 1):
        if e.shape[axis] >= 2:
            d = np.abs(np.diff(e, axis=axis))
            if d.size:
                worst = max(worst, float(d.max()) / h.cell_size)
    return worst
