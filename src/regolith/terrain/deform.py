"""Terrain deformation: excavation by swept tool volume, deposition, and
angle-of-repose relaxation.

All three operations do explicit mass bookkeeping so the simulator can
assert global conservation across arbitrary operation sequences.
"""

from __future__ import annotations

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


def _cut_depth_map(h: Heightfield, cut: SweptCut) -> dict:
    """Map of affected cells -> cut surface elevation."""
    cs = h.cell_size
    half_w = cut.width / 2.0
    cut_z: dict[tuple[int, int], float] = {}
    pts = cut.points
    reach = half_w + 1e-9
    if len(pts) == 1:
        x0, y0, z0, _a = pts[0]
        for i, j in _cells_in_box(h, x0 - reach, x0 + reach,
                                  y0 - reach, y0 + reach):
            cx, cy = h.cell_center(i, j)
            if math.hypot(cx - x0, cy - y0) <= reach:
                cut_z[(i, j)] = min(cut_z.get((i, j), math.inf), z0)
        return cut_z
    for (x0, y0, z0, _a0), (x1, y1, z1, _a1) in zip(pts, pts[1:]):
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        ux, uy = dx / length, dy / length
        lo_x, hi_x = min(x0, x1) - reach, max(x0, x1) + reach
        lo_y, hi_y = min(y0, y1) - reach, max(y0, y1) + reach
        for i, j in _cells_in_box(h, lo_x, hi_x, lo_y, hi_y):
            cx, cy = h.cell_center(i, j)
            t = (cx - x0) * ux + (cy - y0) * uy
            if t < -1e-9 or t > length + 1e-9:
                continue
            lateral = abs(-(cx - x0) * uy + (cy - y0) * ux)
            if lateral > reach:
                continue
            sz = z0 + (z1 - z0) * min(max(t / length, 0.0), 1.0)
            cut_z[(i, j)] = min(cut_z.get((i, j), math.inf), sz)
    return cut_z


def _cells_in_box(h: Heightfield, lo_x, hi_x, lo_y, hi_y):
    cs = h.cell_size
    i_lo = max(int(math.floor((lo_x - h.origin[0]) / cs - 0.5)), 0)
    i_hi = min(int(math.ceil((hi_x - h.origin[0]) / cs - 0.5)), h.nx - 1)
    j_lo = max(int(math.floor((lo_y - h.origin[1]) / cs - 0.5)), 0)
    j_hi = min(int(math.ceil((hi_y - h.origin[1]) / cs - 0.5)), h.ny - 1)
    for i in range(i_lo, i_hi + 1):
        for j in range(j_lo, j_hi + 1):
            yield i, j


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
    for (i, j), cz in _cut_depth_map(h, cut).items():
        old = h.elevation.item(i, j)
        floor = old - cut.max_depth
        if target is not None:
            floor = max(floor, target.elevation.item(i, j))
        new = max(cz, floor)
        if new < old:
            removed_volume += (old - new) * area
            h.elevation[i, j] = new
            h.mark_dirty(i, j)
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
    radius = max(spread_radius, cs * 0.75)
    i_lo = int(math.floor((x - radius - h.origin[0]) / cs - 0.5))
    i_hi = int(math.ceil((x + radius - h.origin[0]) / cs - 0.5))
    j_lo = int(math.floor((y - radius - h.origin[1]) / cs - 0.5))
    j_hi = int(math.ceil((y + radius - h.origin[1]) / cs - 0.5))
    weights = []
    total_w = 0.0
    for i in range(i_lo, i_hi + 1):
        for j in range(j_lo, j_hi + 1):
            cx = h.origin[0] + (i + 0.5) * cs
            cy = h.origin[1] + (j + 0.5) * cs
            w = max(0.0, 1.0 - math.hypot(cx - x, cy - y) / radius)
            if w > 0.0:
                weights.append((i, j, w))
                total_w += w
    if total_w == 0.0:
        return mass  # entire footprint off-grid or degenerate
    lost_volume = 0.0
    area = cs ** 2
    touched = []
    for i, j, w in weights:
        share = volume * w / total_w
        if 0 <= i < h.nx and 0 <= j < h.ny:
            h.elevation[i, j] += share / area
            h.mark_dirty(i, j)
            touched.append((i, j))
        else:
            lost_volume += share
    if relax and touched:
        margin = int(math.ceil(radius / cs)) + 3
        i0 = max(min(i for i, _ in touched) - margin, 0)
        i1 = min(max(i for i, _ in touched) + margin + 1, h.nx)
        j0 = max(min(j for _, j in touched) - margin, 0)
        j1 = min(max(j for _, j in touched) + margin + 1, h.ny)
        avalanche_relax(h, soil, region=(i0, j0, i1, j1))
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
    e = h.elevation[si, sj]
    if e.shape[0] < 1 or e.shape[1] < 1:
        return RelaxResult(0.0, False, 0)
    cs = h.cell_size
    limit = soil.repose_tan * cs
    tol = RELAX_SLOPE_TOL * cs
    moved_volume = 0.0
    sweeps = 0
    factor = RELAX_TRANSFER_FACTOR * 0.5  # 0.5 of the equalizing half-diff
    for sweeps in range(1, RELAX_MAX_SWEEPS + 1):
        worst = 0.0
        for axis in (0, 1):
            if e.shape[axis] < 2:
                continue
            d = np.diff(e, axis=axis)
            excess = np.abs(d) - limit
            np.clip(excess, 0.0, None, out=excess)
            m = float(excess.max()) if excess.size else 0.0
            worst = max(worst, m)
            if m <= tol:
                continue
            t = factor * excess * np.sign(d)
            if axis == 0:
                e[:-1, :] += t
                e[1:, :] -= t
            else:
                e[:, :-1] += t
                e[:, 1:] -= t
            moved_volume += float(np.abs(t).sum()) * cs ** 2
        if worst <= tol:
            h.elevation[si, sj] = e
            if moved_volume > 0.0:
                _mark_region_dirty(h, region)
            return RelaxResult(moved_volume * soil.bank_density, False, sweeps)
    h.elevation[si, sj] = e
    if moved_volume > 0.0:
        _mark_region_dirty(h, region)
    return RelaxResult(moved_volume * soil.bank_density, True, sweeps)


def _mark_region_dirty(h: Heightfield, region) -> None:
    i0, j0, i1, j1 = region
    for i in range(i0, i1):
        for j in range(j0, j1):
            h.mark_dirty(i, j)


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
