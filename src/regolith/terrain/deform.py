"""Terrain deformation: excavation by swept tool volume, deposition, and
angle-of-repose relaxation.

All three operations do explicit mass bookkeeping so the simulator can
assert global conservation across arbitrary operation sequences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    """What one `avalanche_relax` call did: whether it stopped at
    RELAX_MAX_SWEEPS still over tolerance, and how many sweeps it made.
    The simulation reads neither field; `perfbench/layers.py`'s `_relax`
    hook sums them into `terrain.relax.capped` and `terrain.relax.sweeps`,
    and traced runs compare those sums from run to run."""

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


def excavate_swept(h: Heightfield, cut: SweptCut, soil: SoilParams) -> float:
    """Lower terrain to the swept cut surface; returns removed mass (kg).

    Per cell the new elevation is max(cut surface, old elevation -
    max_depth) and never above the old elevation.  Terrain mass decreases
    by exactly the returned mass.
    """
    for (x, y, _z, _a) in cut.points:
        if not h.in_bounds(x, y):
            raise OutOfBounds(f"cut point ({x:.2f}, {y:.2f}) outside grid")
    removed_volume = 0.0
    area = h.cell_size ** 2
    rows = h.elevation
    max_depth = cut.max_depth
    dirty = h.dirty
    for i, j, cz in _cut_cells(h, cut):
        row = rows[i]
        old = row[j]
        floor = old - max_depth
        new = floor if floor > cz else cz               # max(cz, floor)
        if new < old:
            removed_volume += (old - new) * area
            row[j] = new
            dirty.add((i, j))
    return removed_volume * soil.bank_density


def deposit(h: Heightfield, x: float, y: float, mass: float,
            soil: SoilParams, spread_radius: float = 1.0) -> float:
    """Add material as a cone-shaped mound at (x, y), then relax the slopes
    around it; returns mass lost to clipping at the grid boundary (zero
    when fully inside)."""
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
    rows = h.elevation
    dirty = h.dirty
    # index bounds of the cells written
    ti0, ti1, tj0, tj1 = nx, -1, ny, -1
    for i, j, w in weights:
        share = volume * w / total_w
        if 0 <= i < nx and 0 <= j < ny:
            rows[i][j] += share / area
            dirty.add((i, j))
            ti0 = i if i < ti0 else ti0
            ti1 = i if i > ti1 else ti1
            tj0 = j if j < tj0 else tj0
            tj1 = j if j > tj1 else tj1
        else:
            lost_volume += share
    if ti1 >= 0:
        margin = math.ceil(radius / cs) + 3
        avalanche_relax(h, soil, region=(
            max(ti0 - margin, 0), max(tj0 - margin, 0),
            min(ti1 + margin + 1, nx), min(tj1 + margin + 1, ny)))
    return lost_volume * soil.bank_density


def avalanche_relax(h: Heightfield, soil: SoilParams,
                    region=None) -> RelaxResult:
    """Relax slopes steeper than the angle of repose by pairwise transfers.

    Alternating x/y sweeps; each sweep moves half of the equalizing amount
    for every cell pair whose slope exceeds tan(internal_friction_angle).
    A pass along one axis computes every pair's transfer t from the heights
    before the pass, then adds each t to the lower cell of its pair and
    subtracts it from the upper one.  Mass is conserved exactly (pairwise
    antisymmetric updates).

    A pass checks only the pairs that can exceed the limit.  At first those
    are the pairs with a cell more than the limit above the region's lowest
    cell.  Later they are the pairs that touch a cell moved since the last
    pass along the axis, and the pairs that pass found over the limit but
    within tolerance: no other pair can have changed.  Heights (by value:
    a -0.0 cell may stay -0.0 where numpy's `+= 0.0` made it +0.0), sweeps
    and the residual flag are those of the whole-array numpy form.
    """
    if region is None:
        region = (0, 0, h.nx, h.ny)
    si, sj = h.region_slice(region)
    rows = h.elevation[si]
    m = sj.stop - sj.start
    # the region's cells, row-major: cell (i0 + k // m, j0 + k % m) is z[k]
    z = []
    for row in rows:
        z += row[sj]
    size = len(z)
    cs = h.cell_size
    limit = soil.repose_tan * cs
    lowest = min(z)
    highest = max(z)
    if highest - lowest <= limit:       # bounds every |difference|
        return RelaxResult(False, 1)
    tol = RELAX_SLOPE_TOL * cs
    factor = RELAX_TRANSFER_FACTOR * 0.5  # 0.5 of the equalizing half-diff
    # (axis, step): pair k joins cell k to cell k + step, the one above it
    axes = []
    if size > m:
        axes.append((0, m))
    if m > 1:
        axes.append((1, 1))
    # per axis, the cells whose pairs its next pass checks: at first those
    # more than the limit above the lowest, and so above `floor`, a relative
    # 1e-9 below lowest + limit, further than rounding reaches
    floor = lowest + limit - 1e-9 * (abs(lowest) + limit)
    high = [k for k, v in enumerate(z) if v > floor]
    touched = (set(high), set(high))
    applied = False
    sweeps = 0
    hot = False
    for sweeps in range(1, RELAX_MAX_SWEEPS + 1):
        hot = False
        for axis, step in axes:
            cells = touched[axis]
            ks = _pairs_over(z, cells, m, axis, limit)
            cells.clear()
            if not ks:
                continue
            ds = [z[k + step] - z[k] for k in ks]
            if max(map(abs, ds)) - limit <= tol:
                cells.update(ks)        # their lower cells
                continue
            hot = applied = True
            # (|d| - limit) * factor, signed like d
            ts = [(d - limit) * factor if d > 0.0 else (d + limit) * factor
                  for d in ds]
            for k, t in zip(ks, ts):
                z[k] += t
            for k, t in zip(ks, ts):
                z[k + step] -= t
            moved = ks + [k + step for k in ks]
            for cells in touched:
                cells.update(moved)
        if not hot:
            break
    if applied:
        for r, row in enumerate(rows):
            row[sj] = z[r * m:(r + 1) * m]
        _mark_region_dirty(h, region)
    return RelaxResult(hot, sweeps)


def _pairs_over(z: list, cells, m: int, axis: int, limit: float) -> list:
    """The pairs along the axis that join one of the cells to a neighbor
    and whose height difference exceeds the limit in size, in increasing
    order."""
    low = -limit
    over = set()
    if axis == 0:
        top = len(z) - m
        for c in cells:
            if c >= m:
                d = z[c] - z[c - m]
                if d > limit or d < low:
                    over.add(c - m)
            if c < top:
                d = z[c + m] - z[c]
                if d > limit or d < low:
                    over.add(c)
    else:
        last = m - 1
        for c in cells:
            col = c % m
            if col:
                d = z[c] - z[c - 1]
                if d > limit or d < low:
                    over.add(c - 1)
            if col < last:
                d = z[c + 1] - z[c]
                if d > limit or d < low:
                    over.add(c)
    return sorted(over)


def _mark_region_dirty(h: Heightfield, region) -> None:
    i0, j0, i1, j1 = region
    h.dirty.update(itertools.product(range(i0, i1), range(j0, j1)))


def max_region_slope(h: Heightfield, region=None) -> float:
    """Steepest cell-to-neighbor slope (rise over run) inside a region;
    the oracle of the repose invariant checked after relaxation."""
    if region is None:
        region = (0, 0, h.nx, h.ny)
    h.region_slice(region)
    i0, j0, i1, j1 = region
    block = [row[j0:j1] for row in h.elevation[i0:i1]]
    steps = [abs(b - a) for lo, up in zip(block, block[1:])
             for a, b in zip(lo, up)]
    steps += [abs(b - a) for row in block for a, b in zip(row, row[1:])]
    return max(steps, default=0.0) / h.cell_size
