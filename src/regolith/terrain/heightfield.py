"""Uniform-grid elevation map and bulk soil parameters.

Cell values live at cell centers; queries bilinearly interpolate the four
surrounding centers.  All elevations are meters, masses are bank volume
times bank density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path


@dataclass
class SoilParams:
    """Bulk soil mechanics parameters plus local gravity."""

    internal_friction_angle: float = 0.80   # rad
    cohesion: float = 900.0                 # Pa
    bank_density: float = 1580.0            # kg/m^3
    gravity: float = 1.6                    # m/s^2

    def __post_init__(self):
        for name in ("internal_friction_angle", "cohesion", "bank_density",
                     "gravity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"soil parameter {name} must be positive")

    @property
    def repose_tan(self) -> float:
        return math.tan(self.internal_friction_angle)


class OutOfBounds(ValueError):
    pass


class Heightfield:
    """nx-by-ny grid of elevations with world-frame origin at cell (0,0).

    `elevation` is a list of nx rows, each a list of ny plain floats:
    `elevation[i][j]` is the height of cell (i, j).  The kernels read and
    write it in place.
    """

    def __init__(self, nx: int, ny: int, cell_size: float,
                 origin=(0.0, 0.0), elevation=None):
        if nx < 2 or ny < 2:
            raise ValueError("grid needs at least 2x2 cells")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.nx = nx
        self.ny = ny
        self.cell_size = float(cell_size)
        self.origin = (float(origin[0]), float(origin[1]))
        if elevation is None:
            self.elevation = [[0.0] * ny for _ in range(nx)]
        else:
            rows = [[float(z) for z in row] for row in elevation]
            shape = (len(rows), len(rows[0]) if rows else 0)
            if shape != (nx, ny) or any(len(row) != ny for row in rows):
                raise ValueError(f"elevation shape {shape} != ({nx},{ny})")
            if not all(map(math.isfinite, chain.from_iterable(rows))):
                raise ValueError("elevations must be finite")
            self.elevation = rows
        # Upper bounds of the closed grid rectangle; the geometry is fixed
        # at construction.
        self.x_max = self.origin[0] + nx * self.cell_size
        self.y_max = self.origin[1] + ny * self.cell_size
        # Cells touched since the last drain; feeds terrain-patch telemetry.
        # The kernels add (i, j) to it directly.
        self.dirty: set[tuple[int, int]] = set()

    # -- geometry ----------------------------------------------------------

    def copy(self) -> "Heightfield":
        return Heightfield(self.nx, self.ny, self.cell_size, self.origin,
                           self.elevation)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = math.floor((x - self.origin[0]) / self.cell_size)
        j = math.floor((y - self.origin[1]) / self.cell_size)
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise OutOfBounds(f"({x:.3f}, {y:.3f}) outside grid")
        return i, j

    def in_bounds(self, x: float, y: float) -> bool:
        ox, oy = self.origin
        return ox <= x <= self.x_max and oy <= y <= self.y_max

    def in_cells(self, x: float, y: float) -> bool:
        """Whether (x, y) lies in a cell: where `surface_at` is defined,
        the closed grid rectangle less its upper edges."""
        # in bounds, the floors are nonnegative: only the upper cell index
        # needs a check, as `cell_of` computes it
        ox, oy = self.origin
        if not (ox <= x <= self.x_max and oy <= y <= self.y_max):
            return False
        cs = self.cell_size
        return (math.floor((x - ox) / cs) < self.nx
                and math.floor((y - oy) / cs) < self.ny)

    def drain_dirty(self) -> list[tuple[int, int]]:
        cells = sorted(self.dirty)
        self.dirty.clear()
        return cells

    # -- queries -----------------------------------------------------------

    def height_at(self, x: float, y: float) -> float:
        """Bilinear interpolation of the four surrounding cell centers, as a
        plain float.  Raises OutOfBounds outside the closed grid rectangle."""
        ox, oy = self.origin
        if not (ox <= x <= self.x_max and oy <= y <= self.y_max):
            raise OutOfBounds(f"({x:.3f}, {y:.3f}) outside grid")
        cs = self.cell_size
        return self._bilinear((x - ox) / cs - 0.5, (y - oy) / cs - 0.5)

    def _bilinear(self, u: float, v: float) -> float:
        """The interpolated elevation at cell coordinates (u, v) measured
        from the center of cell (0, 0)."""
        nx, ny = self.nx, self.ny
        # each `t = lo if lo > v else v; hi if hi < t else t` below is
        # exactly min(max(v, lo), hi), without the two builtin calls
        i0 = math.floor(u)
        i0 = 0 if 0 > i0 else i0
        i0 = nx - 2 if nx - 2 < i0 else i0
        j0 = math.floor(v)
        j0 = 0 if 0 > j0 else j0
        j0 = ny - 2 if ny - 2 < j0 else j0
        fu = u - i0
        fu = 0.0 if 0.0 > fu else fu
        fu = 1.0 if 1.0 < fu else fu
        fv = v - j0
        fv = 0.0 if 0.0 > fv else fv
        fv = 1.0 if 1.0 < fv else fv
        row0 = self.elevation[i0]
        row1 = self.elevation[i0 + 1]
        return ((1 - fu) * (1 - fv) * row0[j0]
                + fu * (1 - fv) * row1[j0]
                + (1 - fu) * fv * row0[j0 + 1]
                + fu * fv * row1[j0 + 1])

    def surface_at(self, x: float, y: float) -> tuple[float, float, float]:
        """(z, dz/dx, dz/dy) as plain floats: `height_at`'s elevation and the
        central-difference gradient at the containing cell (one-sided on
        the boundary).  Raises OutOfBounds where either does: outside the
        grid, and on its upper edges, which belong to no cell."""
        ox, oy = self.origin
        nx, ny = self.nx, self.ny
        if not (ox <= x <= self.x_max and oy <= y <= self.y_max):
            raise OutOfBounds(f"({x:.3f}, {y:.3f}) outside grid")
        cs = self.cell_size
        # q is the cell coordinate from the grid origin: floor(q) is
        # `cell_of`'s index, q - 0.5 `height_at`'s u
        qx = (x - ox) / cs
        qy = (y - oy) / cs
        i = math.floor(qx)
        j = math.floor(qy)
        # in bounds, the floors are nonnegative
        if i >= nx or j >= ny:
            raise OutOfBounds(f"({x:.3f}, {y:.3f}) outside grid")
        z = self._bilinear(qx - 0.5, qy - 0.5)
        i_lo = i - 1 if i > 0 else 0
        i_hi = i + 1 if i + 1 < nx else nx - 1
        j_lo = j - 1 if j > 0 else 0
        j_hi = j + 1 if j + 1 < ny else ny - 1
        e = self.elevation
        row = e[i]
        gx = (e[i_hi][j] - e[i_lo][j]) / ((i_hi - i_lo) * cs)
        gy = (row[j_hi] - row[j_lo]) / ((j_hi - j_lo) * cs)
        return z, gx, gy

    # -- region arithmetic -------------------------------------------------

    def region_slice(self, region) -> tuple[slice, slice]:
        i0, j0, i1, j1 = region
        if not (0 <= i0 < i1 <= self.nx and 0 <= j0 < j1 <= self.ny):
            raise OutOfBounds(f"region {region} outside {self.nx}x{self.ny} grid")
        return slice(i0, i1), slice(j0, j1)

    # -- I/O ---------------------------------------------------------------

    @classmethod
    def load_text(cls, path) -> "Heightfield":
        """Header `nx ny cell_size origin_x origin_y`, then row-major
        elevations (one x-row per line)."""
        text = Path(path).read_text().split("\n")
        header = text[0].split()
        if len(header) != 5:
            raise ValueError(f"bad heightfield header in {path}")
        nx, ny = int(header[0]), int(header[1])
        cell_size = float(header[2])
        origin = (float(header[3]), float(header[4]))
        values = []
        for line in text[1:]:
            if line.strip():
                values.append([float(v) for v in line.split()])
        if len(values) != nx or any(len(row) != ny for row in values):
            raise ValueError(
                f"heightfield body of {len(values)} rows does not match "
                f"header ({nx}, {ny})")
        return cls(nx, ny, cell_size, origin, values)
