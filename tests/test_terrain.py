import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regolith.terrain import (
    Heightfield,
    OutOfBounds,
    SoilParams,
    SweptCut,
    avalanche_relax,
    deposit,
    excavate_swept,
    generate_heightfield,
    max_region_slope,
)

SOIL = SoilParams()


def flat(nx=10, ny=10, cs=1.0, height=2.0):
    return Heightfield(nx, ny, cs, elevation=np.full((nx, ny), height))


def _volume(h, datum=0.0):
    """Terrain volume above the datum: numpy's sum over every cell."""
    return float(np.sum(np.array(h.elevation) - datum)) * h.cell_size ** 2


def _mass(h, bank_density, datum=0.0):
    return _volume(h, datum) * bank_density


# -- height / slope queries -------------------------------------------------

def test_height_at_cell_center():
    h = flat()
    h.elevation[3][4] = 5.0
    assert h.height_at(3.5, 4.5) == pytest.approx(5.0)


def test_height_at_midpoint_of_two_cells():
    h = flat(height=1.0)
    h.elevation[4][4] = 2.0  # neighbors at 1.0; centers at x 4.5 and 5.5
    assert h.height_at(5.0, 4.5) == pytest.approx(1.5)


def test_height_at_out_of_bounds():
    with pytest.raises(OutOfBounds):
        flat().height_at(-1.0, 5.0)


@given(st.floats(0.55, 9.45), st.floats(0.55, 9.45))
@settings(max_examples=100, deadline=None)
def test_height_at_within_neighbor_bounds(x, y):
    rng = np.random.default_rng(3)
    h = Heightfield(10, 10, 1.0, elevation=rng.uniform(0, 3, (10, 10)))
    i0 = int(x - 0.5)
    j0 = int(y - 0.5)
    patch = np.array(h.elevation)[i0:i0 + 2, j0:j0 + 2]
    val = h.height_at(x, y)
    assert patch.min() - 1e-12 <= val <= patch.max() + 1e-12


def test_slope_flat_field_is_zero():
    assert flat().surface_at(5.0, 5.0)[1:] == (0.0, 0.0)


def test_slope_of_plane():
    nx = ny = 12
    xs = (np.arange(nx) + 0.5)
    elev = np.tile(0.5 * xs[:, None], (1, ny))
    h = Heightfield(nx, ny, 1.0, elevation=elev)
    for x, y in [(3.2, 4.5), (6.0, 6.0), (8.7, 2.2)]:
        assert h.surface_at(x, y)[1:] == pytest.approx((0.5, 0.0), abs=1e-9)


def test_slope_invariant_under_constant_offset():
    rng = np.random.default_rng(5)
    elev = rng.uniform(0, 1, (8, 8))
    a = Heightfield(8, 8, 1.0, elevation=elev)
    b = Heightfield(8, 8, 1.0, elevation=elev + 7.0)
    assert a.surface_at(4.0, 4.0)[1:] == \
        pytest.approx(b.surface_at(4.0, 4.0)[1:])


# -- plain-float queries against their numpy-scalar reference ----------------

def _reference_height(h, x, y):
    """height_at as it read numpy scalars through builtin min/max."""
    if not h.in_bounds(x, y):
        raise OutOfBounds("outside grid")
    u = (x - h.origin[0]) / h.cell_size - 0.5
    v = (y - h.origin[1]) / h.cell_size - 0.5
    i0 = min(max(int(math.floor(u)), 0), h.nx - 2)
    j0 = min(max(int(math.floor(v)), 0), h.ny - 2)
    fu = min(max(u - i0, 0.0), 1.0)
    fv = min(max(v - j0, 0.0), 1.0)
    e = np.array(h.elevation)
    return ((1 - fu) * (1 - fv) * e[i0, j0]
            + fu * (1 - fv) * e[i0 + 1, j0]
            + (1 - fu) * fv * e[i0, j0 + 1]
            + fu * fv * e[i0 + 1, j0 + 1])


def _reference_surface(h, x, y):
    """height_at, then the central-difference gradient at the containing
    cell (one-sided on the boundary), as the two separate queries did."""
    z = h.height_at(x, y)
    i, j = h.cell_of(x, y)
    e = np.array(h.elevation)
    cs = h.cell_size
    i_lo, i_hi = max(i - 1, 0), min(i + 1, h.nx - 1)
    j_lo, j_hi = max(j - 1, 0), min(j + 1, h.ny - 1)
    gx = (e[i_hi, j] - e[i_lo, j]) / ((i_hi - i_lo) * cs)
    gy = (e[i, j_hi] - e[i, j_lo]) / ((j_hi - j_lo) * cs)
    return z, gx, gy


def _outcome(query, *args):
    """repr of each returned float, or "OutOfBounds"."""
    try:
        result = query(*args)
    except OutOfBounds:
        return "OutOfBounds"
    if isinstance(result, tuple):
        return tuple(repr(float(v)) for v in result)
    return repr(float(result))


_GRID = Heightfield(7, 5, 0.37, origin=(-1.3, 2.1),
                    elevation=np.random.default_rng(11).uniform(-1, 2, (7, 5)))


def _edge_points(h):
    """Every grid line and the two upper bounds, on and just beside them."""
    xs = [h.origin[0] + k * h.cell_size for k in range(h.nx + 1)]
    ys = [h.origin[1] + k * h.cell_size for k in range(h.ny + 1)]
    xs.append(h.origin[0] + h.nx * h.cell_size)
    ys.append(h.origin[1] + h.ny * h.cell_size)
    xs = [x + d for x in xs for d in (-1e-12, 0.0, 1e-12)]
    ys = [y + d for y in ys for d in (-1e-12, 0.0, 1e-12)]
    mid_x = h.origin[0] + 0.5 * h.nx * h.cell_size
    mid_y = h.origin[1] + 0.5 * h.ny * h.cell_size
    return ([(x, y) for x in xs for y in ys]
            + [(x, mid_y) for x in xs] + [(mid_x, y) for y in ys]
            + [(math.nan, mid_y), (mid_x, math.inf)])


def test_surface_and_height_match_reference_on_grid_edges():
    seen = set()
    for x, y in _edge_points(_GRID):
        surface = _outcome(_GRID.surface_at, x, y)
        assert surface == _outcome(_reference_surface, _GRID, x, y), (x, y)
        assert _outcome(_GRID.height_at, x, y) \
            == _outcome(_reference_height, _GRID, x, y), (x, y)
        seen.add(surface == "OutOfBounds")
    assert seen == {True, False}


def test_surface_at_raises_on_the_upper_bound_where_height_at_does_not():
    h = _GRID
    top_x = h.origin[0] + h.nx * h.cell_size
    mid_y = h.origin[1] + 0.5 * h.ny * h.cell_size
    assert isinstance(h.height_at(top_x, mid_y), float)
    with pytest.raises(OutOfBounds):
        h.surface_at(top_x, mid_y)


def test_in_cells_is_where_surface_at_is_defined():
    for x, y in _edge_points(_GRID):
        assert _GRID.in_cells(x, y) \
            == (_outcome(_GRID.surface_at, x, y) != "OutOfBounds"), (x, y)


@given(st.floats(-1.4, 1.35), st.floats(2.0, 4.0))
@settings(max_examples=300, deadline=None)
def test_surface_and_height_match_reference_at_random_points(x, y):
    assert _outcome(_GRID.surface_at, x, y) \
        == _outcome(_reference_surface, _GRID, x, y)
    assert _outcome(_GRID.height_at, x, y) \
        == _outcome(_reference_height, _GRID, x, y)


def test_point_queries_return_plain_floats():
    z, gx, gy = _GRID.surface_at(0.0, 3.0)
    assert {type(z), type(gx), type(gy)} == {float}
    assert type(_GRID.height_at(0.0, 3.0)) is float


# -- excavation -------------------------------------------------------------

def prism_cut(z, width=1.0, x0=4.0, x1=5.0, y=5.0, attack=0.5):
    return SweptCut(points=[(x0, y, z, attack), (x1, y, z, attack)],
                    width=width)


def test_excavate_prism_mass():
    # 1 m wide, 1 m long, 0.1 m deep prism out of a flat field
    h = flat(40, 40, cs=0.25, height=2.0)
    cut = SweptCut(points=[(5.0, 5.0, 1.9, 0.5), (6.0, 5.0, 1.9, 0.5)],
                   width=1.0)
    removed = excavate_swept(h, cut, SOIL)
    # cell rasterization of the racetrack-shaped footprint is not exactly
    # the 1 m^2 prism; verify against the actual footprint area
    lowered = np.sum(2.0 - np.array(h.elevation)) * 0.25 ** 2
    assert removed == pytest.approx(lowered * SOIL.bank_density, rel=1e-9)
    assert removed == pytest.approx(158.0, rel=0.30)


def test_excavate_mass_matches_volume_times_density_exactly():
    h = flat(20, 20, cs=0.5)
    before = _volume(h)
    removed = excavate_swept(h, prism_cut(z=1.6), SOIL)
    after = _volume(h)
    assert removed == pytest.approx((before - after) * SOIL.bank_density,
                                    rel=1e-12)


def test_excavate_above_surface_is_noop():
    h = flat()
    before = np.array(h.elevation)
    assert excavate_swept(h, prism_cut(z=3.5), SOIL) == 0.0
    assert np.array_equal(h.elevation, before)


def test_excavate_returns_a_plain_float():
    h = flat(10, 10, cs=1.0, height=2.0)
    assert type(excavate_swept(h, prism_cut(z=1.9), SOIL)) is float
    removed = excavate_swept(h, prism_cut(z=0.5), SOIL)
    assert type(removed) is float and removed > 0.0


def test_excavate_respects_max_depth():
    h = flat(10, 10, height=2.0)
    cut = SweptCut(points=[(4.0, 5.0, 0.0, 0.5), (5.0, 5.0, 0.0, 0.5)],
                   width=1.0, max_depth=0.3)
    excavate_swept(h, cut, SOIL)
    assert np.array(h.elevation).min() >= 2.0 - 0.3 - 1e-12


def test_degenerate_cut_polyline_rejected():
    with pytest.raises(ValueError):
        SweptCut(points=[(1.0, 1.0, 0.5, 0.5), (1.0, 1.0, 0.4, 0.5)], width=1.0)
    with pytest.raises(ValueError):
        SweptCut(points=[(1.0, 1.0, 0.5, 0.5)], width=0.0)


# -- deposition -------------------------------------------------------------

def test_deposit_conserves_mass():
    h = flat(30, 30, cs=0.5)
    before = _mass(h, SOIL.bank_density)
    lost = deposit(h, 7.0, 7.0, 158.0, SOIL, spread_radius=1.0)
    assert lost == 0.0
    after = _mass(h, SOIL.bank_density)
    assert after - before == pytest.approx(158.0, rel=1e-9)


def test_deposit_zero_mass_noop():
    h = flat()
    before = np.array(h.elevation)
    assert deposit(h, 5.0, 5.0, 0.0, SOIL) == 0.0
    assert np.array_equal(h.elevation, before)


def test_deposit_mound_respects_repose_after_relax():
    h = flat(40, 40, cs=0.25, height=0.5)
    deposit(h, 5.0, 5.0, 800.0, SOIL, spread_radius=0.5)
    assert max_region_slope(h) <= SOIL.repose_tan + 1e-3


def test_deposit_at_boundary_reports_lost_mass():
    h = flat(10, 10, cs=0.5, height=1.0)
    before = _mass(h, SOIL.bank_density)
    lost = deposit(h, 0.1, 0.1, 100.0, SOIL, spread_radius=1.0)
    assert lost > 0.0
    gained = _mass(h, SOIL.bank_density) - before
    assert gained + lost == pytest.approx(100.0, rel=1e-9)


# -- avalanching ------------------------------------------------------------

def two_cell_field(h0, h1):
    # 2 columns x 3 rows so the grid is valid; y-rows identical
    elev = np.array([[h0] * 3, [h1] * 3])
    return Heightfield(2, 3, 1.0, elevation=elev)


def test_no_transfer_below_repose():
    # tan(0.80 rad) = 1.0296 > slope 1.0 -> stable
    h = two_cell_field(1.0, 0.0)
    before = [row[:] for row in h.elevation]
    result = avalanche_relax(h, SOIL)
    assert not result.residual
    assert h.elevation == before
    assert not h.dirty


def test_two_cell_closed_form_split():
    h = two_cell_field(2.0, 0.0)
    result = avalanche_relax(h, SOIL)
    assert not result.residual
    d0 = 2.0
    limit = SOIL.repose_tan * 1.0
    delta = (d0 - limit) / 2.0  # symmetric split down to the repose slope
    assert h.elevation[0][0] == pytest.approx(2.0 - delta, abs=2e-3)
    assert h.elevation[1][0] == pytest.approx(0.0 + delta, abs=2e-3)
    # mass conserved
    assert _volume(h) == pytest.approx(2.0 * 3, rel=1e-12)


def test_flat_field_moves_nothing():
    h = flat()
    before = [row[:] for row in h.elevation]
    assert not avalanche_relax(h, SOIL).residual
    assert h.elevation == before
    assert not h.dirty


def test_relax_reaches_repose_on_random_fields():
    rng = np.random.default_rng(11)
    for seed in range(3):
        elev = rng.uniform(0, 4, (12, 12))
        h = Heightfield(12, 12, 0.5, elevation=elev)
        before = _volume(h)
        result = avalanche_relax(h, SOIL)
        assert _volume(h) == pytest.approx(before, rel=1e-9)
        if not result.residual:
            assert max_region_slope(h) <= SOIL.repose_tan + 1e-3


def test_mass_conserved_across_operation_sequences():
    h = flat(30, 30, cs=0.5, height=2.0)
    total0 = _mass(h, SOIL.bank_density)
    removed = excavate_swept(h, prism_cut(z=1.7, x0=4.0, x1=6.0), SOIL)
    avalanche_relax(h, SOIL, region=(2, 4, 18, 16))
    lost = deposit(h, 12.0, 12.0, removed * 0.5, SOIL)
    total1 = _mass(h, SOIL.bank_density)
    assert (total1 - (total0 - removed + removed * 0.5 - lost)) / total0 \
        == pytest.approx(0.0, abs=1e-9)


# -- I/O and generation -----------------------------------------------------

def test_heightfield_text_round_trip(tmp_path):
    h = generate_heightfield(12, 9, 0.5, amplitude=0.2, seed=42)
    path = tmp_path / "terrain.txt"
    # header `nx ny cell_size origin_x origin_y`, then one line per x-row
    path.write_text(
        f"{h.nx} {h.ny} {h.cell_size!r} {h.origin[0]!r} {h.origin[1]!r}\n"
        + "".join(" ".join(repr(float(v)) for v in row) + "\n"
                  for row in h.elevation))
    back = Heightfield.load_text(path)
    assert (back.nx, back.ny, back.cell_size, back.origin) \
        == (h.nx, h.ny, h.cell_size, h.origin)
    assert np.array_equal(back.elevation, h.elevation)


@pytest.mark.parametrize("text, message", [
    ("3 2 1.0 0.0\n0 0\n0 0\n0 0\n", "bad heightfield header"),
    ("3 2 1.0 0.0 0.0 9\n0 0\n0 0\n0 0\n", "bad heightfield header"),
    ("3 2 1.0 0.0 0.0\n0 0\n0 0\n", "does not match header"),
    ("3 2 1.0 0.0 0.0\n0 0 0\n0 0 0\n0 0 0\n", "does not match header"),
], ids=["header_4_fields", "header_6_fields", "too_few_rows",
        "too_many_columns"])
def test_load_text_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "terrain.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        Heightfield.load_text(path)


def test_generation_is_seed_deterministic():
    a = generate_heightfield(10, 10, 1.0, seed=7)
    b = generate_heightfield(10, 10, 1.0, seed=7)
    c = generate_heightfield(10, 10, 1.0, seed=8)
    assert np.array_equal(a.elevation, b.elevation)
    assert not np.array_equal(a.elevation, c.elevation)


def test_generation_ridge_feature():
    h = generate_heightfield(40, 10, 0.5, amplitude=0.0, seed=1,
                             ridge={"x": 10.0, "height": 1.0, "half_width": 3.0})
    mid = h.height_at(10.0, 2.5)
    edge = h.height_at(1.0, 2.5)
    assert mid - edge == pytest.approx(1.0, abs=0.05)
