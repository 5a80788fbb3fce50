"""The plain-float terrain and motion kernels against the forms they replaced.

Each `_ref_*` below is the earlier implementation of a kernel, kept here
as the reference: `Heightfield.surface_at` and `in_cells` built from
`height_at`, `cell_of` and `in_bounds`; `deposit` and `avalanche_relax`
with numpy-scalar writes, `np.diff` and `np.clip`; `blade_level_step` over
its whole padded box with numpy scalars; `step_locomotion` calling
`wrap_angle`, `track_torques` and `sub_crawler_policy`; `calculate_ik`
through `ArmGeometry.clamp` and `forward_kinematics`; and `DigExecution`
with its constants read each step and `excavate_swept` over a dict of
cells.  The kernels do the same floating-point operations in the same
order, so every result must be equal bit for bit, with one exception:
on fields holding -0.0 cells the relaxation matches numpy's heights by
value, since numpy's `+= 0.0` turns some -0.0 cells into +0.0 and the
kernel leaves them be.

The terrain is rows of plain floats; each numpy reference runs on
`np.array(h.elevation)` and writes its result back.  numpy is also the
oracle of the in-repo generator (`SeedRng` against
`np.random.default_rng`, `generate_heightfield` against
`_ref_generate_heightfield`) and of `WorldModel.cell_error` (`math.fsum`
over numpy's block of errors).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regolith.machines import (
    DigExecution,
    MachineState,
    Pid,
    blade_level_step,
    bucket_tip,
    calculate_ik,
    default_spec,
    move_arm_toward,
    record_arm_samples,
    settle_on_terrain,
    step_locomotion,
)
from regolith.machines.kinematics import (
    IK_REACHED_TOL,
    JOINT_NAMES,
    ArmGeometry,
    IkResult,
    forward_kinematics,
)
from regolith.machines.locomotion import (
    ARRIVED,
    GOAL_TOL,
    HEADING_GAIN,
    HEADING_TOL,
    IDLE,
    MIN_SPEED_FACTOR,
    RUNNING,
    SPEED_SLOPE_SCALE,
    SUBCRAWLER_RATE,
    SUBCRAWLER_STOW,
    TURN_IN_PLACE_ERR,
    TURNING_RATE,
    _record_track_samples,
)
from regolith.machines.skills import (
    APPROACH_BACK,
    APPROACH_UP,
    BLADE_ATTACK,
    CARRY_CURL,
    CARRY_RAISE,
    FAILED,
    JOINT_SETTLED_TOL,
    SUCCEEDED,
    TRACK_IK_TOL,
    _tip_jacobian,
)
from regolith.machines.skills import RUNNING as SKILL_RUNNING
from regolith.terrain import (
    RELAX_MAX_SWEEPS,
    RELAX_SLOPE_TOL,
    Heightfield,
    OutOfBounds,
    RelaxResult,
    SoilParams,
    SweptCut,
    avalanche_relax,
    deposit,
    dig_resistance,
    excavate_swept,
)
from regolith.config import load_config
from regolith.planner.world import WorldModel
from regolith.scenarios import REFERENCE_SCENARIOS, scenario_path
from regolith.terrain import deform, generate_heightfield, max_region_slope
from regolith.terrain.deform import RELAX_TRANSFER_FACTOR
from regolith.terrain.generate import SeedRng

from terrain_bytes import elevation_bytes

SOIL = SoilParams()


def _write_back(h, elevation):
    """Stores a reference kernel's float64 array as h's rows of floats."""
    h.elevation[:] = elevation.tolist()


# -- reference point queries ---------------------------------------------------

def _ref_in_bounds(h, x, y):
    return (h.origin[0] <= x <= h.origin[0] + h.nx * h.cell_size
            and h.origin[1] <= y <= h.origin[1] + h.ny * h.cell_size)


def _ref_cell_of(h, x, y):
    i = math.floor((x - h.origin[0]) / h.cell_size)
    j = math.floor((y - h.origin[1]) / h.cell_size)
    if not (0 <= i < h.nx and 0 <= j < h.ny):
        raise OutOfBounds(f"({x:.3f}, {y:.3f}) outside grid")
    return i, j


def _ref_height_at(h, x, y):
    if not _ref_in_bounds(h, x, y):
        raise OutOfBounds(f"({x:.3f}, {y:.3f}) outside grid")
    u = (x - h.origin[0]) / h.cell_size - 0.5
    v = (y - h.origin[1]) / h.cell_size - 0.5
    i0 = math.floor(u)
    i0 = 0 if 0 > i0 else i0
    i0 = h.nx - 2 if h.nx - 2 < i0 else i0
    j0 = math.floor(v)
    j0 = 0 if 0 > j0 else j0
    j0 = h.ny - 2 if h.ny - 2 < j0 else j0
    fu = u - i0
    fu = 0.0 if 0.0 > fu else fu
    fu = 1.0 if 1.0 < fu else fu
    fv = v - j0
    fv = 0.0 if 0.0 > fv else fv
    fv = 1.0 if 1.0 < fv else fv
    e = np.array(h.elevation).item
    return ((1 - fu) * (1 - fv) * e(i0, j0)
            + fu * (1 - fv) * e(i0 + 1, j0)
            + (1 - fu) * fv * e(i0, j0 + 1)
            + fu * fv * e(i0 + 1, j0 + 1))


def _ref_surface_at(h, x, y):
    z = _ref_height_at(h, x, y)
    i, j = _ref_cell_of(h, x, y)
    nx, ny, cs = h.nx, h.ny, h.cell_size
    i_lo = i - 1 if i > 0 else 0
    i_hi = i + 1 if i + 1 < nx else nx - 1
    j_lo = j - 1 if j > 0 else 0
    j_hi = j + 1 if j + 1 < ny else ny - 1
    e = np.array(h.elevation).item
    gx = (e(i_hi, j) - e(i_lo, j)) / ((i_hi - i_lo) * cs)
    gy = (e(i, j_hi) - e(i, j_lo)) / ((j_hi - j_lo) * cs)
    return z, gx, gy


def _ref_in_cells(h, x, y):
    cs = h.cell_size
    return (_ref_in_bounds(h, x, y)
            and math.floor((x - h.origin[0]) / cs) < h.nx
            and math.floor((y - h.origin[1]) / cs) < h.ny)


def _ref_cell_center(h, i, j):
    return (h.origin[0] + (i + 0.5) * h.cell_size,
            h.origin[1] + (j + 0.5) * h.cell_size)


# -- reference terrain operations ----------------------------------------------

def _ref_cells_in_box(h, lo_x, hi_x, lo_y, hi_y):
    cs = h.cell_size
    i_lo = max(int(math.floor((lo_x - h.origin[0]) / cs - 0.5)), 0)
    i_hi = min(int(math.ceil((hi_x - h.origin[0]) / cs - 0.5)), h.nx - 1)
    j_lo = max(int(math.floor((lo_y - h.origin[1]) / cs - 0.5)), 0)
    j_hi = min(int(math.ceil((hi_y - h.origin[1]) / cs - 0.5)), h.ny - 1)
    for i in range(i_lo, i_hi + 1):
        for j in range(j_lo, j_hi + 1):
            yield i, j


def _ref_cut_depth_map(h, cut):
    half_w = cut.width / 2.0
    cut_z = {}
    pts = cut.points
    reach = half_w + 1e-9
    if len(pts) == 1:
        x0, y0, z0, _a = pts[0]
        for i, j in _ref_cells_in_box(h, x0 - reach, x0 + reach,
                                      y0 - reach, y0 + reach):
            cx, cy = _ref_cell_center(h, i, j)
            if math.hypot(cx - x0, cy - y0) <= reach:
                cut_z[(i, j)] = min(cut_z.get((i, j), math.inf), z0)
        return cut_z
    for (x0, y0, z0, _a0), (x1, y1, z1, _a1) in zip(pts, pts[1:]):
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        ux, uy = dx / length, dy / length
        lo_x, hi_x = min(x0, x1) - reach, max(x0, x1) + reach
        lo_y, hi_y = min(y0, y1) - reach, max(y0, y1) + reach
        for i, j in _ref_cells_in_box(h, lo_x, hi_x, lo_y, hi_y):
            cx, cy = _ref_cell_center(h, i, j)
            t = (cx - x0) * ux + (cy - y0) * uy
            if t < -1e-9 or t > length + 1e-9:
                continue
            lateral = abs(-(cx - x0) * uy + (cy - y0) * ux)
            if lateral > reach:
                continue
            sz = z0 + (z1 - z0) * min(max(t / length, 0.0), 1.0)
            cut_z[(i, j)] = min(cut_z.get((i, j), math.inf), sz)
    return cut_z


def _ref_excavate_swept(h, cut, soil, target=None):
    for (x, y, _z, _a) in cut.points:
        if not _ref_in_bounds(h, x, y):
            raise OutOfBounds(f"cut point ({x:.2f}, {y:.2f}) outside grid")
    removed_volume = 0.0
    area = h.cell_size ** 2
    e = np.array(h.elevation)
    for (i, j), cz in _ref_cut_depth_map(h, cut).items():
        old = e.item(i, j)
        floor = old - cut.max_depth
        if target is not None:
            floor = max(floor, np.array(target.elevation).item(i, j))
        new = max(cz, floor)
        if new < old:
            removed_volume += (old - new) * area
            e[i, j] = new
            h.dirty.add((i, j))
    _write_back(h, e)
    return removed_volume * soil.bank_density


def _ref_deposit(h, x, y, mass, soil, spread_radius=1.0, relax=True,
                 relax_results=None):
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
        return mass
    lost_volume = 0.0
    area = cs ** 2
    touched = []
    e = np.array(h.elevation)
    for i, j, w in weights:
        share = volume * w / total_w
        if 0 <= i < h.nx and 0 <= j < h.ny:
            e[i, j] += share / area
            h.dirty.add((i, j))
            touched.append((i, j))
        else:
            lost_volume += share
    _write_back(h, e)
    if relax and touched:
        margin = int(math.ceil(radius / cs)) + 3
        i0 = max(min(i for i, _ in touched) - margin, 0)
        i1 = min(max(i for i, _ in touched) + margin + 1, h.nx)
        j0 = max(min(j for _, j in touched) - margin, 0)
        j1 = min(max(j for _, j in touched) + margin + 1, h.ny)
        result = _ref_avalanche_relax(h, soil, region=(i0, j0, i1, j1))
        if relax_results is not None:
            relax_results.append(result)
    return lost_volume * soil.bank_density


def _ref_avalanche_relax(h, soil, region=None):
    if region is None:
        region = (0, 0, h.nx, h.ny)
    si, sj = h.region_slice(region)
    elevation = np.array(h.elevation)
    e = elevation[si, sj]
    if e.shape[0] < 1 or e.shape[1] < 1:
        return RelaxResult(False, 0)
    cs = h.cell_size
    limit = soil.repose_tan * cs
    tol = RELAX_SLOPE_TOL * cs
    applied = False
    sweeps = 0
    factor = RELAX_TRANSFER_FACTOR * 0.5
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
            applied = True
        if worst <= tol:
            elevation[si, sj] = e
            _write_back(h, elevation)
            if applied:
                _ref_mark_region_dirty(h, region)
            return RelaxResult(False, sweeps)
    elevation[si, sj] = e
    _write_back(h, elevation)
    if applied:
        _ref_mark_region_dirty(h, region)
    return RelaxResult(True, sweeps)


def _ref_mark_region_dirty(h, region):
    i0, j0, i1, j1 = region
    for i in range(i0, i1):
        for j in range(j0, j1):
            h.dirty.add((i, j))


# -- reference motion kernels --------------------------------------------------

def _ref_wrap_angle(a):
    return (a + math.pi) % (2 * math.pi) - math.pi


def _ref_track_torques(spec, total_mass, pitch, turn_rate, gravity,
                       crawlers_down):
    g = gravity
    f_long = total_mass * g * (spec.rolling_resistance * math.cos(pitch)
                               + math.sin(pitch))
    yaw_drag = (spec.turning_resistance_subcrawler if crawlers_down
                else spec.turning_resistance)
    t_turn = yaw_drag * turn_rate
    r = spec.wheel_radius
    base = f_long * r / 2.0
    diff = t_turn * r / spec.track_width
    return base - diff, base + diff


def _ref_sub_crawler_policy(state, turning, dt):
    target = SUBCRAWLER_STOW if turning else state.pitch
    step = SUBCRAWLER_RATE * dt
    current = state.sub_crawler_front
    delta = target - current
    delta = -step if -step > delta else delta
    state.sub_crawler_front = current + (step if step < delta else delta)
    current = state.sub_crawler_rear
    delta = target - current
    delta = -step if -step > delta else delta
    state.sub_crawler_rear = current + (step if step < delta else delta)
    return target, target


def _ref_step_locomotion(state, spec, waypoints, index, h, soil, dt,
                         goal_tol=GOAL_TOL):
    if not waypoints:
        state.track_speed_left = state.track_speed_right = 0.0
        state.turn_rate = 0.0
        if state.sampling:
            _record_track_samples(state, spec, 0.0, 0.0, 0.0, 0.0)
        return IDLE, index
    if dt <= 0.0:
        return RUNNING, index
    x, y, heading = state.x, state.y, state.heading
    last = len(waypoints) - 1
    while index <= last:
        wp = waypoints[index]
        dx, dy = wp[0] - x, wp[1] - y
        if math.hypot(dx, dy) > goal_tol:
            break
        if index == last:
            final_heading = wp[2] if len(wp) > 2 and wp[2] is not None else None
            if final_heading is None or \
                    abs(_ref_wrap_angle(final_heading - heading)) <= HEADING_TOL:
                state.track_speed_left = state.track_speed_right = 0.0
                state.turn_rate = 0.0
                if state.sampling:
                    _record_track_samples(state, spec, 0.0, 0.0, 0.0, 0.0)
                return ARRIVED, index
            dx = dy = None
            err = _ref_wrap_angle(final_heading - heading)
            break
        index += 1
    if dx is None:
        speed_cmd = 0.0
    else:
        err = _ref_wrap_angle(math.atan2(dy, dx) - heading)
        loaded = state.payload_kg > 1.0 or state.blade_load_kg > 1.0
        target = spec.speed_loaded if loaded else spec.speed_empty
        slope_factor = 1.0 - abs(state.pitch) / SPEED_SLOPE_SCALE
        if not slope_factor > MIN_SPEED_FACTOR:
            slope_factor = MIN_SPEED_FACTOR
        if abs(err) > TURN_IN_PLACE_ERR:
            speed_cmd = 0.0
        else:
            speed_cmd = target * slope_factor * math.cos(err)
    max_rate = spec.max_turn_rate
    turn_rate = HEADING_GAIN * err
    turn_rate = -max_rate if -max_rate > turn_rate else turn_rate
    turn_rate = max_rate if max_rate < turn_rate else turn_rate
    total_mass = spec.mass + state.payload_kg + state.blade_load_kg
    front, rear = state.sub_crawler_front, state.sub_crawler_rear
    crawlers_down = (rear if rear > front else front) < SUBCRAWLER_STOW / 2.0
    tau_l, tau_r = _ref_track_torques(spec, total_mass, state.pitch,
                                      turn_rate, soil.gravity, crawlers_down)
    limits = spec.torque_limits
    limit_l, limit_r = limits["left_track"], limits["right_track"]
    limit = limit_r if limit_r < limit_l else limit_l
    worst_l, worst_r = abs(tau_l), abs(tau_r)
    worst = worst_r if worst_r > worst_l else worst_l
    if worst > limit:
        speed_cmd *= limit / worst
    new_x = x + speed_cmd * math.cos(heading) * dt
    new_y = y + speed_cmd * math.sin(heading) * dt
    if _ref_in_cells(h, new_x, new_y):
        state.x, state.y = new_x, new_y
    else:
        speed_cmd = 0.0
    state.heading = _ref_wrap_angle(heading + turn_rate * dt)
    state.turn_rate = turn_rate
    half_w = spec.track_width / 2.0
    left = state.track_speed_left = speed_cmd - turn_rate * half_w
    right = state.track_speed_right = speed_cmd + turn_rate * half_w
    settle_on_terrain(state, h)
    _ref_sub_crawler_policy(state, abs(turn_rate) > TURNING_RATE, dt)
    if state.sampling:
        radius = spec.wheel_radius
        _record_track_samples(state, spec, tau_l, tau_r,
                              left / radius, right / radius)
    return RUNNING, index


def _ref_clamp(geom, name, value):
    lo, hi = geom.joint_ranges[name]
    value = lo if lo > value else value
    return hi if hi < value else value


def _ref_calculate_ik(geom, base_pose, target, ground_angle):
    bx, by, bz, heading = base_pose
    dx, dy = target[0] - bx, target[1] - by
    azimuth = math.atan2(dy, dx) if (dx or dy) else heading
    swing = _ref_clamp(geom, "swing", _ref_wrap_angle(azimuth - heading))
    radial = math.hypot(dx, dy) - geom.pivot_forward
    height = target[2] - bz - geom.pivot_up
    wr = radial - geom.bucket_length * math.cos(ground_angle)
    wz = height - geom.bucket_length * math.sin(ground_angle)
    l1, l2 = geom.boom_length, geom.stick_length
    dist_sq = wr * wr + wz * wz
    cos_elbow = (dist_sq - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    if cos_elbow >= 1.0:
        stick = 0.0
    elif cos_elbow <= -1.0:
        stick = -math.pi
    else:
        stick = -math.acos(cos_elbow)
    stick = _ref_clamp(geom, "stick", stick)
    psi = math.atan2(wz, wr)
    gamma = math.atan2(l2 * math.sin(stick), l1 + l2 * math.cos(stick))
    boom = _ref_clamp(geom, "boom", psi - gamma)
    bucket = _ref_clamp(geom, "bucket", ground_angle - boom - stick)
    joints = {"swing": swing, "boom": boom, "stick": stick, "bucket": bucket}
    tip, _tool = forward_kinematics(geom, joints, base_pose, validate=False)
    residual = math.dist(tip, tuple(target))
    return IkResult(joints=joints, reached=residual <= IK_REACHED_TOL,
                    residual=residual)


class _RefDigExecution:
    def __init__(self, spec, trajectory):
        self.spec = spec
        self.traj = trajectory
        p0, p1 = trajectory.points[0], trajectory.points[1]
        ux, uy = p1[0] - p0[0], p1[1] - p0[1]
        norm = math.hypot(ux, uy)
        ux, uy = ux / norm, uy / norm
        entry = (p0[0] - APPROACH_BACK * ux, p0[1] - APPROACH_BACK * uy,
                 p0[2], p0[3])
        self.path = [entry] + list(trajectory.points)
        self.approach = (entry[0], entry[1], entry[2] + APPROACH_UP, p0[3])
        self.arcs = [0.0]
        for a, b in zip(self.path, self.path[1:]):
            self.arcs.append(self.arcs[-1]
                             + math.hypot(b[0] - a[0], b[1] - a[1]))
        self.length = self.arcs[-1]
        self.phase = "approach"
        self.s = 0.0
        self.prev_tip = None
        self.removed_total = 0.0
        self.prev_swing_rate = 0.0

    def _point_at(self, s):
        pts = self.path
        s = 0.0 if 0.0 > s else s
        s = self.length if self.length < s else s
        for k in range(len(pts) - 1):
            if s <= self.arcs[k + 1] or k == len(pts) - 2:
                seg = self.arcs[k + 1] - self.arcs[k]
                f = (s - self.arcs[k]) / seg if seg > 0 else 0.0
                a, b = pts[k], pts[k + 1]
                return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]),
                        a[2] + f * (b[2] - a[2]), a[3] + f * (b[3] - a[3]))
        return pts[-1]

    def step(self, state, h, soil, dt):
        spec = self.spec
        if self.phase == "approach":
            x, y, z, attack = self.approach
            tgt_angle = -attack
        elif self.phase == "cut":
            self.s += spec.dig_speed * dt
            x, y, z, attack = self._point_at(self.s)
            tgt_angle = -attack
        else:
            xe, ye, ze, attack = self.traj.points[-1]
            x, y, z = xe, ye, ze + CARRY_RAISE
            curl = -attack - CARRY_CURL
            floor = spec.arm.joint_ranges["bucket"][0] + 0.1
            tgt_angle = floor if floor > curl else curl
        ik = _ref_calculate_ik(spec.arm, state.pose, (x, y, z), tgt_angle)
        sampling = state.sampling
        if ik.residual > TRACK_IK_TOL:
            if sampling:
                record_arm_samples(state, spec, soil,
                                   dict.fromkeys(JOINT_NAMES, 0.0))
            return FAILED, 0.0
        err, omegas = move_arm_toward(state, spec, ik.joints, dt)
        if sampling:
            kin = _tip_jacobian(spec.arm, state.joints, state.pose)
            tip = kin[0]
        else:
            tip = bucket_tip(spec, state)
        swing_alpha = (state.swing_rate - self.prev_swing_rate) / dt \
            if dt > 0 else 0.0
        self.prev_swing_rate = state.swing_rate
        removed = 0.0
        if self.phase == "approach":
            if sampling:
                record_arm_samples(state, spec, soil, omegas,
                                   swing_alpha=swing_alpha, kinematics=kin)
            if err < JOINT_SETTLED_TOL:
                self.phase = "cut"
                self.prev_tip = tip
            return SKILL_RUNNING, 0.0
        if self.phase == "cut":
            prev = self.prev_tip or tip
            advance = math.hypot(tip[0] - prev[0], tip[1] - prev[1])
            steepest = math.pi / 2 - 0.06
            attack_c = 0.06 if 0.06 > attack else attack
            attack_c = steepest if steepest < attack_c else attack_c
            if sampling:
                depth = _ref_height_at(h, tip[0], tip[1]) - tip[2]
                depth = depth if depth > 0.0 else 0.0
                force = dig_resistance(depth, self.traj.width, attack_c, soil)
            if advance > 1e-9:
                step_cut = SweptCut(
                    points=[(prev[0], prev[1], prev[2], attack_c),
                            (tip[0], tip[1], tip[2], attack_c)],
                    width=self.traj.width, max_depth=self.traj.max_depth)
                removed = _ref_excavate_swept(h, step_cut, soil)
                state.payload_kg += removed
                self.removed_total += removed
                self.prev_tip = tip
            if sampling:
                if advance > 1e-9:
                    ux = (tip[0] - prev[0]) / advance
                    uy = (tip[1] - prev[1]) / advance
                else:
                    ux = uy = 0.0
                ext = (force.resistance * ux, force.resistance * uy,
                       -force.normal)
                record_arm_samples(state, spec, soil, omegas, ext_force=ext,
                                   swing_alpha=swing_alpha, kinematics=kin)
            if self.s >= self.length and err < JOINT_SETTLED_TOL:
                self.phase = "raise"
            return SKILL_RUNNING, removed
        if sampling:
            record_arm_samples(state, spec, soil, omegas,
                               swing_alpha=swing_alpha, kinematics=kin)
        if err < JOINT_SETTLED_TOL:
            return SUCCEEDED, 0.0
        return SKILL_RUNNING, 0.0


def _ref_blade_level_step(state, spec, target_height, h, soil, pid, dt,
                          relax_results=None):
    v_blade = pid.update(target_height - state.blade_height, dt)
    state.blade_height += v_blade * dt
    ch, sh = math.cos(state.heading), math.sin(state.heading)
    front = spec.length / 2.0 + 0.3
    bx, by = state.x + front * ch, state.y + front * sh
    half_w = spec.blade_width / 2.0
    half_l = max(abs(state.speed) * dt, h.cell_size)
    cs = h.cell_size
    area = cs * cs
    graded_volume = 0.0
    max_depth = 0.0
    ext_x = half_l * abs(ch) + half_w * abs(sh)
    ext_y = half_l * abs(sh) + half_w * abs(ch)
    i_lo = max(int((bx - ext_x - h.origin[0]) / cs) - 1, 0)
    i_hi = min(int((bx + ext_x - h.origin[0]) / cs) + 1, h.nx - 1)
    j_lo = max(int((by - ext_y - h.origin[1]) / cs) - 1, 0)
    j_hi = min(int((by + ext_y - h.origin[1]) / cs) + 1, h.ny - 1)
    e = np.array(h.elevation)
    for i in range(i_lo, i_hi + 1):
        for j in range(j_lo, j_hi + 1):
            cx, cy = _ref_cell_center(h, i, j)
            dx, dy = cx - bx, cy - by
            longi = dx * ch + dy * sh
            lat = -dx * sh + dy * ch
            if abs(longi) > half_l or abs(lat) > half_w:
                continue
            cut = e[i, j] - state.blade_height
            if cut > 0.0:
                e[i, j] = state.blade_height
                h.dirty.add((i, j))
                graded_volume += cut * area
                max_depth = max(max_depth, cut)
    _write_back(h, e)
    graded = graded_volume * soil.bank_density
    state.blade_load_kg += graded
    shed = lost = 0.0
    if state.blade_load_kg > spec.blade_capacity_kg:
        excess = state.blade_load_kg - spec.blade_capacity_kg
        state.blade_load_kg = spec.blade_capacity_kg
        sx, sy = bx + 0.8 * ch, by + 0.8 * sh
        if _ref_in_bounds(h, sx, sy):
            shed = excess
            lost = _ref_deposit(h, sx, sy, excess, soil, spread_radius=0.6,
                                relax_results=relax_results)
        else:
            state.blade_load_kg += excess
    if state.sampling:
        if max_depth > 0.0:
            force = dig_resistance(min(max_depth, 0.4), spec.blade_width,
                                   BLADE_ATTACK, soil)
            tau = force.resistance * 0.4 \
                + state.blade_load_kg * soil.gravity * 0.3
        else:
            tau = state.blade_load_kg * soil.gravity * 0.3
        state.set_sample("blade", tau, abs(state.speed) / 0.4,
                         spec.torque_limits["blade"])
    return graded, shed, lost


# -- comparison helpers --------------------------------------------------------

def _canon(value):
    """A comparable form: every float as the repr of its plain-float
    value, containers and objects element by element."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_canon(v) for v in value)
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _canon(vars(value)))
    return value


def _state_of(state):
    return _canon(vars(state))


def _terrain_of(h):
    return elevation_bytes(h), sorted(h.dirty)


def _outcome(query, *args):
    try:
        result = query(*args)
    except OutOfBounds as exc:
        return ("OutOfBounds", str(exc))
    return _canon(result)


def _field(rng, nx, ny, cs, origin=(0.0, 0.0), spread=1.0):
    return Heightfield(nx, ny, cs, origin=origin,
                       elevation=2.0 + spread * rng.uniform(-1, 1, (nx, ny)))


# -- point queries -------------------------------------------------------------

_GRIDS = [
    Heightfield(7, 5, 0.37, origin=(-1.3, 2.1),
                elevation=np.random.default_rng(11).uniform(-1, 2, (7, 5))),
    Heightfield(2, 2, 1.0,
                elevation=np.random.default_rng(12).uniform(-1, 2, (2, 2))),
    Heightfield(12, 9, 0.1, origin=(0.3, -0.7),
                elevation=np.random.default_rng(13).uniform(-1, 2, (12, 9))),
]


def _edge_points(h):
    xs = [h.origin[0] + k * h.cell_size for k in range(h.nx + 1)]
    ys = [h.origin[1] + k * h.cell_size for k in range(h.ny + 1)]
    xs.append(h.origin[0] + h.nx * h.cell_size)
    ys.append(h.origin[1] + h.ny * h.cell_size)
    xs = [x + d for x in xs for d in (-1e-12, -5e-324, 0.0, 5e-324, 1e-12)]
    ys = [y + d for y in ys for d in (-1e-12, -5e-324, 0.0, 5e-324, 1e-12)]
    return ([(x, y) for x in xs for y in ys]
            + [(math.nan, ys[3]), (xs[3], math.inf), (-math.inf, ys[3])])


@pytest.mark.parametrize("grid", range(len(_GRIDS)))
def test_surface_at_and_in_cells_match_reference_on_grid_edges(grid):
    h = _GRIDS[grid]
    raised = 0
    for x, y in _edge_points(h):
        got = _outcome(h.surface_at, x, y)
        assert got == _outcome(_ref_surface_at, h, x, y), (x, y)
        assert h.in_cells(x, y) == _ref_in_cells(h, x, y), (x, y)
        assert h.in_bounds(x, y) == _ref_in_bounds(h, x, y), (x, y)
        raised += got[0] == "OutOfBounds"
    assert 0 < raised < len(_edge_points(h))


@given(st.integers(0, len(_GRIDS) - 1), st.floats(-3.0, 3.0),
       st.floats(-3.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_surface_at_and_in_cells_match_reference_at_random_points(grid, x, y):
    h = _GRIDS[grid]
    assert _outcome(h.surface_at, x, y) == _outcome(_ref_surface_at, h, x, y)
    assert _outcome(h.height_at, x, y) == _outcome(_ref_height_at, h, x, y)
    assert h.in_cells(x, y) == _ref_in_cells(h, x, y)


# -- deposit and relaxation ----------------------------------------------------

def _recording_relax(results):
    def relax(h, soil, region=None):
        result = avalanche_relax(h, soil, region=region)
        results.append(result)
        return result
    return relax


@pytest.mark.parametrize("seed", range(24))
def test_deposit_with_relaxation_matches_reference(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(4, 20, size=2)
    cs = float(rng.choice([0.25, 0.5, 0.37]))
    origin = tuple(rng.uniform(-2, 2, 2))
    a = _field(rng, nx, ny, cs, origin, spread=float(rng.uniform(0, 1.5)))
    b = a.copy()
    got, want = [], []
    monkeypatch.setattr(deform, "avalanche_relax", _recording_relax(got))
    for _ in range(4):
        # centers inside and a little past the grid, so some mass is lost
        x = origin[0] + rng.uniform(-0.5, nx * cs + 0.5)
        y = origin[1] + rng.uniform(-0.5, ny * cs + 0.5)
        mass = float(rng.choice([0.0, rng.uniform(1, 50),
                                 rng.uniform(100, 2000)]))
        radius = float(rng.uniform(0.1, 1.5))
        lost = deposit(a, x, y, mass, SOIL, spread_radius=radius)
        ref = _ref_deposit(b, x, y, mass, SOIL, spread_radius=radius,
                           relax_results=want)
        assert repr(lost) == repr(float(ref))
        assert _terrain_of(a) == _terrain_of(b)
    assert got == want


@pytest.mark.parametrize("seed", range(20))
def test_avalanche_relax_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    nx, ny = rng.integers(2, 16, size=2)
    cs = float(rng.choice([0.25, 0.5, 1.0]))
    a = _field(rng, nx, ny, cs, spread=float(rng.uniform(0, 4)))
    b = a.copy()
    i0, i1 = sorted(rng.choice(np.arange(nx + 1), 2, replace=False))
    j0, j1 = sorted(rng.choice(np.arange(ny + 1), 2, replace=False))
    for region in ((i0, j0, i1, j1), None):
        got = avalanche_relax(a, SOIL, region=region)
        want = _ref_avalanche_relax(b, SOIL, region=region)
        assert got == want
        assert _terrain_of(a) == _terrain_of(b)


def test_capped_relaxation_matches_reference():
    h = Heightfield(24, 24, 0.25, elevation=np.zeros((24, 24)))
    h.elevation[12][12] = 60.0
    h.elevation[5][18] = -40.0
    ref = h.copy()
    got = avalanche_relax(h, SOIL)
    want = _ref_avalanche_relax(ref, SOIL)
    assert got.residual and got.sweeps == RELAX_MAX_SWEEPS
    assert got == want
    assert _terrain_of(h) == _terrain_of(ref)


def test_one_row_and_one_column_regions_match_reference():
    rng = np.random.default_rng(7)
    for region in ((3, 0, 4, 10), (0, 6, 10, 7), (2, 2, 3, 3)):
        a = _field(rng, 10, 10, 0.5, spread=3.0)
        b = a.copy()
        assert avalanche_relax(a, SOIL, region=region) \
            == _ref_avalanche_relax(b, SOIL, region=region)
        assert _terrain_of(a) == _terrain_of(b)


# -- swept excavation ----------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_excavate_swept_matches_reference(seed):
    rng = np.random.default_rng(200 + seed)
    a = _field(rng, 30, 30, 0.25, origin=(0.5, -0.25), spread=0.2)
    b = a.copy()
    n = int(rng.choice([1, 2, 2, 3, 5]))
    x, y = rng.uniform(2.0, 6.0, 2)
    points = []
    for _ in range(n):
        points.append((float(x), float(y), float(rng.uniform(1.0, 2.5)),
                       float(rng.uniform(0.1, 1.2))))
        x += rng.uniform(-0.6, 0.6)
        y += rng.uniform(-0.6, 0.6)
    cut = SweptCut(points=points, width=float(rng.uniform(0.2, 1.2)),
                   max_depth=float(rng.choice([math.inf, 0.3])))
    got = excavate_swept(a, cut, SOIL)
    want = _ref_excavate_swept(b, cut, SOIL)
    assert repr(got) == repr(want)
    assert _terrain_of(a) == _terrain_of(b)


# -- blade ---------------------------------------------------------------------

_HEADINGS = [0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4,
             -3 * math.pi / 4, 1e-4, math.pi / 2 + 1e-4, 2e-3, -1.0,
             math.pi - 1e-9]


@pytest.mark.parametrize("seed", range(24))
def test_blade_level_step_matches_reference(seed, monkeypatch):
    rng = np.random.default_rng(300 + seed)
    cs = float(rng.choice([0.25, 0.5]))
    n = 40 if cs == 0.5 else 80
    a = _field(rng, n, n, cs, spread=float(rng.uniform(0.0, 0.2)))
    b = a.copy()
    spec = default_spec("excavator1", "excavator")
    heading = _HEADINGS[seed] if seed < len(_HEADINGS) \
        else float(rng.uniform(-math.pi, math.pi))
    x, y = rng.uniform(2.0, 18.0, 2)
    if seed % 5 == 0:       # near the grid edge: the blade reaches past it
        x = float(rng.choice([0.6, 19.4]))
    lift = float(rng.uniform(-0.2, 0.1))
    states = []
    for _ in range(2):
        state = MachineState(x=float(x), y=float(y), heading=heading)
        settle_on_terrain(state, a)
        state.blade_height = state.z + lift
        states.append(state)
    got_relax, want_relax = [], []
    monkeypatch.setattr(deform, "avalanche_relax", _recording_relax(got_relax))
    target = float(rng.uniform(1.5, 2.1))
    speed = float(rng.uniform(0.0, 1.5))
    dt = float(rng.choice([0.01, 0.2, 0.7]))
    pids = [Pid(3.0, 0.8, out_limit=0.25) for _ in range(2)]
    for k in range(25):
        for state in states:
            state.track_speed_left = state.track_speed_right = speed
            state.x += speed * math.cos(heading) * dt * 0.2
            state.y += speed * math.sin(heading) * dt * 0.2
            state.sampling = k % 3 == 0
        if not a.in_cells(states[0].x, states[0].y):
            break
        got = blade_level_step(states[0], spec, target, a, SOIL, pids[0], dt)
        want = _ref_blade_level_step(states[1], spec, target, b, SOIL,
                                     pids[1], dt, relax_results=want_relax)
        assert {type(v) for v in got} == {float}
        assert _canon(got) == _canon(want)
        assert _state_of(states[0]) == _state_of(states[1])
        assert _terrain_of(a) == _terrain_of(b)
    assert got_relax == want_relax


# -- drive ---------------------------------------------------------------------

def _routes(rng, x, y):
    """Routes from (x, y): empty, one point, a few points ending with or
    without a heading, and one that runs off the grid."""
    def near():
        return (x + float(rng.uniform(-3, 3)), y + float(rng.uniform(-3, 3)))

    routes = [[], [near()]]
    for _ in range(3):
        route = [near() for _ in range(int(rng.integers(1, 4)))]
        heading = float(rng.choice([rng.uniform(-4, 4), math.pi, -math.pi]))
        route[-1] += (heading if rng.integers(0, 3) else None,)
        routes.append(route)
    routes.append([(x + 30.0, y + float(rng.uniform(-5, 5)))])
    return routes


@pytest.mark.parametrize("seed", range(6))
def test_step_locomotion_matches_reference(seed):
    rng = np.random.default_rng(400 + seed)
    h = _field(rng, 40, 40, 0.5, spread=float(rng.uniform(0, 0.6)))
    spec = default_spec("truck1", str(rng.choice(["dumptruck",
                                                  "excavator"])))
    if seed % 4 == 0:
        spec.torque_limits["left_track"] = float(rng.uniform(20, 200))
    x, y = (float(v) for v in rng.uniform(14, 18, 2))
    for route in _routes(rng, x, y):
        heading = float(rng.uniform(-3, 3))
        load = float(rng.choice([0.0, 0.5, 300.0]))
        blade = float(rng.choice([0.0, 2.0]))
        states = []
        for _ in range(2):
            state = MachineState(x=x, y=y, heading=heading,
                                 payload_kg=load, blade_load_kg=blade)
            settle_on_terrain(state, h)
            states.append(state)
        index = [0, 0]
        dt = float(rng.choice([0.05, 0.1, 0.0]))
        for k in range(600):
            for state in states:
                state.sampling = k % 10 == 9
            got = step_locomotion(states[0], spec, route, index[0], h, SOIL,
                                  dt)
            want = _ref_step_locomotion(states[1], spec, route, index[1], h,
                                        SOIL, dt)
            assert got == want
            index = [got[1], want[1]]
            assert _state_of(states[0]) == _state_of(states[1])
            if got[0] != RUNNING:
                break


# -- arm -----------------------------------------------------------------------

_RANGE_BOUND = st.one_of(st.floats(-4.0, 4.0), st.just(math.nan),
                         st.just(-0.0), st.just(0.0))


@given(st.tuples(st.floats(-8, 8), st.floats(-8, 8), st.floats(-3, 3)),
       st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-1, 1),
                 st.floats(-4, 4)),
       st.floats(-2.0, 1.0),
       st.lists(_RANGE_BOUND, min_size=8, max_size=8))
@example((1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 0.0, [-3.0, 3.0] * 4)
@example((3.0, 0.5, -0.5), (0.0, 0.0, 0.0, 3.0), -0.4,
         [-3.0, 3.0, -1.2, 1.5, -2.9, 0.0, -3.0, 3.0])
@example((0.05, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), -0.5,
         [math.nan, 1.0, -0.0, 0.0, 0.0, -0.0, -1.0, math.nan])
@settings(max_examples=200, deadline=None)
def test_calculate_ik_matches_reference(target, base, angle, bounds):
    """Also the clamp: each joint range may be empty, inverted, signed
    zero or NaN, where only the exact conditional pair agrees with
    min(max(v, lo), hi)."""
    geom = ArmGeometry()
    for k, name in enumerate(("swing", "boom", "stick", "bucket")):
        geom.joint_ranges[name] = (bounds[2 * k], bounds[2 * k + 1])
    got = calculate_ik(geom, base, target, angle)
    want = _ref_calculate_ik(geom, base, target, angle)
    assert _canon(got) == _canon(want)


def _dig_pair(rng):
    h = _field(rng, 48, 48, 0.5, spread=0.05)
    spec = default_spec("excavator1", "excavator")
    heading = float(rng.uniform(-math.pi, math.pi))
    x, y = 10.0 + rng.uniform(-1, 1), 10.0 + rng.uniform(-1, 1)
    reach = float(rng.uniform(2.0, 3.2))
    ca, sa = math.cos(heading), math.sin(heading)
    start = (x + reach * ca, y + reach * sa)
    run = float(rng.uniform(0.4, 1.2))
    depth = float(rng.uniform(0.05, 0.4))
    attack = float(rng.uniform(-0.2, 1.8))
    points = [(start[0], start[1], 2.0 - depth, attack),
              (start[0] - run * ca, start[1] - run * sa, 2.0 - depth, attack)]
    if rng.integers(0, 2):
        points.append((points[1][0] - 0.3 * ca, points[1][1] - 0.3 * sa,
                       2.0 - depth / 2, attack))
    if rng.integers(0, 4) == 0:      # out of reach: the IK fails mid cut
        points.append((x + 9.0 * ca, y + 9.0 * sa, 2.0 - depth, attack))
    traj = SweptCut(points=points, width=0.6,
                    max_depth=float(rng.choice([math.inf, 0.3])))
    states = []
    for _ in range(2):
        state = MachineState(x=float(x), y=float(y), heading=heading)
        settle_on_terrain(state, h)
        states.append(state)
    return h, h.copy(), spec, traj, states


@pytest.mark.parametrize("seed", range(6))
def test_dig_execution_matches_reference(seed):
    rng = np.random.default_rng(500 + seed)
    a, b, spec, traj, states = _dig_pair(rng)
    new, ref = DigExecution(spec, traj), _RefDigExecution(spec, traj)
    for k in range(6000):
        for state in states:
            state.sampling = k % 10 == 9
        got = new.step(states[0], a, SOIL, 0.01)
        want = ref.step(states[1], b, SOIL, 0.01)
        assert _canon(got) == _canon((*want, 0.0, 0.0, 0.0))
        assert _state_of(states[0]) == _state_of(states[1])
        assert _terrain_of(a) == _terrain_of(b)
        assert (new.phase, repr(new.s), repr(new.removed_total)) \
            == (ref.phase, repr(ref.s), repr(ref.removed_total))
        if got[0] != SKILL_RUNNING:
            break
    assert got[0] in (SUCCEEDED, FAILED)


# -- seeded generation, the cell-error mean and signed zeros -------------------

def _ref_generate_heightfield(nx, ny, cell_size, origin=(0.0, 0.0),
                              amplitude=0.05, wavelength=8.0, seed=0,
                              base_height=1.0, ridge=None):
    rng = np.random.default_rng(seed)
    xs = (np.arange(nx) + 0.5) * cell_size + origin[0]
    ys = (np.arange(ny) + 0.5) * cell_size + origin[1]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    elev = np.full((nx, ny), float(base_height))
    for _ in range(4):
        kx = rng.uniform(0.5, 1.5) * 2 * math.pi / wavelength
        ky = rng.uniform(0.5, 1.5) * 2 * math.pi / wavelength
        phase_x = rng.uniform(0, 2 * math.pi)
        phase_y = rng.uniform(0, 2 * math.pi)
        elev += (amplitude / 4.0) * np.cos(gx * kx + phase_x) \
            * np.cos(gy * ky + phase_y)
    if ridge:
        cx = float(ridge["x"])
        height = float(ridge["height"])
        half_width = float(ridge["half_width"])
        dist = np.abs(gx - cx)
        profile = np.where(dist < half_width,
                           0.5 * (1 + np.cos(math.pi * dist / half_width)),
                           0.0)
        elev += height * profile
    return elev


def test_seed_rng_draws_numpys_uniforms():
    for seed in [*range(300), 2**32 + 5, 10**15]:
        ours, theirs = SeedRng(seed), np.random.default_rng(seed)
        for low, high in [(0.5, 1.5), (0, 2 * math.pi), (-3.0, 1e-3)] * 3:
            got = ours.uniform(low, high)
            assert type(got) is float
            assert repr(got) == repr(float(theirs.uniform(low, high))), seed


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_bundled_terrain_matches_reference_generator(name):
    config = load_config(scenario_path(name))
    gen = dict(config.terrain["generate"], seed=config.seed)
    got = generate_heightfield(**gen)
    assert np.array(got.elevation).tobytes() \
        == _ref_generate_heightfield(**gen).tobytes()
    assert ("ridge" in gen) == name.startswith("scenario1")


@given(st.integers(2, 24), st.integers(2, 24),
       st.floats(0.05, 2.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
       st.floats(0.0, 2.0), st.floats(0.5, 30.0), st.integers(0, 2**64),
       st.floats(-10.0, 10.0),
       st.one_of(st.none(), st.fixed_dictionaries({
           "x": st.floats(-60.0, 60.0), "height": st.floats(-2.0, 2.0),
           "half_width": st.floats(0.1, 10.0)})))
@settings(max_examples=100, deadline=None)
def test_generate_heightfield_matches_reference(nx, ny, cs, ox, oy, amplitude,
                                                wavelength, seed, base,
                                                ridge):
    args = dict(nx=nx, ny=ny, cell_size=cs, origin=(ox, oy),
                amplitude=amplitude, wavelength=wavelength, seed=seed,
                base_height=base, ridge=ridge)
    got = generate_heightfield(**args)
    assert np.array(got.elevation).tobytes() \
        == _ref_generate_heightfield(**args).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_cell_error_matches_numpy_mean(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(4, 40))
    terrain = _field(rng, n, n, 0.5, spread=float(rng.uniform(0.0, 2.0)))
    target = _field(rng, n, n, 0.5, spread=0.1)
    cells = []
    for _ in range(8):
        i0, i1 = sorted(rng.choice(np.arange(n + 1), 2, replace=False))
        j0, j1 = sorted(rng.choice(np.arange(n + 1), 2, replace=False))
        cells.append((int(i0), int(j0), int(i1), int(j1)))
    wm = WorldModel(terrain, target, cells, {}, 0.05)
    cur, tgt = np.array(terrain.elevation), np.array(target.elevation)
    for index, (i0, j0, i1, j1) in enumerate(cells):
        errors = abs(cur[i0:i1, j0:j1] - tgt[i0:i1, j0:j1])
        want = math.fsum(errors.ravel().tolist()) / errors.size
        assert repr(wm.cell_error(index)) == repr(want)


def _signed_zero_field(rng, nx, ny, cs):
    """Heights on a few levels, half the cells +0.0 or -0.0: pairs within
    the limit next to zero cells give numpy's +-0.0 transfers, which may
    flip a -0.0 cell to +0.0."""
    e = rng.choice([-1.5, -0.4, 0.3, 0.9, 2.5], (nx, ny)) * cs
    zeros = rng.random((nx, ny)) < 0.5
    e[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    h = Heightfield(nx, ny, cs, elevation=e)
    assert np.array(h.elevation).tobytes() == e.tobytes()
    return h


@pytest.mark.parametrize("seed", range(30))
def test_relaxation_keeps_numpys_signed_zeros(seed):
    """Heights equal numpy's bit for bit, except the -0.0 cells that
    numpy's `+= 0.0` turns into +0.0, which the kernel leaves -0.0."""
    rng = np.random.default_rng(700 + seed)
    nx, ny = (int(v) for v in rng.integers(2, 14, size=2))
    cs = float(rng.choice([0.25, 0.5, 1.0]))
    a = _signed_zero_field(rng, nx, ny, cs)
    b = a.copy()
    i0, i1 = sorted(rng.choice(np.arange(nx + 1), 2, replace=False))
    j0, j1 = sorted(rng.choice(np.arange(ny + 1), 2, replace=False))
    for region in ((int(i0), int(j0), int(i1), int(j1)), None):
        got = avalanche_relax(a, SOIL, region=region)
        want = _ref_avalanche_relax(b, SOIL, region=region)
        assert got == want
        for row, ref_row in zip(a.elevation, b.elevation):
            for v, ref in zip(row, ref_row):
                assert repr(v) == repr(ref) \
                    or (repr(v), repr(ref)) == ("-0.0", "0.0")
        assert sorted(a.dirty) == sorted(b.dirty)


@pytest.mark.parametrize("seed", range(10))
def test_max_region_slope_matches_numpy(seed):
    rng = np.random.default_rng(800 + seed)
    nx, ny = (int(v) for v in rng.integers(1, 12, size=2))
    nx, ny = max(nx, 2), max(ny, 2)
    h = _field(rng, nx, ny, 0.5, spread=2.0)
    e = np.array(h.elevation)
    for i0, j0, i1, j1 in ((0, 0, nx, ny), (0, 0, 1, ny), (0, 0, nx, 1),
                           (1, 1, nx, ny)):
        block = e[i0:i1, j0:j1]
        want = 0.0
        for axis in (0, 1):
            if block.shape[axis] >= 2:
                d = np.abs(np.diff(block, axis=axis))
                want = max(want, float(d.max()) / h.cell_size)
        assert repr(max_region_slope(h, (i0, j0, i1, j1))) == repr(want)
