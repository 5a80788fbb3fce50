"""Crawler locomotion: kinematic differential drive on the heightfield with
quasi-static track torque bookkeeping, plus the sub-crawler stance policy."""

from __future__ import annotations

import math

from ..terrain import Heightfield, SoilParams
from .kinematics import wrap_angle
from .specs import MachineSpec, MachineState

#: Waypoint considered reached inside this radius (m).
GOAL_TOL = 0.30
#: Final-heading alignment tolerance (rad).
HEADING_TOL = 0.10
#: Heading error above which the machine turns in place instead of driving.
TURN_IN_PLACE_ERR = 0.60
#: Proportional gain from heading error to commanded yaw rate.
HEADING_GAIN = 2.0
#: Yaw rate above which the stance counts as turning.
TURNING_RATE = 0.05
#: Sub-crawler stow angle while turning (rad, raised).
SUBCRAWLER_STOW = 0.60
#: Sub-crawler actuation rate limit (rad/s).
SUBCRAWLER_RATE = 0.50
#: Slope (rad) at which commanded speed has been scaled all the way down.
SPEED_SLOPE_SCALE = 0.70
MIN_SPEED_FACTOR = 0.20

IDLE = "idle"
RUNNING = "running"
ARRIVED = "arrived"


def track_torques(spec: MachineSpec, total_mass: float, pitch: float,
                  turn_rate: float, gravity: float,
                  crawlers_down: bool) -> tuple[float, float]:
    """Quasi-static sprocket torques (left, right) to sustain motion.

    Longitudinal force = rolling resistance + grade resistance m*g*sin(pitch)
    (signed: assists downhill); yaw drag adds a differential component so
    that total track power equals drive power + turning dissipation.
    """
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


def sub_crawler_policy(state: MachineState, turning: bool,
                       dt: float) -> tuple[float, float]:
    """Target stance angles: stowed while turning, terrain-following pitch
    on straights.  Updates the state's angles with a rate limit and returns
    the targets."""
    target = SUBCRAWLER_STOW if turning else state.pitch
    step = SUBCRAWLER_RATE * dt
    # min(max(target - current, -step), step), written out: exactly what
    # the builtins return, NaN and signed zeros included
    current = state.sub_crawler_front
    delta = target - current
    delta = -step if -step > delta else delta
    state.sub_crawler_front = current + (step if step < delta else delta)
    current = state.sub_crawler_rear
    delta = target - current
    delta = -step if -step > delta else delta
    state.sub_crawler_rear = current + (step if step < delta else delta)
    return target, target


def settle_on_terrain(state: MachineState, h: Heightfield) -> None:
    """Kinematic ground contact: z and chassis pitch follow the terrain
    under the track centroid."""
    state.z, gx, gy = h.surface_at(state.x, state.y)
    heading = state.heading
    state.pitch = math.atan(gx * math.cos(heading) + gy * math.sin(heading))


def step_locomotion(state: MachineState, spec: MachineSpec, waypoints,
                    index: int, h: Heightfield, soil: SoilParams,
                    dt: float, goal_tol: float = GOAL_TOL) -> tuple[str, int]:
    """Advance the machine toward its route for one timestep.

    Waypoints are (x, y) or (x, y, heading); a heading on the final
    waypoint is aligned to before arrival is reported.  Returns
    (status, next waypoint index); status is IDLE for an empty route,
    ARRIVED at the end, RUNNING otherwise.  Track torque/velocity samples
    are refreshed on the state when it is sampling.  A move that would
    leave the grid's cells stops the machine where it is.
    """
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
                    abs(wrap_angle(final_heading - heading)) <= HEADING_TOL:
                state.track_speed_left = state.track_speed_right = 0.0
                state.turn_rate = 0.0
                if state.sampling:
                    _record_track_samples(state, spec, 0.0, 0.0, 0.0, 0.0)
                return ARRIVED, index
            dx = dy = None  # rotate in place toward final_heading
            err = wrap_angle(final_heading - heading)
            break
        index += 1
    else:  # pragma: no cover - loop always breaks or returns
        return ARRIVED, index

    # The clamps below are min/max written out as conditionals: `b if b > a
    # else a` is exactly max(a, b), `b if b < a else a` exactly min(a, b).
    if dx is None:
        speed_cmd = 0.0
    else:
        err = wrap_angle(math.atan2(dy, dx) - heading)
        loaded = state.payload_kg > 1.0 or state.blade_load_kg > 1.0
        target = spec.target_speed(loaded)
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
    tau_l, tau_r = track_torques(spec, total_mass, state.pitch, turn_rate,
                                 soil.gravity, crawlers_down)
    # respect torque limits by slowing down rather than stalling
    limits = spec.torque_limits
    limit_l, limit_r = limits["left_track"], limits["right_track"]
    limit = limit_r if limit_r < limit_l else limit_l
    worst_l, worst_r = abs(tau_l), abs(tau_r)
    worst = worst_r if worst_r > worst_l else worst_l
    if worst > limit:
        speed_cmd *= limit / worst

    new_x = x + speed_cmd * math.cos(heading) * dt
    new_y = y + speed_cmd * math.sin(heading) * dt
    if h.in_cells(new_x, new_y):
        state.x, state.y = new_x, new_y
    else:
        speed_cmd = 0.0
    state.heading = wrap_angle(heading + turn_rate * dt)
    state.turn_rate = turn_rate
    half_w = spec.track_width / 2.0
    left = state.track_speed_left = speed_cmd - turn_rate * half_w
    right = state.track_speed_right = speed_cmd + turn_rate * half_w
    settle_on_terrain(state, h)
    sub_crawler_policy(state, abs(turn_rate) > TURNING_RATE, dt)
    if state.sampling:
        radius = spec.wheel_radius
        _record_track_samples(state, spec, tau_l, tau_r,
                              left / radius, right / radius)
    return RUNNING, index


def _record_track_samples(state, spec, tau_l, tau_r, omega_l, omega_r):
    state.set_sample("left_track", tau_l, omega_l,
                     spec.torque_limits["left_track"])
    state.set_sample("right_track", tau_r, omega_r,
                     spec.torque_limits["right_track"])
