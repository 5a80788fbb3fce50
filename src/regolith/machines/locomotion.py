"""Crawler locomotion: kinematic differential drive on the heightfield with
quasi-static track torque bookkeeping, plus the sub-crawler stance policy.

`step_locomotion` is the per-step kernel: the heading wrap, the track
torques and the stance policy are written out in it, in plain floats."""

from __future__ import annotations

import math

from ..terrain import Heightfield, SoilParams
from .kinematics import TWO_PI
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
    ARRIVED at the end, RUNNING otherwise.  A move that would leave the
    grid's cells stops the machine where it is.

    Track torques are quasi-static: the longitudinal force is rolling
    resistance plus grade resistance m*g*sin(pitch) (signed: it assists
    downhill), and the yaw drag, larger with the sub-crawlers down, adds a
    differential part, so total track power is drive power plus turning
    dissipation.  Commanded speed is scaled down to keep them within the
    track torque limits.  They and the track speeds are set as samples when
    the state is sampling.

    The sub-crawlers are stowed while turning and follow the chassis pitch
    on straights, at a limited rate.
    """
    if not waypoints:
        state.track_speed_left = state.track_speed_right = 0.0
        state.turn_rate = 0.0
        if state.sampling:
            _record_track_samples(state, spec, 0.0, 0.0, 0.0, 0.0)
        return IDLE, index
    if dt <= 0.0:
        return RUNNING, index

    # Angles wrap as `(a + pi) % TWO_PI - pi`.  The clamps below are min/max
    # written out as conditionals: `b if b > a else a` is exactly max(a, b),
    # `b if b < a else a` exactly min(a, b), NaN and signed zeros included.
    pi = math.pi
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
                    abs((final_heading - heading + pi) % TWO_PI - pi) \
                    <= HEADING_TOL:
                state.track_speed_left = state.track_speed_right = 0.0
                state.turn_rate = 0.0
                if state.sampling:
                    _record_track_samples(state, spec, 0.0, 0.0, 0.0, 0.0)
                return ARRIVED, index
            dx = dy = None  # rotate in place toward final_heading
            err = (final_heading - heading + pi) % TWO_PI - pi
            break
        index += 1
    else:  # pragma: no cover - loop always breaks or returns
        return ARRIVED, index

    pitch = state.pitch
    payload = state.payload_kg
    blade_load = state.blade_load_kg
    if dx is None:
        speed_cmd = 0.0
    else:
        err = (math.atan2(dy, dx) - heading + pi) % TWO_PI - pi
        target = spec.speed_loaded if payload > 1.0 or blade_load > 1.0 \
            else spec.speed_empty
        slope_factor = 1.0 - abs(pitch) / SPEED_SLOPE_SCALE
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

    total_mass = spec.mass + payload + blade_load
    front, rear = state.sub_crawler_front, state.sub_crawler_rear
    crawlers_down = (rear if rear > front else front) < SUBCRAWLER_STOW / 2.0
    f_long = total_mass * soil.gravity * (
        spec.rolling_resistance * math.cos(pitch) + math.sin(pitch))
    yaw_drag = (spec.turning_resistance_subcrawler if crawlers_down
                else spec.turning_resistance)
    t_turn = yaw_drag * turn_rate
    radius = spec.wheel_radius
    base = f_long * radius / 2.0
    diff = t_turn * radius / spec.track_width
    tau_l = base - diff
    tau_r = base + diff
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
    state.heading = (heading + turn_rate * dt + pi) % TWO_PI - pi
    state.turn_rate = turn_rate
    half_w = spec.track_width / 2.0
    left = state.track_speed_left = speed_cmd - turn_rate * half_w
    right = state.track_speed_right = speed_cmd + turn_rate * half_w
    settle_on_terrain(state, h)
    # stance targets: stowed while turning, the new pitch on straights
    stance = SUBCRAWLER_STOW if abs(turn_rate) > TURNING_RATE \
        else state.pitch
    step = SUBCRAWLER_RATE * dt
    current = state.sub_crawler_front
    delta = stance - current
    delta = -step if -step > delta else delta
    state.sub_crawler_front = current + (step if step < delta else delta)
    current = state.sub_crawler_rear
    delta = stance - current
    delta = -step if -step > delta else delta
    state.sub_crawler_rear = current + (step if step < delta else delta)
    if state.sampling:
        _record_track_samples(state, spec, tau_l, tau_r,
                              left / radius, right / radius)
    return RUNNING, index


def _record_track_samples(state, spec, tau_l, tau_r, omega_l, omega_r):
    state.set_sample("left_track", tau_l, omega_l,
                     spec.torque_limits["left_track"])
    state.set_sample("right_track", tau_r, omega_r,
                     spec.torque_limits["right_track"])
