"""Telemetry: samples.csv streamed as rows arrive, each dig cycle's
positive work summed as the run goes, cycle segmentation, summaries and CSV
export.

The cycles are held to the batch segmentation that sorted every row of a
run at its end and summed each span with numpy (`reference_*` below), and
the work sums to a plain loop over the rows."""

import math
import random
import struct
import tracemalloc
from bisect import bisect_right
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regolith.bus import Bus, split_topic, topic_for
from regolith.config import load_config
from regolith.machines import ACTUATORS
from regolith.planner import SITE_ID
from regolith.runner import _finalize
from regolith.scenarios import scenario_path
from regolith.simulator import TELEMETRY_EVERY, MassLedger, Simulator
from regolith.telemetry import (
    CYCLE_CSV_HEADER,
    SAMPLE_CSV_CHUNK,
    SAMPLE_CSV_HEADER,
    TASK_BUCKETS,
    SampleLog,
    SkillEvent,
    TelemetryCollector,
    WorkCycleRecord,
    cycles_csv_text,
    segment_cycles,
    summarize,
    write_samples_csv,
)

MACHINES = ["m1", "m2", "m3"]


class Row(NamedTuple):
    """One actuator reading: a single joint of a machine at one instant."""
    sim_time: float
    machine: str
    joint: str
    torque: float
    omega: float
    payload_kg: float
    skill_state: str


def sample(t, joint="boom", torque=0.0, omega=0.0, machine="m1",
           payload=0.0, state="Idle"):
    return Row(t, machine, joint, torque, omega, payload, state)


def event(t, action, state, aid, machine="m1", **payload):
    return SkillEvent(t, machine, action, state, aid, payload)


def collect(samples, events, dt, drains=(True,)):
    """A collector fed as a run feeds it, time by time: the rows read at t
    are logged, the collector drains at t (or not, by turns through
    drains), then the events stamped t are published.  Rows read at one
    time keep their order."""
    bus = Bus(machine_ids=MACHINES)
    collector = TelemetryCollector(bus, dt)
    rows_at, events_at = {}, {}
    for s in samples:
        rows_at.setdefault(s.sim_time, []).append(s)
    for e in events:
        events_at.setdefault(e.sim_time, []).append(e)
    for k, t in enumerate(sorted(rows_at.keys() | events_at.keys())):
        for s in rows_at.get(t, ()):
            collector.samples.extend(t, s.machine, (s.joint,), [s.torque],
                                     [s.omega], s.payload_kg, s.skill_state)
        if drains[k % len(drains)]:
            collector.drain(t)
        for e in events_at.get(t, ()):
            bus.publish(topic_for(e.machine, "skill", e.action),
                        {"kind": "status", "id": e.activation_id,
                         "state": e.state, **e.payload},
                        sim_time=t, publisher=e.machine)
    collector.drain(math.inf)
    return collector


def online_cycles(samples, events, machine, dt, fleet=False):
    return segment_cycles(collect(samples, events, dt), machine, fleet)


def cycle_work(samples, dt):
    """Per-joint work of one dig cycle holding every row."""
    end = max(s.sim_time for s in samples) + 1.0
    events = [event(0.0, "dig", "Running", 1),
              event(end, "dig", "Running", 2)]
    [record] = online_cycles(samples, events, "m1", dt)
    return record.actuator_work_J


def loop_work(samples, dt):
    """Reference for the work sums: one row at a time."""
    work = {}
    for s in samples:
        power = s.torque * s.omega
        if power > 0.0:
            work[s.joint] = work.get(s.joint, 0.0) + power * dt
        else:
            work.setdefault(s.joint, 0.0)
    return work


def exact(work):
    return [(joint, repr(value)) for joint, value in work.items()]


# -- the batch segmentation, kept as the reference ----------------------------

def reference_work(rows, dt):
    """W += max(tau*omega, 0)*dt per joint, summed by np.bincount, keyed in
    order of each joint's first row."""
    codes = {}
    joints = np.array([codes.setdefault(s.joint, len(codes)) for s in rows],
                      dtype=np.intp)
    with np.errstate(all="ignore"):
        power = np.array([s.torque for s in rows], dtype=float) \
            * np.array([s.omega for s in rows], dtype=float)
        energy = np.where(power > 0.0, power * dt, 0.0)
    totals = np.bincount(joints, weights=energy, minlength=len(codes))
    return {joint: float(totals[c]) for joint, c in codes.items()}


def reference_span_work(samples, machines, bounds, dt):
    """Work of the machines' rows in each span [bounds[k], bounds[k + 1]),
    the rows taken in time order (ties in arrival order)."""
    rows = [s for s in samples if s.machine in machines]
    times = np.array([s.sim_time for s in rows], dtype=float)
    order = np.argsort(times, kind="stable")
    cuts = np.searchsorted(times, bounds, "left", sorter=order).tolist()
    rows = [rows[i] for i in order.tolist()]
    return [reference_work(rows[lo:hi], dt)
            for lo, hi in zip(cuts[:-1], cuts[1:])]


def reference_excavation_work(samples, machine, bounds, dt):
    """Positive work of the machine's rows in the dig skill in each span
    [bounds[k], bounds[k + 1]): each row with positive power adds
    power * dt to its span, the rows taken in time order (ties in arrival
    order)."""
    work = [0.0] * (len(bounds) - 1)
    for s in sorted((s for s in samples
                     if s.machine == machine and s.skill_state == "dig"),
                    key=lambda s: s.sim_time):
        k = bisect_right(bounds, s.sim_time) - 1
        power = s.torque * s.omega
        if 0 <= k < len(work) and power > 0.0:
            work[k] += power * dt
    return work


def reference_intervals(events):
    intervals = []
    open_at = {}
    last_time = 0.0
    for ev in sorted(events, key=lambda e: (e.sim_time, e.activation_id)):
        last_time = max(last_time, ev.sim_time)
        key = (ev.machine, ev.action, ev.activation_id)
        if ev.state == "Running":
            open_at.setdefault(key, ev.sim_time)
        elif key in open_at:
            intervals.append((open_at.pop(key), ev.sim_time, ev.action))
    for (machine, action, _), start in open_at.items():
        if last_time > start:
            intervals.append((start, last_time, action))
    return intervals


def reference_dig_starts(events, machine):
    starts, seen = [], set()
    for ev in sorted((e for e in events if e.machine == machine),
                     key=lambda e: (e.sim_time, e.activation_id)):
        if ev.action == "dig" and ev.state == "Running" \
                and ev.activation_id not in seen:
            seen.add(ev.activation_id)
            starts.append(ev.sim_time)
    return starts


def reference_segment_cycles(samples, events, machine, dt,
                             work_machines=None):
    dig_starts = reference_dig_starts(events, machine)
    if len(dig_starts) < 2:
        return []
    works = set(work_machines) if work_machines else {machine}
    events = sorted((e for e in events if e.machine == machine),
                    key=lambda e: (e.sim_time, e.activation_id))
    span_work = reference_span_work(samples, works, dig_starts, dt)
    excavation = reference_excavation_work(samples, machine, dig_starts, dt)
    intervals = reference_intervals(events)
    records = []
    for k in range(len(dig_starts) - 1):
        lo, hi = dig_starts[k], dig_starts[k + 1]
        duration = hi - lo
        loaded = spilled = 0.0
        for ev in events:
            if not (lo <= ev.sim_time < hi) or ev.state != "Succeeded":
                continue
            if ev.action == "dig":
                loaded += float(ev.payload.get("loaded_kg", 0.0))
            spilled += float(ev.payload.get("spilled_kg", 0.0))
        breakdown = {"dig": 0.0, "drive": 0.0, "dump": 0.0}
        for start, end, action in intervals:
            bucket = TASK_BUCKETS.get(action)
            if bucket:
                breakdown[bucket] += max(0.0, min(end, hi) - max(start, lo))
        busy = sum(breakdown.values())
        records.append(WorkCycleRecord(
            cycle=k, machine=machine, loaded_kg=loaded, spilled_kg=spilled,
            duration_s=duration, work_J=sum(span_work[k].values()),
            dig_s=breakdown["dig"], drive_s=breakdown["drive"],
            dump_s=breakdown["dump"], wait_s=max(0.0, duration - busy),
            actuator_work_J=span_work[k], excavation_work_J=excavation[k]))
    return records


# -- work integration --------------------------------------------------------

def test_constant_power_five_seconds():
    dt = 0.01
    samples = [sample(k * dt, torque=10.0, omega=2.0) for k in range(500)]
    assert cycle_work(samples, dt)["boom"] == pytest.approx(100.0)


def test_braking_contributes_nothing():
    dt = 0.01
    samples = [sample(k * dt, torque=10.0, omega=-2.0) for k in range(500)]
    assert cycle_work(samples, dt)["boom"] == 0.0


def test_zero_velocity_hold_contributes_nothing():
    assert cycle_work([sample(0.0, torque=500.0, omega=0.0)],
                      0.01)["boom"] == 0.0


@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-10, 10)),
                min_size=1, max_size=50))
def test_integrated_work_nonnegative(pairs):
    samples = [sample(k * 0.01, torque=tq, omega=om)
               for k, (tq, om) in enumerate(pairs)]
    for value in cycle_work(samples, 0.01).values():
        assert value >= 0.0


@given(st.lists(st.tuples(st.sampled_from(["boom", "stick", "swing"]),
                          st.floats(), st.floats()), min_size=1,
                max_size=60))
def test_integrate_work_matches_row_loop(rows):
    samples = [sample(k * 0.1, joint=joint, torque=tq, omega=om)
               for k, (joint, tq, om) in enumerate(rows)]
    assert exact(cycle_work(samples, 0.1)) == exact(loop_work(samples, 0.1))


# -- cycle segmentation ------------------------------------------------------

def synthetic_stream():
    """Two complete cycles with known structure, plus a trailing dig."""
    events = []
    aid = 0
    t = 0.0
    for cycle in range(2):
        aid += 1
        events.append(event(t, "dig", "Running", aid))
        events.append(event(t + 4.0, "dig", "Succeeded", aid,
                            loaded_kg=60.0 + 10 * cycle))
        aid += 1
        events.append(event(t + 4.0, "drive", "Running", aid))
        events.append(event(t + 7.0, "drive", "Succeeded", aid))
        aid += 1
        events.append(event(t + 9.0, "dump", "Running", aid))   # 2 s wait
        events.append(event(t + 11.0, "dump", "Succeeded", aid,
                            spilled_kg=2.5))
        t += 12.0
    aid += 1
    events.append(event(t, "dig", "Running", aid))
    return events


def test_segment_cycles_known_breakdown():
    records = online_cycles([], synthetic_stream(), "m1", 0.01)
    assert len(records) == 2
    for k, r in enumerate(records):
        assert r.duration_s == pytest.approx(12.0)
        assert r.loaded_kg == pytest.approx(60.0 + 10 * k)
        assert r.spilled_kg == pytest.approx(2.5)
        assert r.dig_s == pytest.approx(4.0)
        assert r.drive_s == pytest.approx(3.0)
        assert r.dump_s == pytest.approx(2.0)
        assert r.wait_s == pytest.approx(3.0)
        assert r.dig_s + r.drive_s + r.dump_s + r.wait_s == \
            pytest.approx(r.duration_s)


def test_segment_cycles_integrates_span_work():
    dt = 0.1
    samples = [sample(k * dt, torque=5.0, omega=2.0) for k in range(240)]
    records = online_cycles(samples, synthetic_stream(), "m1", dt)
    for r in records:
        assert r.work_J == pytest.approx(10.0 * 12.0, rel=1e-6)


def test_no_dig_events_empty():
    assert online_cycles([], [event(0.0, "drive", "Running", 1)],
                         "m1", 0.01) == []


def test_single_unterminated_cycle_dropped():
    events = [event(0.0, "dig", "Running", 1),
              event(4.0, "dig", "Succeeded", 1, loaded_kg=50.0)]
    assert online_cycles([], events, "m1", 0.01) == []


def test_other_machines_ignored():
    events = synthetic_stream() + [event(1.0, "dig", "Running", 99,
                                         machine="m2")]
    records = online_cycles([], events, "m1", 0.01)
    assert len(records) == 2 and all(r.machine == "m1" for r in records)


def test_sample_at_dig_start_belongs_to_later_cycle():
    # dig starts at 0, 12 and 24: spans are lo <= t < hi, although the
    # row read at 12 is logged before the dig start stamped 12 is drained
    samples = [sample(0.0, torque=1.0, omega=1.0),
               sample(11.9, torque=2.0, omega=1.0),
               sample(12.0, torque=4.0, omega=1.0),
               sample(24.0, torque=8.0, omega=1.0)]
    records = online_cycles(samples, synthetic_stream(), "m1", 1.0)
    assert [r.work_J for r in records] == [3.0, 4.0]


def test_excavation_work_sums_the_machines_own_dig_rows():
    # dig starts at 0, 12 and 24: only m1's rows in the dig skill with
    # positive power count
    samples = [sample(1.0, torque=2.0, omega=1.0, state="dig"),
               sample(2.0, torque=4.0, omega=1.0, state="drive"),
               sample(3.0, torque=8.0, omega=1.0, state="dig", machine="m2"),
               sample(4.0, torque=-1.0, omega=1.0, state="dig"),
               sample(13.0, torque=16.0, omega=1.0, state="dig")]
    records = online_cycles(samples, synthetic_stream(), "m1", 1.0)
    assert [r.excavation_work_J for r in records] == [2.0, 16.0]
    assert [r.work_J for r in records] == [6.0, 16.0]


def test_segment_cycles_independent_of_sample_order():
    # the batch segmentation sorted the rows, so it took them in any order
    dt = 0.1
    samples = [sample(k * dt, joint=("boom", "arm")[k % 2],
                      torque=float(k % 7), omega=1.0 + k % 3)
               for k in range(250)]
    shuffled = list(samples)
    random.Random(5).shuffle(shuffled)
    expected = reference_segment_cycles(shuffled, synthetic_stream(), "m1",
                                        dt)
    got = online_cycles(samples, synthetic_stream(), "m1", dt)
    assert len(expected) == 2
    assert got == expected


def test_segment_cycles_span_work_matches_row_loop():
    rng = random.Random(11)
    samples = [sample(round(rng.uniform(0.0, 26.0), 1),
                      joint=rng.choice(["boom", "stick", "track_left"]),
                      torque=rng.uniform(-500.0, 500.0),
                      omega=rng.uniform(-2.0, 2.0),
                      machine=rng.choice(MACHINES))
               for _ in range(3000)]
    collector = collect(samples, synthetic_stream(), 0.1)
    ordered = sorted(samples, key=lambda s: s.sim_time)
    for fleet, machines in ((False, {"m1"}), (True, set(MACHINES))):
        records = segment_cycles(collector, "m1", fleet)
        assert len(records) == 2
        for r, (lo, hi) in zip(records, [(0.0, 12.0), (12.0, 24.0)]):
            span = [s for s in ordered
                    if lo <= s.sim_time < hi and s.machine in machines]
            assert exact(r.actuator_work_J) == exact(loop_work(span, 0.1))


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf,
                                     -math.inf, 5e-324, 1e300, -1e300]),
                    st.floats(-1e4, 1e4))


@st.composite
def logged_runs(draw):
    """(rows, events, drains) of two machines on a 0.5 s step grid: skill
    activations with heartbeats, Failed with no Running before it, a
    last activation left open, and rows at every step, so at each dig
    start, with NaN, ±0.0 and ±inf among their torques and speeds, and
    some of them logged in the dig skill."""
    steps = draw(st.integers(1, 24))
    events = []
    aid = 0
    for machine in ("m1", "m2"):
        step = draw(st.integers(0, 3))
        while step < steps:
            aid += 1
            action = draw(st.sampled_from(sorted(TASK_BUCKETS)))
            if draw(st.integers(0, 7)) == 0:        # rejected at once
                events.append(event(step * 0.5, action, "Failed", aid,
                                    machine))
                step += draw(st.integers(1, 2))
                continue
            events.append(event(step * 0.5, action, "Running", aid, machine))
            length = draw(st.integers(0, 6))
            for beat in range(step + 1, min(step + length, steps)):
                if draw(st.booleans()):
                    events.append(event(beat * 0.5, action, "Running", aid,
                                        machine))
            step += length
            if step >= steps:
                break
            kg = draw(st.floats(0.0, 100.0))
            events.append(event(step * 0.5, action,
                                draw(st.sampled_from(["Succeeded", "Failed"])),
                                aid, machine, loaded_kg=kg,
                                spilled_kg=kg / 8))
            step += draw(st.integers(0 if length else 1, 2))
    events.sort(key=lambda e: e.sim_time)       # each machine's in order
    rows = []
    for k in range(steps + 1):
        for machine in ("m1", "m2"):
            for joint in draw(st.lists(st.sampled_from(["boom", "stick",
                                                        "swing"]),
                                       max_size=3)):
                rows.append(sample(k * 0.5, joint=joint,
                                   torque=draw(_VALUES), omega=draw(_VALUES),
                                   machine=machine,
                                   state=draw(st.sampled_from(["dig",
                                                               "Idle"]))))
    drains = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    return rows, events, drains


@settings(max_examples=30, deadline=None)
@given(logged_runs())
def test_online_cycles_match_the_batch_segmentation(run):
    rows, events, drains = run
    collector = collect(rows, events, 0.1, drains)
    for machine in ("m1", "m2"):
        assert repr(segment_cycles(collector, machine)) == \
            repr(reference_segment_cycles(rows, events, machine, 0.1))
        assert repr(segment_cycles(collector, machine, fleet=True)) == \
            repr(reference_segment_cycles(rows, events, machine, 0.1,
                                          work_machines=["m1", "m2"]))


def test_fleet_view_is_the_first_digger_in_machine_order():
    # m2 starts digging first, but m1 comes first in machine order
    events = [event(0.0, "dig", "Running", 1, "m2"),
              event(2.0, "dig", "Running", 2, "m1"),
              event(4.0, "dig", "Running", 3, "m2"),
              event(6.0, "dig", "Running", 4, "m1")]
    rows = [sample(k * 0.5, torque=1.0 + k, omega=1.0,
                   machine=("m1", "m2")[k % 2]) for k in range(16)]
    sim = SimpleNamespace(machine_order=["m1", "m2"], sim_time=8.0,
                          ledger=MassLedger(),
                          mass_closure_error=lambda: 0.0)
    report = _finalize(SimpleNamespace(config_hash=""), sim,
                       collect(rows, events, 0.1), complete=True,
                       deadlocked=False, error=None, mean_tick=0.0,
                       cell_switches=[], bus_errors=0, bus_dropped=0)
    assert [r.machine for r in report.fleet_cycles] == ["m1"]
    assert repr(report.fleet_cycles) == repr(reference_segment_cycles(
        rows, events, "m1", 0.1, work_machines=["m1", "m2"]))


def test_cancelled_drive_counts_only_until_the_cancel():
    config = load_config(scenario_path("scenario1_flat"))
    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    collector = TelemetryCollector(bus, config.timestep * TELEMETRY_EVERY)
    sim = Simulator(config, bus, collector.samples)
    machine = "excavator1"
    state = sim.machines[machine][1]

    def dig(aid, state):                # as the simulator reports a dig
        bus.publish(topic_for(machine, "skill", "dig"),
                    {"kind": "status", "id": aid, "state": state},
                    sim_time=sim.sim_time, publisher=machine)

    def drive(**payload):
        bus.publish(topic_for(machine, "target", "drive"),
                    {"kind": "command", "action": "drive", "id": 2,
                     **payload}, sim.sim_time)

    def run_until(t):
        while sim.sim_time < t - 1e-9:
            sim.step()
            collector.drain(sim.sim_time)

    dig(1, "Running")
    dig(1, "Succeeded")
    drive(params={"waypoints": [[state.x, state.y + 10.0]]})
    run_until(1.0)
    drive(cancel=True)
    run_until(3.0)
    dig(3, "Running")
    run_until(3.5)
    [cycle] = collector.cycles(machine)
    assert cycle.duration_s == pytest.approx(3.0)
    assert cycle.dig_s == 0.0
    assert cycle.drive_s == pytest.approx(1.0)
    assert cycle.wait_s == pytest.approx(2.0)
    assert [(e.state, e.payload.get("error")) for e in collector.events
            if e.action == "drive"] == [("Running", None),
                                        ("Failed", "cancelled")]


def test_preempted_skill_reports_failed():
    config = load_config(scenario_path("scenario1_flat"))
    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    collector = TelemetryCollector(bus, config.timestep * TELEMETRY_EVERY)
    sim = Simulator(config, bus, collector.samples)
    state = sim.machines["excavator1"][1]
    for aid in (1, 2):
        bus.publish(topic_for("excavator1", "target", "drive"),
                    {"kind": "command", "action": "drive", "id": aid,
                     "params": {"waypoints": [[state.x, state.y + 10.0]]}},
                    sim.sim_time)
        sim.step()
    collector.drain(sim.sim_time)
    assert [(e.activation_id, e.state, e.payload.get("error"))
            for e in collector.events] == [(1, "Running", None),
                                           (1, "Failed", "preempted"),
                                           (2, "Running", None)]


# -- summaries ---------------------------------------------------------------

def rec(loaded, cycle=0, spill=1.0, dur=10.0, work=100.0):
    return WorkCycleRecord(cycle, "m1", loaded, spill, dur, work,
                           4.0, 3.0, 2.0, 1.0)


def test_summarize_mean_and_sample_std():
    summary = summarize([rec(60.0, 0), rec(70.0, 1), rec(80.0, 2)])
    mean, std = summary["loaded_kg"]
    assert mean == pytest.approx(70.0)
    assert std == pytest.approx(10.0)


def test_summarize_single_record_std_zero():
    summary = summarize([rec(42.0)])
    assert summary["loaded_kg"] == (42.0, 0.0)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


# -- CSV ---------------------------------------------------------------------

def test_cycle_csv_header_and_rows():
    text = cycles_csv_text([rec(60.0)])
    lines = text.splitlines()
    assert lines[0] == ("cycle,machine,loaded_kg,spilled_kg,duration_s,"
                        "work_J,dig_s,drive_s,dump_s,wait_s")
    assert lines[1].startswith("0,m1,60.0,1.0,10.0,100.0")
    assert CYCLE_CSV_HEADER == lines[0]


def write_rows(path, samples):
    """samples.csv of the rows as a log streams it, one extend per row."""
    log = SampleLog()
    log.open(path)
    for s in samples:
        log.extend(s.sim_time, s.machine, (s.joint,), [s.torque], [s.omega],
                   s.payload_kg, s.skill_state)
        assert log.pending_rows < SAMPLE_CSV_CHUNK      # buffered rows
    write_samples_csv(path, log)
    assert len(log) == len(samples)
    return path.read_text()


def test_sample_csv_header_and_rows(tmp_path):
    text = write_rows(tmp_path / "samples.csv",
                      [sample(1.5, torque=3.0, omega=0.5, payload=20.0,
                              state="Running")])
    lines = text.splitlines()
    assert lines[0] == ("sim_time,machine,joint,torque_Nm,omega_rad_s,"
                        "payload_kg,skill_state")
    assert lines[1] == "1.5,m1,boom,3.0,0.5,20.0,Running"
    assert SAMPLE_CSV_HEADER == lines[0]


def test_csv_text_deterministic():
    records = [rec(61.234567890123, k) for k in range(3)]
    assert cycles_csv_text(records) == cycles_csv_text(records)


# -- collector ---------------------------------------------------------------

def test_collector_builds_samples_and_events_from_bus():
    bus = Bus(machine_ids=["m1"])
    collector = TelemetryCollector(bus, 0.1)
    bus.publish(topic_for("m1", "telemetry", "state"),
                {"kind": "telemetry", "x": 1.0}, sim_time=0.5,
                publisher="sim")
    bus.publish(topic_for("m1", "skill", "dig"),
                {"kind": "status", "id": 4, "state": "Running"},
                sim_time=0.5, publisher="sim")
    collector.drain(0.6)
    assert len(collector.samples) == 0      # samples never cross the bus
    payload = {"kind": "status", "id": 4, "state": "Running"}
    assert collector.events == [SkillEvent(0.5, "m1", "dig", "Running", 4,
                                           payload)]


def test_simulator_logs_samples_off_the_bus(tmp_path):
    config = load_config(scenario_path("scenario1_flat"))
    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    telemetry = bus.subscribe_category("telemetry")
    path = tmp_path / "samples.csv"
    log = SampleLog()
    log.open(path)
    sim = Simulator(config, bus, log)
    for _ in range(2 * TELEMETRY_EVERY):
        sim.step()
    write_samples_csv(path, log)
    envelopes = telemetry.poll()
    assert envelopes
    assert {split_topic(e.topic)[2] for e in envelopes} <= {"state", "terrain"}
    steps = sorted({e.sim_time for e in envelopes})
    assert len(steps) == 2
    # one row per actuator per machine per telemetry step, in step order
    rows = [line.split(",")[:3] for line in path.read_text().splitlines()[1:]]
    assert [(float(t), m, joint) for t, m, joint in rows] == \
        [(t, m, joint) for t in steps for m in sim.machine_order
         for joint in ACTUATORS]
    assert len(log) == len(rows)


def test_collector_memory_does_not_grow_with_run_length():
    # the sample log kept 38 bytes of every row until the run ended
    bus = Bus(machine_ids=["m1"])
    collector = TelemetryCollector(bus, 0.1)
    joints = ("boom", "stick")
    topic = topic_for("m1", "skill", "dig")

    def steps(lo, hi):
        """Telemetry steps lo..hi-1: a dig starts at steps 0 and 10, and
        the second reports Running every 5 steps from then on."""
        for n in range(lo, hi):
            t = 0.1 * n
            collector.samples.extend(
                t, "m1", joints, [0.5 * n, 0.5 * n + 1.0],
                [0.25 * n, -0.25 * n], 0.1 * n, "dig")
            collector.drain(t)
            if n % 5 == 0:
                bus.publish(topic, {"kind": "status", "id": 1 + (n >= 10),
                                    "state": "Running"},
                            sim_time=t, publisher="m1")

    tracemalloc.start()
    try:
        steps(0, 2_000)
        short = tracemalloc.get_traced_memory()[0]
        steps(2_000, 20_000)
        long = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(collector.samples) == 20_000 * len(joints)
    assert collector.span_work[("m1", False)][-1]["boom"] > 0.0
    assert long - short < 4096


# -- streamed samples.csv ----------------------------------------------------

def test_sample_log_rows_round_trip(tmp_path):
    samples = [sample(0.5, joint="boom", torque=3.0, omega=-0.5,
                      payload=12.0, state="Running"),
               sample(0.5, joint="stick", machine="m2", state="Idle")]
    text = write_rows(tmp_path / "samples.csv", samples)
    assert [Row(float(t), m, j, float(tq), float(om), float(kg), s)
            for t, m, j, tq, om, kg, s in (
                line.split(",") for line in text.splitlines()[1:])] \
        == samples


def _reference_csv_text(samples):
    """samples.csv as the per-row f-string wrote it, one `repr` per float."""
    return SAMPLE_CSV_HEADER + "\n" + "".join(
        f"{float(s.sim_time)!r},{s.machine},{s.joint},{float(s.torque)!r},"
        f"{float(s.omega)!r},{float(s.payload_kg)!r},{s.skill_state}\n"
        for s in samples)


@pytest.mark.parametrize("case", ["empty", "three_chunks", "special"])
def test_write_samples_csv_equals_text(tmp_path, case):
    if case == "empty":
        samples = []
    elif case == "three_chunks":
        samples = [sample(k * 0.1, joint=("boom", "stick")[k % 2],
                          torque=k * 1.5, omega=-k / 7.0)
                   for k in range(2 * SAMPLE_CSV_CHUNK + 3)]
    else:
        samples = [sample(0.1, torque=-0.0, omega=5e-324, payload=1e300),
                   sample(0.2, torque=-3.5, omega=1e300, payload=-0.0)]
    text = write_rows(tmp_path / "samples.csv", samples)
    assert text == _reference_csv_text(samples)
    lines = text.splitlines()
    assert lines[0] == SAMPLE_CSV_HEADER
    assert len(lines) == len(samples) + 1
    if case == "special":
        assert lines[1:] == ["0.1,m1,boom,-0.0,5e-324,1e+300,Idle",
                             "0.2,m1,boom,-3.5,1e+300,-0.0,Idle"]


_QUIET_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, _QUIET_NAN, math.inf, -math.inf,
            5e-324, -5e-324, 1e-310, 2.5, -2.5, 0.1]


def test_sample_csv_memo_writes_what_the_row_format_wrote(tmp_path):
    # equal floats that print differently (0.0, -0.0) share chunks and
    # rows in both orders; every value repeats across chunk boundaries
    n = len(_SPECIAL)
    rng = random.Random(5)
    samples = [sample(_SPECIAL[k % n], joint=("boom", "stick")[k % 2],
                      torque=_SPECIAL[(3 * k + 1) % n],
                      omega=_SPECIAL[(5 * k + 2) % n],
                      payload=rng.choice(_SPECIAL),
                      machine=("m1", "m2")[k % 3 == 0])
               for k in range(2 * SAMPLE_CSV_CHUNK + 7)]
    assert write_rows(tmp_path / "samples.csv", samples) == \
        _reference_csv_text(samples)


def test_column_extend_builds_the_columns_the_rows_built(tmp_path):
    # one extend per telemetry step writes what one row at a time wrote,
    # across chunk boundaries that fall inside a step's rows
    rng = random.Random(9)
    tuples = [ACTUATORS, ("stick", "boom"), ("boom", "stick"), ("boom",),
              ("bed",), ()]
    path = tmp_path / "samples.csv"
    log = SampleLog()
    log.open(path)
    rows = []
    for k in range(600):
        joints = rng.choice(tuples)
        torques = [rng.choice(_SPECIAL + [rng.uniform(-1e4, 1e4)])
                   for _ in joints]
        omegas = [rng.choice(_SPECIAL) for _ in joints]
        machine = rng.choice(["m2", "m1"])
        state = rng.choice(["Idle", "dig", "drive"])
        log.extend(0.1 * k, machine, joints, torques, omegas, k * 0.5, state)
        rows += [sample(0.1 * k, joint, tq, om, machine, k * 0.5, state)
                 for joint, tq, om in zip(joints, torques, omegas)]
    write_samples_csv(path, log)
    assert len(log) == len(rows) > SAMPLE_CSV_CHUNK
    assert path.read_text() == _reference_csv_text(rows)
