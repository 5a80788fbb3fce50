import math
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from regolith.bus import Bus, split_topic, topic_for
from regolith.config import load_config
from regolith.machines import ACTUATORS
from regolith.planner import SITE_ID
from regolith.scenarios import scenario_path
from regolith.simulator import TELEMETRY_EVERY, Simulator
from regolith.telemetry import (
    CYCLE_CSV_HEADER,
    SAMPLE_CSV_CHUNK,
    SAMPLE_CSV_HEADER,
    SampleLog,
    SkillEvent,
    TelemetryCollector,
    TelemetrySample,
    WorkCycleRecord,
    cycles_csv_text,
    integrate_work,
    samples_csv_text,
    segment_cycles,
    summarize,
    write_samples_csv,
)


def sample(t, joint="boom", torque=0.0, omega=0.0, machine="m1",
           payload=0.0, state="Idle"):
    return TelemetrySample(t, machine, joint, torque, omega, payload, state)


def event(t, action, state, aid, machine="m1", **payload):
    return SkillEvent(t, machine, action, state, aid, payload)


# -- work integration --------------------------------------------------------

def test_constant_power_five_seconds():
    dt = 0.01
    samples = [sample(k * dt, torque=10.0, omega=2.0) for k in range(500)]
    assert integrate_work(samples, dt)["boom"] == pytest.approx(100.0)


def test_braking_contributes_nothing():
    dt = 0.01
    samples = [sample(k * dt, torque=10.0, omega=-2.0) for k in range(500)]
    assert integrate_work(samples, dt)["boom"] == 0.0


def test_zero_velocity_hold_contributes_nothing():
    assert integrate_work([sample(0.0, torque=500.0, omega=0.0)],
                          0.01)["boom"] == 0.0


@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-10, 10)),
                min_size=1, max_size=50))
def test_integrated_work_nonnegative(pairs):
    samples = [sample(k * 0.01, torque=tq, omega=om)
               for k, (tq, om) in enumerate(pairs)]
    for value in integrate_work(samples, 0.01).values():
        assert value >= 0.0


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
    records = segment_cycles([], synthetic_stream(), "m1", 0.01)
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
    records = segment_cycles(samples, synthetic_stream(), "m1", dt)
    for r in records:
        assert r.work_J == pytest.approx(10.0 * 12.0, rel=1e-6)


def test_no_dig_events_empty():
    assert segment_cycles([], [event(0.0, "drive", "Running", 1)],
                          "m1", 0.01) == []


def test_single_unterminated_cycle_dropped():
    events = [event(0.0, "dig", "Running", 1),
              event(4.0, "dig", "Succeeded", 1, loaded_kg=50.0)]
    assert segment_cycles([], events, "m1", 0.01) == []


def test_other_machines_ignored():
    events = synthetic_stream() + [event(1.0, "dig", "Running", 99,
                                         machine="m2")]
    records = segment_cycles([], events, "m1", 0.01)
    assert len(records) == 2 and all(r.machine == "m1" for r in records)


def test_sample_at_dig_start_belongs_to_later_cycle():
    # dig starts at 0, 12 and 24: spans are lo <= t < hi
    samples = [sample(0.0, torque=1.0, omega=1.0),
               sample(11.9, torque=2.0, omega=1.0),
               sample(12.0, torque=4.0, omega=1.0),
               sample(24.0, torque=8.0, omega=1.0)]
    records = segment_cycles(samples, synthetic_stream(), "m1", 1.0)
    assert [r.work_J for r in records] == [3.0, 4.0]


def test_segment_cycles_independent_of_sample_order():
    dt = 0.1
    samples = [sample(k * dt, joint=("boom", "arm")[k % 2],
                      torque=float(k % 7), omega=1.0 + k % 3)
               for k in range(250)]
    shuffled = list(samples)
    random.Random(5).shuffle(shuffled)
    expected = segment_cycles(samples, synthetic_stream(), "m1", dt)
    got = segment_cycles(shuffled, synthetic_stream(), "m1", dt)
    assert len(expected) == 2
    assert got == expected


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


def test_sample_csv_header_and_rows():
    text = samples_csv_text([sample(1.5, torque=3.0, omega=0.5,
                                    payload=20.0, state="Running")])
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
    collector = TelemetryCollector(bus)
    bus.publish(topic_for("m1", "telemetry", "state"),
                {"kind": "telemetry", "x": 1.0}, sim_time=0.5,
                publisher="sim")
    bus.publish(topic_for("m1", "skill", "dig"),
                {"kind": "status", "id": 4, "state": "Running"},
                sim_time=0.5, publisher="sim")
    collector.drain()
    assert len(collector.samples) == 0      # samples never cross the bus
    payload = {"kind": "status", "id": 4, "state": "Running"}
    assert collector.events == [SkillEvent(0.5, "m1", "dig", "Running", 4,
                                           payload)]


def test_simulator_logs_samples_off_the_bus():
    config = load_config(scenario_path("scenario1_flat"))
    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    telemetry = bus.subscribe_category("telemetry")
    log = SampleLog()
    sim = Simulator(config, bus, log)
    for _ in range(2 * TELEMETRY_EVERY):
        sim.step()
    envelopes = telemetry.poll(1000)
    assert envelopes
    assert {split_topic(e.topic)[2] for e in envelopes} <= {"state", "terrain"}
    steps = sorted({e.sim_time for e in envelopes})
    assert len(steps) == 2
    # one row per actuator per machine per telemetry step, in step order
    assert [(s.sim_time, s.machine, s.joint) for s in log] == \
        [(t, m, joint) for t in steps for m in sim.machine_order
         for joint in ACTUATORS]


# -- columnar sample log -----------------------------------------------------

def loop_work(samples, dt):
    """Reference for the vectorised integration: one row at a time."""
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


@given(st.lists(st.tuples(st.sampled_from(["boom", "stick", "swing"]),
                          st.floats(), st.floats()), max_size=60))
def test_integrate_work_matches_row_loop(rows):
    samples = [sample(k * 0.1, joint=joint, torque=tq, omega=om)
               for k, (joint, tq, om) in enumerate(rows)]
    assert exact(integrate_work(samples, 0.1)) == exact(loop_work(samples, 0.1))


def test_segment_cycles_span_work_matches_row_loop():
    rng = random.Random(11)
    samples = [sample(round(rng.uniform(0.0, 26.0), 1),
                      joint=rng.choice(["boom", "stick", "track_left"]),
                      torque=rng.uniform(-500.0, 500.0),
                      omega=rng.uniform(-2.0, 2.0),
                      machine=rng.choice(["m1", "m2", "m3"]))
               for _ in range(3000)]
    records = segment_cycles(samples, synthetic_stream(), "m1", 0.1,
                             work_machines=["m1", "m2"])
    ordered = sorted((s for s in samples if s.machine in ("m1", "m2")),
                     key=lambda s: s.sim_time)
    assert len(records) == 2
    for r, (lo, hi) in zip(records, [(0.0, 12.0), (12.0, 24.0)]):
        span = [s for s in ordered if lo <= s.sim_time < hi]
        assert exact(r.actuator_work_J) == exact(loop_work(span, 0.1))


def test_sample_log_rows_round_trip():
    samples = [sample(0.5, joint="boom", torque=3.0, omega=-0.5,
                      payload=12.0, state="Running"),
               sample(0.5, joint="stick", machine="m2", state="Idle")]
    log = SampleLog.of(samples)
    assert len(log) == 2
    assert [log[0], log[1], log[-1]] == samples + samples[-1:]
    assert SampleLog.of(log) is log


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
    path = tmp_path / "samples.csv"
    write_samples_csv(path, samples)
    text = samples_csv_text(samples)
    assert path.read_bytes() == text.encode()
    lines = text.splitlines()
    assert lines[0] == SAMPLE_CSV_HEADER
    assert len(lines) == len(samples) + 1
    if case == "special":
        assert lines[1:] == ["0.1,m1,boom,-0.0,5e-324,1e+300,Idle",
                             "0.2,m1,boom,-3.5,1e+300,-0.0,Idle"]


def _reference_csv_text(log):
    """samples.csv as the per-row f-string wrote it, one `repr` per float."""
    names = log.names
    return SAMPLE_CSV_HEADER + "\n" + "".join(
        f"{t!r},{names[m]},{names[j]},{tq!r},{om!r},{kg!r},{names[s]}\n"
        for t, m, j, tq, om, kg, s in zip(
            log.sim_time, log.machine, log.joint, log.torque, log.omega,
            log.payload_kg, log.skill_state))


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
    expected = _reference_csv_text(SampleLog.of(samples))
    assert samples_csv_text(samples) == expected
    path = tmp_path / "samples.csv"
    write_samples_csv(path, samples)
    assert path.read_text() == expected


def _extend_rows(log, sim_time, machine, rows, payload_kg, skill_state):
    """SampleLog.extend as it took (joint, torque, omega) row triples."""
    joints, torques, omegas = tuple(zip(*rows)) or ((), (), ())
    n = len(joints)
    code = log._code
    log.joint.fromlist(list(map(code, joints)))
    log.torque.fromlist(list(torques))
    log.omega.fromlist(list(omegas))
    log.sim_time.fromlist([sim_time] * n)
    log.payload_kg.fromlist([payload_kg] * n)
    log.machine.fromlist([code(machine)] * n)
    log.skill_state.fromlist([code(skill_state)] * n)


def _columns(log):
    return (log.names, [col.tobytes() for col in (
        log.sim_time, log.torque, log.omega, log.payload_kg, log.machine,
        log.joint, log.skill_state)])


def test_column_extend_builds_the_columns_the_rows_built():
    rng = random.Random(9)
    tuples = [ACTUATORS, ("stick", "boom"), ("boom", "stick"), ("boom",),
              ("bed",), ()]
    by_columns, by_rows = SampleLog(), SampleLog()
    for k in range(300):
        joints = rng.choice(tuples)
        torques = [rng.choice(_SPECIAL + [rng.uniform(-1e4, 1e4)])
                   for _ in joints]
        omegas = [rng.choice(_SPECIAL) for _ in joints]
        machine = rng.choice(["m2", "m1"])
        state = rng.choice(["Idle", "dig", "drive"])
        by_columns.extend(0.1 * k, machine, joints, torques, omegas,
                          k * 0.5, state)
        _extend_rows(by_rows, 0.1 * k, machine,
                     list(zip(joints, torques, omegas)), k * 0.5, state)
    assert _columns(by_columns) == _columns(by_rows)

    samples = list(by_rows)
    of_rows = SampleLog()
    for s in samples:
        _extend_rows(of_rows, s.sim_time, s.machine,
                     [(s.joint, s.torque, s.omega)], s.payload_kg,
                     s.skill_state)
    assert _columns(SampleLog.of(samples)) == _columns(of_rows)


def test_collector_retains_few_bytes_per_sample_row():
    # a TelemetrySample object per row retained about 200 bytes
    joints = ("swing", "boom", "stick", "bucket", "track_left", "track_right")
    collector = TelemetryCollector(Bus(machine_ids=["m1"]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        k = 0
        for n in range(20_000 // len(joints)):
            torques = [0.5 * (k + i) for i in range(len(joints))]
            omegas = [-0.25 * (k + i) for i in range(len(joints))]
            k += len(joints)
            collector.samples.extend(0.1 * n, "m1", joints, torques, omegas,
                                     0.1 * n, "Running")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(collector.samples) == k
    assert retained / k < 64
