import random

import pytest
from hypothesis import given, strategies as st

from regolith.bus import Bus, topic_for
from regolith.telemetry import (
    CYCLE_CSV_HEADER,
    SAMPLE_CSV_HEADER,
    SkillEvent,
    TelemetryCollector,
    TelemetrySample,
    WorkCycleRecord,
    cycles_csv_text,
    integrate_work,
    samples_csv_text,
    segment_cycles,
    summarize,
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
    bus.publish(topic_for("m1", "telemetry", "work"),
                {"kind": "telemetry", "payload_kg": 12.0,
                 "skill_state": "Running",
                 "rows": [["boom", 3.0, 0.4], ["stick", -1.0, 0.2]]},
                sim_time=0.5, publisher="sim")
    bus.publish(topic_for("m1", "skill", "dig"),
                {"kind": "status", "id": 4, "state": "Running"},
                sim_time=0.5, publisher="sim")
    collector.drain()
    assert len(collector.samples) == 2
    assert collector.samples[0].joint == "boom"
    assert collector.samples[0].payload_kg == 12.0
    assert len(collector.events) == 1
    assert collector.events[0].action == "dig"
    assert collector.machine_ids() == ["m1"]
