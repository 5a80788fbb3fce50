"""Work and cycle telemetry: per-step actuator samples, positive-work
integration, no-load power normalization, dig-cycle segmentation, summary
statistics, and CSV export."""

from __future__ import annotations

import statistics
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..bus import split_topic

#: Column header of the per-cycle CSV (bit-exact contract).
CYCLE_CSV_HEADER = ("cycle,machine,loaded_kg,spilled_kg,duration_s,work_J,"
                    "dig_s,drive_s,dump_s,wait_s")
#: Column header of the per-sample CSV (bit-exact contract).
SAMPLE_CSV_HEADER = ("sim_time,machine,joint,torque_Nm,omega_rad_s,"
                     "payload_kg,skill_state")

#: Minimum calibration run length (s).
MIN_CALIBRATION_DURATION = 10.0

#: Skill action → task-time bucket of the cycle breakdown.
TASK_BUCKETS = {"dig": "dig", "drive": "drive", "dump": "dump",
                "beddump": "dump", "level": "dig"}


@dataclass
class TelemetrySample:
    """One actuator reading: a single joint of a machine at one instant."""
    sim_time: float
    machine: str
    joint: str
    torque: float            # N*m
    omega: float             # rad/s
    payload_kg: float
    skill_state: str


@dataclass
class SkillEvent:
    """One skill status transition reported by the simulator."""
    sim_time: float
    machine: str
    action: str
    state: str               # Running | Succeeded | Failed
    activation_id: int
    payload: dict = field(default_factory=dict)


@dataclass
class BaselineCalibration:
    """No-load power per actuator plus the drivetrain efficiency factor."""
    no_load_power: dict = field(default_factory=dict)    # actuator -> W
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        for actuator, power in self.no_load_power.items():
            if power < 0.0:
                raise ValueError(
                    f"no-load power for {actuator!r} must be >= 0")

    def power(self, actuator: str) -> float:
        return self.no_load_power.get(actuator, 0.0)

    def to_dict(self) -> dict:
        return {"no_load_power": dict(self.no_load_power),
                "efficiency": self.efficiency}

    @classmethod
    def from_dict(cls, obj: dict) -> "BaselineCalibration":
        return cls(no_load_power=dict(obj.get("no_load_power", {})),
                   efficiency=float(obj.get("efficiency", 1.0)))


@dataclass
class WorkCycleRecord:
    """One dig cycle: loaded/spilled mass, duration, normalized work, and
    the per-task time breakdown."""
    cycle: int
    machine: str
    loaded_kg: float
    spilled_kg: float
    duration_s: float
    work_J: float
    dig_s: float
    drive_s: float
    dump_s: float
    wait_s: float
    actuator_work_J: dict = field(default_factory=dict)


def integrate_work(samples: Iterable[TelemetrySample], dt: float) -> dict:
    """Cumulative positive actuator work per joint: W += max(tau*omega,0)*dt.

    Braking (negative power) and zero-velocity holds contribute nothing.
    """
    work: dict[str, float] = {}
    for sample in samples:
        power = sample.torque * sample.omega
        if power > 0.0:
            work[sample.joint] = work.get(sample.joint, 0.0) + power * dt
        else:
            work.setdefault(sample.joint, 0.0)
    return work


def normalize(work: float, duration: float, cal: BaselineCalibration,
              actuator: str) -> float:
    """Work with the no-load dissipation removed and efficiency divided out:
    max(0, work - no_load_power*duration) / efficiency."""
    return max(0.0, work - cal.power(actuator) * duration) / cal.efficiency


def calibrate_baseline(power_samples: dict, duration: float,
                       efficiency: float = 1.0) -> BaselineCalibration:
    """Per-actuator mean power over a dedicated no-load run.

    power_samples maps actuator name to the list of instantaneous power
    readings (W) collected while the machine ran free of terrain forces.
    """
    if duration < MIN_CALIBRATION_DURATION:
        raise ValueError(
            f"calibration run of {duration} s is too short; need at least "
            f"{MIN_CALIBRATION_DURATION} s")
    no_load = {}
    for actuator, readings in power_samples.items():
        readings = list(readings)
        mean = sum(readings) / len(readings) if readings else 0.0
        no_load[actuator] = max(mean, 0.0)
    return BaselineCalibration(no_load_power=no_load, efficiency=efficiency)


def _skill_intervals(events: list[SkillEvent]) -> list[tuple]:
    """(start, end, action) spans from Running→terminal event pairs; a still
    open activation is closed at the last event time."""
    intervals = []
    open_at: dict[tuple, float] = {}
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


def _overlap(start: float, end: float, lo: float, hi: float) -> float:
    return max(0.0, min(end, hi) - max(start, lo))


def dig_start_times(events: Iterable[SkillEvent], machine: str) -> list[float]:
    """Sim times at which the machine began a new dig activation."""
    starts, seen = [], set()
    for ev in sorted((e for e in events if e.machine == machine),
                     key=lambda e: (e.sim_time, e.activation_id)):
        if ev.action == "dig" and ev.state == "Running" \
                and ev.activation_id not in seen:
            seen.add(ev.activation_id)
            starts.append(ev.sim_time)
    return starts


def segment_cycles(samples: Iterable[TelemetrySample],
                   events: Iterable[SkillEvent], machine: str, dt: float,
                   cal: Optional[BaselineCalibration] = None,
                   work_machines: Optional[list] = None
                   ) -> list[WorkCycleRecord]:
    """One record per dig-start → next dig-start span for one machine.

    Loaded mass comes from dig completion reports, spilled mass from any
    completion report inside the span, work from positive-power
    integration over the span's samples, and the task breakdown from the
    skill activity intervals; time in no skill counts as waiting.  The
    trailing span with no terminating dig start is dropped with a warning.

    work_machines widens the work integration (only) to other machines'
    actuators, e.g. to charge a hauler's transit work to the digging
    machine's cycles.
    """
    cal = cal or BaselineCalibration()
    dig_starts = dig_start_times(events, machine)
    works = set(work_machines) if work_machines else {machine}
    events = sorted((e for e in events if e.machine == machine),
                    key=lambda e: (e.sim_time, e.activation_id))
    samples = sorted((s for s in samples if s.machine in works),
                     key=lambda s: s.sim_time)
    times = [s.sim_time for s in samples]
    if len(dig_starts) < 2:
        if dig_starts:
            warnings.warn("dropping unterminated final dig cycle")
        return []
    intervals = _skill_intervals(events)

    records = []
    for k in range(len(dig_starts) - 1):
        lo, hi = dig_starts[k], dig_starts[k + 1]
        duration = hi - lo
        span_samples = samples[bisect_left(times, lo):bisect_left(times, hi)]
        raw = integrate_work(span_samples, dt)
        actuator_work = {joint: normalize(w, duration, cal, joint)
                         for joint, w in raw.items()}
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
                breakdown[bucket] += _overlap(start, end, lo, hi)
        busy = sum(breakdown.values())
        records.append(WorkCycleRecord(
            cycle=k, machine=machine, loaded_kg=loaded, spilled_kg=spilled,
            duration_s=duration, work_J=sum(actuator_work.values()),
            dig_s=breakdown["dig"], drive_s=breakdown["drive"],
            dump_s=breakdown["dump"], wait_s=max(0.0, duration - busy),
            actuator_work_J=actuator_work))
    warnings.warn("dropping unterminated final dig cycle")
    return records


SUMMARY_COLUMNS = ("loaded_kg", "spilled_kg", "duration_s", "work_J")


def summarize(records: list[WorkCycleRecord]) -> dict:
    """Sample mean and sample standard deviation (n-1 denominator; 0 for a
    single record) per summary column."""
    if not records:
        raise ValueError("cannot summarize zero cycle records")
    out = {}
    for column in SUMMARY_COLUMNS:
        values = [getattr(r, column) for r in records]
        mean = statistics.fmean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        out[column] = (mean, std)
    return out


def _fmt(value: float) -> str:
    return repr(float(value))


def cycles_csv_text(records: list[WorkCycleRecord]) -> str:
    lines = [CYCLE_CSV_HEADER]
    for r in records:
        lines.append(",".join([str(r.cycle), r.machine, _fmt(r.loaded_kg),
                               _fmt(r.spilled_kg), _fmt(r.duration_s),
                               _fmt(r.work_J), _fmt(r.dig_s), _fmt(r.drive_s),
                               _fmt(r.dump_s), _fmt(r.wait_s)]))
    return "\n".join(lines) + "\n"


def samples_csv_text(samples: Iterable[TelemetrySample]) -> str:
    lines = [SAMPLE_CSV_HEADER]
    for s in samples:
        lines.append(",".join([_fmt(s.sim_time), s.machine, s.joint,
                               _fmt(s.torque), _fmt(s.omega),
                               _fmt(s.payload_kg), s.skill_state]))
    return "\n".join(lines) + "\n"


def write_cycles_csv(path, records: list[WorkCycleRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(cycles_csv_text(records))


def write_samples_csv(path, samples: Iterable[TelemetrySample]) -> None:
    with open(path, "w") as fh:
        fh.write(samples_csv_text(samples))


class TelemetryCollector:
    """Builds the sample and event logs from bus envelopes.

    Subscribes on the simulator-side bus so the collected data is
    independent of the planner transport.  Actuator readings arrive on
    `/{machine}/telemetry/work` as row batches; skill status transitions
    arrive on `/{machine}/skill/{action}`.
    """

    def __init__(self, bus):
        self.sub_telemetry = bus.subscribe_category("telemetry")
        self.sub_skill = bus.subscribe_category("skill")
        self.samples: list[TelemetrySample] = []
        self.events: list[SkillEvent] = []

    def drain(self) -> None:
        for sub in (self.sub_telemetry, self.sub_skill):
            while True:
                batch = sub.poll(256)
                if not batch:
                    break
                for env in batch:
                    self._ingest(env)

    def _ingest(self, env) -> None:
        machine, category, action = split_topic(env.topic)
        if category == "telemetry" and action == "work":
            payload_kg = float(env.payload.get("payload_kg", 0.0))
            skill_state = env.payload.get("skill_state", "Idle")
            for joint, torque, omega in env.payload.get("rows", []):
                self.samples.append(TelemetrySample(
                    sim_time=env.sim_time, machine=machine, joint=joint,
                    torque=float(torque), omega=float(omega),
                    payload_kg=payload_kg, skill_state=skill_state))
        elif category == "skill":
            self.events.append(SkillEvent(
                sim_time=env.sim_time, machine=machine, action=action,
                state=env.payload.get("state", ""),
                activation_id=int(env.payload.get("id", 0)),
                payload=dict(env.payload)))

    def machine_ids(self) -> list[str]:
        return sorted({e.machine for e in self.events}
                      | {s.machine for s in self.samples})

    def cycles(self, machine: str, dt: float,
               cal: Optional[BaselineCalibration] = None
               ) -> list[WorkCycleRecord]:
        return segment_cycles(self.samples, self.events, machine, dt, cal)


__all__ = [
    "BaselineCalibration", "CYCLE_CSV_HEADER", "MIN_CALIBRATION_DURATION",
    "SAMPLE_CSV_HEADER", "SUMMARY_COLUMNS", "SkillEvent", "TASK_BUCKETS",
    "TelemetryCollector", "TelemetrySample", "WorkCycleRecord",
    "calibrate_baseline", "cycles_csv_text", "dig_start_times",
    "integrate_work", "normalize",
    "samples_csv_text", "segment_cycles", "summarize", "write_cycles_csv",
    "write_samples_csv",
]
