"""Work and cycle telemetry: per-step actuator samples, positive-work
integration, dig-cycle segmentation, summary statistics, and CSV export."""

from __future__ import annotations

import io
import statistics
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..bus import split_topic

#: Column header of the per-cycle CSV (bit-exact contract).
CYCLE_CSV_HEADER = ("cycle,machine,loaded_kg,spilled_kg,duration_s,work_J,"
                    "dig_s,drive_s,dump_s,wait_s")
#: Column header of the per-sample CSV (bit-exact contract).
SAMPLE_CSV_HEADER = ("sim_time,machine,joint,torque_Nm,omega_rad_s,"
                     "payload_kg,skill_state")

#: Rows formatted per write when exporting the sample log.  A chunk's text
#: and its memo of formatted floats are held until the write, so the chunk
#: size bounds the writer's transient memory.
SAMPLE_CSV_CHUNK = 1024

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
class WorkCycleRecord:
    """One dig cycle: loaded/spilled mass, duration, positive actuator work,
    and the per-task time breakdown."""
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


class SampleLog:
    """Actuator readings in arrival order, one column per field.

    The float columns are `array('d')`; machine, joint and skill state are
    codes into one table of names, so a row costs 38 bytes and no Python
    object.  Indexing returns a `TelemetrySample` view of one row.  While a
    numpy view of a column is alive the column cannot grow, so views stay
    local to the functions that read them.
    """

    def __init__(self):
        self.sim_time = array("d")
        self.torque = array("d")
        self.omega = array("d")
        self.payload_kg = array("d")
        self.machine = array("H")
        self.joint = array("H")
        self.skill_state = array("H")
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._joint_codes: dict[tuple, list[int]] = {}

    @classmethod
    def of(cls, samples: Iterable[TelemetrySample]) -> "SampleLog":
        """The log itself, or a new log holding the samples in order."""
        if isinstance(samples, SampleLog):
            return samples
        log = cls()
        for s in samples:
            log.extend(s.sim_time, s.machine, (s.joint,), [s.torque],
                       [s.omega], s.payload_kg, s.skill_state)
        return log

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def extend(self, sim_time: float, machine: str, joints: tuple,
               torques: list, omegas: list, payload_kg: float,
               skill_state: str) -> None:
        """Appends one row per name of joints, all read at sim_time on
        machine; torques and omegas are the rows' columns, in joint order.
        The joints' codes are looked up once per distinct tuple."""
        codes = self._joint_codes.get(joints)
        if codes is None:
            codes = self._joint_codes[joints] = list(map(self._code, joints))
        n = len(codes)
        code = self._code
        # one fromlist per column: the cheapest way to grow an array
        self.joint.fromlist(codes)
        self.torque.fromlist(torques)
        self.omega.fromlist(omegas)
        self.sim_time.fromlist([sim_time] * n)
        self.payload_kg.fromlist([payload_kg] * n)
        self.machine.fromlist([code(machine)] * n)
        self.skill_state.fromlist([code(skill_state)] * n)

    def __len__(self) -> int:
        return len(self.sim_time)

    def __getitem__(self, i: int) -> TelemetrySample:
        names = self.names
        return TelemetrySample(
            self.sim_time[i], names[self.machine[i]], names[self.joint[i]],
            self.torque[i], self.omega[i], self.payload_kg[i],
            names[self.skill_state[i]])

    def span_work(self, machines, bounds: list[float],
                  dt: float) -> list[dict]:
        """Per-joint positive work of the machines' rows in each time span
        [bounds[k], bounds[k + 1]), the rows taken in time order (ties in
        arrival order)."""
        codes = [self._codes[m] for m in machines if m in self._codes]
        rows = np.flatnonzero(
            np.isin(np.frombuffer(self.machine, np.uint16), codes))
        times = np.frombuffer(self.sim_time)[rows]
        order = np.argsort(times, kind="stable")
        cuts = np.searchsorted(times, bounds, "left", sorter=order).tolist()
        rows = rows[order]
        return [self._work(rows[lo:hi], dt)
                for lo, hi in zip(cuts[:-1], cuts[1:])]

    def _work(self, rows: np.ndarray, dt: float) -> dict:
        """W += max(tau*omega, 0)*dt per joint over the rows, in row order
        from 0.0, keyed in order of each joint's first row."""
        joints = np.frombuffer(self.joint, np.uint16)[rows]
        with np.errstate(all="ignore"):     # overflow to inf, as floats do
            power = np.frombuffer(self.torque)[rows] \
                * np.frombuffer(self.omega)[rows]
            energy = np.where(power > 0.0, power * dt, 0.0)
        # bincount adds each joint's weights one by one in row order: the
        # same sums as a loop over the rows
        totals = np.bincount(joints, weights=energy,
                             minlength=len(self.names))
        codes, first = np.unique(joints, return_index=True)
        return {self.names[c]: float(totals[c])
                for c in codes[np.argsort(first)].tolist()}


def integrate_work(samples: Iterable[TelemetrySample], dt: float) -> dict:
    """Cumulative positive actuator work per joint: W += max(tau*omega,0)*dt.

    Braking (negative power) and zero-velocity holds contribute nothing.
    """
    log = SampleLog.of(samples)
    return log._work(np.arange(len(log)), dt)


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
                   work_machines: Optional[list] = None
                   ) -> list[WorkCycleRecord]:
    """One record per dig-start → next dig-start span for one machine.

    Loaded mass comes from dig completion reports, spilled mass from any
    completion report inside the span, work from positive-power
    integration over the span's samples, and the task breakdown from the
    skill activity intervals; time in no skill counts as waiting.  The
    trailing span with no terminating dig start is dropped: events.csv
    still lists its dig start.

    work_machines widens the work integration (only) to other machines'
    actuators, e.g. to charge a hauler's transit work to the digging
    machine's cycles.
    """
    dig_starts = dig_start_times(events, machine)
    if len(dig_starts) < 2:
        return []
    works = set(work_machines) if work_machines else {machine}
    events = sorted((e for e in events if e.machine == machine),
                    key=lambda e: (e.sim_time, e.activation_id))
    span_work = SampleLog.of(samples).span_work(works, dig_starts, dt)
    intervals = _skill_intervals(events)

    records = []
    for k in range(len(dig_starts) - 1):
        lo, hi = dig_starts[k], dig_starts[k + 1]
        duration = hi - lo
        actuator_work = span_work[k]
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


def _write_sample_rows(fh, log: SampleLog) -> None:
    """Each row as `repr` gives its floats.  Within a chunk each distinct
    float is formatted once: the memo is keyed by the float's 8-byte
    pattern, so values that compare equal but print differently (0.0 and
    -0.0) keep their own text."""
    fh.write(SAMPLE_CSV_HEADER + "\n")
    name = log.names.__getitem__
    for lo in range(0, len(log), SAMPLE_CSV_CHUNK):
        hi = lo + SAMPLE_CSV_CHUNK
        floats = [col[lo:hi] for col in (log.sim_time, log.torque,
                                          log.omega, log.payload_kg)]
        keys = [array("Q", col.tobytes()) for col in floats]
        distinct = {}
        for key, col in zip(keys, floats):
            distinct.update(zip(key, col))
        text = {key: repr(value) for key, value in distinct.items()}
        times, torques, omegas, payloads = (map(text.__getitem__, key)
                                            for key in keys)
        fh.write("".join(
            f"{t},{m},{j},{tq},{om},{kg},{s}\n"
            for t, m, j, tq, om, kg, s in zip(
                times, map(name, log.machine[lo:hi]),
                map(name, log.joint[lo:hi]), torques, omegas, payloads,
                map(name, log.skill_state[lo:hi]))))


def samples_csv_text(samples: Iterable[TelemetrySample]) -> str:
    buf = io.StringIO()
    _write_sample_rows(buf, SampleLog.of(samples))
    return buf.getvalue()


def write_cycles_csv(path, records: list[WorkCycleRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(cycles_csv_text(records))


def write_samples_csv(path, samples: Iterable[TelemetrySample]) -> None:
    """Writes samples.csv a chunk of rows at a time."""
    with open(path, "w") as fh:
        _write_sample_rows(fh, SampleLog.of(samples))


class TelemetryCollector:
    """The run's sample log and its skill event log.

    The simulator appends actuator readings to `samples` directly.  Skill
    status transitions arrive on `/{machine}/skill/{action}`; the collector
    subscribes on the simulator-side bus, so the events are independent of
    the planner transport.
    """

    def __init__(self, bus):
        self.sub_skill = bus.subscribe_category("skill")
        self.samples = SampleLog()
        self.events: list[SkillEvent] = []

    def drain(self) -> None:
        while True:
            batch = self.sub_skill.poll(256)
            if not batch:
                break
            for env in batch:
                machine, _, action = split_topic(env.topic)
                self.events.append(SkillEvent(
                    sim_time=env.sim_time, machine=machine, action=action,
                    state=env.payload.get("state", ""),
                    activation_id=int(env.payload.get("id", 0)),
                    payload=dict(env.payload)))

    def cycles(self, machine: str, dt: float) -> list[WorkCycleRecord]:
        return segment_cycles(self.samples, self.events, machine, dt)


__all__ = [
    "CYCLE_CSV_HEADER", "SAMPLE_CSV_CHUNK", "SAMPLE_CSV_HEADER",
    "SUMMARY_COLUMNS", "SampleLog", "SkillEvent", "TASK_BUCKETS",
    "TelemetryCollector", "TelemetrySample", "WorkCycleRecord",
    "cycles_csv_text", "dig_start_times", "integrate_work",
    "samples_csv_text", "segment_cycles", "summarize", "write_cycles_csv",
    "write_samples_csv",
]
