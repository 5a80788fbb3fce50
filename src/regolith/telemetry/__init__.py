"""Work and cycle telemetry: actuator samples streamed to samples.csv,
positive work and its excavation-only part summed per dig cycle as the
run goes, cycle segmentation, summary statistics, and CSV export."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from operator import mul

from ..bus import split_topic

#: Column header of the per-cycle CSV (bit-exact contract).
CYCLE_CSV_HEADER = ("cycle,machine,loaded_kg,spilled_kg,duration_s,work_J,"
                    "dig_s,drive_s,dump_s,wait_s")
#: Column header of the per-sample CSV (bit-exact contract).
SAMPLE_CSV_HEADER = ("sim_time,machine,joint,torque_Nm,omega_rad_s,"
                     "payload_kg,skill_state")

#: Rows buffered per write of samples.csv.  A chunk's pending entries and
#: their text are all the log holds of them, so the chunk size bounds the
#: log's memory.
SAMPLE_CSV_CHUNK = 1024

#: Skill action → task-time bucket of the cycle breakdown.
TASK_BUCKETS = {"dig": "dig", "drive": "drive", "dump": "dump",
                "beddump": "dump", "level": "dig"}


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
    the per-task time breakdown, and the positive work of the machine's
    own rows logged while it was digging."""
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
    excavation_work_J: float = 0.0


class SampleLog:
    """Actuator readings as the simulator logs them, in time order.

    Every row is counted.  Once `open` is given a path, the log writes
    samples.csv there as rows arrive: it keeps each `extend` as one pending
    entry, with the text before and after its rows' joint columns (time
    and machine; payload and skill state) formatted once, and writes the
    pending entries once `SAMPLE_CSV_CHUNK` rows are pending.  Until then
    no row is kept.  Each `extend` is also held as one entry until `take`
    hands it to the collector, which sums its work.
    """

    def __init__(self):
        self.rows = 0
        #: (sim_time, machine, joints, torques, omegas, skill_state) per
        #: extend call not yet taken, in logging order
        self.held: list[tuple] = []
        #: (head, joints, torques, omegas, tail) per extend call not yet
        #: written, in logging order
        self.pending: list[tuple] = []
        #: rows of the pending entries
        self.pending_rows = 0
        self._file = None

    def open(self, path) -> None:
        """Writes samples.csv at path: its header, then the rows logged
        from now on."""
        self._file = open(path, "w")
        self._file.write(SAMPLE_CSV_HEADER + "\n")

    def extend(self, sim_time: float, machine: str, joints: tuple,
               torques: list, omegas: list, payload_kg: float,
               skill_state: str) -> None:
        """Logs one row per name of joints, all read at sim_time on
        machine; torques and omegas are the rows' columns, in joint order."""
        n = len(joints)
        self.rows += n
        self.held.append((sim_time, machine, joints, torques, omegas,
                          skill_state))
        if self._file is None:
            return
        self.pending.append((f"{sim_time!r},{machine},", joints, torques,
                             omegas, f",{payload_kg!r},{skill_state}\n"))
        self.pending_rows += n
        if self.pending_rows >= SAMPLE_CSV_CHUNK:
            self._write_rows()

    def __len__(self) -> int:
        return self.rows

    def take(self, before: float) -> list[tuple]:
        """Removes and returns the held entries read before `before`.  Rows
        are logged in time order, so these lead the held list."""
        held = self.held
        k = 0
        while k < len(held) and held[k][0] < before:
            k += 1
        self.held = held[k:]
        return held[:k]

    def _write_rows(self) -> None:
        """Writes the pending rows, each float as `repr` gives it (which
        keeps -0.0 apart from 0.0), and empties the buffer."""
        self._file.write("".join([
            f"{head}{joint},{torque!r},{omega!r}{tail}"
            for head, joints, torques, omegas, tail in self.pending
            for joint, torque, omega in zip(joints, torques, omegas)]))
        self.pending = []
        self.pending_rows = 0

    def close(self) -> None:
        """Writes the buffered rows and closes samples.csv, if open."""
        if self._file is not None:
            self._write_rows()
            self._file.close()
            self._file = None


def _skill_intervals(events: list[SkillEvent], last_time: float) -> list:
    """(start, end, action) spans from Running→terminal event pairs, the
    events in (sim_time, activation_id) order; a still open activation is
    closed at last_time, the machine's last event time."""
    intervals = []
    open_at: dict[tuple, float] = {}
    for ev in events:
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


def segment_cycles(collector: "TelemetryCollector", machine: str,
                   fleet: bool = False) -> list[WorkCycleRecord]:
    """One record per dig-start → next dig-start span for one machine.

    Loaded mass comes from dig completion reports, spilled mass from any
    completion report inside the span, work and excavation work from the
    positive work the collector summed over the span's rows, and the task
    breakdown from the skill activity intervals; time in no skill counts
    as waiting.  The trailing span with no terminating dig start is
    dropped: events.csv still lists its dig start.  So are the spans that
    the collector's hidden dig starts close.

    fleet charges every machine's actuator work to the spans, e.g. a
    hauler's transit work to the digging machine's cycles.
    """
    dig_starts = collector.dig_starts.get(machine, [])
    if len(dig_starts) < 2:
        return []
    events = [e for e in collector.events if e.machine == machine]
    span_work = collector.span_work[(machine, fleet)]
    excavation_work = collector.excavation_work[machine]
    intervals = _skill_intervals(events, collector.last_event_time[machine])

    records = []
    first = max(0, collector.hidden_starts.get(machine, 0) - 1)
    for k in range(first, len(dig_starts) - 1):
        lo, hi = dig_starts[k], dig_starts[k + 1]
        duration = hi - lo
        actuator_work = dict(span_work[k])
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
            actuator_work_J=actuator_work,
            excavation_work_J=float(excavation_work[k])))
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


def write_cycles_csv(path, records: list[WorkCycleRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(cycles_csv_text(records))


def write_samples_csv(path, samples: SampleLog) -> None:
    """Completes samples.csv at path, which the log has written since the
    run began: writes the rows still buffered and closes the file."""
    samples.close()


class TelemetryCollector:
    """The run's sample log, its skill events and its dig cycles' work.

    The simulator appends actuator readings to `samples` directly.  Skill
    status transitions arrive on `/{machine}/skill/{action}`; the collector
    subscribes on the simulator-side bus, so the events are independent of
    the planner transport.

    Each drain sorts what arrived by (sim_time, activation_id).  An event
    stamped T is published during the step that starts at T, so the drains
    come in the global order, and a drain at `now` has every event stamped
    before now.  A row read at t belongs to the machine's dig cycle that
    starts at or before t and ends after it; a dig start stamped now may
    still come, so a drain assigns only the held rows read before now.
    Per digging machine the collector sums each joint's positive work,
    W += max(tau*omega, 0)*dt row by row from 0.0, over the open cycle,
    once for the machine's own actuators and once for the fleet's, and
    sums the same terms of its own rows logged in the dig skill into one
    excavation-only float per cycle, in log and joint order; the next dig
    start, whose time `dig_starts` records, closes the cycle.  Of
    the events it keeps the first Running of each activation and the
    terminal ones, and each machine's last event time, which is where open
    activations end.
    """

    def __init__(self, bus, sample_dt: float):
        self.sub_skill = bus.subscribe_category("skill")
        self.samples = SampleLog()
        self.sample_dt = sample_dt
        self.events: list[SkillEvent] = []
        self.last_event_time: dict[str, float] = {}
        #: machine -> sim time of each of its dig activations' first
        #: Running, in order
        self.dig_starts: dict[str, list[float]] = {}
        #: (machine, fleet) -> per-joint work of each of the machine's dig
        #: cycles, the last one still open
        self.span_work: dict[tuple, list[dict]] = {}
        #: machine -> excavation-only work of each of its dig cycles, the
        #: last one still open
        self.excavation_work: dict[str, list[float]] = {}
        #: machine -> how many of its first dig starts the run's artifacts
        #: leave out, with the cycles they close (a resumed run's replay)
        self.hidden_starts: dict[str, int] = {}
        self._running: set[tuple] = set()
        self._dig_ids: set[tuple] = set()

    def drain(self, now: float) -> None:
        """Takes the skill events that arrived, then the rows read before
        now, the simulator's current time."""
        arrived = []
        for env in self.sub_skill.poll():
            machine, _, action = split_topic(env.topic)
            arrived.append(SkillEvent(
                sim_time=env.sim_time, machine=machine, action=action,
                state=env.payload.get("state", ""),
                activation_id=int(env.payload.get("id", 0)),
                payload=dict(env.payload)))
        arrived.sort(key=lambda e: (e.sim_time, e.activation_id))
        for ev in arrived:
            self.last_event_time[ev.machine] = ev.sim_time
            key = (ev.machine, ev.action, ev.activation_id)
            if ev.state != "Running":
                self._running.discard(key)
            elif key in self._running:
                continue                    # a heartbeat
            else:
                self._running.add(key)
                dig = (ev.machine, ev.activation_id)
                if ev.action == "dig" and dig not in self._dig_ids:
                    self._dig_ids.add(dig)        # closes the open cycle
                    self.dig_starts.setdefault(ev.machine, []).append(
                        ev.sim_time)
                    self._assign(ev.sim_time)
                    for fleet in (False, True):
                        self.span_work.setdefault((ev.machine, fleet),
                                                  []).append({})
                    self.excavation_work.setdefault(ev.machine,
                                                    []).append(0.0)
            self.events.append(ev)
        self._assign(now)

    def _assign(self, before: float) -> None:
        """Adds the work of the held rows read before `before` to the open
        cycles: a machine's own cycle takes its rows, a fleet cycle every
        row, and the machine's excavation-only sum its rows in the dig
        skill."""
        dt = self.sample_dt
        for _, machine, joints, torques, omegas, skill_state in \
                self.samples.take(before):
            energy = [p * dt if p > 0.0 else 0.0
                      for p in map(mul, torques, omegas)]
            for (digger, fleet), spans in self.span_work.items():
                if fleet or digger == machine:
                    work = spans[-1]
                    for joint, e in zip(joints, energy):
                        work[joint] = work.get(joint, 0.0) + e
            excavation = self.excavation_work.get(machine)
            if excavation and skill_state == "dig":
                total = excavation[-1]
                for e in energy:
                    total += e
                excavation[-1] = total

    def cycles(self, machine: str) -> list[WorkCycleRecord]:
        return segment_cycles(self, machine)


__all__ = [
    "CYCLE_CSV_HEADER", "SAMPLE_CSV_CHUNK", "SAMPLE_CSV_HEADER",
    "SUMMARY_COLUMNS", "SampleLog", "SkillEvent", "TASK_BUCKETS",
    "TelemetryCollector", "WorkCycleRecord", "cycles_csv_text",
    "segment_cycles", "summarize", "write_cycles_csv",
    "write_samples_csv",
]
