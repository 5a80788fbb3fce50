"""Plot-ready series emitted from a run's CSV directory.

Four series mirror the per-cycle report figures: hauled mass, cycle
duration with task breakdown, total work, and excavation-only work, plus
a marker file with the cell-switch times.
"""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

SERIES_FILES = ("mass.csv", "duration.csv", "work.csv",
                "work_excavation.csv")
MARKER_FILE = "markers.csv"

_CYCLE_COLUMNS = ("cycle", "machine", "loaded_kg", "spilled_kg",
                  "duration_s", "work_J", "dig_s", "drive_s", "dump_s",
                  "wait_s")
_SAMPLE_COLUMNS = ("sim_time", "machine", "joint", "torque_Nm",
                   "omega_rad_s", "payload_kg", "skill_state")


class PlotDataError(ValueError):
    pass


@contextmanager
def _csv_rows(path: Path, required: tuple):
    """The rows of a CSV file, read as they are iterated while the file is
    open, each as the tuple of its required columns' values."""
    if not path.exists():
        raise PlotDataError(f"missing input file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise PlotDataError(
                f"{path.name} is missing columns: {', '.join(missing)}")
        # filter drops blank lines, as csv.DictReader does
        yield map(itemgetter(*(header.index(c) for c in required)),
                  filter(None, reader))


def _read_csv(path: Path, required: tuple) -> list[dict]:
    with _csv_rows(path, required) as rows:
        return [dict(zip(required, row)) for row in rows]


def _dig_machine(cycle_rows: list[dict]) -> str:
    counts: dict[str, int] = {}
    for row in cycle_rows:
        counts[row["machine"]] = counts.get(row["machine"], 0) + 1
    return max(sorted(counts), key=counts.get)


def _sample_dt(path: Path, machine: str) -> float:
    """The median gap between the machine's distinct sample times in
    samples.csv, which is in time order: the time one of its rows stands
    for.  0.1 s when it has fewer than two distinct times."""
    gaps: Counter = Counter()
    last = None
    with _csv_rows(path, ("sim_time", "machine")) as rows:
        for t, m in rows:
            if m != machine:
                continue
            t = float(t)
            if last is not None and t != last:
                if t < last:
                    raise PlotDataError(f"{path.name} is not in time order: "
                                        f"{t!r} follows {last!r}")
                gaps[t - last] += 1
            last = t
    rank = sum(gaps.values()) // 2
    for gap in sorted(gaps):
        rank -= gaps[gap]
        if rank < 0:
            return gap
    return 0.1


def _excavation_work(path: Path, machine: str,
                     boundaries: list[float]) -> list[float]:
    """Positive actuator work during dig activity per cycle span: each of
    the machine's dig rows with positive power adds power * dt to the span
    that holds its time, in file order.  samples.csv is streamed twice,
    once for dt and once for the sums."""
    work = [0.0] * max(len(boundaries) - 1, 0)
    if not work:
        return work
    dt = _sample_dt(path, machine)
    with _csv_rows(path, ("sim_time", "machine", "torque_Nm", "omega_rad_s",
                          "skill_state")) as rows:
        for t, m, torque, omega, state in rows:
            if m != machine or state != "dig":
                continue
            power = float(torque) * float(omega)
            if power <= 0.0:
                continue
            k = bisect_right(boundaries, float(t)) - 1
            if 0 <= k < len(work):
                work[k] += power * dt
    return work


def emit_plot_data(in_dir) -> dict:
    """Write the series files next to the run CSVs; returns row counts."""
    in_dir = Path(in_dir)
    cycles = _read_csv(in_dir / "cycles.csv", _CYCLE_COLUMNS)
    samples = in_dir / "samples.csv"
    with _csv_rows(samples, _SAMPLE_COLUMNS):
        pass                      # checked now, streamed when needed
    events = _read_csv(in_dir / "events.csv", ("sim_time", "event"))

    switches = [float(r["sim_time"]) for r in events
                if r["event"] == "cell_switch"]
    with open(in_dir / MARKER_FILE, "w") as fh:
        fh.write("sim_time,event\n")
        for t in switches:
            fh.write(f"{t!r},cell_switch\n")

    if not cycles:
        warnings.warn("no cycles recorded; emitting empty series")
        rows = []
        machine = None
    else:
        machine = _dig_machine(cycles)
        rows = sorted((r for r in cycles if r["machine"] == machine),
                      key=lambda r: int(r["cycle"]))

    digs = sorted(float(r["sim_time"]) for r in events
                  if r["event"] == f"dig_start:{machine}")
    excavation = _excavation_work(samples, machine, digs) \
        if machine else []
    if len(excavation) < len(rows):
        excavation += [0.0] * (len(rows) - len(excavation))

    cum_loaded = cum_dumped = 0.0
    with open(in_dir / "mass.csv", "w") as fh:
        fh.write("cycle,loaded_kg,spilled_kg,"
                 "cumulative_loaded_kg,cumulative_dumped_kg\n")
        for r in rows:
            cum_loaded += float(r["loaded_kg"])
            cum_dumped += float(r["loaded_kg"]) - float(r["spilled_kg"])
            fh.write(f"{r['cycle']},{r['loaded_kg']},{r['spilled_kg']},"
                     f"{cum_loaded!r},{cum_dumped!r}\n")
    with open(in_dir / "duration.csv", "w") as fh:
        fh.write("cycle,duration_s,dig_s,drive_s,dump_s,wait_s\n")
        for r in rows:
            fh.write(f"{r['cycle']},{r['duration_s']},{r['dig_s']},"
                     f"{r['drive_s']},{r['dump_s']},{r['wait_s']}\n")
    with open(in_dir / "work.csv", "w") as fh:
        fh.write("cycle,work_J\n")
        for r in rows:
            fh.write(f"{r['cycle']},{r['work_J']}\n")
    with open(in_dir / "work_excavation.csv", "w") as fh:
        fh.write("cycle,work_J\n")
        for r, w in zip(rows, excavation):
            fh.write(f"{r['cycle']},{w!r}\n")
    return {"rows": len(rows), "markers": len(switches),
            "machine": machine}
