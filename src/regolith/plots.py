"""Plot-ready series emitted from a run's artifact directory.

Four series mirror the per-cycle report figures: hauled mass, cycle
duration with task breakdown, total work, and excavation-only work, plus
a marker file with the cell-switch times.  They are read from cycles.csv,
events.csv and report.json, which holds each cycle's excavation-only work
as the run summed it.
"""

from __future__ import annotations

import csv
import json
import warnings
from operator import itemgetter
from pathlib import Path

SERIES_FILES = ("mass.csv", "duration.csv", "work.csv",
                "work_excavation.csv")
MARKER_FILE = "markers.csv"

_CYCLE_COLUMNS = ("cycle", "machine", "loaded_kg", "spilled_kg",
                  "duration_s", "work_J", "dig_s", "drive_s", "dump_s",
                  "wait_s")
#: report.json key: machine -> excavation-only work of each of its cycles
EXCAVATION_KEY = "cycle_excavation_work_J"


class PlotDataError(ValueError):
    pass


def _read_csv(path: Path, required: tuple) -> list[dict]:
    """The rows of a CSV file, each as a dict of its required columns."""
    if not path.exists():
        raise PlotDataError(f"missing input file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise PlotDataError(
                f"{path.name} is missing columns: {', '.join(missing)}")
        values = itemgetter(*(header.index(c) for c in required))
        # filter drops blank lines, as csv.DictReader does
        return [dict(zip(required, values(row)))
                for row in filter(None, reader)]


def _dig_machine(cycle_rows: list[dict]) -> str:
    counts: dict[str, int] = {}
    for row in cycle_rows:
        counts[row["machine"]] = counts.get(row["machine"], 0) + 1
    return max(sorted(counts), key=counts.get)


def _read_excavation_work(path: Path) -> dict:
    """report.json's excavation-only work per machine and cycle."""
    if not path.exists():
        raise PlotDataError(f"missing input file: {path}")
    work = json.loads(path.read_text()).get(EXCAVATION_KEY)
    if work is None:
        raise PlotDataError(f"{path.name} has no {EXCAVATION_KEY}")
    return work


def emit_plot_data(in_dir) -> dict:
    """Write the series files next to the run CSVs; returns row counts."""
    in_dir = Path(in_dir)
    cycles = _read_csv(in_dir / "cycles.csv", _CYCLE_COLUMNS)
    events = _read_csv(in_dir / "events.csv", ("sim_time", "event"))
    excavation_work = _read_excavation_work(in_dir / "report.json")

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

    excavation = excavation_work.get(machine, [])
    if len(excavation) != len(rows):
        raise PlotDataError(
            f"{EXCAVATION_KEY} has {len(excavation)} cycles of {machine}, "
            f"cycles.csv {len(rows)}")

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
