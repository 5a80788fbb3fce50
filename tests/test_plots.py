"""Plot series from a run's artifacts: `regolith plots` reads cycles.csv,
events.csv and report.json, whose per-cycle excavation work the run summed
as it logged samples.csv."""

import csv
import json
import shutil
from bisect import bisect_right
from itertools import islice

import pytest

from regolith.config import load_config
from regolith.plots import (
    EXCAVATION_KEY,
    MARKER_FILE,
    SERIES_FILES,
    PlotDataError,
    emit_plot_data,
)
from regolith.scenarios import scenario_path
from regolith.simulator import TELEMETRY_EVERY

#: Session run fixture -> the bundled scenario it runs.
RUNS = {"flat_run": "scenario1_flat", "smoke_rerun": "scenario2_smoke"}


def reference_work(run_dir, machine, dt):
    """Each cycle span's positive work of the machine's rows in the dig
    skill, summed row by row over samples.csv in file order: a row with
    positive power adds power * dt to the span [dig start, next dig start)
    that holds its time."""
    with open(run_dir / "events.csv", newline="") as fh:
        starts = [float(t) for t, label in islice(csv.reader(fh), 1, None)
                  if label == f"dig_start:{machine}"]
    work = [0.0] * (len(starts) - 1)
    with open(run_dir / "samples.csv", newline="") as fh:
        for t, m, _, torque, omega, _, state in islice(csv.reader(fh), 1,
                                                       None):
            if m != machine or state != "dig":
                continue
            power = float(torque) * float(omega)
            k = bisect_right(starts, float(t)) - 1
            if power > 0.0 and 0 <= k < len(work):
                work[k] += power * dt
    return work


@pytest.mark.parametrize("fixture", sorted(RUNS))
def test_report_excavation_work_is_the_row_sum_of_samples_csv(fixture,
                                                              request):
    report, out = request.getfixturevalue(fixture)
    config = load_config(scenario_path(RUNS[fixture]))
    dt = config.timestep * TELEMETRY_EVERY
    written = json.loads((out / "report.json").read_text())[EXCAVATION_KEY]
    assert written == report.to_dict()[EXCAVATION_KEY]
    assert sorted(written) == sorted(report.cycles)
    for machine, work in written.items():
        assert len(work) == len(report.cycles[machine])
        assert work == reference_work(out, machine, dt)
    assert any(w > 0.0 for work in written.values() for w in work)


def test_plots_read_no_samples_csv(smoke_rerun, tmp_path):
    _, out = smoke_rerun
    full, bare = tmp_path / "full", tmp_path / "bare"
    shutil.copytree(out, full)
    shutil.copytree(out, bare, ignore=shutil.ignore_patterns("samples.csv"))
    assert emit_plot_data(bare) == emit_plot_data(full)
    for name in SERIES_FILES + (MARKER_FILE,):
        assert (bare / name).read_bytes() == (full / name).read_bytes()


def test_plots_need_the_reports_excavation_work(smoke_rerun, tmp_path):
    _, out = smoke_rerun
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    report = json.loads((run_dir / "report.json").read_text())
    del report[EXCAVATION_KEY]
    (run_dir / "report.json").write_text(json.dumps(report))
    with pytest.raises(PlotDataError, match=EXCAVATION_KEY):
        emit_plot_data(run_dir)
