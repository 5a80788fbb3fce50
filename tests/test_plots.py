"""Plot series from a run's CSVs: `regolith plots` streams samples.csv."""

import tracemalloc

import pytest

from regolith.plots import PlotDataError, emit_plot_data

HEADER = "sim_time,machine,joint,torque_Nm,omega_rad_s,payload_kg,skill_state\n"
#: One digging machine with eight actuators; the first one's power is zero,
#: so its rows add no work.
JOINTS = "abcdefgh"
#: Traced peak allowed for `emit_plot_data` on a run of any length.  What
#: it keeps grows with the cycles, not with the sample rows.
PEAK_BOUND = 1_000_000


def write_run(out, n_times, times_per_cycle):
    """A run directory whose samples.csv holds n_times telemetry steps of
    the digging machine "e", a row per joint, and whose events start a dig
    every times_per_cycle steps.  Returns the times and the dig starts.

    The fields are one character long where they can be: tracemalloc's
    cost is per allocation, and one-character strings are not allocated,
    which more than halves the time of the traced million-row test."""
    times = [k / 10 for k in range(1, n_times + 1)]
    starts = times[::times_per_cycle]
    with open(out / "samples.csv", "w") as fh:
        fh.write(HEADER)
        for t in times:
            fh.writelines(f"{t!r},e,{joint},{0 if joint == 'a' else 4},5,0,"
                          f"dig\n" for joint in JOINTS)
    with open(out / "events.csv", "w") as fh:
        fh.write("sim_time,event\n")
        fh.writelines(f"{t!r},dig_start:e\n" for t in starts)
    with open(out / "cycles.csv", "w") as fh:
        fh.write("cycle,machine,loaded_kg,spilled_kg,duration_s,work_J,"
                 "dig_s,drive_s,dump_s,wait_s\n")
        fh.writelines(f"{k},e,50.0,0.0,1.0,1.0,1.0,0.0,0.0,0.0\n"
                      for k in range(1, len(starts)))
    return times, starts


def reference_work(times, starts):
    """Each span's positive dig work, summed row by row over the time list,
    with dt the median gap between the times."""
    gaps = sorted(b - a for a, b in zip(times, times[1:]))
    dt = gaps[len(gaps) // 2]
    work = [0.0] * (len(starts) - 1)
    for t in times:
        for k in range(len(work)):
            if starts[k] <= t < starts[k + 1]:
                for _ in JOINTS[1:]:
                    work[k] += 4.0 * 5.0 * dt
                break
    return work


def test_plots_hold_a_bounded_peak_on_a_million_sample_rows(tmp_path):
    times, starts = write_run(tmp_path, 125_000, 5_000)
    expected = reference_work(times, starts)
    del times
    tracemalloc.start()
    try:
        info = emit_plot_data(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info == {"rows": 24, "markers": 0, "machine": "e"}
    rows = (tmp_path / "work_excavation.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == expected
    assert peak < PEAK_BOUND, f"traced peak {peak} bytes"


def test_plots_reject_samples_out_of_time_order(tmp_path):
    write_run(tmp_path, 40, 10)
    path = tmp_path / "samples.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(lines[9:17]) + "".join(lines[1:9])
                    + "".join(lines[17:]))
    with pytest.raises(PlotDataError, match="not in time order"):
        emit_plot_data(tmp_path)
