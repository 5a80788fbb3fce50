"""Config validation and command-line interface behaviour."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import regolith
from regolith.cli import EXIT_ERROR, EXIT_INCOMPLETE, EXIT_OK, main
from regolith.config import ConfigError, load_config, validate_config
from regolith.bus import Bus, topic_for
from regolith.planner import SITE_ID
import regolith.runner
from regolith.runner import _finalize, _progressed, run
from regolith.simulator import TELEMETRY_EVERY, Simulator
from regolith.telemetry import TelemetryCollector
from regolith.scenarios import REFERENCE_SCENARIOS, scenario_path

BASE = Path(__file__).parent


def minimal_raw(**extra):
    raw = {
        "timestep": 0.01,
        "max_sim_time": 100.0,
        "terrain": {"generate": {"nx": 20, "ny": 20, "cell_size": 0.5,
                                 "base_height": 2.0, "amplitude": 0.0,
                                 "wavelength": 5.0}},
        "machines": [{"id": "m1", "role": "excavator", "pose": [3.0, 3.0, 0.0]}],
        "cells": {"area": [2.0, 2.0, 6.0, 6.0], "cells_x": 1, "cells_y": 1},
        "tree_file": "scenario1.bt",
    }
    raw.update(extra)
    return raw


TREE_DIR = scenario_path("scenario1_flat").parent


# -- validation --------------------------------------------------------------

def test_bundled_scenario_loads():
    cfg = load_config(scenario_path("scenario1_flat"))
    assert cfg.timestep == 0.01
    assert cfg.machine_ids() == ["excavator1", "truck1"]
    assert cfg.tree_file.exists()


def test_all_bundled_scenarios_validate():
    for name in REFERENCE_SCENARIOS:
        cfg = load_config(scenario_path(name))
        assert cfg.name == name
        cfg.build_terrain()
        cfg.build_soil()


def test_duplicate_machine_id_error_names_the_id():
    raw = minimal_raw()
    raw["machines"].append({"id": "m1", "role": "dumptruck",
                            "pose": [5.0, 5.0, 0.0]})
    with pytest.raises(ConfigError, match="m1"):
        validate_config(raw, TREE_DIR)


def test_missing_field_error_includes_path():
    raw = minimal_raw()
    del raw["timestep"]
    with pytest.raises(ConfigError, match="timestep"):
        validate_config(raw, TREE_DIR)


def test_unknown_role_rejected():
    raw = minimal_raw()
    raw["machines"][0]["role"] = "crane"
    with pytest.raises(ConfigError, match="role"):
        validate_config(raw, TREE_DIR)


def test_terrain_needs_exactly_one_source():
    raw = minimal_raw()
    raw["terrain"]["file"] = "x.txt"
    with pytest.raises(ConfigError, match="terrain"):
        validate_config(raw, TREE_DIR)


def test_missing_tree_file_rejected():
    raw = minimal_raw(tree_file="nope.bt")
    with pytest.raises(ConfigError, match="tree_file"):
        validate_config(raw, TREE_DIR)


def test_config_hash_stable_and_override_sensitive():
    a = load_config(scenario_path("scenario1_flat"))
    b = load_config(scenario_path("scenario1_flat"))
    assert a.config_hash == b.config_hash
    c = load_config(scenario_path("scenario1_flat"), overrides={"seed": 99})
    assert c.config_hash != a.config_hash
    assert c.seed == 99


def test_scenario_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        scenario_path("scenario_nine")


# -- CLI ---------------------------------------------------------------------

def test_cli_run_missing_config_is_error(capsys):
    assert main(["run", "--config", "/does/not/exist.json"]) == EXIT_ERROR


def test_cli_run_incomplete_and_plots(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", "--config", "scenario2_smoke",
                 "--max-sim-time", "20", "--out", str(out)])
    assert code == EXIT_INCOMPLETE
    report = json.loads((out / "report.json").read_text())
    assert report["complete"] is False
    for name in ("cycles.csv", "samples.csv", "events.csv", "snapshot.json"):
        assert (out / name).exists()
    capsys.readouterr()
    with pytest.warns(UserWarning, match="no cycles recorded"):
        assert main(["plots", "--in", str(out)]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    for name in ("mass.csv", "duration.csv", "work.csv",
                 "work_excavation.csv", "markers.csv"):
        assert (out / name).exists()
    assert info["rows"] >= 0


def test_run_rejects_observer_in_tcp_mode():
    path = scenario_path("scenario2_smoke")
    config = load_config(path, overrides={"transport": "tcp"})
    with pytest.raises(ValueError):
        run(config, config_path=path, observer=lambda sim, loop, status: None)


def test_run_reports_drops_on_both_buses():
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"max_sim_time": 5.0})
    flooded = []

    def observer(sim, loop, status):
        if not flooded:        # never polled: all but one envelope drop
            flooded.append(sim.bus.subscribe_category("telemetry", limit=1))
            flooded.append(
                loop.runtime.bus.subscribe_category("telemetry", limit=1))

    report = run(config, observer=observer)
    assert all(sub.dropped > 0 for sub in flooded)
    assert report.bus_dropped == sum(sub.dropped for sub in flooded)
    assert report.to_dict()["bus_dropped"] == report.bus_dropped


def test_report_counts_mass_dumped_off_the_grid():
    config = load_config(scenario_path("scenario1_flat"))
    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    collector = TelemetryCollector(bus, config.timestep * TELEMETRY_EVERY)
    # backed up to the grid's west edge: the bed empties beyond it
    sim = Simulator(config, bus, collector.samples, machine_states={
        "truck1": {"x": 0.3, "y": 20.0, "heading": 0.0, "payload_kg": 500.0}})
    bus.publish(topic_for("truck1", "target", "beddump"),
                {"kind": "command", "action": "beddump", "id": 1}, 0.0)
    sim.step()
    while sim.runners["truck1"].action is not None:
        assert sim.sim_time < 30.0
        sim.step()
    collector.drain(sim.sim_time)
    assert collector.events[-1].state == "Succeeded"
    ledger = sim.ledger
    assert sim.machines["truck1"][1].payload_kg == 0.0
    assert ledger.boundary_lost_kg == pytest.approx(500.0, rel=1e-12)
    assert ledger.boundary_lost_kg == ledger.dumped_kg
    report = _finalize(config, sim, collector, complete=False,
                       deadlocked=False, error=None, mean_tick=0.0,
                       cell_switches=[], bus_errors=0, bus_dropped=0)
    assert report.to_dict()["boundary_lost_kg"] == ledger.boundary_lost_kg


def test_wall_time_covers_the_artifacts(tmp_path, monkeypatch):
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"max_sim_time": 5.0})
    write_cycles_csv = regolith.runner.write_cycles_csv

    def slow_write(path, records):
        time.sleep(0.2)
        write_cycles_csv(path, records)

    monkeypatch.setattr(regolith.runner, "write_cycles_csv", slow_write)
    report = run(config, out_dir=tmp_path)
    assert report.wall_time >= 0.2
    assert report.realtime_factor == report.sim_time / report.wall_time
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["wall_time"] == report.wall_time


def test_tcp_run_fails_fast_when_the_child_exits_before_connecting():
    path = scenario_path("scenario2_smoke")
    # the child loads the file without the overrides, so its config hash
    # differs and it exits with code 3 before it connects
    config = load_config(path, overrides={"transport": "tcp",
                                          "max_sim_time": 5.0})
    start = time.perf_counter()
    report = run(config, config_path=path)
    assert time.perf_counter() - start < 10.0
    assert report.error == ("BridgeError: planner child exited with code 3 "
                            "before connecting")
    assert not report.complete


def test_cli_plots_missing_dir_is_error(tmp_path):
    assert main(["plots", "--in", str(tmp_path / "void")]) == EXIT_ERROR


def test_cli_validate_bt_ok(capsys):
    tree = TREE_DIR / "scenario1.bt"
    assert main(["validate-bt", "--file", str(tree)]) == EXIT_OK
    assert "ParallelSuccessOnFirst" in capsys.readouterr().out


def test_cli_validate_bt_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.bt"
    bad.write_text("Root: Sequence\n\t\t\tOops: Nonsense\n")
    assert main(["validate-bt", "--file", str(bad)]) == EXIT_ERROR
    assert main(["validate-bt", "--file", str(tmp_path / "none.bt")]) \
        == EXIT_ERROR


def test_entry_points_import_without_scipy():
    src = str(Path(regolith.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import regolith.cli, regolith.runner, regolith.planner_proc\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_progress_check_matches_rounded_tuple_compare():
    """`_progressed` against the full rounding of every signature entry,
    on random walks that cross rounding boundaries, repeat values and
    carry NaN, signed zeros and infinities."""
    rng = random.Random(23)
    digits = (6, 6, 0) + (3, 3, 3) * 2

    def rounded(sig):
        return tuple(round(v, nd) for v, nd in zip(sig, digits))

    specials = (math.nan, 0.0, -0.0, math.inf, -math.inf)
    for _ in range(200):
        sig = [rng.uniform(0, 1e4), rng.uniform(0, 1e4), rng.randrange(5)]
        sig += [rng.uniform(-50, 50) for _ in range(6)]
        last_raw = last_rounded = None
        for _ in range(100):
            k = rng.randrange(len(sig))
            step = rng.choice((0.0, 4e-7, 6e-7, 4e-4, 6e-4, 1e-3, -5e-4))
            if k == 2:
                sig[k] += rng.choice((0, 0, 1))
            elif rng.random() < 0.03:
                sig[k] = rng.choice(specials)
            elif math.isfinite(sig[k]):
                sig[k] += step
            else:
                sig[k] = rng.uniform(-1, 1)
            now = tuple(sig)
            expected = rounded(now) != last_rounded
            assert _progressed(last_raw, now, digits) == expected, now
            if expected:
                last_raw, last_rounded = now, rounded(now)
