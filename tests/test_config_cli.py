"""Config validation and command-line interface behaviour."""

import ast
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
from regolith.machines import settle_on_terrain
from regolith import planner_proc
from regolith.bus import Bus, TcpBridgeClient, bridge, topic_for, wire
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


def edit(raw, path, value):
    """Sets the key at a dotted path such as `machines[0].rig.reach` in raw,
    making the objects on the way; a value of None deletes the key."""
    node = raw
    *parents, last = path.split(".")
    for part in parents:
        name, _, index = part.partition("[")
        node = node.setdefault(name, {})
        if index:
            node = node[int(index[:-1])]
    if value is None:
        del node[last]
    else:
        node[last] = value


@pytest.mark.parametrize("path, value", [
    ("machines[0].role", "crane"),
    ("soil.dilatancy_angle", 0.23),
    ("machines[0].spec.bucket_width", 0.6),
    ("machines[0].spec.arm", {"boom_length": 2.0}),
    ("machines[0].rig.bucket_widht", 0.6),
    ("machines[0].rig.target_load_kg", 300.0),
    ("machines[0].poses", [3.0, 3.0]),
    ("deadlock_windw", 5.0),
    ("terrain.fille", "x.txt"),
    ("terrain.generate.nxx", 20),
    ("terrain.generate.ridge.half_wdth", 2.5),
    ("target.dig_dept", 0.2),
    ("cells.cell_x", 2),
    ("planner.dig_depht", 0.1),
    ("planner.attack", 0.5),
    ("planner.period", 0.2),
    ("planner.leveling.ofset", 0.8),
    ("poses.offlaod_point", [10.0, 19.0]),
], ids=["role", "soil", "spec", "spec-arm", "rig", "rig-target-load", "machine",
        "top", "terrain", "generate", "ridge", "target", "cells", "planner",
        "planner-attack", "planner-period", "leveling", "poses"])
def test_unknown_value_rejected(tmp_path, capsys, path, value):
    """An unknown role, or a key that names nothing at any level of the
    config, fails validation with its path, and `regolith run` exits 3."""
    raw = minimal_raw(tree_file=str(TREE_DIR / "scenario1.bt"))
    edit(raw, path, value)
    with pytest.raises(ConfigError) as info:
        validate_config(raw, TREE_DIR)
    assert info.value.path == path
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config)]) == EXIT_ERROR


@pytest.mark.parametrize("path, value", [
    ("terrain.generate.nx", "60"),
    ("terrain.generate.nx", None),
    ("terrain.generate.ny", 1),
    ("terrain.generate.cell_size", 0),
    ("terrain.generate.origin", [1.0, 2.0, 3.0]),
    ("terrain.generate.amplitude", "0.1"),
    ("terrain.generate.wavelength", -5.0),
    ("terrain.generate.seed", -1),
    ("terrain.generate.base_height", True),
], ids=["nx-string", "nx-missing", "ny-one", "cell-size-zero",
        "origin-3d", "amplitude-string", "wavelength-negative",
        "seed-negative", "base-height-bool"])
def test_generate_value_rejected(tmp_path, capsys, path, value):
    """A `terrain.generate` value that `generate_heightfield` cannot
    take fails validation with its path, so `regolith run` exits 3 before
    the terrain is built."""
    raw = minimal_raw(tree_file=str(TREE_DIR / "scenario1.bt"))
    edit(raw, path, value)
    with pytest.raises(ConfigError) as info:
        validate_config(raw, TREE_DIR)
    assert info.value.path == path
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config)]) == EXIT_ERROR


@pytest.mark.parametrize("path, value", [
    ("planner.leveling_width", None),
    ("planner.leveling_target_height", None),
    ("planner.leveling.offset", 0.0),
    ("planner.leveling.offset", -0.8),
    ("planner.leveling.end_position", [13.5, 13.7]),
], ids=["no-width", "no-target-height", "zero-offset", "negative-offset",
        "no-length"])
def test_leveling_settings_are_checked_before_the_run(tmp_path, capsys, path,
                                                      value):
    """Leveling without its width or target height, with an offset that
    is not positive or with a run from its start to its start fails
    validation at its planner path, so `regolith run` exits 3 before the
    first step, with no artifacts."""
    raw = json.loads(scenario_path("scenario2_smoke").read_text())
    raw["tree_file"] = str(TREE_DIR / "scenario2.bt")
    edit(raw, path, value)
    with pytest.raises(ConfigError) as info:
        validate_config(raw, TREE_DIR)
    assert info.value.path == path
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) \
        == EXIT_ERROR
    assert not out.exists()


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


def test_loopback_planner_runs_on_the_simulators_bus():
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"max_sim_time": 1.0})
    shared = []

    def observer(sim, loop, status):
        shared.append(loop.runtime.bus is sim.bus)

    report = run(config, observer=observer)
    assert shared and all(shared)
    assert report.mean_tick_seconds > 0.0


def test_report_counts_mass_dumped_off_the_grid():
    config = load_config(scenario_path("scenario1_flat"))
    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    collector = TelemetryCollector(bus, config.timestep * TELEMETRY_EVERY)
    # backed up to the grid's west edge: the bed empties beyond it
    sim = Simulator(config, bus, collector.samples)
    truck = sim.machines["truck1"][1]
    truck.x, truck.y, truck.heading, truck.payload_kg = 0.3, 20.0, 0.0, 500.0
    settle_on_terrain(truck, sim.terrain)
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


def test_tcp_run_fails_fast_when_the_child_exits_before_connecting(
        monkeypatch):
    # the planner child is forked with planner_proc.serve as its target: a
    # target that exits with code 3 stands in for a child that fails before
    # connecting
    def exit_3(host, port):
        sys.exit(3)

    monkeypatch.setattr(planner_proc, "serve", exit_3)
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"transport": "tcp", "max_sim_time": 5.0})
    start = time.perf_counter()
    report = run(config)
    assert time.perf_counter() - start < 10.0
    assert report.error == ("BridgeError: planner child exited with code 3 "
                            "before connecting")
    assert not report.complete


def test_tcp_run_fails_fast_when_the_child_exits_after_some_syncs(
        tmp_path, monkeypatch):
    """A planner child that dies mid-run ends the run at once with a
    bridge error and the partial artifacts, not after the sync deadline."""
    def ack_three_syncs_then_exit(host, port):
        client = TcpBridgeClient(Bus(), host, port)
        client.wait_hello()
        for _ in range(3):
            client.wait_sync()
            client.ack({"status": "RUNNING", "cell_index": 0})
        sys.exit(3)

    monkeypatch.setattr(planner_proc, "serve", ack_three_syncs_then_exit)
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"transport": "tcp", "max_sim_time": 5.0})
    start = time.perf_counter()
    report = run(config, out_dir=tmp_path)
    assert time.perf_counter() - start < 10.0
    assert report.error.startswith("BridgeError: ")
    assert not report.complete
    assert report.sim_time == pytest.approx(0.4)    # the fourth tick failed
    samples = (tmp_path / "samples.csv").read_text().splitlines()
    assert samples[0].startswith("sim_time,")
    assert len(samples) > 1
    assert not any(line.startswith("sim_time,") for line in samples[1:])


def test_tcp_run_ends_after_one_sync_deadline_when_the_child_hangs(
        tmp_path, monkeypatch):
    """A planner child that stops answering is killed once its sync
    deadline passes, so the run ends in SYNC_TIMEOUT, not twice that, with
    an error naming the child, the sim time and the deadline."""
    def ack_two_syncs_then_hang(host, port):
        client = TcpBridgeClient(Bus(), host, port)
        client.wait_hello()
        for _ in range(2):
            client.wait_sync()
            client.ack({"status": "RUNNING", "cell_index": 0})
        time.sleep(60.0)

    monkeypatch.setattr(planner_proc, "serve", ack_two_syncs_then_hang)
    monkeypatch.setattr(bridge, "SYNC_TIMEOUT", 1.0)
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"transport": "tcp", "max_sim_time": 5.0})
    start = time.perf_counter()
    report = run(config, out_dir=tmp_path)
    assert time.perf_counter() - start < bridge.SYNC_TIMEOUT + 1.0
    assert report.error == ("BridgeError: planner child sent no ack for the "
                            "sync at sim time 0.30 s within SYNC_TIMEOUT = "
                            "1 s")
    assert not report.complete
    samples = (tmp_path / "samples.csv").read_text().splitlines()
    assert samples[0].startswith("sim_time,")
    assert len(samples) > 1


ARTIFACTS = ("cycles.csv", "samples.csv", "events.csv")


def _artifact_bytes(out) -> dict:
    return {name: (Path(out) / name).read_bytes() for name in ARTIFACTS}


def test_tcp_run_takes_its_overrides_from_the_config_alone(tmp_path):
    """The planner child gets the resolved config in the hello, so a TCP
    run needs neither the config file path nor the overrides again."""
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"transport": "tcp", "max_sim_time": 20.0})
    tcp = run(config, out_dir=tmp_path / "tcp")
    loopback = run(config, out_dir=tmp_path / "loopback", mode="loopback")
    assert tcp.error is None and loopback.error is None
    assert tcp.sim_time == loopback.sim_time
    assert _artifact_bytes(tmp_path / "tcp") \
        == _artifact_bytes(tmp_path / "loopback")


def _rows(path) -> list[str]:
    """A CSV's lines after its header."""
    return Path(path).read_text().splitlines()[1:]


def test_snapshot_resume_is_the_same_in_both_transports(smoke_rerun, tmp_path,
                                                          capsys):
    """Smoke stopped at 100 s and resumed, in either transport, ends where
    the unbroken run ends, and the halves' rows make up the unbroken rows."""
    unbroken, whole = smoke_rerun
    first = tmp_path / "A"
    assert main(["run", "--config", "scenario2_smoke", "--max-sim-time", "100",
                 "--out", str(first)]) == EXIT_INCOMPLETE
    resumed = {}
    for mode in ("loopback", "tcp"):
        out = tmp_path / f"resumed_{mode}"
        assert main(["run", "--config", "scenario2_smoke", "--mode", mode,
                     "--snapshot", str(first / "snapshot.json"),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["error"] is None
        assert report["sim_time"] == unbroken.sim_time == 297.5
        assert report["mass_closure_error"] < 1e-4
        for name in ARTIFACTS:
            assert _rows(first / name) + _rows(out / name) \
                == _rows(whole / name), name
        resumed[mode] = _artifact_bytes(out)
    capsys.readouterr()
    assert resumed["tcp"] == resumed["loopback"]


def test_a_capped_resume_continues_the_unbroken_rows(flat_run, tmp_path):
    _, whole = flat_run
    path = scenario_path("scenario1_flat")
    first = run(load_config(path, overrides={"max_sim_time": 301.0}),
                out_dir=tmp_path / "A")
    resumed = run(load_config(path, overrides={"max_sim_time": 200.0}),
                  out_dir=tmp_path / "B",
                  snapshot=tmp_path / "A" / "snapshot.json")
    assert resumed.error is None and not resumed.complete
    assert resumed.sim_time == pytest.approx(first.sim_time + 200.0)
    assert resumed.mass_closure_error < 1e-4
    for name in ARTIFACTS:
        head, tail = _rows(tmp_path / "A" / name), _rows(tmp_path / "B" / name)
        assert head + tail == _rows(whole / name)[:len(head) + len(tail)], \
            name


def test_a_resume_from_where_the_run_ended_adds_no_rows(tmp_path):
    # an idle excavator makes no progress: the run deadlocks at 5.2 s
    config = validate_config(minimal_raw(deadlock_window=5.0), TREE_DIR)
    first = run(config, out_dir=tmp_path / "A")
    assert first.deadlocked and len(_rows(tmp_path / "A" / "samples.csv"))
    resumed = run(config, out_dir=tmp_path / "B",
                  snapshot=tmp_path / "A" / "snapshot.json")
    assert resumed.deadlocked and resumed.sim_time == first.sim_time
    assert [_rows(tmp_path / "B" / name) for name in ARTIFACTS] == [[]] * 3


#: The layout of a version 1 snapshot.
V1_SNAPSHOT = json.dumps({"sim_time": 1.0, "cell_index": 0, "machines": {},
                          "terrain": {"nx": 1, "ny": 1, "cell_size": 1.0,
                                      "origin": [0.0, 0.0],
                                      "elevation": [[0.0]]}})


@pytest.mark.parametrize("text, seed", [
    (V1_SNAPSHOT, []), (None, ["--seed", "5"]), ("{version: 2", []),
], ids=["version-1", "another-seed", "not-json"])
def test_a_foreign_snapshot_is_refused_before_any_artifact(tmp_path, capsys,
                                                           text, seed):
    first = tmp_path / "A"
    assert main(["run", "--config", "scenario2_smoke", "--max-sim-time", "1",
                 "--out", str(first)]) == EXIT_INCOMPLETE
    snapshot = first / "snapshot.json"
    if text is not None:
        snapshot.write_text(text)
    capsys.readouterr()
    out = tmp_path / "B"
    assert main(["run", "--config", "scenario2_smoke", *seed,
                 "--snapshot", str(snapshot), "--out", str(out)]) \
        == EXIT_ERROR
    assert str(snapshot) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", REFERENCE_SCENARIOS)
def test_hello_carries_the_config_unchanged(name):
    config = load_config(scenario_path(name))
    raw, = wire.FrameDecoder().feed(wire.frame(config.raw))
    assert raw == config.raw
    again = validate_config(raw, config.base_dir, name=config.name)
    assert again.config_hash == config.config_hash


def test_planner_child_takes_no_config_option():
    with pytest.raises(SystemExit) as exc:
        planner_proc.main(["--config", "x", "--port", "1"])
    assert exc.value.code == 2


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


def _fresh_python(code: str) -> str:
    """What code prints in a new interpreter that imports this regolith."""
    src = str(Path(regolith.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_entry_points_import_without_scipy():
    code = ("import sys\n"
            "import regolith.cli, regolith.runner, regolith.planner_proc\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def test_importing_the_cli_loads_neither_numpy_nor_the_config():
    code = ("import sys, regolith.cli\n"
            "print(sorted({'numpy', 'regolith.config'} & set(sys.modules)))")
    assert _fresh_python(code) == "[]"


def test_runs_in_either_transport_load_no_numpy():
    code = ("import sys, tempfile\n"
            "from regolith.config import load_config\n"
            "from regolith.runner import run\n"
            "from regolith.scenarios import scenario_path\n"
            "for mode in ('loopback', 'tcp'):\n"
            "    config = load_config(scenario_path('scenario2_smoke'),\n"
            "        overrides={'max_sim_time': 40.0, 'transport': mode})\n"
            "    with tempfile.TemporaryDirectory() as out:\n"
            "        report = run(config, out_dir=out)\n"
            "    assert report.error is None, report.error\n"
            "print('numpy' in sys.modules)")
    assert _fresh_python(code) == "False"


def test_no_module_imports_numpy():
    package = Path(regolith.__file__).parent
    importers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(str(path.relative_to(package)))
    assert importers == []


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
