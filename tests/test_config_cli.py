"""Config validation and command-line interface behaviour."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regolith
from regolith.cli import EXIT_ERROR, EXIT_INCOMPLETE, EXIT_OK, main
from regolith.config import ConfigError, load_config, validate_config
from regolith.runner import run
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
