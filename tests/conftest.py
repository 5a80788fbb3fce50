"""Session-cached scenario runs shared by more than one test module."""

import pytest

from regolith.config import load_config
from regolith.runner import run
from regolith.scenarios import scenario_path


@pytest.fixture(scope="session")
def flat_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("flat")
    config = load_config(scenario_path("scenario1_flat"))
    report = run(config, out_dir=out)
    return report, out


@pytest.fixture(scope="session")
def sloped_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sloped")
    config = load_config(scenario_path("scenario1_sloped"))
    report = run(config, out_dir=out)
    return report, out


@pytest.fixture(scope="session")
def smoke_rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_b")
    config = load_config(scenario_path("scenario2_smoke"))
    report = run(config, out_dir=out)
    return report, out
