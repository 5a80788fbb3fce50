"""Reference bytes of the run artifacts.

The three CSVs of `scenario2_smoke`, `scenario1_flat` and
`scenario1_sloped` at their bundled seeds are part of the reference
behaviour: any change to their bytes must be deliberate.  A change that
alters them updates the digests below and says why the new numbers are at
least as correct.  Smoke has no truck; flat and sloped pin the haul,
locomotion and bed-dump paths.  Their runs are the session fixtures of
conftest.py (`smoke_rerun`, `flat_run`, `sloped_run`), shared with the
acceptance criteria.
"""

import csv
import hashlib
from collections import Counter
from itertools import groupby

import pytest

from regolith.config import load_config
from regolith.runner import run
from regolith.scenarios import scenario_path
from regolith.simulator import TELEMETRY_EVERY

SMOKE_SHA256 = {
    "cycles.csv":
        "4badcfa5cc35ae76b91b4d93f28fdc46d8725c89de4b6fa6066d93a3dc0ec9a7",
    "samples.csv":
        "b00c254391a74784a00b49ad7d7132d8c34bdbded8f4c705515366b85d30fadb",
    "events.csv":
        "9a1df799aeb1a7cec82565347eaa4ce0ccca84bb228754df485bac528ff9b8ee",
}

FLAT_SHA256 = {
    "cycles.csv":
        "421257a2c4a259a64fb9b3d31e51bbf85a2d470e5cc06b402962c07f2ec6a096",
    "samples.csv":
        "3ccc98f294bc6d069ec87f2064b921df6413183ebb0854a42e0bcf89d03395e2",
    "events.csv":
        "f542782ec171b0c564ed170aad928d626530967ff2ddc35079f5c93827f22c56",
}

SLOPED_SHA256 = {
    "cycles.csv":
        "7d931472466031384298c29aaab3771b05a07a7cc1e19e5d94f9f4d904b7f81b",
    "samples.csv":
        "a3dd75c71b9ac2166b68c182f58688901efd5e1e6123b87303f2fede0a4def44",
    "events.csv":
        "c3fe70383eca83ba0782f3dac32add0e8ef5d8d7692d6e2bcda264bc1b888d4e",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SMOKE_SHA256))
def test_smoke_artifact_bytes(smoke_rerun, name):
    _, out = smoke_rerun
    assert _sha256(out / name) == SMOKE_SHA256[name]


@pytest.mark.parametrize("name", sorted(FLAT_SHA256))
def test_flat_artifact_bytes(flat_run, name):
    _, out = flat_run
    assert _sha256(out / name) == FLAT_SHA256[name]


@pytest.mark.parametrize("name", sorted(SLOPED_SHA256))
def test_sloped_artifact_bytes(sloped_run, name):
    _, out = sloped_run
    assert _sha256(out / name) == SLOPED_SHA256[name]


def test_trailing_dig_span_shows_in_events_only(smoke_rerun):
    _, out = smoke_rerun
    with open(out / "events.csv") as fh:
        starts = Counter(row["event"].split(":", 1)[1]
                         for row in csv.DictReader(fh)
                         if row["event"].startswith("dig_start:"))
    with open(out / "cycles.csv") as fh:
        rows = Counter(row["machine"] for row in csv.DictReader(fh))
    assert starts and all(starts[m] == rows[m] + 1 for m in starts)


def test_events_list_dig_starts_that_close_no_cycle(tmp_path):
    # capped at 20 s, smoke's excavator has started digging but closed no
    # cycle
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"max_sim_time": 20.0})
    report = run(config, out_dir=tmp_path)
    assert report.cycles == {}
    assert report.sim_time == 20.0
    with open(tmp_path / "samples.csv") as fh:
        rows = list(csv.DictReader(fh))
    # the k-th telemetry step's rows are stamped with exactly its step
    # count times the timestep, not a sum of timesteps
    stamps = [t for t, _ in groupby(row["sim_time"] for row in rows)]
    assert [float(t) for t in stamps] == [
        (TELEMETRY_EVERY * k) * config.timestep
        for k in range(1, len(stamps) + 1)]
    first_dig = next(float(row["sim_time"]) for row in rows
                     if row["skill_state"] == "dig")
    with open(tmp_path / "events.csv") as fh:
        starts = [float(row["sim_time"]) for row in csv.DictReader(fh)
                  if row["event"] == "dig_start:excavator1"]
    assert starts and starts[0] < first_dig
