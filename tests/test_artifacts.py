"""Reference bytes of the run artifacts.

The three CSVs of `scenario2_smoke` at its bundled seed are part of the
reference behaviour: any change to their bytes must be deliberate.  A
change that alters them updates the digests below and says why the new
numbers are at least as correct.
"""

import csv
import hashlib
from collections import Counter

import pytest

from regolith.config import load_config
from regolith.runner import run
from regolith.scenarios import scenario_path

SMOKE_SHA256 = {
    "cycles.csv":
        "35a66360beade62682fe77a294acda861d7fa45d05826ecf8db72b8b93f7d8e4",
    "samples.csv":
        "bff6c7914f92ba1aceb4569d56f2dab9856e95aad7a140bf253f0d05b4fdea73",
    "events.csv":
        "ec91d8441cdbc7a28fce2b4bba3090754f75ec1d162149d680ef4417760ade18",
}


@pytest.fixture(scope="module")
def smoke_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_ref")
    report = run(load_config(scenario_path("scenario2_smoke")), out_dir=out)
    assert report.complete and report.error is None
    return out


@pytest.mark.parametrize("name", sorted(SMOKE_SHA256))
def test_smoke_artifact_bytes(smoke_out, name):
    digest = hashlib.sha256((smoke_out / name).read_bytes()).hexdigest()
    assert digest == SMOKE_SHA256[name]


def test_trailing_dig_span_shows_in_events_only(smoke_out):
    with open(smoke_out / "events.csv") as fh:
        starts = Counter(row["event"].split(":", 1)[1]
                         for row in csv.DictReader(fh)
                         if row["event"].startswith("dig_start:"))
    with open(smoke_out / "cycles.csv") as fh:
        rows = Counter(row["machine"] for row in csv.DictReader(fh))
    assert starts and all(starts[m] == rows[m] + 1 for m in starts)
