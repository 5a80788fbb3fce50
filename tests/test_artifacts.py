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

import pytest

SMOKE_SHA256 = {
    "cycles.csv":
        "35a66360beade62682fe77a294acda861d7fa45d05826ecf8db72b8b93f7d8e4",
    "samples.csv":
        "bff6c7914f92ba1aceb4569d56f2dab9856e95aad7a140bf253f0d05b4fdea73",
    "events.csv":
        "ec91d8441cdbc7a28fce2b4bba3090754f75ec1d162149d680ef4417760ade18",
}

FLAT_SHA256 = {
    "cycles.csv":
        "c046d751aac87c22e970db0e15ae4f3f0f448f41cb88b6b412ca8447b8bf4c40",
    "samples.csv":
        "9101bcbc411823548daac0c4e2c0618e178709a3d7e2df9bf6b709edd0c616b7",
    "events.csv":
        "b9761396d049983b6fb6e10cdbc06f66e5e0119620ac0569b15623055790db95",
}

SLOPED_SHA256 = {
    "cycles.csv":
        "a5d4366308b78a69e6fad8724961f61ef640fb4d8cad78363622b83e842863bc",
    "samples.csv":
        "b6d2a79f79db705e2bca84b195e30b60200a85f4a8aeb4fe7532233774833920",
    "events.csv":
        "0f158100a944911d6905429141cc92a7ddb4b6e5accec54355d423c4bd1e7e57",
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
